module Obs = Carlos_obs.Obs

type hop = {
  hop_id : int;
  hop_annot : string;
  hop_src : int;
  hop_dst : int;
  hop_send_ts : float;
  hop_deliver_ts : float;
}

type critical_path = {
  cp_start : float;
  cp_end : float;
  cp_hops : hop list;
  cp_local : (int * float) list;
  cp_wire : float;
  cp_annot_hops : (string * int) list;
}

let arg_int e name =
  List.find_map
    (function n, Obs.Int i when n = name -> Some i | _ -> None)
    e.Obs.args

let arg_str e name =
  List.find_map
    (function n, Obs.Str s when n = name -> Some s | _ -> None)
    e.Obs.args

(* ------------------------------------------------------------------ *)
(* Critical path *)

let critical_path events =
  (* Per-node deliveries (ts ascending) and per-id sends (ts ascending;
     forwarding re-sends share the id, so keep all hops). *)
  let delivers : (int, Obs.event list ref) Hashtbl.t = Hashtbl.create 16 in
  let sends : (int, Obs.event list ref) Hashtbl.t = Hashtbl.create 256 in
  let last_ev = ref None in
  List.iter
    (fun (e : Obs.event) ->
      (* Seed the backward walk from the last event attributed to a real
         node: global-node bookkeeping (a timer-driven delayed-ack flush,
         say) can outlast the application's final message and has no
         delivery chain behind it. *)
      (if e.Obs.node >= 0 then
         match !last_ev with
         | Some (l : Obs.event) when l.ts >= e.ts -> ()
         | _ -> last_ev := Some e);
      let push tbl k =
        match Hashtbl.find_opt tbl k with
        | Some r -> r := e :: !r
        | None -> Hashtbl.add tbl k (ref [ e ])
      in
      match e.name with
      | "deliver" -> push delivers e.node
      | "send" -> (
        match arg_int e "id" with Some id -> push sends id | None -> ())
      | _ -> ())
    events;
  match !last_ev with
  | None -> None
  | Some last ->
    (* Lists were built newest-first: exactly the order the backward walk
       scans them in. *)
    let find_latest l pred ts =
      match Hashtbl.find_opt l pred with
      | None -> None
      | Some r -> List.find_opt (fun (e : Obs.event) -> e.ts <= ts) !r
    in
    let cp_end = last.Obs.ts in
    let hops = ref [] in
    let local : (int, float) Hashtbl.t = Hashtbl.create 8 in
    let add_local node dt =
      Hashtbl.replace local node
        (dt +. Option.value ~default:0. (Hashtbl.find_opt local node))
    in
    let wire = ref 0. in
    let cur_node = ref last.Obs.node and cur_ts = ref last.Obs.ts in
    let continue = ref true in
    while !continue do
      match find_latest delivers !cur_node !cur_ts with
      | None ->
        (* Head of the chain: local compute from time 0. *)
        add_local !cur_node !cur_ts;
        continue := false
      | Some d -> (
        let id = Option.value ~default:(-1) (arg_int d "id") in
        match
          find_latest sends id
            (d.Obs.ts -. 1e-12 (* strictly before delivery *))
        with
        | None ->
          add_local !cur_node !cur_ts;
          continue := false
        | Some s ->
          add_local !cur_node (!cur_ts -. d.Obs.ts);
          wire := !wire +. (d.Obs.ts -. s.Obs.ts);
          hops :=
            {
              hop_id = id;
              hop_annot = Option.value ~default:"?" (arg_str d "annot");
              hop_src = s.Obs.node;
              hop_dst = d.Obs.node;
              hop_send_ts = s.Obs.ts;
              hop_deliver_ts = d.Obs.ts;
            }
            :: !hops;
          cur_node := s.Obs.node;
          cur_ts := s.Obs.ts)
    done;
    let cp_hops = !hops in
    let annots = Hashtbl.create 8 in
    List.iter
      (fun h ->
        Hashtbl.replace annots h.hop_annot
          (1 + Option.value ~default:0 (Hashtbl.find_opt annots h.hop_annot)))
      cp_hops;
    Some
      {
        cp_start = 0.;
        cp_end;
        cp_hops;
        cp_local =
          List.sort compare (Hashtbl.fold (fun k v l -> (k, v) :: l) local []);
        cp_wire = !wire;
        cp_annot_hops =
          List.sort compare (Hashtbl.fold (fun k v l -> (k, v) :: l) annots []);
      }

let analyse obs = critical_path (Obs.events obs)

(* ------------------------------------------------------------------ *)

let pp_ms ppf s = Format.fprintf ppf "%.3f ms" (s *. 1e3)

let pp ppf = function
  | None -> Format.fprintf ppf "critical path: no deliveries in trace@."
  | Some p ->
    Format.fprintf ppf "critical path: %a end-to-end, %d hops, wire %a@."
      pp_ms (p.cp_end -. p.cp_start)
      (List.length p.cp_hops)
      pp_ms p.cp_wire;
    List.iter
      (fun (a, n) -> Format.fprintf ppf "  hops %-10s %d@." a n)
      p.cp_annot_hops;
    List.iter
      (fun (node, dt) ->
        Format.fprintf ppf "  local n%-8d %a@." node pp_ms dt)
      p.cp_local;
    let shown = min 12 (List.length p.cp_hops) in
    if shown > 0 then begin
      Format.fprintf ppf "  last %d hops (causal order):@." shown;
      let tail =
        let rec drop n l = if n <= 0 then l else drop (n - 1) (List.tl l) in
        drop (List.length p.cp_hops - shown) p.cp_hops
      in
      List.iter
        (fun h ->
          Format.fprintf ppf "    msg#%-5d %-10s n%d -> n%d at %a@." h.hop_id
            h.hop_annot h.hop_src h.hop_dst pp_ms h.hop_send_ts)
        tail
    end
