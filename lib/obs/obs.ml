(* Typed observability layer: metrics registry + event/span trace with a
   Chrome trace_event exporter.  See obs.mli for the model. *)

type layer = Sim | Net | Vm | Dsm | Carlos | App

let layer_name = function
  | Sim -> "sim"
  | Net -> "net"
  | Vm -> "vm"
  | Dsm -> "dsm"
  | Carlos -> "carlos"
  | App -> "app"

let layer_index = function
  | Sim -> 0
  | Net -> 1
  | Vm -> 2
  | Dsm -> 3
  | Carlos -> 4
  | App -> 5

let global_node = -1

(* Pseudo-process used by Profile.to_obs for host-time slices. *)
let profile_node = -2

type key = { node : int; layer : layer; name : string }

let compare_key a b =
  match compare a.node b.node with
  | 0 -> (
    match compare (layer_index a.layer) (layer_index b.layer) with
    | 0 -> String.compare a.name b.name
    | c -> c)
  | c -> c

(* ------------------------------------------------------------------ *)
(* Histograms *)

module Hist = struct
  let bucket_count = 64

  type t = {
    mutable count : int;
    mutable sum : float;
    mutable min : float;
    mutable max : float;
    buckets : int array;
  }

  let create () =
    {
      count = 0;
      sum = 0.0;
      min = infinity;
      max = neg_infinity;
      buckets = Array.make bucket_count 0;
    }

  (* Power-of-two buckets: an observation v with v = m * 2^e (0.5 <= m < 1)
     lands in bucket e + 40 (clamped), covering ~1e-12 .. ~1e7. *)
  let bucket_of v =
    if v <= 0.0 then 0
    else
      let (_, e) = Float.frexp v in
      Int.max 0 (Int.min (bucket_count - 1) (e + 40))

  let observe h v =
    h.count <- h.count + 1;
    h.sum <- h.sum +. v;
    if v < h.min then h.min <- v;
    if v > h.max then h.max <- v;
    let b = bucket_of v in
    h.buckets.(b) <- h.buckets.(b) + 1

  type snap = {
    count : int;
    sum : float;
    min : float;
    max : float;
    buckets : int array;
  }

  let snap (h : t) =
    {
      count = h.count;
      sum = h.sum;
      min = h.min;
      max = h.max;
      buckets = Array.copy h.buckets;
    }

  let empty =
    {
      count = 0;
      sum = 0.0;
      min = infinity;
      max = neg_infinity;
      buckets = Array.make bucket_count 0;
    }

  let merge a b =
    {
      count = a.count + b.count;
      sum = a.sum +. b.sum;
      min = Float.min a.min b.min;
      max = Float.max a.max b.max;
      buckets = Array.init bucket_count (fun i -> a.buckets.(i) + b.buckets.(i));
    }

  let mean s = if s.count = 0 then 0.0 else s.sum /. float_of_int s.count

  (* Lower/upper bound of bucket [b], clamped to the observed extrema so
     degenerate histograms (all values equal, or a single occupied bucket
     whose edges overshoot) interpolate to exact answers. *)
  let bucket_lo s b = if b = 0 then s.min else Float.max (Float.ldexp 1.0 (b - 41)) s.min

  let bucket_hi s b = Float.min (Float.ldexp 1.0 (b - 40)) s.max

  (* Degenerate snaps have one defined answer: empty (count <= 0)
     histograms return 0.0 for every p; a NaN p propagates. *)
  let percentile s p =
    if Float.is_nan p then Float.nan
    else if s.count <= 0 then 0.0
    else if p <= 0.0 then s.min
    else if p >= 100.0 then s.max
    else begin
      let rank = p /. 100.0 *. float_of_int s.count in
      let result = ref s.max in
      (try
         let cum = ref 0 in
         for b = 0 to bucket_count - 1 do
           let n = s.buckets.(b) in
           if n > 0 then begin
             let cum' = !cum + n in
             if float_of_int cum' >= rank then begin
               let lo = bucket_lo s b and hi = bucket_hi s b in
               let lo = Float.min lo hi in
               let frac = (rank -. float_of_int !cum) /. float_of_int n in
               result := lo +. ((hi -. lo) *. frac);
               raise Exit
             end;
             cum := cum'
           end
         done
       with Exit -> ());
      !result
    end
end

(* ------------------------------------------------------------------ *)
(* Instruments and registry *)

type counter = { mutable c_v : int }

type gauge = { mutable g_v : float }

(* Time series: explicit (virtual-time, value) samples kept in insertion
   order (newest first internally). *)
type series = { mutable s_rev : (float * float) list }

type instrument =
  | I_counter of counter
  | I_gauge of gauge
  | I_hist of Hist.t
  | I_series of series

type arg = Str of string | Int of int | F of float

type phase =
  | Instant
  | Complete of float
  | Flow_start of int
  | Flow_step of int
  | Flow_finish of int

type event = {
  ts : float;
  node : int;
  layer : layer;
  name : string;
  phase : phase;
  args : (string * arg) list;
}

type t = {
  tbl : (key, instrument) Hashtbl.t;
  clock : unit -> float;
  mutable on : bool;
  mutable events_rev : event list;
  mutable flow_ids : int;
}

let create ?(clock = fun () -> 0.0) () =
  { tbl = Hashtbl.create 64; clock; on = false; events_rev = []; flow_ids = 0 }

let now t = t.clock ()

let kind_error (key : key) =
  invalid_arg
    (Printf.sprintf "Obs: %s/%s/n%d already registered with another kind"
       (layer_name key.layer) key.name key.node)

let counter t ~node ~layer name =
  let key = { node; layer; name } in
  match Hashtbl.find_opt t.tbl key with
  | Some (I_counter c) -> c
  | Some _ -> kind_error key
  | None ->
    let c = { c_v = 0 } in
    Hashtbl.replace t.tbl key (I_counter c);
    c

let gauge t ~node ~layer name =
  let key = { node; layer; name } in
  match Hashtbl.find_opt t.tbl key with
  | Some (I_gauge g) -> g
  | Some _ -> kind_error key
  | None ->
    let g = { g_v = 0.0 } in
    Hashtbl.replace t.tbl key (I_gauge g);
    g

let histogram t ~node ~layer name =
  let key = { node; layer; name } in
  match Hashtbl.find_opt t.tbl key with
  | Some (I_hist h) -> h
  | Some _ -> kind_error key
  | None ->
    let h = Hist.create () in
    Hashtbl.replace t.tbl key (I_hist h);
    h

let series t ~node ~layer name =
  let key = { node; layer; name } in
  match Hashtbl.find_opt t.tbl key with
  | Some (I_series s) -> s
  | Some _ -> kind_error key
  | None ->
    let s = { s_rev = [] } in
    Hashtbl.replace t.tbl key (I_series s);
    s

let series_observe s ~ts v = s.s_rev <- (ts, v) :: s.s_rev

let inc c = c.c_v <- c.c_v + 1

let add c n = c.c_v <- c.c_v + n

let value c = c.c_v

let add_gauge g v = g.g_v <- g.g_v +. v

let gauge_value g = g.g_v

(* ------------------------------------------------------------------ *)
(* Queries *)

let counter_value t ~node ~layer name =
  match Hashtbl.find_opt t.tbl { node; layer; name } with
  | Some (I_counter c) -> c.c_v
  | Some _ | None -> 0

let sum_counters t ~layer name =
  Hashtbl.fold
    (fun (key : key) inst acc ->
      match inst with
      | I_counter c when key.layer = layer && String.equal key.name name ->
        acc + c.c_v
      | _ -> acc)
    t.tbl 0

let sum_gauges t ~layer name =
  (* Sum in key order: float addition order must be deterministic. *)
  let vs =
    Hashtbl.fold
      (fun (key : key) inst acc ->
        match inst with
        | I_gauge g when key.layer = layer && String.equal key.name name ->
          (key, g.g_v) :: acc
        | _ -> acc)
      t.tbl []
  in
  List.fold_left
    (fun acc (_, v) -> acc +. v)
    0.0
    (List.sort (fun (a, _) (b, _) -> compare_key a b) vs)

(* ------------------------------------------------------------------ *)
(* Snapshots *)

type value_v =
  | Counter_v of int
  | Gauge_v of float
  | Hist_v of Hist.snap
  | Series_v of (float * float) array

let series_samples (s : series) = Array.of_list (List.rev s.s_rev)

type snapshot = (key * value_v) list (* sorted by compare_key *)

let snapshot t =
  Hashtbl.fold
    (fun (key : key) inst acc ->
      let v =
        match inst with
        | I_counter c -> Counter_v c.c_v
        | I_gauge g -> Gauge_v g.g_v
        | I_hist h -> Hist_v (Hist.snap h)
        | I_series s -> Series_v (series_samples s)
      in
      (key, v) :: acc)
    t.tbl []
  |> List.sort (fun (a, _) (b, _) -> compare_key a b)

let find (snap : snapshot) ~node ~layer name =
  List.find_map
    (fun ((k : key), v) ->
      if k.node = node && k.layer = layer && String.equal k.name name then
        Some v
      else None)
    snap

let bindings snap = snap

(* ------------------------------------------------------------------ *)
(* Tracing *)

let set_tracing t b = t.on <- b

let tracing t = t.on

let next_flow_id t =
  t.flow_ids <- t.flow_ids + 1;
  t.flow_ids

let event ?(args = []) t ~node ~layer name =
  if t.on then
    t.events_rev <-
      { ts = t.clock (); node; layer; name; phase = Instant; args }
      :: t.events_rev

let complete_at ?(args = []) t ~ts ~duration ~node ~layer name =
  if t.on then
    t.events_rev <-
      { ts; node; layer; name; phase = Complete duration; args }
      :: t.events_rev

let flow ?(args = []) t ~phase ~node ~layer name =
  if t.on then
    t.events_rev <- { ts = t.clock (); node; layer; name; phase; args } :: t.events_rev

let flow_start ?args t ~id = flow ?args t ~phase:(Flow_start id)

let flow_step ?args t ~id = flow ?args t ~phase:(Flow_step id)

let flow_finish ?args t ~id = flow ?args t ~phase:(Flow_finish id)

let span ?(args = []) t ~node ~layer name f =
  if not t.on then f ()
  else begin
    let start = t.clock () in
    let finish () =
      complete_at ~args t ~ts:start
        ~duration:(t.clock () -. start)
        ~node ~layer name
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      finish ();
      Printexc.raise_with_backtrace e bt
  end

let events t = List.rev t.events_rev

(* ------------------------------------------------------------------ *)
(* Exporters *)

let json_string b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

(* Fixed float rendering so identical runs dump identical bytes; JSON has
   no infinities, so clamp empty-histogram extrema to 0. *)
let json_float b f =
  let f = if Float.is_nan f || f = infinity || f = neg_infinity then 0.0 else f in
  Buffer.add_string b (Printf.sprintf "%.9g" f)

let json_arg b = function
  | Str s -> json_string b s
  | Int i -> Buffer.add_string b (string_of_int i)
  | F f -> json_float b f

let json_args b args =
  Buffer.add_char b '{';
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char b ',';
      json_string b k;
      Buffer.add_char b ':';
      json_arg b v)
    args;
  Buffer.add_char b '}'

(* One Chrome trace_event object.  Nodes map to pids (global_node as a
   "cluster" pseudo-process), layers to tids. *)
let event_json b e =
  Buffer.add_string b "{\"name\":";
  json_string b e.name;
  Buffer.add_string b ",\"cat\":";
  json_string b (layer_name e.layer);
  (match e.phase with
  | Instant -> Buffer.add_string b ",\"ph\":\"i\",\"s\":\"t\""
  | Complete d ->
    Buffer.add_string b ",\"ph\":\"X\",\"dur\":";
    json_float b (d *. 1e6)
  | Flow_start id -> Buffer.add_string b (Printf.sprintf ",\"ph\":\"s\",\"id\":%d" id)
  | Flow_step id -> Buffer.add_string b (Printf.sprintf ",\"ph\":\"t\",\"id\":%d" id)
  | Flow_finish id ->
    (* bp:"e" binds the arrow head to the enclosing slice. *)
    Buffer.add_string b (Printf.sprintf ",\"ph\":\"f\",\"bp\":\"e\",\"id\":%d" id));
  Buffer.add_string b ",\"ts\":";
  json_float b (e.ts *. 1e6);
  Buffer.add_string b (Printf.sprintf ",\"pid\":%d,\"tid\":%d" e.node
                         (layer_index e.layer));
  if e.args <> [] then begin
    Buffer.add_string b ",\"args\":";
    json_args b e.args
  end;
  Buffer.add_char b '}'

let metadata_json b ~pid ~name =
  Buffer.add_string b
    (Printf.sprintf "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":0,\"args\":{\"name\":"
       pid);
  json_string b name;
  Buffer.add_string b "}}"

let pp_chrome_trace ppf t =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  let evs = events t in
  (* Name the processes that appear: nodes and the cluster pseudo-node. *)
  let nodes =
    List.sort_uniq compare (List.map (fun e -> e.node) evs)
  in
  let first = ref true in
  let emit emit_fn =
    if !first then first := false else Buffer.add_char b ',';
    Buffer.add_char b '\n';
    emit_fn ()
  in
  List.iter
    (fun n ->
      emit (fun () ->
          metadata_json b ~pid:n
            ~name:
              (if n = global_node then "cluster"
               else if n = profile_node then "host-profile"
               else Printf.sprintf "node %d" n)))
    nodes;
  List.iter (fun e -> emit (fun () -> event_json b e)) evs;
  Buffer.add_string b "\n]}\n";
  Format.pp_print_string ppf (Buffer.contents b)

let key_json b (k : key) =
  Buffer.add_string b (Printf.sprintf "{\"node\":%d,\"layer\":" k.node);
  json_string b (layer_name k.layer);
  Buffer.add_string b ",\"name\":";
  json_string b k.name

let pp_metrics_jsonl ppf (snap : snapshot) =
  List.iter
    (fun ((k : key), v) ->
      let b = Buffer.create 128 in
      key_json b k;
      (match v with
      | Counter_v n ->
        Buffer.add_string b (Printf.sprintf ",\"type\":\"counter\",\"value\":%d" n)
      | Gauge_v g ->
        Buffer.add_string b ",\"type\":\"gauge\",\"value\":";
        json_float b g
      | Hist_v h ->
        Buffer.add_string b
          (Printf.sprintf ",\"type\":\"histogram\",\"count\":%d,\"sum\":"
             h.Hist.count);
        json_float b h.Hist.sum;
        Buffer.add_string b ",\"min\":";
        json_float b h.Hist.min;
        Buffer.add_string b ",\"max\":";
        json_float b h.Hist.max;
        Buffer.add_string b ",\"mean\":";
        json_float b (Hist.mean h)
      | Series_v samples ->
        Buffer.add_string b
          (Printf.sprintf ",\"type\":\"series\",\"count\":%d,\"samples\":["
             (Array.length samples));
        Array.iteri
          (fun i (ts, v) ->
            if i > 0 then Buffer.add_char b ',';
            Buffer.add_char b '[';
            json_float b ts;
            Buffer.add_char b ',';
            json_float b v;
            Buffer.add_char b ']')
          samples;
        Buffer.add_char b ']');
      Buffer.add_char b '}';
      Format.pp_print_string ppf (Buffer.contents b);
      Format.pp_print_string ppf "\n")
    snap

let pp_metrics ppf (snap : snapshot) =
  List.iter
    (fun ((k : key), v) ->
      let node =
        if k.node = global_node then "  *" else Printf.sprintf "n%2d" k.node
      in
      Format.fprintf ppf "%s %-6s %-28s " node (layer_name k.layer) k.name;
      (match v with
      | Counter_v n -> Format.fprintf ppf "%d" n
      | Gauge_v g -> Format.fprintf ppf "%.6f" g
      | Hist_v h ->
        Format.fprintf ppf "n=%d mean=%.6f p50=%.6f p95=%.6f" h.Hist.count
          (Hist.mean h)
          (Hist.percentile h 50.0)
          (Hist.percentile h 95.0)
      | Series_v samples ->
        let n = Array.length samples in
        if n = 0 then Format.fprintf ppf "series n=0"
        else
          let t0, v0 = samples.(0) and t1, v1 = samples.(n - 1) in
          Format.fprintf ppf "series n=%d %.3f:%.0f .. %.3f:%.0f" n t0 v0 t1
            v1);
      Format.fprintf ppf "@.")
    snap
