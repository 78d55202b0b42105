(* Online consistency auditor: shadow state + invariant checks over the
   hooks fired by Node and Lrc.  See audit.mli for the invariant list. *)

module Obs = Carlos_obs.Obs
module Vc = Carlos_dsm.Vc
module Lrc = Carlos_dsm.Lrc_backend
module Central = Carlos_dsm.Central_backend
module Seq = Carlos_dsm.Seq_backend

type annotation = Release | Release_nt | Request | None_

let annotation_name = function
  | Release -> "RELEASE"
  | Release_nt -> "RELEASE_NT"
  | Request -> "REQUEST"
  | None_ -> "NONE"

type violation = {
  check : string;
  node : int;
  time : float;
  trace_id : int option;
  detail : string;
}

type accepted = {
  acc_trace_id : int option;
  acc_annotation : annotation;
  acc_origin : int;
  acc_required_vc : Vc.t option;
}

(* Interval metadata, registered globally at close time (the simulation is
   one process, and an interval is always closed before any other node can
   learn of it). *)
type ivinfo = { iv_vc : Vc.t; iv_pages : int list }

type t = {
  nodes : int;
  obs : Obs.t;
  violations_c : Obs.counter;
  mutable violations_rev : violation list;
  (* Join of every clock observation per node: monotonicity reference. *)
  last_vc : Vc.t array;
  (* knows.(n).(p): mirror of node n's [peer_vc.(p)] (exact, because every
     Lrc mutation of peer_vc routes through note_peer_vc's hook). *)
  knows : Vc.t array array;
  intervals : (int * int, ivinfo) Hashtbl.t; (* (creator, index) *)
  (* Write notices processed: (node, page, creator, index). *)
  handled : (int * int * int * int, unit) Hashtbl.t;
  (* Per (node, page): join of the timestamps of everything applied. *)
  page_seen : (int * int, Vc.t) Hashtbl.t;
  (* Per (node, page, creator): highest interval index applied. *)
  page_applied : (int * int * int, int) Hashtbl.t;
  (* (trace_id, node) pairs where accepting is forbidden. *)
  relay : (int * int, unit) Hashtbl.t;
  (* Central backend: the one home node seen, the version sequence per
     page at home (must advance by exactly one per applied flush), and
     the last version each node fetched per page (must be monotone). *)
  mutable central_home : int option;
  central_version : (int, int) Hashtbl.t; (* page -> home version *)
  central_fetched : (int * int, int) Hashtbl.t; (* (node, page) *)
  (* Seq backend: last stamp issued by the sequencer (must be contiguous)
     and the highest stamp applied per node (must advance by one); per
     origin, the diffs it handed to the sequencer, the stamps they got,
     and the highest of those stamps. *)
  mutable seq_last_stamp : int;
  seq_applied : (int, int) Hashtbl.t; (* node -> applied stamp *)
  seq_handed : int array;
  seq_stamped : int array;
  seq_own_last : int array;
}

let create ?obs ~nodes () =
  let obs = match obs with Some o -> o | None -> Obs.create () in
  {
    nodes;
    obs;
    violations_c =
      Obs.counter obs ~node:Obs.global_node ~layer:Obs.Carlos
        "audit.violations";
    violations_rev = [];
    last_vc = Array.init nodes (fun _ -> Vc.zero ~nodes);
    knows = Array.init nodes (fun _ -> Array.init nodes (fun _ -> Vc.zero ~nodes));
    intervals = Hashtbl.create 256;
    handled = Hashtbl.create 1024;
    page_seen = Hashtbl.create 128;
    page_applied = Hashtbl.create 256;
    relay = Hashtbl.create 16;
    central_home = None;
    central_version = Hashtbl.create 64;
    central_fetched = Hashtbl.create 128;
    seq_last_stamp = 0;
    seq_applied = Hashtbl.create 16;
    seq_handed = Array.make nodes 0;
    seq_stamped = Array.make nodes 0;
    seq_own_last = Array.make nodes 0;
  }

let violations t = List.rev t.violations_rev

let violation_count t = List.length t.violations_rev

let vc_str vc = Format.asprintf "%a" Vc.pp vc

let violate t ~check ~node ?trace_id detail =
  let v = { check; node; time = Obs.now t.obs; trace_id; detail } in
  t.violations_rev <- v :: t.violations_rev;
  Obs.inc t.violations_c;
  Obs.event t.obs ~node ~layer:Obs.Carlos "audit.violation"
    ~args:
      (("check", Obs.Str check)
      :: (match trace_id with
         | Some id -> [ ("id", Obs.Int id) ]
         | None -> [])
      @ [ ("detail", Obs.Str detail) ])

(* End-of-run wire-byte conservation: the cost-taxonomy component
   counters must jointly account for every byte the medium carried plus
   every byte lost to datagram drops (see Carlos_obs.Cost). *)
let check_conservation t =
  let total = Carlos_obs.Cost.total t.obs in
  let wire = Carlos_obs.Cost.wire_total t.obs in
  if total <> wire then
    violate t ~check:"cost-conservation" ~node:Obs.global_node
      (Printf.sprintf "component bytes %d <> wire bytes %d (delta %d)" total
         wire (total - wire))

let pp_violation ppf v =
  Format.fprintf ppf "[%s] n%d t=%.6f%s: %s" v.check v.node v.time
    (match v.trace_id with
    | Some id -> Printf.sprintf " msg#%d" id
    | None -> "")
    v.detail

let pp_report ppf t =
  match violations t with
  | [] -> Format.fprintf ppf "audit: ok (0 violations)@."
  | vs ->
    Format.fprintf ppf "audit: %d violation%s@." (List.length vs)
      (if List.length vs = 1 then "" else "s");
    List.iter (fun v -> Format.fprintf ppf "  %a@." pp_violation v) vs

(* Every clock observation funnels through here: the clock of a node may
   only ever grow. *)
let observe_vc t ~node ?trace_id ~at vc =
  if not (Vc.dominates vc t.last_vc.(node)) then
    violate t ~check:"vc-monotonic" ~node ?trace_id
      (Printf.sprintf "at %s: clock %s went below previously observed %s" at
         (vc_str vc)
         (vc_str t.last_vc.(node)));
  Vc.join_in_place t.last_vc.(node) vc

(* ------------------------------------------------------------------ *)
(* Message-layer hooks *)

(* A piggyback that [node] sends or forwards to [dst] carries exactly the
   intervals above what [node] knows [dst] to hold, up to [rvc]: no gap,
   and nothing [dst] already holds.  A non-transitive one carries only
   [origin]'s intervals; the rest is recovered by gap detection at the
   acceptor. *)
let check_tailoring t ~check ~node ~trace_id ~dst ~origin ~rvc ~nontransitive
    ~intervals =
  let included = Hashtbl.create 16 in
  List.iter (fun ci -> Hashtbl.replace included ci ()) intervals;
  let known = t.knows.(node).(dst) in
  let creators =
    if nontransitive then [ origin ] else List.init t.nodes Fun.id
  in
  List.iter
    (fun c ->
      for i = Vc.get known c + 1 to Vc.get rvc c do
        if not (Hashtbl.mem included (c, i)) then
          violate t ~check ~node ~trace_id
            (Printf.sprintf
               "piggyback to n%d omits interval %d.%d (receiver known at %s, \
                required %s)"
               dst c i (vc_str known) (vc_str rvc))
      done)
    creators;
  List.iter
    (fun (c, i) ->
      if nontransitive && c <> origin then
        violate t ~check:"release-nt-foreign-interval" ~node ~trace_id
          (Printf.sprintf "RELEASE_NT to n%d carries interval %d.%d" dst c i)
      else if i <= Vc.get known c then
        violate t ~check ~node ~trace_id
          (Printf.sprintf
             "piggyback to n%d re-ships interval %d.%d the receiver already \
              covers (known %s)"
             dst c i (vc_str known)))
    intervals

let on_send t ~trace_id ~src ~dst ~annotation ~vc ~required_vc ~nontransitive
    ~intervals ~sender_vc =
  observe_vc t ~node:src ~trace_id ~at:"send" vc;
  (match (annotation, sender_vc) with
  | Request, Some svc ->
    if not (Vc.equal svc vc) then
      violate t ~check:"request-vc-stale" ~node:src ~trace_id
        (Printf.sprintf "REQUEST piggybacks %s but the sender is at %s"
           (vc_str svc) (vc_str vc))
  | _ -> ());
  match required_vc with
  | Some rvc when dst <> src ->
    check_tailoring t ~check:"request-tailoring" ~node:src ~trace_id ~dst
      ~origin:src ~rvc ~nontransitive ~intervals
  | Some _ -> (
    (* A locally addressed RELEASE (a manager enqueueing into its own
       queue): the sender holds everything up to its own clock, and a
       copy it forwards later is built from its log, so the exact
       piggyback carries nothing. *)
    match intervals with
    | [] -> ()
    | (c, i) :: _ ->
      violate t ~check:"request-tailoring" ~node:src ~trace_id
        (Printf.sprintf
           "piggyback to itself carries %d intervals (first %d.%d)"
           (List.length intervals) c i))
  | None -> ()

let on_accept t ~node ~vc_before ~vc_after accepted =
  (* [vc_before] is NOT a fresh observation: accepts nest (a charge inside
     Lrc.accept yields to the interrupt fiber, which can run a complete
     inner accept on the same node), so the outer batch's before-clock is
     legitimately older than the mirror by the time this reports.  The
     batch-internal after ⊒ before check and the after-observation below
     keep monotonicity airtight. *)
  if not (Vc.dominates vc_after vc_before) then
    violate t ~check:"vc-monotonic" ~node
      ?trace_id:(match accepted with [] -> None | a :: _ -> a.acc_trace_id)
      (Printf.sprintf "accept moved the clock from %s to %s"
         (vc_str vc_before) (vc_str vc_after));
  let batch_tid =
    (* Attribute batch-wide findings to the first synchronizing message. *)
    match List.find_opt (fun a -> a.acc_required_vc <> None) accepted with
    | Some a -> a.acc_trace_id
    | None -> ( match accepted with [] -> None | a :: _ -> a.acc_trace_id)
  in
  List.iter
    (fun a ->
      (match a.acc_trace_id with
      | Some id when Hashtbl.mem t.relay (id, node) ->
        violate t ~check:"relay-consistent" ~node ~trace_id:id
          (Printf.sprintf
             "declared relay accepted a %s from n%d (never-becomes-consistent \
              violated)"
             (annotation_name a.acc_annotation)
             a.acc_origin)
      | _ -> ());
      match a.acc_required_vc with
      | None -> ()
      | Some rvc ->
        if not (Vc.dominates vc_after rvc) then
          violate t
            ~check:
              (match a.acc_annotation with
              | Release_nt -> "release-nt-required-vc"
              | _ -> "acquire-dominance")
            ~node ?trace_id:a.acc_trace_id
            (Printf.sprintf
               "clock after accept %s does not dominate required %s (from n%d)"
               (vc_str vc_after) (vc_str rvc) a.acc_origin))
    accepted;
  (* Write-notice completeness over the newly covered interval range. *)
  for c = 0 to t.nodes - 1 do
    if c <> node then
      for i = Vc.get vc_before c + 1 to Vc.get vc_after c do
        match Hashtbl.find_opt t.intervals (c, i) with
        | None ->
          violate t ~check:"write-notice-lost" ~node ?trace_id:batch_tid
            (Printf.sprintf "accept covered unknown interval %d.%d" c i)
        | Some info ->
          List.iter
            (fun page ->
              if not (Hashtbl.mem t.handled (node, page, c, i)) then
                violate t ~check:"write-notice-lost" ~node ?trace_id:batch_tid
                  (Printf.sprintf
                     "interval %d.%d covered but its write notice for page \
                      %d was never processed here"
                     c i page))
            info.iv_pages
      done
  done;
  observe_vc t ~node ?trace_id:batch_tid ~at:"accept(after)" vc_after

let on_forward t ~trace_id ~node ~dst ~vc ~origin ~required_vc ~nontransitive
    ~intervals =
  (* Forwarding fulfils a relay obligation: the message moves on without
     this node becoming consistent.  Clearing the expectation also covers
     a manager that forwards an item to itself-as-dequeuer, which then
     legitimately accepts it in that role. *)
  Hashtbl.remove t.relay (trace_id, node);
  observe_vc t ~node ~trace_id ~at:"forward" vc;
  (* A local hop forwards the message as it is. *)
  match required_vc with
  | Some rvc when dst <> node ->
    check_tailoring t ~check:"forward-tailoring" ~node ~trace_id ~dst ~origin
      ~rvc ~nontransitive ~intervals
  | Some _ | None -> ()

let on_store t ~trace_id ~node ~vc = observe_vc t ~node ~trace_id ~at:"store" vc

let expect_relay t ~trace_id ~node = Hashtbl.replace t.relay (trace_id, node) ()

(* ------------------------------------------------------------------ *)
(* LRC hooks *)

let applied_max t ~node ~page ~creator =
  Option.value ~default:0 (Hashtbl.find_opt t.page_applied (node, page, creator))

let note_applied t ~node ~page vc =
  (match Hashtbl.find_opt t.page_seen (node, page) with
  | Some seen -> Vc.join_in_place seen vc
  | None -> Hashtbl.replace t.page_seen (node, page) (Vc.copy vc));
  for c = 0 to t.nodes - 1 do
    let v = Vc.get vc c in
    if v > applied_max t ~node ~page ~creator:c then
      Hashtbl.replace t.page_applied (node, page, c) v
  done

let on_page_interval t ~node ~page ~creator ~index =
  if index > applied_max t ~node ~page ~creator then begin
    (match Hashtbl.find_opt t.page_seen (node, page) with
    | Some seen when Vc.get seen creator >= index ->
      (* Something already applied to this page causally follows the
         interval being applied now: its old bytes would clobber newer
         ones. *)
      violate t ~check:"page-causal-order" ~node
        (Printf.sprintf
           "interval %d.%d applied to page %d after content covering %s"
           creator index page (vc_str seen))
    | _ -> ());
    match Hashtbl.find_opt t.intervals (creator, index) with
    | Some info -> note_applied t ~node ~page info.iv_vc
    | None ->
      (* Own open-interval bookkeeping closes before registering?  No:
         close registers first.  An unknown id here is itself a bug. *)
      violate t ~check:"page-causal-order" ~node
        (Printf.sprintf "page %d claims unknown interval %d.%d" page creator
           index);
      Hashtbl.replace t.page_applied (node, page, creator) index
  end

let lrc_hooks t =
  {
    Lrc.on_interval_closed =
      (fun ~creator ~index ~vc ~pages ->
        Hashtbl.replace t.intervals (creator, index)
          { iv_vc = Vc.copy vc; iv_pages = pages });
    on_write_notice =
      (fun ~node ~page ~creator ~index ->
        Hashtbl.replace t.handled (node, page, creator, index) ());
    on_page_interval =
      (fun ~node ~page ~creator ~index ->
        on_page_interval t ~node ~page ~creator ~index);
    on_page_content =
      (fun ~node ~page ~vc -> note_applied t ~node ~page vc);
    on_peer_note =
      (fun ~node ~peer ~vc -> Vc.join_in_place t.knows.(node).(peer) vc);
    on_discard =
      Some
        (fun ~node ~snapshot ~creator ~index ~vc ->
          if not (Vc.dominates snapshot vc) then
            violate t ~check:"gc-discard-dominated" ~node
              (Printf.sprintf
                 "GC discarded interval %d.%d with clock %s above the \
                  snapshot %s"
                 creator index (vc_str vc) (vc_str snapshot)));
  }

(* ------------------------------------------------------------------ *)
(* Central-backend hooks *)

let central_hooks t =
  {
    Central.on_flush_applied =
      (fun ~home ~origin ~page ~version ->
        (match t.central_home with
        | None -> t.central_home <- Some home
        | Some h when h <> home ->
          violate t ~check:"central-single-home" ~node:home
            (Printf.sprintf
               "flush applied at n%d but n%d already acted as home" home h)
        | Some _ -> ());
        let prev =
          Option.value ~default:0 (Hashtbl.find_opt t.central_version page)
        in
        if version <> prev + 1 then
          violate t ~check:"central-version-gap" ~node:home
            (Printf.sprintf
               "page %d jumped from version %d to %d (flush from n%d)" page
               prev version origin);
        Hashtbl.replace t.central_version page (max version prev));
    on_page_fetched =
      (fun ~node ~page ~version ->
        let home_version =
          Option.value ~default:0 (Hashtbl.find_opt t.central_version page)
        in
        if version > home_version then
          violate t ~check:"central-version-gap" ~node
            (Printf.sprintf
               "fetched page %d at version %d the home never reached (%d)"
               page version home_version);
        (match Hashtbl.find_opt t.central_fetched (node, page) with
        | Some prev when version < prev ->
          violate t ~check:"central-fetch-stale" ~node
            (Printf.sprintf
               "page %d fetched at version %d after already seeing %d" page
               version prev)
        | _ -> ());
        Hashtbl.replace t.central_fetched (node, page) version);
  }

(* ------------------------------------------------------------------ *)
(* Seq-backend hooks *)

let seq_hooks t =
  {
    Seq.on_stamped =
      (fun ~seq ~origin ->
        if seq <> t.seq_last_stamp + 1 then
          violate t ~check:"seq-stamp-contiguous" ~node:origin
            (Printf.sprintf "stamp %d issued after %d (from n%d)" seq
               t.seq_last_stamp origin);
        t.seq_last_stamp <- max seq t.seq_last_stamp;
        t.seq_stamped.(origin) <- t.seq_stamped.(origin) + 1;
        t.seq_own_last.(origin) <- max seq t.seq_own_last.(origin));
    on_applied =
      (fun ~node ~seq ~origin ->
        if seq > t.seq_last_stamp then
          violate t ~check:"seq-apply-order" ~node
            (Printf.sprintf "applied stamp %d the sequencer never issued" seq);
        let prev =
          Option.value ~default:0 (Hashtbl.find_opt t.seq_applied node)
        in
        if seq <> prev + 1 then
          violate t ~check:"seq-apply-order" ~node
            (Printf.sprintf "applied stamp %d after %d (from n%d)" seq prev
               origin);
        Hashtbl.replace t.seq_applied node (max seq prev));
    on_acquire =
      (fun ~node ~upto ~applied ->
        if applied < upto then
          violate t ~check:"seq-acquire-coverage" ~node
            (Printf.sprintf
               "acquire completed needing stamp %d with only %d applied" upto
               applied));
    on_handed =
      (fun ~node ~diffs -> t.seq_handed.(node) <- t.seq_handed.(node) + diffs);
    on_release =
      (fun ~node ~upto ->
        if t.seq_stamped.(node) < t.seq_handed.(node) then
          violate t ~check:"seq-release-horizon" ~node
            (Printf.sprintf "release with %d of its %d handed diffs unstamped"
               (t.seq_handed.(node) - t.seq_stamped.(node))
               t.seq_handed.(node))
        else if upto < t.seq_own_last.(node) then
          violate t ~check:"seq-release-horizon" ~node
            (Printf.sprintf "release horizon %d misses its own stamp %d" upto
               t.seq_own_last.(node)));
  }
