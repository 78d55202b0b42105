module Engine = Carlos_sim.Engine
module Rng = Carlos_sim.Rng
module Ivar = Carlos_sim.Resource.Ivar
module Medium = Carlos_net.Medium
module Datagram = Carlos_net.Datagram
module Sliding_window = Carlos_net.Sliding_window
module Shm = Carlos_vm.Shm
module Page = Carlos_vm.Page
module Alloc = Carlos_vm.Alloc
module Vc = Carlos_dsm.Vc
module Cpu_cost = Carlos_dsm.Cpu_cost
module Lrc = Carlos_dsm.Lrc_backend
module Backend = Carlos_dsm.Backend
module Central = Carlos_dsm.Central_backend
module Seq = Carlos_dsm.Seq_backend
module Obs = Carlos_obs.Obs
module Wire_cost = Carlos_obs.Cost
module Audit = Carlos_audit.Audit

type config = {
  nodes : int;
  page_size : int;
  coherent_pages : int;
  latency : float;
  bandwidth : float;
  window : int;
  rto : float;
  loss : float;
  costs : Cpu_cost.t;
  backend : Backend.kind;
  strategy : Lrc.strategy;
  seed : int;
  gc_threshold : int option;
}

let default_config ~nodes =
  {
    nodes;
    page_size = 4096;
    coherent_pages = 512;
    latency = 1e-4;
    bandwidth = 1.25e6;
    window = 8;
    rto = 0.1;
    loss = 0.0;
    costs = Cpu_cost.default;
    backend = Backend.Lrc;
    strategy = Lrc.Invalidate;
    seed = 42;
    gc_threshold = Some (512 * 1024);
  }

type node_report = {
  node : int;
  user : float;
  unix : float;
  carlos : float;
  idle : float;
  msgs_sent : int;
  bytes_sent : int;
}

type report = {
  wall : float;
  per_node : node_report array;
  messages : int;
  message_bytes : int;
  avg_message_bytes : float;
  net_utilization : float;
  gc_runs : int;
  diff_requests : int;
}

type gc_state = {
  mutable in_progress : bool;
  runs_c : Obs.counter;
}

(* Per-node sampler for Backend.metadata_pressure: a (virtual-time, bytes)
   series fed at safe points, throttled so chatty apps don't bloat the
   metrics export.  Safe points fire at deterministic virtual times, so
   the series is deterministic. *)
type pressure_sampler = { series : Obs.series; mutable last : float }

type t = {
  cfg : config;
  engine : Engine.t;
  medium : Node.wire Sliding_window.frame Medium.t;
  sw : Node.wire Sliding_window.t;
  nodes : Node.t array;
  coherent_alloc : Alloc.t;
  gc : gc_state;
  pressure : pressure_sampler array;
  obs : Obs.t;
  audit : Audit.t option;
}

exception Stalled of string

let config t = t.cfg

let engine t = t.engine

let node t i = t.nodes.(i)

let node_count t = t.cfg.nodes

let obs t = t.obs

let auditor t = t.audit

let set_tracing t enabled = Obs.set_tracing t.obs enabled

(* ------------------------------------------------------------------ *)
(* Shared-memory setup *)

let alloc t ?align n = Alloc.alloc t.coherent_alloc ?align n

(* Write into every node's page frame, bypassing fault handling: models
   identical input data loaded locally on every node. *)
let preload_bytes t addr src =
  Array.iter (fun node -> Shm.patch_bytes (Node.shm node) addr src) t.nodes

let preload_i64 t addr v =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.of_int v);
  preload_bytes t addr b

(* ------------------------------------------------------------------ *)
(* Global garbage collection of consistency metadata.

   A rendezvous with the same shape as a TreadMarks barrier-time GC:

   1. the coordinator (node 0) collects a RELEASE_NT-style contribution
      from every node (each node's own intervals) and accepts their union;
      its clock is then the snapshot;
   2. it sends every node a tailored RELEASE departure; on acceptance each
      node elects one keeper per page written in this epoch (the same
      table everywhere), and each keeper validates its pages and keeps a
      base copy of each;
   3. every node drops each copy that still misses history at or below
      the snapshot; a later fault on it refetches the keeper's base and
      applies the intervals above it;
   4. everyone discards interval records and diffs covered by the
      snapshot.

   Applications keep running throughout; anything they write during the
   rendezvous belongs to open or post-snapshot intervals, which survive. *)

let run_gc t =
 Obs.span t.obs ~node:0 ~layer:Obs.Carlos "gc.rendezvous" @@ fun () ->
  let coord = t.nodes.(0) in
  let peers = List.init (t.cfg.nodes - 1) (fun i -> i + 1) in
  (* 1. Collect contributions. *)
  let arrivals =
    List.map
      (fun i ->
        Node.rpc coord ~dst:i ~cost:Wire_cost.Gc_proto ~request_bytes:8
          ~service:(fun remote ->
            Lrc.make_piggyback (Node.lrc remote) ~receiver:0
              ~nontransitive:true)
          ~reply_bytes:(fun pb ->
            List.fold_left (fun acc (_, n) -> acc + n) 0
              (Lrc.piggyback_cost pb)))
      peers
  in
  Node.accept_collected coord arrivals;
  let snapshot = Vc.copy (Lrc.vc (Node.lrc coord)) in
  (* One rendezvous step: every peer runs [action] when it accepts the
     coordinator's [annotation] message and acks; the coordinator runs it
     locally, then awaits every ack. *)
  let step annotation action =
    let acked =
      List.map
        (fun i ->
          let done_ = Ivar.create () in
          Node.send coord ~dst:i ~cost:Wire_cost.Gc_proto ~annotation
            ~payload_bytes:16
            ~handler:(fun remote d ->
              Node.accept d;
              action (Node.lrc remote);
              Node.send remote ~dst:0 ~cost:Wire_cost.Gc_proto
                ~annotation:Annotation.None_ ~payload_bytes:8
                ~handler:(fun _ d2 ->
                  Node.accept d2;
                  Ivar.fill done_ ()));
          done_)
        peers
    in
    action (Node.lrc coord);
    List.iter (fun iv -> Node.await coord iv) acked
  in
  (* 2. Departures: tailored RELEASE; keepers store their bases. *)
  step Annotation.Release (fun lrc -> Lrc.gc_keep lrc snapshot);
  (* 3. Drop stale copies everywhere. *)
  step Annotation.None_ (fun lrc -> Lrc.gc_drop lrc snapshot);
  (* 4. Discard everywhere. *)
  step Annotation.None_ (fun lrc -> Lrc.discard_before lrc snapshot);
  Obs.inc t.gc.runs_c;
  t.gc.in_progress <- false

let request_gc t =
  if not t.gc.in_progress then begin
    t.gc.in_progress <- true;
    Engine.spawn t.engine (fun () -> run_gc t)
  end

(* Minimum virtual-time spacing between two metadata-pressure samples of
   one node. *)
let pressure_interval = 0.25

let sample_pressure ?(force = false) t node =
  let s = t.pressure.(Node.id node) in
  let now = Engine.now t.engine in
  if force || now -. s.last >= pressure_interval then begin
    s.last <- now;
    Obs.series_observe s.series ~ts:now
      (float_of_int (Backend.metadata_pressure (Node.backend node)))
  end

(* Safe-point hook installed on every node: sample the backend's metadata
   pressure, and ask for a GC when this node's consistency metadata
   exceeds the threshold.  Only the LRC backend accumulates lazy
   metadata; the other models report zero pressure and never trigger the
   rendezvous (which is LRC-specific). *)
let safe_point_check t node =
  sample_pressure t node;
  match (t.cfg.gc_threshold, t.cfg.backend) with
  | Some threshold, Backend.Lrc ->
    if
      (not t.gc.in_progress)
      && Backend.metadata_pressure (Node.backend node) > threshold
    then request_gc t
  | _ -> ()

(* ------------------------------------------------------------------ *)

let create ?(audit = false) (cfg : config) =
  if cfg.nodes <= 0 then invalid_arg "System.create: nodes";
  let engine = Engine.create () in
  (* One registry for the whole cluster, clocked by the engine: every
     layer below registers its instruments here. *)
  let obs = Obs.create ~clock:(fun () -> Engine.now engine) () in
  let medium =
    Medium.create ~obs engine ~nodes:cfg.nodes ~latency:cfg.latency
      ~bandwidth:cfg.bandwidth
  in
  let rng = Rng.create ~seed:cfg.seed in
  let datagram =
    if cfg.loss > 0.0 then
      Datagram.create medium ~loss:cfg.loss ~rng:(Rng.split rng) ()
    else Datagram.create medium ()
  in
  (* Delayed cumulative acks (one per 4 in-order frames or 5 ms, whichever
     comes first) and the default safety factor on the adaptive RTO's
     serialization floor. *)
  let sw =
    Sliding_window.create ~ack_every:4 ~ack_delay:0.005 ~rto_margin:2.0 engine
      datagram ~window:cfg.window ~rto:cfg.rto
  in
  let twin_pool = Page.create_twin_pool () in
  let nodes =
    Array.init cfg.nodes (fun id ->
        let shm =
          Shm.create ~obs ~node:id ~twin_pool ~page_size:cfg.page_size
            ~pages:cfg.coherent_pages ()
        in
        Node.make ~obs ~id ~nodes:cfg.nodes ~engine ~shm ~costs:cfg.costs
          ~backend:cfg.backend ~strategy:cfg.strategy)
  in
  let auditor =
    if audit then Some (Audit.create ~obs ~nodes:cfg.nodes ()) else None
  in
  let t =
    {
      cfg;
      engine;
      medium;
      sw;
      nodes;
      coherent_alloc =
        Alloc.create ~base:Shm.base ~size:(cfg.coherent_pages * cfg.page_size);
      gc =
        {
          in_progress = false;
          runs_c =
            Obs.counter obs ~node:Obs.global_node ~layer:Obs.Carlos "gc.runs";
        };
      pressure =
        Array.init cfg.nodes (fun id ->
            {
              series =
                Obs.series obs ~node:id ~layer:Obs.Dsm "metadata_pressure";
              (* Negative sentinel: the first safe point always samples. *)
              last = -1.0;
            });
      obs;
      audit = auditor;
    }
  in
  Array.iter
    (fun node ->
      let id = Node.id node in
      Node.set_transport_send node (fun ~dst ~wire_bytes msg ->
          Sliding_window.send sw ~src:id ~dst ~payload_bytes:wire_bytes msg);
      Sliding_window.set_handler sw ~node:id (fun ~src ~size:_ msg ->
          Node.deliver node ~src msg);
      (match auditor with
      | Some a ->
        Node.set_audit node (Some a);
        (match Node.backend node with
        | Backend.Lrc_b lrc -> Lrc.set_hooks lrc (Audit.lrc_hooks a)
        | Backend.Central_b cb -> Central.set_hooks cb (Audit.central_hooks a)
        | Backend.Seq_b sb -> Seq.set_hooks sb (Audit.seq_hooks a))
      | None -> ());
      Node.set_safe_point_hook node (fun n -> safe_point_check t n);
      Node.start_dispatcher node)
    t.nodes;
  t

let app_span = Carlos_obs.Profile.span Obs.App "app"

let run t app =
  let start = Engine.now t.engine in
  let finished = Array.make t.cfg.nodes None in
  Array.iter
    (fun node ->
      Engine.spawn t.engine (fun () ->
          Carlos_obs.Profile.enter app_span;
          app node;
          Carlos_obs.Profile.leave app_span;
          Node.flush_compute node;
          finished.(Node.id node) <- Some (Engine.now t.engine)))
    t.nodes;
  Engine.run t.engine;
  (* Close out the telemetry: one final pressure sample per node (so the
     series always covers the whole run) and the wire-byte conservation
     invariant, if an auditor is attached. *)
  Array.iter (fun node -> sample_pressure ~force:true t node) t.nodes;
  (match t.audit with Some a -> Audit.check_conservation a | None -> ());
  let finish_times =
    Array.mapi
      (fun i f ->
        match f with
        | Some time -> time
        | None -> raise (Stalled (Printf.sprintf "node %d never finished" i)))
      finished
  in
  let wall = Array.fold_left Float.max 0.0 finish_times -. start in
  let per_node =
    Array.map
      (fun node ->
        let b = Node.breakdown node in
        let msgs name =
          Obs.counter_value t.obs ~node:(Node.id node) ~layer:Obs.Carlos name
        in
        {
          node = Node.id node;
          user = Breakdown.user b;
          unix = Breakdown.unix b;
          carlos = Breakdown.carlos b;
          idle = Breakdown.idle b ~wall;
          msgs_sent = msgs "msgs.sent";
          bytes_sent = msgs "msgs.bytes";
        })
      t.nodes
  in
  let messages = Array.fold_left (fun a r -> a + r.msgs_sent) 0 per_node in
  let message_bytes =
    Array.fold_left (fun a r -> a + r.bytes_sent) 0 per_node
  in
  let diff_requests =
    Array.fold_left
      (fun a node -> a + Backend.data_fetches (Node.backend node))
      0 t.nodes
  in
  {
    wall;
    per_node;
    messages;
    message_bytes;
    avg_message_bytes =
      (if messages = 0 then 0.0
       else float_of_int message_bytes /. float_of_int messages);
    net_utilization =
      (if wall <= 0.0 then 0.0
       else float_of_int message_bytes *. 8.0 /. (1.0e7 *. wall));
    gc_runs = Obs.value t.gc.runs_c;
    diff_requests;
  }
