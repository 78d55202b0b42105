module Engine = Carlos_sim.Engine
module Obs = Carlos_obs.Obs

type 'a handler = src:int -> size:int -> 'a -> unit

(* A frame accepted by [send] whose transmission has not finished. *)
type 'a frame = {
  src : int;
  dst : int;
  size : int;
  payload : 'a;
  (* Virtual time of [send]: the queueing delay is measured from here. *)
  sent_at : float;
}

type 'a t = {
  engine : Engine.t;
  obs : Obs.t;
  node_count : int;
  latency : float;
  bandwidth : float;
  (* The wire is owned from the moment a frame takes it until its finish
     event, and ownership passes straight to the next queued frame. *)
  mutable held : bool;
  waiting : 'a frame Queue.t;
  mutable acquired_at : float;
  (* Bytes accepted by [send] whose serialization onto the wire has not
     finished yet (queued for the wire or mid-transmission).  This is
     the carrier-sense signal: while it is non-zero an ack may simply be
     stuck behind the backlog, so retransmission timers should defer. *)
  mutable backlog_bytes : int;
  handlers : 'a handler option array;
  frames_c : Obs.counter;
  bytes_c : Obs.counter;
  busy_g : Obs.gauge; (* cumulative virtual time the wire was owned *)
  queue_delay : Obs.Hist.t;
}

let create ?obs engine ~nodes ~latency ~bandwidth =
  if nodes <= 0 then invalid_arg "Medium.create: nodes must be positive";
  if bandwidth <= 0.0 then invalid_arg "Medium.create: bandwidth must be positive";
  let obs = match obs with Some o -> o | None -> Obs.create () in
  let g = Obs.global_node in
  {
    engine;
    obs;
    node_count = nodes;
    latency;
    bandwidth;
    held = false;
    waiting = Queue.create ();
    acquired_at = 0.0;
    backlog_bytes = 0;
    handlers = Array.make nodes None;
    frames_c = Obs.counter obs ~node:g ~layer:Obs.Net "medium.frames";
    bytes_c = Obs.counter obs ~node:g ~layer:Obs.Net "medium.bytes";
    busy_g = Obs.gauge obs ~node:g ~layer:Obs.Net "medium.wire_busy";
    queue_delay = Obs.histogram obs ~node:g ~layer:Obs.Net "medium.queue_delay";
  }

let obs t = t.obs

let nodes t = t.node_count

let latency t = t.latency

let bandwidth t = t.bandwidth

let backlog t = t.backlog_bytes

let check_node t node =
  if node < 0 || node >= t.node_count then
    invalid_arg (Printf.sprintf "Medium: bad node %d" node)

let set_handler t ~node handler =
  check_node t node;
  t.handlers.(node) <- Some handler

(* A frame's life is a chain of engine callbacks: [start] at [send],
   [finish] when serialization ends, [transmit] of the next queued frame
   at that instant, and [deliver] [latency] later.  Each step is its own
   event, the hand-off included, because the sequence numbers they draw
   break ties with other events at the same instant; test_net.ml checks
   the chain event for event against a fiber-per-frame reference. *)
let deliver t f =
  match t.handlers.(f.dst) with
  | None -> ()
  | Some handler -> handler ~src:f.src ~size:f.size f.payload

let transmit_time t f = float_of_int f.size /. t.bandwidth

let rec transmit t f =
  let now = Engine.now t.engine in
  t.acquired_at <- now;
  Engine.at t.engine ~time:(now +. transmit_time t f) (fun () -> finish t f)

and finish t f =
  let now = Engine.now t.engine in
  (* [acquired_at] is still this frame's: the next frame takes the wire
     in an event of its own. *)
  let waited = t.acquired_at -. f.sent_at in
  Obs.add_gauge t.busy_g (now -. t.acquired_at);
  if Queue.is_empty t.waiting then t.held <- false
  else begin
    let next = Queue.pop t.waiting in
    Engine.at t.engine ~time:now (fun () -> transmit t next)
  end;
  t.backlog_bytes <- t.backlog_bytes - f.size;
  Obs.Hist.observe t.queue_delay waited;
  if Obs.tracing t.obs then begin
    let duration = transmit_time t f in
    Obs.complete_at t.obs ~ts:(now -. duration) ~duration
      ~node:Obs.global_node ~layer:Obs.Net "net.frame"
      ~args:
        [ ("src", Obs.Int f.src); ("dst", Obs.Int f.dst); ("size", Obs.Int f.size) ]
  end;
  Engine.at t.engine ~time:(now +. t.latency) (fun () -> deliver t f)

let start t f =
  if t.held then Queue.add f t.waiting
  else begin
    t.held <- true;
    transmit t f
  end

let send t ~src ~dst ~size payload =
  check_node t src;
  check_node t dst;
  if size <= 0 then invalid_arg "Medium.send: size must be positive";
  Obs.inc t.frames_c;
  Obs.add t.bytes_c size;
  t.backlog_bytes <- t.backlog_bytes + size;
  let now = Engine.now t.engine in
  let f = { src; dst; size; payload; sent_at = now } in
  Engine.at t.engine ~time:now (fun () -> start t f)
