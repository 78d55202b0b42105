module Engine = Carlos_sim.Engine
module Obs = Carlos_obs.Obs
module Profile = Carlos_obs.Profile

type 'a handler = src:int -> size:int -> 'a -> unit

(* The steps of a frame's life (see [advance]). *)
type step = Start | Transmit | Finish | Deliver

(* A frame accepted by [send] whose delivery has not run.  It owns one
   callback, built when it is sent, which every step schedules again with
   [step] set to the step it runs. *)
type 'a frame = {
  src : int;
  dst : int;
  size : int;
  payload : 'a;
  (* Virtual time of [send]: the queueing delay is measured from here. *)
  sent_at : float;
  mutable step : step;
  mutable callback : Engine.callback;
}

let unbuilt = Engine.callback ignore

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
  (* When the frame on the wire took it: one unboxed cell, so writing it
     allocates nothing. *)
  acquired_at : float array;
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
    acquired_at = [| 0.0 |];
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
   the chain event for event against a fiber-per-frame reference.  The
   steps of one frame are never queued at once, so they share the
   frame's one callback. *)
let start_span = Profile.span Obs.Net "medium.start"

let transmit_span = Profile.span Obs.Net "medium.transmit"

let finish_span = Profile.span Obs.Net "medium.finish"

let deliver_span = Profile.span Obs.Net "medium.deliver"

let deliver t f =
  Profile.enter deliver_span;
  (match t.handlers.(f.dst) with
  | None -> ()
  | Some handler -> handler ~src:f.src ~size:f.size f.payload);
  Profile.leave deliver_span

let[@inline] transmit_time t f = float_of_int f.size /. t.bandwidth

let[@inline] schedule t f step ~time =
  f.step <- step;
  Engine.at t.engine ~time f.callback

let transmit t f =
  Profile.enter transmit_span;
  let now = Engine.now t.engine in
  t.acquired_at.(0) <- now;
  schedule t f Finish ~time:(now +. transmit_time t f);
  Profile.leave transmit_span

let finish t f =
  Profile.enter finish_span;
  let now = Engine.now t.engine in
  (* [acquired_at] is still this frame's: the next frame takes the wire
     in an event of its own. *)
  let acquired_at = t.acquired_at.(0) in
  let waited = acquired_at -. f.sent_at in
  Obs.add_gauge t.busy_g (now -. acquired_at);
  if Queue.is_empty t.waiting then t.held <- false
  else schedule t (Queue.pop t.waiting) Transmit ~time:now;
  t.backlog_bytes <- t.backlog_bytes - f.size;
  Obs.Hist.observe t.queue_delay waited;
  if Obs.tracing t.obs then begin
    let duration = transmit_time t f in
    Obs.complete_at t.obs ~ts:(now -. duration) ~duration
      ~node:Obs.global_node ~layer:Obs.Net "net.frame"
      ~args:
        [ ("src", Obs.Int f.src); ("dst", Obs.Int f.dst); ("size", Obs.Int f.size) ]
  end;
  schedule t f Deliver ~time:(now +. t.latency);
  Profile.leave finish_span

let start t f =
  Profile.enter start_span;
  if t.held then Queue.add f t.waiting
  else begin
    t.held <- true;
    transmit t f
  end;
  Profile.leave start_span

let advance t f =
  match f.step with
  | Start -> start t f
  | Transmit -> transmit t f
  | Finish -> finish t f
  | Deliver -> deliver t f

let send t ~src ~dst ~size payload =
  check_node t src;
  check_node t dst;
  if size <= 0 then invalid_arg "Medium.send: size must be positive";
  Obs.inc t.frames_c;
  Obs.add t.bytes_c size;
  t.backlog_bytes <- t.backlog_bytes + size;
  let now = Engine.now t.engine in
  let f =
    { src; dst; size; payload; sent_at = now; step = Start;
      callback = unbuilt }
  in
  f.callback <- Engine.callback (fun () -> advance t f);
  Engine.at t.engine ~time:now f.callback
