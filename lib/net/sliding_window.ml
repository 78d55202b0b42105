module Engine = Carlos_sim.Engine
module Obs = Carlos_obs.Obs
module Cost = Carlos_obs.Cost

type 'a frame =
  | Data of { seq : int; payload_bytes : int; payload : 'a }
  | Ack of { cumulative : int }

let ack_bytes = 8

let dup_ack_threshold = 3

let backoff_cap = 64.0

(* One message on the wire, awaiting acknowledgement.  [sent_at] and
   [retransmitted] feed the RTT estimator: per Karn's rule a frame that has
   been retransmitted is ambiguous (the ack may be for either copy) and is
   never sampled. *)
type 'a sent = {
  seq : int;
  payload_bytes : int;
  payload : 'a;
  mutable sent_at : float;
  mutable retransmitted : bool;
}

(* Per ordered (src, dst) pair.  Sequence numbers are assigned when a
   message first goes on the wire, so the [pending] queue (messages waiting
   for the window to open) keeps FIFO order automatically. *)
type 'a connection = {
  (* Sender side. *)
  mutable next_seq : int;
  unacked : 'a sent Queue.t;
  pending : (int * 'a) Queue.t; (* payload_bytes, payload *)
  mutable timer_epoch : int; (* invalidates stale retransmit timers *)
  mutable deadline : float; (* current retransmit deadline; may be pushed *)
  mutable inflight_bytes : int; (* payload + headers of every unacked frame *)
  mutable srtt : float; (* smoothed RTT; < 0.0 means no sample yet *)
  mutable rttvar : float;
  mutable backoff : float; (* exponential backoff multiplier, >= 1.0 *)
  mutable dup_acks : int; (* consecutive non-advancing acks seen *)
  mutable fast_done : int; (* highest seq already fast-retransmitted *)
  (* Receiver side (indexed the same way from the peer's perspective). *)
  mutable expected : int;
  out_of_order : (int, int * 'a) Hashtbl.t;
  (* Delayed-ack state: in-order frames delivered since the last
     acknowledgement, and the epoch/armed pair that invalidates a stale
     ack-delay timer once a cumulative ack goes out. *)
  mutable ack_owed : int;
  mutable ack_epoch : int;
  mutable ack_armed : bool;
}

type 'a handler = src:int -> size:int -> 'a -> unit

type 'a t = {
  engine : Engine.t;
  datagram : 'a frame Datagram.t;
  window : int;
  rto : float; (* base (minimum) retransmission timeout *)
  margin : float; (* serialization-floor safety factor (rto_margin) *)
  bandwidth : float; (* cached from the medium, bytes per second *)
  latency : float; (* cached from the medium, seconds *)
  ack_every : int; (* cumulative ack after this many in-order frames *)
  ack_delay : float; (* ...or after this long, whichever comes first *)
  connections : 'a connection array array; (* [src].[dst] *)
  handlers : 'a handler option array;
  sent_c : Obs.counter;
  delivered_c : Obs.counter;
  retransmitted_c : Obs.counter;
  rto_timeouts_c : Obs.counter;
  rto_deferrals_c : Obs.counter;
  rto_samples_c : Obs.counter;
  fast_retransmits_c : Obs.counter;
  spurious_c : Obs.counter;
  acks_c : Obs.counter;
  acks_coalesced_c : Obs.counter;
  rto_armed_h : Obs.Hist.t;
  cost : Cost.t;
}

let make_connection () =
  {
    next_seq = 0;
    unacked = Queue.create ();
    pending = Queue.create ();
    timer_epoch = 0;
    deadline = 0.0;
    inflight_bytes = 0;
    srtt = -1.0;
    rttvar = 0.0;
    backoff = 1.0;
    dup_acks = 0;
    fast_done = -1;
    expected = 0;
    out_of_order = Hashtbl.create 8;
    ack_owed = 0;
    ack_epoch = 0;
    ack_armed = false;
  }

let conn t ~src ~dst = t.connections.(src).(dst)

let transmit t ~src ~dst ~seq ~payload_bytes payload =
  Datagram.send t.datagram ~src ~dst ~payload_bytes
    (Data { seq; payload_bytes; payload })

let send_ack t ~src ~dst ~cumulative =
  Obs.inc t.acks_c;
  Cost.add t.cost Cost.Ack ack_bytes;
  Datagram.send t.datagram ~src ~dst ~payload_bytes:ack_bytes
    (Ack { cumulative })

(* Send the cumulative ack for the src->node connection now, covering every
   owed frame, and invalidate any pending ack-delay timer. *)
let flush_ack t c ~node ~src =
  if c.ack_owed > 1 then Obs.add t.acks_coalesced_c (c.ack_owed - 1);
  c.ack_owed <- 0;
  c.ack_epoch <- c.ack_epoch + 1;
  c.ack_armed <- false;
  send_ack t ~src:node ~dst:src ~cumulative:(c.expected - 1)

(* Delayed cumulative acks: rather than one ack frame per data frame, ack
   after [ack_every] in-order frames or [ack_delay] seconds, whichever
   comes first.  Duplicates and out-of-order arrivals still ack
   immediately — the sender is (or is about to start) retransmitting, and
   a prompt cumulative ack is what stops the storm. *)
let note_delivered t c ~node ~src ~frames =
  c.ack_owed <- c.ack_owed + frames;
  if t.ack_every <= 1 || c.ack_owed >= t.ack_every then flush_ack t c ~node ~src
  else if not c.ack_armed then begin
    c.ack_armed <- true;
    let epoch = c.ack_epoch in
    Engine.at t.engine
      ~time:(Engine.now t.engine +. t.ack_delay)
      (fun () ->
        if c.ack_epoch = epoch && c.ack_owed > 0 then flush_ack t c ~node ~src)
  end

(* The retransmission timeout for one arming of the timer, before backoff:
   Jacobson/Karels [srtt + 4 * rttvar] (clamped between the configured
   [rto], acting as a floor, and [64 * rto]), further floored by
   the physics of the shared wire — everything in flight on this connection
   must serialize at [bandwidth] before the ack for the oldest frame can
   even be generated, the ack then crosses the wire too, propagation is
   paid twice, and the receiver may hold the ack for up to [ack_delay].
   [margin] scales the serialization term to absorb cross-traffic from
   other connections sharing the wire; without this floor a 2 MB diff at
   10 Mbit/s (1.6 s on the wire) times out over a dozen times under the
   default 0.1 s rto before its ack can possibly arrive. *)
let effective_rto t c =
  let adaptive =
    if c.srtt < 0.0 then t.rto
    else
      Float.min (Float.max (c.srtt +. (4.0 *. c.rttvar)) t.rto) (64.0 *. t.rto)
  in
  let wire_floor =
    (t.margin *. float_of_int c.inflight_bytes /. t.bandwidth)
    +. (2.0 *. t.latency) +. t.ack_delay
  in
  Float.max adaptive wire_floor

(* Jacobson/Karels estimator update from one (never-retransmitted, per
   Karn's rule) RTT sample. *)
let rtt_sample t c sample =
  Obs.inc t.rto_samples_c;
  if c.srtt < 0.0 then begin
    c.srtt <- sample;
    c.rttvar <- sample /. 2.0
  end
  else begin
    let err = sample -. c.srtt in
    c.srtt <- c.srtt +. (err /. 8.0);
    c.rttvar <- c.rttvar +. ((Float.abs err -. c.rttvar) /. 4.0)
  end

(* Retransmission timer, one per connection, guarding the oldest
   unacknowledged frame.  The live deadline is kept on the connection so
   that it can be pushed out (never pulled in) while an engine event is
   already scheduled: launching more frames into the window grows the
   serialization floor, and firing at the stale earlier deadline would
   retransmit a frame whose ack simply has not had wire time to come back.
   The watcher re-schedules itself at the extended deadline instead of
   retransmitting.

   Carrier sense: even an expired deadline is not acted on while the shared
   wire still has a backlog.  The estimator can only see this connection's
   history, but the medium knows exactly how many bytes are queued ahead of
   (or around) the awaited ack — a burst from another node can hold the
   wire far beyond any per-connection RTO, and retransmitting into that
   queue is precisely the storm this timer exists to avoid.  Instead the
   deadline is deferred past the backlog's drain time (plus the ack's own
   wire time) and the fire re-checked then; only a timeout on an *idle*
   wire, where the ack had every chance to arrive, triggers a resend and
   backoff.  On a genuine expiry only the oldest frame is resent —
   the receiver buffers out-of-order frames and acks cumulatively, so only
   the oldest frame can be the gap, and resending the whole window would
   multiply the damage of a timeout that was merely a congested wire. *)
let rec watch t c ~src ~dst ~epoch =
  Engine.at t.engine ~time:c.deadline (fun () ->
      if c.timer_epoch = epoch && not (Queue.is_empty c.unacked) then begin
        let now = Engine.now t.engine in
        if c.deadline -. now > 1e-9 then
          (* Deadline was pushed out since this event was scheduled. *)
          watch t c ~src ~dst ~epoch
        else if Datagram.backlog t.datagram > 0 then begin
          (* Carrier sense: the wire is still draining a backlog the ack
             may be stuck behind.  Defer past its drain time (plus the
             ack's own serialization and round-trip propagation) instead
             of retransmitting into the queue; no backoff — nothing was
             lost yet as far as we can tell. *)
          Obs.inc t.rto_deferrals_c;
          c.deadline <-
            now
            +. (float_of_int
                  (Datagram.backlog t.datagram + ack_bytes
                 + Datagram.header_bytes)
               /. t.bandwidth)
            +. (2.0 *. t.latency) +. t.ack_delay;
          watch t c ~src ~dst ~epoch
        end
        else begin
          (match Queue.peek_opt c.unacked with
          | Some f ->
            Obs.inc t.retransmitted_c;
            Obs.inc t.rto_timeouts_c;
            f.retransmitted <- true;
            f.sent_at <- now;
            (* The original send already attributed this payload to its
               protocol components; the resend is pure retransmission
               cost. *)
            Cost.add t.cost Cost.Retransmit f.payload_bytes;
            transmit t ~src ~dst ~seq:f.seq ~payload_bytes:f.payload_bytes
              f.payload
          | None -> ());
          c.backoff <- Float.min backoff_cap (2.0 *. c.backoff);
          c.deadline <- now +. (effective_rto t c *. c.backoff);
          watch t c ~src ~dst ~epoch
        end
      end)

let arm_timer t c ~src ~dst =
  c.timer_epoch <- c.timer_epoch + 1;
  let timeout = effective_rto t c *. c.backoff in
  Obs.Hist.observe t.rto_armed_h timeout;
  c.deadline <- Engine.now t.engine +. timeout;
  watch t c ~src ~dst ~epoch:c.timer_epoch

(* Launching into an already-armed window grows the in-flight payload and
   with it the serialization floor; push the deadline out to match (the
   scheduled watcher re-schedules itself). *)
let extend_timer t c =
  c.deadline <-
    Float.max c.deadline
      (Engine.now t.engine +. (effective_rto t c *. c.backoff))

let disarm_timer c = c.timer_epoch <- c.timer_epoch + 1

(* Put one message on the wire, assigning its sequence number. *)
let launch t ~src ~dst ~payload_bytes payload =
  let c = conn t ~src ~dst in
  let seq = c.next_seq in
  c.next_seq <- seq + 1;
  Queue.add
    {
      seq;
      payload_bytes;
      payload;
      sent_at = Engine.now t.engine;
      retransmitted = false;
    }
    c.unacked;
  c.inflight_bytes <- c.inflight_bytes + payload_bytes + Datagram.header_bytes;
  transmit t ~src ~dst ~seq ~payload_bytes payload

let send t ~src ~dst ~payload_bytes payload =
  Obs.inc t.sent_c;
  let c = conn t ~src ~dst in
  if Queue.length c.unacked < t.window && Queue.is_empty c.pending then begin
    let was_idle = Queue.is_empty c.unacked in
    launch t ~src ~dst ~payload_bytes payload;
    (* Backoff persists across a fresh arming until a never-retransmitted
       frame is acked, so a congested wire is not re-probed at full rate
       the moment it goes idle. *)
    if was_idle then arm_timer t c ~src ~dst else extend_timer t c
  end
  else Queue.add (payload_bytes, payload) c.pending

(* Fast retransmit: [dup_ack_threshold] consecutive non-advancing acks mean
   the receiver keeps seeing frames beyond a gap — the oldest unacked frame
   was lost, not delayed.  Resend it now instead of waiting out the RTO.
   [fast_done] stops the trailing duplicates of the same gap from
   triggering a second resend. *)
let fast_retransmit t c ~src ~dst =
  match Queue.peek_opt c.unacked with
  | Some f when c.dup_acks >= dup_ack_threshold && f.seq > c.fast_done ->
    c.dup_acks <- 0;
    c.fast_done <- f.seq;
    f.retransmitted <- true;
    f.sent_at <- Engine.now t.engine;
    Obs.inc t.retransmitted_c;
    Obs.inc t.fast_retransmits_c;
    Cost.add t.cost Cost.Retransmit f.payload_bytes;
    transmit t ~src ~dst ~seq:f.seq ~payload_bytes:f.payload_bytes f.payload;
    arm_timer t c ~src ~dst
  | _ -> ()

(* Ack from [dst] for the connection src->dst (we are the sender, [src]). *)
let handle_ack t ~src ~dst ~cumulative =
  let c = conn t ~src ~dst in
  let now = Engine.now t.engine in
  let advanced = ref false in
  let fresh_acked = ref false in
  let rec drop () =
    match Queue.peek_opt c.unacked with
    | Some f when f.seq <= cumulative ->
      ignore (Queue.pop c.unacked);
      c.inflight_bytes <-
        c.inflight_bytes - (f.payload_bytes + Datagram.header_bytes);
      if not f.retransmitted then begin
        fresh_acked := true;
        rtt_sample t c (now -. f.sent_at)
      end;
      advanced := true;
      drop ()
    | Some _ | None -> ()
  in
  drop ();
  if !advanced then begin
    c.dup_acks <- 0;
    (* Backoff survives window advancement while the only acked frames are
       retransmissions: the ack tells us a resent copy got through, not
       that the congestion that forced the resend has cleared.  Only an
       acked frame that was never retransmitted is evidence the wire is
       keeping up. *)
    if !fresh_acked then c.backoff <- 1.0;
    (* Window opened: promote pending messages in FIFO order. *)
    while
      (not (Queue.is_empty c.pending)) && Queue.length c.unacked < t.window
    do
      let payload_bytes, payload = Queue.pop c.pending in
      launch t ~src ~dst ~payload_bytes payload
    done;
    if Queue.is_empty c.unacked then disarm_timer c
    else arm_timer t c ~src ~dst
  end
  else if not (Queue.is_empty c.unacked) then begin
    c.dup_acks <- c.dup_acks + 1;
    fast_retransmit t c ~src ~dst
  end

let deliver t ~node ~src ~payload_bytes payload =
  Obs.inc t.delivered_c;
  match t.handlers.(node) with
  | None -> ()
  | Some handler -> handler ~src ~size:payload_bytes payload

(* Data frame from [src] arriving at [node]. *)
let handle_data t ~node ~src ~seq ~payload_bytes payload =
  (* Receiver state for the src->node connection lives in
     connections.(src).(node). *)
  let c = t.connections.(src).(node) in
  if seq < c.expected then begin
    (* Duplicate (a retransmission we already have): the copy was wasted
       wire — count it, and re-ack immediately. *)
    Obs.inc t.spurious_c;
    flush_ack t c ~node ~src
  end
  else if seq = c.expected then begin
    deliver t ~node ~src ~payload_bytes payload;
    c.expected <- c.expected + 1;
    (* Drain any buffered successors. *)
    let frames = ref 1 in
    let rec drain () =
      match Hashtbl.find_opt c.out_of_order c.expected with
      | Some (bytes, p) ->
        Hashtbl.remove c.out_of_order c.expected;
        deliver t ~node ~src ~payload_bytes:bytes p;
        c.expected <- c.expected + 1;
        incr frames;
        drain ()
      | None -> ()
    in
    drain ();
    note_delivered t c ~node ~src ~frames:!frames
  end
  else begin
    if Hashtbl.mem c.out_of_order seq then Obs.inc t.spurious_c
    else Hashtbl.replace c.out_of_order seq (payload_bytes, payload);
    (* A gap means a frame was lost: ack immediately so go-back-N recovery
       is not further delayed. *)
    flush_ack t c ~node ~src
  end

let on_datagram t node ~src ~size:_ frame =
  match frame with
  | Data { seq; payload_bytes; payload } ->
    handle_data t ~node ~src ~seq ~payload_bytes payload
  | Ack { cumulative } ->
    (* We (node) are the sender of the node->src connection. *)
    handle_ack t ~src:node ~dst:src ~cumulative

let create ?(ack_every = 1) ?(ack_delay = 0.0) ?(rto_margin = 2.0) engine
    datagram ~window ~rto =
  if window <= 0 then invalid_arg "Sliding_window.create: window";
  if rto <= 0.0 then invalid_arg "Sliding_window.create: rto";
  if ack_every <= 0 then invalid_arg "Sliding_window.create: ack_every";
  if ack_every > 1 && ack_delay <= 0.0 then
    invalid_arg "Sliding_window.create: ack_every > 1 needs ack_delay > 0";
  if ack_delay >= rto then
    invalid_arg "Sliding_window.create: ack_delay must stay below rto";
  if rto_margin < 0.0 then invalid_arg "Sliding_window.create: rto_margin";
  let n = Datagram.nodes datagram in
  let obs = Datagram.obs datagram in
  let g = Obs.global_node in
  let t =
    {
      engine;
      datagram;
      window;
      rto;
      margin = rto_margin;
      bandwidth = Datagram.bandwidth datagram;
      latency = Datagram.latency datagram;
      ack_every;
      ack_delay;
      connections =
        Array.init n (fun _ -> Array.init n (fun _ -> make_connection ()));
      handlers = Array.make n None;
      sent_c = Obs.counter obs ~node:g ~layer:Obs.Net "sw.sent";
      delivered_c = Obs.counter obs ~node:g ~layer:Obs.Net "sw.delivered";
      retransmitted_c = Obs.counter obs ~node:g ~layer:Obs.Net "sw.retransmits";
      rto_timeouts_c =
        Obs.counter obs ~node:g ~layer:Obs.Net "sw.rto_timeouts";
      rto_deferrals_c =
        Obs.counter obs ~node:g ~layer:Obs.Net "sw.rto_deferrals";
      rto_samples_c = Obs.counter obs ~node:g ~layer:Obs.Net "sw.rto_samples";
      fast_retransmits_c =
        Obs.counter obs ~node:g ~layer:Obs.Net "sw.fast_retransmits";
      spurious_c =
        Obs.counter obs ~node:g ~layer:Obs.Net "sw.spurious_retransmits";
      acks_c = Obs.counter obs ~node:g ~layer:Obs.Net "sw.acks";
      acks_coalesced_c =
        Obs.counter obs ~node:g ~layer:Obs.Net "sw.acks_coalesced";
      rto_armed_h = Obs.histogram obs ~node:g ~layer:Obs.Net "sw.rto_armed";
      cost = Cost.create obs;
    }
  in
  for node = 0 to n - 1 do
    Datagram.set_handler datagram ~node (fun ~src ~size frame ->
        on_datagram t node ~src ~size frame)
  done;
  t

let set_handler t ~node handler = t.handlers.(node) <- Some handler

let obs t = Datagram.obs t.datagram
