(** Shared broadcast medium modelling the paper's isolated 10 Mbit/s
    Ethernet segment.

    All frames from all nodes serialize through one FIFO wire (CSMA
    contention is approximated by FIFO queueing, which is accurate for a
    lightly-to-moderately loaded segment and deterministic).  A frame
    occupies the wire for [size / bandwidth] seconds and is then
    delivered after a fixed propagation-plus-interrupt [latency].

    A frame is a chain of {!Carlos_sim.Engine.at} callbacks, not a fiber:
    - {e start}, scheduled by {!send} at the current time, takes the wire
      if it is idle and otherwise queues the frame;
    - {e finish}, [size / bandwidth] after the frame took the wire,
      accounts the busy time, hands the wire to the next queued frame
      (which takes it in an event of its own at the same instant),
      releases the frame's backlog bytes, records its queueing delay and
      trace slice, and schedules
    - {e delivery}, [latency] later, which runs the destination's
      handler.
    Each step is one event, scheduled at the moment the fiber-per-frame
    medium this replaced scheduled its own, so every event keeps its
    time and tie-break order.

    The medium is polymorphic in the payload it carries; upper layers
    (datagram service, sliding-window protocol) choose their own frame
    types.

    All accounting lives in the {!Carlos_obs.Obs} registry under the [Net]
    layer at {!Carlos_obs.Obs.global_node} (the wire is shared — no single
    node owns it): counters [medium.frames] and [medium.bytes], the
    [medium.wire_busy] gauge, and a [medium.queue_delay] histogram of the
    virtual time each frame waited for the wire.  When tracing is enabled,
    each transmission is additionally recorded as a [net.frame] complete
    event. *)

type 'a t

(** [create ?obs engine ~nodes ~latency ~bandwidth] builds a medium
    connecting [nodes] stations.  [bandwidth] is in bytes per second;
    [latency] in seconds covers propagation plus receive-side interrupt
    dispatch.  Instruments register in [obs] (a fresh private registry by
    default; pass the system-wide one to share). *)
val create :
  ?obs:Carlos_obs.Obs.t ->
  Carlos_sim.Engine.t ->
  nodes:int ->
  latency:float ->
  bandwidth:float ->
  'a t

(** The registry this medium reports into. *)
val obs : 'a t -> Carlos_obs.Obs.t

val nodes : 'a t -> int

(** Propagation-plus-interrupt delay, as passed to {!create}. *)
val latency : 'a t -> float

(** Wire bandwidth in bytes per second, as passed to {!create}.  Upper
    layers use it to bound how long a frame can legitimately occupy the
    wire (e.g. the sliding window's payload-aware RTO floor). *)
val bandwidth : 'a t -> float

(** Bytes accepted by {!send} whose serialization onto the wire has not
    completed yet (queued for the wire or mid-transmission).  This is
    the carrier-sense signal: while non-zero, an expected ack may simply
    be queued behind the backlog, so retransmission timers should defer
    rather than fire.  [backlog t /. bandwidth t] bounds the remaining
    drain time. *)
val backlog : 'a t -> int

(** Install the receive upcall for a station.  The upcall runs as an
    engine callback at delivery time, so it must not block: hand the
    frame to a fiber (a mailbox, an ivar) for anything that waits. *)
val set_handler : 'a t -> node:int -> (src:int -> size:int -> 'a -> unit) -> unit

(** [send t ~src ~dst ~size payload] queues a frame for transmission.
    Non-blocking for the caller (the NIC DMAs the frame out); the frame
    contends for the shared wire in FIFO order.  [size] is the full frame
    size in bytes, headers included. *)
val send : 'a t -> src:int -> dst:int -> size:int -> 'a -> unit

(** {1 Statistics}

    Counters [medium.frames] and [medium.bytes], the gauge
    [medium.wire_busy] (cumulative virtual time the wire spent
    transmitting) and the histogram [medium.queue_delay] live in the
    registry under {!Carlos_obs.Obs.global_node}, [Net] layer, cumulative
    since creation.  Read them by key; a phase is the difference of two
    reads. *)
