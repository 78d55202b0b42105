(** Reliable, in-order message delivery over the unreliable datagram
    service — the sliding-window protocol CarlOS layers over UDP/IP
    (paper §4.3).

    Every ordered pair of nodes is an independent connection with its own
    sequence space.  The receiver delivers each message exactly once, in
    send order; cumulative acknowledgements and go-back-N retransmission
    recover from datagram loss.  The in-order guarantee per pair is what
    the hybrid Water application relies on for atomic remote updates
    (paper §5.3).

    {2 Adaptive retransmission (ARQ)}

    The retransmission timeout adapts per connection:

    - {b RTT estimation} — Jacobson/Karels smoothed RTT and variance
      ([srtt + 4 * rttvar]), sampled only from frames that were never
      retransmitted (Karn's rule), clamped between the configured [rto]
      (a floor) and [64 * rto].
    - {b Serialization floor} — everything in flight on a connection must
      serialize through the shared wire before the oldest frame's ack can
      come back, so the timeout is additionally floored at
      [rto_margin * inflight_bytes / bandwidth + 2 * latency + ack_delay].
      A multi-megabyte diff frame therefore waits its legitimate wire time
      instead of timing out a dozen times.
    - {b Carrier sense} — an expired timer whose wire still carries a
      backlog ({!Datagram.backlog}) defers past the backlog's drain time
      instead of retransmitting into the queue; only a timeout on an idle
      wire — where the ack had every chance to arrive — resends.
    - {b Persistent backoff} — exponential backoff (capped at 64 x) is
      reset only when a never-retransmitted frame is acked; an ack for a
      retransmitted copy proves delivery, not that congestion cleared.
    - {b Fast retransmit} — three consecutive non-advancing acks resend
      the oldest unacked frame immediately, so genuine single-frame loss
      recovers in about one RTT rather than one RTO. *)

(** Wire frames exchanged by the protocol.  Exposed so callers can
    instantiate the underlying medium/datagram layers at this type. *)
type 'a frame

type 'a t

(** [create ?ack_every ?ack_delay ?rto_margin engine datagram ~window ~rto]
    — [window] is the maximum number of unacknowledged messages per
    connection; [rto] the base retransmission timeout in seconds (the floor
    of the adaptive timeout).

    [rto_margin] (default 2.0, must be non-negative) scales the in-flight
    serialization term of the adaptive timeout floor; larger values absorb
    more cross-traffic on the shared wire before a timeout fires.

    Delayed cumulative acks: the receiver sends one cumulative ack per
    [ack_every] in-order data frames, or after [ack_delay] seconds when
    fewer are owed — whichever comes first — instead of one ack frame per
    data frame.  Duplicates and out-of-order arrivals are always acked
    immediately (that ack is what stops a retransmission storm).  The
    default [ack_every = 1] acks every frame;
    [ack_every > 1] requires [0 < ack_delay < rto] so a delayed ack can
    never be mistaken for loss. *)
val create :
  ?ack_every:int ->
  ?ack_delay:float ->
  ?rto_margin:float ->
  Carlos_sim.Engine.t ->
  'a frame Datagram.t ->
  window:int ->
  rto:float ->
  'a t

(** The registry this protocol reports into (the datagram service's). *)
val obs : 'a t -> Carlos_obs.Obs.t

(** Reliable asynchronous send.  Returns immediately; delivery happens at
    some later virtual time. *)
val send : 'a t -> src:int -> dst:int -> payload_bytes:int -> 'a -> unit

(** Install the in-order delivery upcall for a node.  The upcall is invoked
    once per message; it runs at interrupt level and must not block (spawn a
    fiber for any blocking work). *)
val set_handler :
  'a t -> node:int -> (src:int -> size:int -> 'a -> unit) -> unit

(** {1 Statistics}

    Counters [sw.sent], [sw.delivered], [sw.retransmits] (timeout-driven
    plus fast retransmits), [sw.rto_timeouts], [sw.rto_deferrals] (timer
    expiries deferred by carrier sense), [sw.rto_samples] (RTT samples,
    never from retransmitted frames), [sw.fast_retransmits],
    [sw.spurious_retransmits] (data frames the receiver already had),
    [sw.acks] and [sw.acks_coalesced] (data frames whose acknowledgement
    rode a later cumulative ack) live in the registry under
    {!Carlos_obs.Obs.global_node}, [Net] layer, cumulative since
    creation.  Read them by key ({!Carlos_obs.Obs.counter_value}, or
    {!Carlos_obs.Obs.find} on a snapshot); a phase is the difference of
    two reads.  Each arming of the retransmit timer also records
    the effective timeout in the [sw.rto_armed] histogram. *)
