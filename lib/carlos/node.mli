(** Per-node CarlOS runtime: the annotated active-message interface
    (paper §2.1–§2.2, §4.3) wired to the node's LRC engine, CPU and
    address space.

    Sending a message is asynchronous.  On delivery, the message's handler
    runs as "an extension to an interrupt-handling function": it must not
    block, and before returning it must dispose of the message by
    {!accept}ing it, {!forward}ing it to another node, or {!store}ing it
    for later disposition (the three actions of §2.2).  Only [accept]
    performs the memory-consistency actions of the message's annotation;
    a manager that only stores and forwards never becomes consistent with
    the senders — the property the centralized work queue exploits.

    Two delivery lanes exist.  User messages are dispatched in order by a
    per-node dispatcher fiber, so handler execution is serialized with
    respect to other user messages ("critical sections between the message
    handlers and higher-level code are handled by blocking the delivery of
    incoming messages").  Internal consistency traffic (diff, interval and
    page fetches) is serviced directly at interrupt level so that it can
    never deadlock behind a blocked user handler. *)

type t

(** A message in the hands of its receiver. *)
type delivery

(** A message in flight (opaque; instantiate the network layers at this
    type). *)
type wire

type handler = t -> delivery -> unit

exception Handler_error of string

(** {1 Identity and components} *)

val id : t -> int

val engine : t -> Carlos_sim.Engine.t

val shm : t -> Carlos_vm.Shm.t

(** The node's consistency backend. *)
val backend : t -> Carlos_dsm.Backend.t

(** The LRC instance of a node running the LRC backend.  Raises
    [Handler_error] on other backends. *)
val lrc : t -> Carlos_dsm.Lrc_backend.t

val breakdown : t -> Breakdown.t

(** {1 Sending} *)

(** [send t ~dst ~annotation ~payload_bytes ~handler] transmits a user
    message.  For [Release]/[Release_nt] the consistency piggyback is
    computed and appended here (closing the current interval); for
    [Request] the sender's vector timestamp is appended.

    [?cost] classifies the payload bytes in the wire-byte taxonomy
    (default [App_payload]); headers, clocks and piggybacks are
    attributed automatically — see {!Carlos_obs.Cost}. *)
val send :
  ?cost:Carlos_obs.Cost.component ->
  t ->
  dst:int ->
  annotation:Annotation.t ->
  payload_bytes:int ->
  handler:handler ->
  unit

(** {1 Disposition (called from handlers)} *)

val accept : delivery -> unit

(** Accept several stored messages at once, merging their consistency
    information (the barrier manager's union of RELEASE_NT arrivals). *)
val accept_batch : t -> delivery list -> unit

val forward : delivery -> dst:int -> unit

(** Defer the disposition; the handler keeps the [delivery] value and must
    eventually [accept] or [forward] it. *)
val store : delivery -> unit

val delivery_src : delivery -> int

(** Stable causal trace id of the message (allocated at send, preserved
    across forwarding hops; the id used for Perfetto flow arrows and
    auditor reports). *)
val delivery_trace_id : delivery -> int

(** {1 Application CPU} *)

(** Record [dt] seconds of application computation.  Accumulated and
    charged against the node CPU lazily (at the next message operation or
    {!flush_compute}), so tight loops do not flood the event queue. *)
val compute : t -> float -> unit

(** Charge any accumulated computation now; also a GC safe point. *)
val flush_compute : t -> unit

(** Charge [dt] to a bucket through the node CPU immediately. *)
val charge : t -> Breakdown.bucket -> float -> unit

(** Virtual time now. *)
val time : t -> float

(** {1 Blocking helpers (app/dispatcher fibers only)} *)

(** [rpc t ~dst ~request_bytes ~service ~reply_bytes] performs a blocking
    internal request-reply exchange on the system lane: [service] runs at
    interrupt level on the destination node and must not block;
    [reply_bytes] sizes the reply message for the wire.

    [?cost] classifies the request payload in the wire-byte taxonomy
    (default [App_payload]); [?reply_cost] classifies the reply payload
    (defaults to [cost]). *)
val rpc :
  ?cost:Carlos_obs.Cost.component ->
  ?reply_cost:Carlos_obs.Cost.component ->
  t ->
  dst:int ->
  request_bytes:int ->
  service:(t -> 'reply) ->
  reply_bytes:('reply -> int) ->
  'reply

(** Wait on an ivar (flushes pending computation first). *)
val await : t -> 'a Carlos_sim.Resource.Ivar.t -> 'a

(** {1 Construction and wiring (used by System)} *)

(** [make ~obs ~id ~nodes ~engine ~shm ~costs ~backend ~strategy] builds
    node [id] running a [backend] instance ([strategy] applies to LRC),
    whose peer channel sends through this node's {!rpc} and its one-way
    system-lane messages.  All accounting (message counters, Figure 2 time
    gauges, protocol and page-fault counters, registered by their owners)
    lands in [obs].  The message counters are the [Carlos]-layer [msgs.*]
    counters of node [id] ([msgs.sent], [msgs.bytes], [msgs.release],
    ...); read them by key. *)
val make :
  obs:Carlos_obs.Obs.t ->
  id:int ->
  nodes:int ->
  engine:Carlos_sim.Engine.t ->
  shm:Carlos_vm.Shm.t ->
  costs:Carlos_dsm.Cpu_cost.t ->
  backend:Carlos_dsm.Backend.kind ->
  strategy:Carlos_dsm.Lrc_backend.strategy ->
  t

(** Install the online consistency auditor.  When set, the node reports
    every send / accept / forward / store to it (see
    {!Carlos_audit.Audit}); installing the matching {!Carlos_dsm.Lrc_backend}
    hooks is the caller's job ([System.create ~audit:true] does both). *)
val set_audit : t -> Carlos_audit.Audit.t option -> unit

val audit : t -> Carlos_audit.Audit.t option

(** Install the wire-send function (the sliding-window layer). *)
val set_transport_send :
  t -> (dst:int -> wire_bytes:int -> wire -> unit) -> unit

(** Install the hook run at safe points (GC rendezvous checks).  The hook
    runs in the fiber that reached the safe point and may block. *)
val set_safe_point_hook : t -> (t -> unit) -> unit

(** Deliver an incoming wire message (the sliding-window receive upcall).
    Non-blocking: enqueues for the node's interrupt fiber, preserving
    per-sender order. *)
val deliver : t -> src:int -> wire -> unit

(** Start the node's interrupt and user-dispatcher fibers. *)
val start_dispatcher : t -> unit
