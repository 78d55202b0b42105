(** Unreliable datagram service (the UDP/IP stand-in).

    Adds protocol headers to each frame and, optionally, seeded random frame
    loss so the reliability layer above can be exercised.  Delivery order on
    a loss-free segment follows the medium's FIFO wire, i.e. frames between
    one (src, dst) pair never reorder; loss is the only failure mode, as on
    a single Ethernet segment.

    Accounting ([datagram.sent], [datagram.dropped],
    [datagram.payload_bytes]) registers in the underlying medium's
    {!Carlos_obs.Obs} registry under the [Net] layer. *)

type 'a t

(** Ethernet + IP + UDP header bytes added to every frame. *)
val header_bytes : int

(** [create medium ~loss ~rng] : [loss] is the independent per-frame drop
    probability (0.0 for a healthy segment).  [rng] is required when
    [loss > 0]. *)
val create :
  'a Medium.t -> ?loss:float -> ?rng:Carlos_sim.Rng.t -> unit -> 'a t

(** The registry this service reports into (the medium's). *)
val obs : 'a t -> Carlos_obs.Obs.t

val nodes : 'a t -> int

(** Propagation delay of the underlying medium. *)
val latency : 'a t -> float

(** Bandwidth of the underlying medium, in bytes per second. *)
val bandwidth : 'a t -> float

(** Carrier-sense signal of the underlying medium: bytes accepted for
    transmission whose serialization has not completed yet (see
    {!Medium.backlog}).  Dropped datagrams never reach the wire and so
    never contribute. *)
val backlog : 'a t -> int

(** [inject_drops t idxs] forces the datagrams at the given indices —
    counted from the next {!send}, 0 being that next send — to be dropped,
    regardless of the random loss setting.  Forced drops are accounted like
    random ones ([datagram.dropped], dropped bytes) but consume no rng
    draw.  Test hook for deterministic single-frame-loss scenarios. *)
val inject_drops : 'a t -> int list -> unit

val set_handler :
  'a t -> node:int -> (src:int -> size:int -> 'a -> unit) -> unit

(** [send t ~src ~dst ~payload_bytes v] transmits one datagram.  The wire
    frame is [payload_bytes + header_bytes] long; the handler sees
    [size = payload_bytes]. *)
val send : 'a t -> src:int -> dst:int -> payload_bytes:int -> 'a -> unit

(** {1 Statistics}

    Counters [datagram.sent], [datagram.dropped], [datagram.dropped_bytes]
    (the full size, payload plus header, of frames lost to simulated
    loss: the correction term of the cost-conservation equation, see
    {!Carlos_obs.Cost}) and [datagram.payload_bytes] live in the registry
    under {!Carlos_obs.Obs.global_node}, [Net] layer, cumulative since
    creation.  Read them by key; a phase is the difference of two
    reads. *)
