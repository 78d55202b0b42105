(** Wire-byte taxonomy: attributes every simulated wire byte to one
    protocol component, so the scaling report can plot per-component
    growth curves and the auditor can enforce conservation.

    The conservation invariant — checked per run — is

    {[ Cost.total obs = medium.bytes + datagram.dropped_bytes ]}

    i.e. the component counters jointly account for every byte the
    medium carried plus every byte lost to datagram drops (dropped
    frames are attributed when sent, but never reach the medium). *)

type component =
  | Vc_entries  (** vector-clock / logical-ordering metadata *)
  | Write_notices  (** interval ids + per-interval write-notice lists *)
  | Diff_payload  (** encoded page diffs and page/diff fetch traffic *)
  | Ack  (** sliding-window cumulative ack frames *)
  | Lock_proto  (** lock and semaphore protocol messages *)
  | Barrier_proto  (** barrier protocol messages *)
  | Gc_proto  (** GC rendezvous traffic *)
  | App_payload  (** application-level message bodies (default class) *)
  | Am_header  (** active-message header, 16 bytes per message *)
  | Frame_header  (** Eth+IP+UDP header, 42 bytes per frame *)
  | Retransmit  (** sliding-window head-of-line retransmissions *)

(** All components, in declaration order. *)
val all : component list

val count : int

(** Stable short name, used as the [cost.<name>] counter suffix and as
    the JSON key in bench reports. *)
val name : component -> string

(** A handle over the shared per-registry component counters (registered
    idempotently at [Obs.global_node], layer [Net]). *)
type t

val create : Obs.t -> t

(** [add t c n] attributes [n] bytes to component [c].  No-op when
    [n = 0]. *)
val add : t -> component -> int -> unit

(** Current value of one component counter (0 if never registered). *)
val read : Obs.t -> component -> int

(** Sum of all component counters. *)
val total : Obs.t -> int

val breakdown : Obs.t -> (component * int) list

(** Right-hand side of the conservation equation:
    [medium.bytes + datagram.dropped_bytes]. *)
val wire_total : Obs.t -> int

(** [conserved obs] is [total obs = wire_total obs]. *)
val conserved : Obs.t -> bool
