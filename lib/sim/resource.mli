(** Virtual-time coordination primitives for fibers.

    All blocking operations must be called from inside a fiber of a running
    {!Engine.t}; wake-ups reschedule the blocked fiber at the then-current
    virtual time. *)

(** Write-once cell: the building block for simulated RPC replies. *)
module Ivar : sig
  type 'a t

  val create : unit -> 'a t

  (** Fill the cell and wake all readers.  Raises [Invalid_argument] if
      already filled. *)
  val fill : 'a t -> 'a -> unit

  val is_filled : 'a t -> bool

  (** Block until filled, then return the value.  Returns immediately if
      already filled. *)
  val read : 'a t -> 'a
end

(** Unbounded FIFO mailbox. *)
module Mailbox : sig
  type 'a t

  val create : unit -> 'a t

  val send : 'a t -> 'a -> unit

  (** Block until a message is available; messages are delivered in FIFO
      order, one per blocked receiver, in the order receivers arrived. *)
  val recv : 'a t -> 'a
end

(** Counting semaphore with FIFO wake order. *)
module Semaphore : sig
  type t

  val create : int -> t

  val wait : t -> unit

  val signal : t -> unit

  val value : t -> int
end
