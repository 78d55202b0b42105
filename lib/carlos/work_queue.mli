(** Centralized shared work queue with a fixed manager (paper §2.2, §3).

    Enqueue messages are marked [RELEASE] and are {e stored} at the
    manager: "the manager code acts as a forwarding agent for the messages
    in the queue; it never accepts any RELEASE messages".  A dequeue
    request ([REQUEST]) causes the stored enqueue message to be forwarded
    to the requester, which accepts it — so the dequeuer becomes
    memory-consistent with the node that created the item, and only with
    it.  Enqueues are completely asynchronous; dequeues block.

    In the two forwarding modes ([Forwarding] and [All_release] below),
    the manager keeps what each enqueue carries without becoming
    consistent ({!Node.store}), and the enqueuer knows it does
    ([Node.send ~relayed:true]), so a node's back-to-back enqueues carry
    each of its intervals once; the forwarded copy carries what the
    dequeuer lacks ({!Node.forward}).

    The two degraded modes measured in §5.2 are also provided:
    - [All_release]: dequeue requests are full [RELEASE] messages
      (the paper's Quicksort "Hybrid-2");
    - [No_forwarding]: the manager accepts enqueues and answers dequeues
      with fresh [RELEASE] replies, putting itself in every causal chain
      (performance "nearly identical to Hybrid-2"). *)

type mode = Forwarding | All_release | No_forwarding

type 'a t

val create :
  System.t -> manager:int -> name:string -> ?mode:mode -> unit -> 'a t

(** [enqueue t node ~bytes item] — [bytes] is the marshalled size of
    [item] on the wire.  Asynchronous. *)
val enqueue : 'a t -> Node.t -> bytes:int -> 'a -> unit

(** Blocks until an item is available; [None] once the queue has been
    closed and emptied. *)
val dequeue : 'a t -> Node.t -> 'a option

(** Close the queue: pending and future dequeues beyond the remaining
    items return [None]. *)
val close : 'a t -> Node.t -> unit

(** Test-only corruption: arm a one-shot fault that makes the manager
    {e accept} the next enqueue message instead of relaying it (it then
    re-publishes the item itself, as in [No_forwarding] mode).  Violates
    the manager's never-becomes-consistent property, which the online
    auditor must report against the enqueue's trace id.  Never used in
    production code. *)
val chaos_accept_once : 'a t -> unit
