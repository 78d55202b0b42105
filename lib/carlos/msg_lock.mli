(** The standard CarlOS lock: a distributed-queue protocol built from
    annotated messages (paper §3).

    To acquire, a node sends a [REQUEST] to the lock's manager, which
    forwards it to the node that last requested the lock (the tail of the
    distributed queue).  If that node no longer holds the lock it replies
    immediately with a [RELEASE] grant; otherwise it remembers the
    requester and grants on its own release.  The [REQUEST] piggybacks the
    requester's vector timestamp, so the grant carries precisely the
    consistency information the requester lacks — and, unlike a
    shared-memory lock, the request leg induces no consistency at all
    (Figure 1's asymmetry). *)

type t

(** [create system ~manager ~name] — [name] only aids tracing. *)
val create : System.t -> manager:int -> name:string -> t

(** Blocks the calling fiber until the lock is granted.  Accepting the
    grant makes this node consistent with the previous holder. *)
val acquire : t -> Node.t -> unit

val release : t -> Node.t -> unit

(** [with_lock t node f] = acquire; [f ()]; release (also on exception). *)
val with_lock : t -> Node.t -> (unit -> 'a) -> 'a
