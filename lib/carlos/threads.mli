(** User-level multithreading support (paper §4.4).

    TreadMarks allocates one thread of control per node, so a node idles
    whenever it blocks on a page or diff fault.  CarlOS is designed to
    support multiple user threads per node: an upcall to a user-level
    scheduler runs whenever a thread is about to block on a remote
    coherent-memory operation, so another thread can run and mask the
    latency ("multiprogramming is the classic technique for hiding the
    latencies of blocking operations").

    This package is one such thread library built on those hooks.  Each
    thread is a cooperative fiber of the node; when a thread blocks in the
    consistency layer (fault, lock, dequeue), the node's other threads keep
    running. *)

type t

(** A thread pool bound to one node. *)
val create : Node.t -> t

(** Start a thread.  Threads run cooperatively; they interleave at
    blocking points (faults, message waits, [yield]). *)
val spawn : t -> (unit -> unit) -> unit

(** Let other threads of this node run. *)
val yield : t -> unit

(** Block until every spawned thread has finished.  New threads may be
    spawned while waiting. *)
val join_all : t -> unit

(** Threads currently running or runnable. *)
val live : t -> int
