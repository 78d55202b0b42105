(** Flat 4-ary min-heap keyed by [(time, seq)] pairs.

    The heap is the event queue of the simulation engine.  Keys are compared
    lexicographically: earlier virtual time first, and among simultaneous
    events the lower sequence number first, which gives the engine a total,
    deterministic order.

    Keys live in parallel unboxed [float]/[int] arrays and payloads in a
    plain ['a array], so pushes and pops allocate nothing (see heap.ml for
    the layout rationale).  Vacated payload slots are overwritten with
    [dummy] so popped values — thunk closures, blocked continuations — are
    released to the GC immediately. *)

type 'a t

(** [create ~dummy ()] — [dummy] fills unused payload slots; it must be a
    value that may safely outlive every real entry (e.g. [fun () -> ()]
    for a thunk heap). *)
val create : dummy:'a -> unit -> 'a t

val size : 'a t -> int

val is_empty : 'a t -> bool

(** [add h ~time ~seq v] inserts [v] with key [(time, seq)]. *)
val add : 'a t -> time:float -> seq:int -> 'a -> unit

(** Time of the smallest key, or [infinity] when the heap is empty.
    Allocation-free poll for the engine loop. *)
val min_time : 'a t -> float

(** Remove and return the payload with the smallest key.
    @raise Invalid_argument when the heap is empty. *)
val pop : 'a t -> 'a
