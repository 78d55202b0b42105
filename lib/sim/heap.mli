(** Flat 4-ary min-heap keyed by [(time, seq)] pairs, with removal by slot.

    The heap is the event queue of the simulation engine.  Keys are compared
    lexicographically: earlier virtual time first, and among simultaneous
    events the lower sequence number first, which gives the engine a total,
    deterministic order.

    Keys live in parallel unboxed [float]/[int] arrays and every payload in
    a slot of a table beside them, so sifts move only unboxed data and
    pushes, pops and removals allocate nothing once the arrays have grown
    (see heap.ml for the layout rationale).  A vacated payload slot is
    overwritten with [dummy], so popped and removed values (thunk closures,
    blocked continuations) are released to the GC immediately. *)

type 'a t

(** [create ~dummy ()]: [dummy] fills unused payload slots; it must be a
    value that may safely outlive every real entry (e.g. [fun () -> ()]
    for a thunk heap). *)
val create : dummy:'a -> unit -> 'a t

val size : 'a t -> int

val is_empty : 'a t -> bool

(** [add h ~time ~seq v] inserts [v] with key [(time, seq)] and returns the
    slot that holds it until it is popped or removed.  Slots are small
    non-negative ints, reused once vacated. *)
val add : 'a t -> time:float -> seq:int -> 'a -> int

(** Time of the smallest key, or [infinity] when the heap is empty.
    Allocation-free poll for the engine loop. *)
val min_time : 'a t -> float

(** Sequence number of the smallest key, or [max_int] when the heap is
    empty. *)
val min_seq : 'a t -> int

(** Remove and return the payload with the smallest key.
    @raise Invalid_argument when the heap is empty. *)
val pop : 'a t -> 'a

(** [live h ~slot ~seq]: [slot] still holds the entry added with [seq]
    (it was neither popped nor removed).  Any int may be asked. *)
val live : 'a t -> slot:int -> seq:int -> bool

(** [remove h ~slot ~seq] removes the entry added with [seq] at [slot] in
    O(log n) and returns [true] if it is {!live}; otherwise it changes
    nothing and returns [false]. *)
val remove : 'a t -> slot:int -> seq:int -> bool
