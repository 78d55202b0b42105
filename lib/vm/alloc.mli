(** First-fit free-list allocator for a shared region.

    Shared data structures are allocated during application setup, with the
    same allocator state visible to every node (allocation is a
    coordinated, deterministic operation, as with a DSM malloc serviced by
    a manager node).  Addresses are absolute.  Nothing frees shared memory;
    first fit still matters, because a small block fills the padding an
    earlier aligned block left before itself. *)

type t

(** [create ~base ~size] manages [size] bytes starting at address [base]. *)
val create : base:int -> size:int -> t

(** [alloc t ?align n] returns the address of a fresh block of [n] bytes,
    aligned to [align] (default 8).  Raises [Out_of_memory] if no block
    fits. *)
val alloc : t -> ?align:int -> int -> int
