(** Per-node page table for the coherent shared region.

    Stands in for the Unix [mprotect]/[SIGSEGV] machinery: every access to
    the coherent region goes through {!Shm}, which consults the page table
    and invokes the installed fault handlers exactly where a hardware trap
    would fire.  The fault handlers (installed by the consistency protocol)
    may block the faulting fiber while they fetch pages or diffs. *)

type t

(** [create ?obs ?node ?twin_pool ~pages ~page_size ()] — fault counters
    register in [obs] (a fresh private registry by default) under the
    [Vm] layer for [node] (default {!Carlos_obs.Obs.global_node}).  The
    pages draw twins from [twin_pool] (a fresh private pool by
    default). *)
val create :
  ?obs:Carlos_obs.Obs.t ->
  ?node:int ->
  ?twin_pool:Page.twin_pool ->
  pages:int ->
  page_size:int ->
  unit ->
  t

val pages : t -> int

val page_size : t -> int

val page : t -> int -> Page.t

(** The table itself: page [i] is element [i].  {!Shm}'s typed accessors
    read a page's state and data from it without a call.  Read only. *)
val frames : t -> Page.t array

(** Install the handler run when a fiber reads an [Invalid] page.  On
    return the page must be readable. *)
val set_read_fault : t -> (int -> unit) -> unit

(** Install the handler run when a fiber writes a non-[Read_write] page.
    On return the page must be writable. *)
val set_write_fault : t -> (int -> unit) -> unit

(** Ensure the page may be read, faulting if needed. *)
val ensure_readable : t -> int -> unit

(** Ensure the page may be written, faulting if needed (a write to an
    [Invalid] page first takes the read fault, then the write fault, as
    with a real protection trap). *)
val ensure_writable : t -> int -> unit

(** {1 Statistics}

    Counters [read_faults] and [write_faults] live in the registry under
    the table's node, [Vm] layer, cumulative since creation.  Read them by
    key; a phase is the difference of two reads. *)
