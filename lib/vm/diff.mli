(** Run-length encoded page diffs (paper §4.2).

    A diff records the maximal runs of bytes of a page that changed
    relative to its twin.  It is stored in its wire layout: one buffer
    holding, for each run in offset order, a little-endian u16 page
    offset, a u16 [length - 1] and the run bytes.  A diff is two heap
    blocks however many runs it has, and its wire size is the buffer's
    length plus a header.  Two-byte descriptors limit a page to
    {!max_page_size} (64 KiB) bytes.  Encoding compares a page with its
    twin eight bytes at a time and emits the runs in one pass into a
    scratch buffer of the calling domain's own, so domains may encode
    at once.  Applying a diff overwrites exactly
    those ranges, so applying the same diff twice is idempotent and diffs
    from concurrent writers to disjoint ranges commute — the property the
    multiple-writer protocol relies on. *)

type t

(** Largest page a diff can describe: 65,536 bytes, the reach of a
    two-byte run descriptor. *)
val max_page_size : int

(** [create ~page ~twin ~current] encodes the differences of [current]
    relative to [twin].  Both must have equal length, at most
    {!max_page_size}.  Once the domain's scratch buffer has grown to the
    page's size, it allocates only the diff's record and buffer. *)
val create : page:int -> twin:Bytes.t -> current:Bytes.t -> t

(** Which coherent page this diff describes. *)
val page : t -> int

(** Number of runs (maximal ranges of changed bytes). *)
val run_count : t -> int

val is_empty : t -> bool

(** Overwrite the changed ranges of [target] with the diff's data.
    Allocates nothing. *)
val apply : t -> Bytes.t -> unit

(** [merge ds] collapses several diffs of the same page into one whose
    application is equivalent to applying [ds] in list order (later runs
    win on overlap; adjacent runs coalesce).  It replays [ds] into a
    page image and touched-byte mask of the calling domain's own, so
    domains may merge at once; once they have grown to the merged
    extent, it allocates only the result's record and buffer.  Raises
    [Invalid_argument] on an empty list or mixed pages. *)
val merge : t list -> t

(** Wire size in bytes: a small header plus, per run, a 4-byte descriptor
    and the run data.  Constant time. *)
val size_bytes : t -> int

(** Total number of changed bytes carried.  Constant time. *)
val changed_bytes : t -> int

(** Prints the page and each run's byte range, e.g.
    [diff(page 3: [0..4) [9..10))]. *)
val pp : Format.formatter -> t -> unit
