(** A single coherent page frame on one node.

    State machine (mirrors the mprotect-based states of TreadMarks):

    - [Invalid]: the local copy is stale; a read or write access must first
      bring it up to date (apply missing diffs or fetch the page).
    - [Read_only]: the local copy is current and clean ("all clean shared
      pages are marked read-only"); a write access traps.
    - [Read_write]: the page has been written locally since the last diff;
      a {e twin} snapshot exists for later diffing. *)

type state = Invalid | Read_only | Read_write

type t

(** A capped free list of twin buffers, plus one shared zero frame per
    page size.  One simulation shares one pool among all its pages (every
    node's page table), so dropped twins are recycled within the run and
    never carry over into another, and no two simulations (e.g. on
    different domains) share a frame. *)
type twin_pool

val create_twin_pool : unit -> twin_pool

(** Fresh page in [Read_only] state whose content reads as zeros and
    whose twins come from and return to [twin_pool].  It has no frame of
    its own: its data is [twin_pool]'s shared zero frame for [size] until
    {!make_twin}, {!apply_diff}, {!apply_diff_to_twin}, {!patch} or
    {!install} first writes to it (frames on first touch). *)
val create : twin_pool:twin_pool -> size:int -> t

val state : t -> state

(** A read-only view of the page content: it may be the shared zero
    frame, which must never be written.  Write through {!patch} (or the
    other writers above) instead; the one exception is a [Read_write]
    page, whose data is its own frame.  Whatever frame it is, its length
    is the page's [size]. *)
val data : t -> Bytes.t

(** The page content as of the last interval boundary: the twin when the
    page is write-enabled (excluding unreleased modifications), the data
    otherwise.  This is the only sound base to hand to another node —
    run-length diffs assume the receiver's copy matches the writer's twin
    on unchanged bytes. *)
val clean_snapshot : t -> Bytes.t

(** Snapshot the current contents as the twin and move to [Read_write].
    Only legal from [Read_only]. *)
val make_twin : t -> unit

(** Encode modifications relative to the twin, drop the twin and return to
    [Read_only] (paper §4.2: "the twin is removed, and the page is marked
    read-only").  Only legal from [Read_write]. *)
val encode_diff : t -> page_index:int -> Diff.t

(** Mark the local copy stale.  Legal from any state; from [Read_write]
    the caller must have encoded the diff first (enforced). *)
val invalidate : t -> unit

(** Apply a diff from another writer to the local copy. *)
val apply_diff : t -> Diff.t -> unit

(** Apply a diff to both the live data and, when the page is
    [Read_write], the twin.  Update-style protocols that overwrite
    replicas in place (rather than invalidating) must use this form for
    foreign updates: patching only the data of a write-enabled page would
    make the local writer's next {!encode_diff} republish the foreign
    bytes as its own. *)
val apply_diff_to_twin : t -> Diff.t -> unit

(** Overwrite [offset..offset+len-1] with [src] in the live data and,
    when the page is [Read_write], in the twin — a single-run in-place
    update.  Its one user is preloading ({!Shm.patch_bytes}, which
    [System.preload_bytes] calls). *)
val patch : t -> offset:int -> Bytes.t -> unit

(** Overwrite the whole page (a full-page fetch) and mark [Read_only]. *)
val install : t -> Bytes.t -> unit

(** Declare an [Invalid] page current again after its diffs were applied. *)
val validate : t -> unit
