(** The diffs one LRC node holds: its own creations and fetched copies,
    by interval id and page.

    Each interval's diffs are encoded for that interval alone, so no
    physical diff is stored under two ids.  A page maps to a list of
    pieces under an id because a page can be flushed repeatedly within
    one id's window, and the pieces apply in the order they were stored.

    The store keeps one row per creator, indexed by interval index as
    {!Interval.Log} keeps its intervals; an index's slot holds the pieces
    of each page it has any for in an open-addressed table by page, so a
    lookup does not walk every page of a large interval.  The GC's
    discard drops a prefix of each row and never walks the diffs above
    the snapshot.  Nothing here yields. *)

type t

(** An empty store for a cluster of [nodes] nodes. *)
val create : nodes:int -> t

(** Store one more piece under [(page, id)]. *)
val add : t -> page:int -> Interval.id -> Carlos_vm.Diff.t -> unit

(** Set the pieces under [(page, id)] to [ds], in the order they
    apply. *)
val replace : t -> page:int -> Interval.id -> Carlos_vm.Diff.t list -> unit

(** The pieces stored under [(page, id)], in the order they apply. *)
val find : t -> page:int -> Interval.id -> Carlos_vm.Diff.t list option

(** Whether any piece is stored under [(page, id)]; allocates nothing. *)
val mem : t -> page:int -> Interval.id -> bool

(** Drop every piece whose interval is at or below [snapshot] in its
    creator's component. *)
val discard_upto : t -> Vc.t -> unit

(** Wire bytes of every piece held. *)
val bytes_stored : t -> int
