(** The diffs one LRC node holds: its own creations and fetched copies,
    by interval id and page.

    Each interval's diffs are encoded for that interval alone, so no
    physical diff is stored under two ids.  A page maps to a list of
    pieces under an id because a page can be flushed repeatedly within
    one id's window, and the pieces apply in the order they were stored.

    The store is one {!Interval.Row} per creator, the layout of the
    interval log: an index's slot holds the pieces of each page it has
    any for, in an open-addressed table by page, so a lookup does not
    walk every page of a large interval.  The GC drops a creator's
    prefix of the log and of the store in one pass
    ({!discard_upto}), never walking the diffs above the snapshot.
    Nothing here yields. *)

type t

(** An empty store for a cluster of [nodes] nodes. *)
val create : nodes:int -> t

(** Store one more piece under [(page, id)]. *)
val add : t -> page:int -> Interval.id -> Carlos_vm.Diff.t -> unit

(** The pieces stored under [(page, id)], in the order they apply. *)
val find : t -> page:int -> Interval.id -> Carlos_vm.Diff.t list option

(** Whether any piece is stored under [(page, id)]; allocates nothing. *)
val mem : t -> page:int -> Interval.id -> bool

(** [discard_upto t ~creator ~index] drops every piece of [creator]'s
    intervals at or below [index]. *)
val discard_upto : t -> creator:int -> index:int -> unit

(** Wire bytes of every piece held. *)
val bytes_stored : t -> int
