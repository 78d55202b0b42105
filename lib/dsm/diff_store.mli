(** The diffs one LRC node holds: its own creations and fetched copies,
    keyed by page and interval id.

    One flush can cover several closed intervals, in which case the same
    physical diff is stored (aliased) under each of their ids; an id maps
    to a list because a page can be flushed repeatedly within one id's
    window, and the pieces apply in the order they were stored.  The
    store keeps each list newest-first, so adding is O(1) where appending
    was O(n), and hands it back in that apply order.  Nothing here
    yields. *)

type t

(** Tables keyed by {!key}: they hash and compare ints, not tuples. *)
module Itbl : Hashtbl.S with type key = int

(** An empty store for a cluster of [nodes] nodes whose page table has
    [pages] pages. *)
val create : nodes:int -> pages:int -> t

(** (page, creator, index) packed into one int.  The index is unbounded,
    so it takes the high digits: the key stays below 2^62 for any index
    a run can reach. *)
val key : t -> page:int -> Interval.id -> int

(** Store one more piece under [(page, id)]. *)
val add : t -> page:int -> Interval.id -> Carlos_vm.Diff.t -> unit

(** The pieces stored under [(page, id)], in the order they apply. *)
val find : t -> page:int -> Interval.id -> Carlos_vm.Diff.t list option

(** Drop every piece whose interval is at or below [snapshot] in its
    creator's component. *)
val discard_upto : t -> Vc.t -> unit

(** Wire bytes of every piece held, counting an aliased diff once per id
    it is stored under. *)
val bytes_stored : t -> int
