(** The LRC fetch path: collect, fetch, apply and finish, the refetch of
    a page a GC dropped, and the invalidation that makes a page missing.

    Owns each invalid page's missing interval ids (with, per page and
    creator, the highest index recorded), the pages with a live
    local demand (which may ride along in a fault's batch) and the pages
    a GC dropped, each with its keeper.

    Yields, and what each holds across the yield:
    - [read_fault], [validate_page_if_needed] and [refresh] block on
      round trips and charge for installs and applies.  Each fetch runs
      under per-page fetch gates ({!Writeback.under_gates}), so a second
      fault on the page waits for it.  A page's missing ids can grow
      while it is fetched; the fetch removes only the ids it handled and
      validates the page only if none remain.  A refetch of a dropped
      page re-checks the log after each round trip, and restores the
      orphans only once it has caught up;
    - [invalidate] charges for the protection change after it records
      the missing id, so a fault in that window fetches it (DESIGN.md
      §9's third window);
    - [apply_diff] charges after the diff is applied;
    - [drop_stale] waits until no fetch is in flight, then drops without
      yielding.
    [note_access] does not yield. *)

open Lrc_core

(** The page table's read-fault handler: bring [page] up to date. *)
val read_fault : t -> int -> unit

(** Record a local access to [page], which lets it ride along in later
    fault batches. *)
val note_access : t -> int -> unit

(** [invalidate t page p id]: a write notice of interval [id] makes the
    local copy [p] of [page] stale.  A repeated notice records [id] once;
    the check is O(1). *)
val invalidate : t -> int -> Carlos_vm.Page.t -> Interval.id -> unit

(** [apply_diff t p d] applies [d] to [p], counting and charging for
    it. *)
val apply_diff : t -> Carlos_vm.Page.t -> Carlos_vm.Diff.t -> unit

(** Bring [page] up to date if it is invalid. *)
val validate_page_if_needed : t -> int -> unit

(** Fetch, in one batch, what [pages] miss, skipping any page a fetch or
    a refetch already owns. *)
val refresh : t -> int list -> unit

(** [drop_stale t snapshot ~keepers] drops every copy that still misses
    history at or below [snapshot], to be refetched from its keeper in
    [keepers], and points earlier drops at the current [keepers]. *)
val drop_stale : t -> Vc.t -> keepers:int array -> unit
