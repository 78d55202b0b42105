(** Write capture, shared by the three DSM backends.

    Every backend traps a node's first write to a clean page, keeps a twin,
    and later encodes the page's modifications as a diff (paper §4.2).
    This module owns the parts they share:

    - the write fault, which twins the page and charges for the trap;
    - the charge for encoding one diff;
    - the central and sequencer backends' flush encoding: a page is
      [Read_write] exactly while it holds writes no diff has captured
      yet, so the page table is their dirty set;
    - the per-page fetch gates, which make concurrent fibers faulting on
      one page wait for the first fetch instead of issuing their own;
    - the flush gate: one flush at a time per node.  A node's release
      (built by the application fiber, or by the dispatcher fiber
      granting a lock whose token rests here) must publish every write
      made before it, including writes another fiber's flush has encoded
      but not yet published.  A flush runs under {!exclusively}, so a
      second one waits for the first to finish before it looks for
      writes.

    [write_fault], [charge_encode], [encode_written] and [exclusively]
    (through [f], or while it waits) may yield the calling fiber; the
    others do not yield. *)

type t

val create :
  page_table:Carlos_vm.Page_table.t ->
  costs:Cpu_cost.t ->
  charge:(float -> unit) ->
  t

(** {1 Capture} *)

(** Twin [page] (which must be [Read_only]), then charge for the trap,
    the twin copy and the re-protection.  The twin exists before the
    charge yields, so a concurrent flush sees the page written. *)
val write_fault : t -> int -> unit

(** Charge for encoding [diff]: a scan of the whole page, a copy of the
    changed bytes and the re-protection. *)
val charge_encode : t -> Carlos_vm.Diff.t -> unit

(** Encode every [Read_write] page in ascending page order and return one
    diff per page that changed, counting each encode in [created].  A
    charge may yield to a fiber that writes the page again, so each page
    is encoded until it stays clean and the pieces are merged.  Writes to
    a page this scan has passed wait for the next flush. *)
val encode_written :
  t -> created:Carlos_obs.Obs.counter -> Carlos_vm.Diff.t list

(** {1 One flush at a time} *)

(** [exclusively t f x] waits until no flush of this node is in
    progress, then runs [f x] as the node's one flush in progress.  The
    gate allocates nothing unless it has to wait. *)
val exclusively : t -> ('a -> 'b) -> 'a -> 'b

(** {1 Fetch gates} *)

(** [under_gates t pages f] runs [f] with a gate on each of [pages] and
    opens them when [f] returns or raises. *)
val under_gates : t -> int list -> (unit -> unit) -> unit

(** The gate of the fetch in flight on a page, if any. *)
val fetch_gate : t -> int -> unit Carlos_sim.Resource.Ivar.t option

val fetching : t -> int -> bool

(** The gate of some fetch in flight on any page, if any. *)
val any_fetch_gate : t -> unit Carlos_sim.Resource.Ivar.t option
