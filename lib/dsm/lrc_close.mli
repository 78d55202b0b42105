(** LRC interval close and publish: the dirty set, the orphan diffs and
    the close gate.

    Owns the pages written in the open interval and the orphans: diffs
    encoded mid-interval, when a write notice arrives for a page the open
    interval is writing, that wait for the open interval's id.

    Yields, and what each holds across the yield:
    - [write_fault] twins the page and adds it to the dirty set before
      it charges for the trap, so a flush or close in that window sees
      the page written;
    - [flush_page] charges for the encode after the orphan is parked, so
      a close in that window publishes the orphan with the page's write
      notice (DESIGN.md §9's second window);
    - [close_interval] charges for each encode, then for the close.  It
      runs under the node's flush gate ({!Writeback.exclusively}), so a
      release by another fiber of this node waits until the interval is
      published and then carries it (§9's first window).  It takes the
      dirty list before its first yield, and ticks the clock, logs the
      interval and stores its diffs after its last encode, without a
      yield in between.
    [restore_orphans] does not yield. *)

open Lrc_core

(** The page table's write-fault handler: twin [page] and add it to the
    dirty set. *)
val write_fault : t -> int -> unit

(** Encode a [Read_write] page's writes as an orphan of the open
    interval; any other page is left alone. *)
val flush_page : t -> int -> unit

(** [restore_orphans t page p] re-applies [page]'s orphans to its frame
    [p], oldest first, after a whole-page install. *)
val restore_orphans : t -> int -> Carlos_vm.Page.t -> unit

(** Close the open interval, if it wrote anything: encode every dirty
    page, tick the clock, log the interval and store its diffs and
    orphans under its id. *)
val close_interval : t -> unit
