(* LRC interval close and publish.  See lrc_close.mli. *)

open Lrc_core

(* Encode the modifications of a write-enabled page.  The twin always
   snapshots the page as of the last interval close, so the diff contains
   exactly the writes of the open interval.  Encoding re-protects the page
   and does not yield; the caller records the diff where a concurrent
   fiber can find it before it charges for the encode with
   [Writeback.charge_encode], which yields. *)
let encode t page =
  let p = Page_table.page t.page_table page in
  let diff = Page.encode_diff p ~page_index:page in
  Obs.inc t.ins.diffs_created_c;
  Obs.Hist.observe t.ins.diff_size_h (float_of_int (Diff.size_bytes diff));
  diff

(* A write notice arrived for a page the open interval is writing: encode
   the modifications so they survive invalidation, and park the diff until
   the open interval closes and gives it an id.  The diff is parked before
   the encode charge yields: a close in that window publishes the page's
   write notice, and must publish this diff with it. *)
let flush_page t page =
  let p = Page_table.page t.page_table page in
  match Page.state p with
  | Page.Read_only | Page.Invalid -> ()
  | Page.Read_write ->
    let diff = encode t page in
    t.orphans.(page) <- diff :: t.orphans.(page);
    Writeback.charge_encode t.wb diff

(* Still-unpublished local writes (orphans of the open interval) are
   newer than anything a served copy can hold; restore them onto [p]. *)
let restore_orphans t page p =
  List.iter (fun d -> Page.apply_diff p d) (List.rev t.orphans.(page))

(* Mutate before charging: charging yields the fiber, and a concurrent
   write-notice arrival could invalidate the page mid-fault. *)
let write_fault t page =
  Obs.inc t.ins.twins_created_c;
  if not (has_flag t page dirty_flag) then begin
    set_flag t page dirty_flag;
    t.dirty <- page :: t.dirty
  end;
  Writeback.write_fault t.wb page

(* The diff [encoded] holds for [page], if any. *)
let rec encoded_diff page = function
  | [] -> None
  | (p, d) :: rest -> if p = page then Some d else encoded_diff page rest

(* The body of [close_interval]: take the dirty pages, encode them and
   publish the new interval.  False when the open interval wrote
   nothing. *)
let publish_interval t =
  match t.dirty with
  | [] -> false
  | pages ->
    (* Take the dirty list before anything that can yield: writes made
       while this close encodes belong to the next interval. *)
    t.dirty <- [];
    List.iter (fun page -> clear_flag t page dirty_flag) pages;
    (* Phase 1 — encode every dirty page's diff BEFORE ticking the vector
       clock.  Encoding charges CPU and yields the fiber, and a fetch_page
       request serviced at interrupt level during such a yield uses t.vc to
       claim what the served snapshot covers.  Ticking first would let it
       claim the closing interval while the twin still excludes its writes
       — the receiver would then skip this interval's write notice and keep
       stale bytes forever.  With the un-ticked clock the claim is exact
       for still-writable pages (the twin is served) and merely
       conservative for just-encoded ones (re-applying the diff over its
       own bytes is idempotent). *)
    let encoded =
      List.filter_map
        (fun page ->
          let p = Page_table.page t.page_table page in
          if Page.state p = Page.Read_write then begin
            let diff = encode t page in
            Writeback.charge_encode t.wb diff;
            Some (page, diff)
          end
          else None)
        pages
    in
    (* Phase 2 — publish atomically: no charges (hence no yields) between
       the tick and the page-coverage notes, so no observer can see the new
       index without the frames and diff store reflecting it. *)
    let index = new_interval t ~pages in
    Obs.inc t.ins.intervals_created_c;
    Obs.add t.ins.write_notices_sent_c (List.length pages);
    let id = { Interval.creator = t.me; index } in
    List.iter
      (fun page ->
        (* Diffs encoded mid-interval by write-notice arrivals... *)
        (match t.orphans.(page) with
        | [] -> ()
        | ds ->
          List.iter (fun d -> Diff_store.add t.store ~page id d) (List.rev ds);
          t.orphans.(page) <- []);
        (* ...and the final state of the page if it was still writable. *)
        (match encoded_diff page encoded with
        | Some d -> Diff_store.add t.store ~page id d
        | None -> ());
        note_page_interval t page ~creator:t.me ~index)
      pages;
    true

(* Close the open interval, if it wrote anything: assign the next index,
   log the interval with one write notice per dirty page, and encode every
   dirty page's diff eagerly so the page can be re-protected.  Eager
   encoding keeps write notices precise — a page is advertised in exactly
   the intervals that really wrote it, and a diff published under an
   interval id contains exactly that interval's modifications, which the
   causal apply order relies on.

   A close yields while it charges for the encodes, and another fiber of
   this node can release in that window (the dispatcher granting a lock
   whose token rests here).  That release must carry the interval being
   closed, so closes run one at a time under the node's flush gate
   ({!Writeback.exclusively}): the second waits until the first has
   published, then re-checks. *)
let close_interval t =
  if Writeback.exclusively t.wb publish_interval t then
    t.charge t.costs.Cpu_cost.interval_create
