(* The LRC fetch path.  See lrc_fetch.mli. *)

open Lrc_core

(* The ids of [ids] a copy covering [vc] does not reflect.  An interval
   (c, k) is reflected in (or superseded within) such a copy exactly when
   vc.(c) >= k.  Full vector-clock dominance would be wrong here:
   unrelated components can make an old interval look concurrent, and
   re-applying its diff over the copy would clobber newer bytes. *)
let above vc ids =
  List.filter
    (fun (id : Interval.id) ->
      id.Interval.index > Vc.get vc id.Interval.creator)
    ids

(* Install a whole-page copy over [page], which stays invalid until the
   caller has applied what the copy lacks.  The install charge yields. *)
let install t page { data; covers } =
  Obs.inc t.ins.page_fetches_c;
  let p = Page_table.page t.page_table page in
  Page.install p data;
  Page.invalidate p;
  note_page_content t page covers;
  t.charge (t.costs.Cpu_cost.twin_per_byte *. float_of_int (Bytes.length data));
  p

(* Try a whole-page fetch from the creator of the causally latest of
   [ids], at least four missing ids of other nodes; returns the ids still
   missing afterwards. *)
let fetch_whole_page t page ids =
  let target =
    List.fold_left
      (fun best id ->
        let i = find_interval t id in
        if i.Interval.rank > best.Interval.rank then i else best)
      (find_interval t (List.hd ids))
      (List.tl ids)
  in
  let dst = target.Interval.id.Interval.creator in
  match Lrc_serve.fetch_page t ~dst ~page with
  | None -> ids
  | Some reply ->
    if
      not
        (Vc.dominates reply.covers (page_content_vc t page)
        && Vc.dominates reply.covers t.vc)
    then begin
      (* Installing could lose content this node's copy (or its
         knowledge) already reflects; fall back to per-interval diffs.
         Requiring the server to dominate the full vector clock is
         conservative but provably cannot clobber newer bytes.  The reply
         crossed the wire for nothing. *)
      Obs.inc t.ins.waste_pages_c;
      Obs.add t.ins.waste_page_bytes_c (Lrc_serve.page_reply_bytes t);
      ids
    end
    else begin
      Lrc_close.restore_orphans t page (install t page reply);
      above reply.covers ids
    end

(* The total order in which a page's diffs are applied: causal (sum of
   vector-clock components), ties broken deterministically.  Each id is
   resolved once, into an array sorted in place; a list too short to
   compare is returned without any lookup. *)
let causal_order t ids =
  match ids with
  | [] | [ _ ] -> ids
  | first :: rest ->
    let a = Array.make (List.length ids) (find_interval t first) in
    List.iteri (fun k id -> a.(k + 1) <- find_interval t id) rest;
    Interval.sort_in_place a;
    Array.fold_right (fun (i : Interval.t) acc -> i.Interval.id :: acc) a []

(* Check a reply entry against the request it answers, [pending] being
   the entries not yet matched, and return the entries after the match.
   The server answers every requested id of an entry in request order, so
   a reply entry must be one of them; a run's later ids come back with
   no pieces. *)
let rec match_request page (id : Interval.id) = function
  | [] -> raise (Protocol_violation "diff reply for an unrequested id")
  | (p, ids) :: rest ->
    let rec within = function
      | [] -> match_request page id rest
      | (i : Interval.id) :: more ->
        if p = page && i.Interval.index = id.Interval.index
           && i.Interval.creator = id.Interval.creator
        then match more with [] -> rest | _ :: _ -> (p, more) :: rest
        else within more
    in
    within ids

(* Fetch the diffs for [targets] (per page, its mergeable runs: same-
   creator ids whose diffs are not held locally, in causal order) into
   the store: one diff request per creator, spanning pages, with one
   request entry per run.  Distinct creators answer independently, so
   their round trips are overlapped by issuing each request from its own
   forked fiber and joining on ivars.  Returns the ids answered with no
   pieces (a merged run's later ids), which apply as empty. *)
let fetch_missing t targets =
  let requests = Array.make t.nodes [] in
  let creators = ref [] in
  List.iter
    (fun (page, runs) ->
      List.iter
        (fun run ->
          match run with
          | [] -> ()
          | (id : Interval.id) :: _ ->
            let creator = id.Interval.creator in
            (match requests.(creator) with
            | [] -> creators := creator :: !creators
            | _ :: _ -> ());
            requests.(creator) <- (page, run) :: requests.(creator))
        runs)
    targets;
  let empties = ref [] in
  let do_fetch creator =
    let request = List.rev requests.(creator) in
    Obs.inc t.ins.diff_requests_c;
    let reply = Lrc_serve.fetch_diffs t ~dst:creator request in
    ignore
      (List.fold_left
         (fun pending (page, (id : Interval.id), ds) ->
           let pending = match_request page id pending in
           if id.Interval.creator <> creator then
             raise (Protocol_violation "diff reply for an unrequested id");
           (match ds with
           | [] -> empties := (page, id) :: !empties
           | _ :: _ ->
             List.iter
               (fun d ->
                 Obs.add t.ins.diff_bytes_fetched_c (Diff.size_bytes d);
                 Diff_store.add t.store ~page id d)
               ds);
           pending)
         request reply)
  in
  (match List.rev !creators with
  | [] -> ()
  | [ creator ] -> do_fetch creator
  | many ->
    let slots =
      List.map
        (fun creator ->
          let slot = Ivar.create () in
          Engine.fork (fun () ->
              Ivar.fill slot
                (match do_fetch creator with
                | () -> Ok ()
                | exception e -> Error e));
          slot)
        many
    in
    List.iter
      (fun slot ->
        match Ivar.read slot with Ok () -> () | Error e -> raise e)
      slots);
  !empties

(* Split a page's causally ordered ids into mergeable runs: maximal
   stretches of one creator's ids whose diffs are not held here.  The ids
   of a run are adjacent in the apply order — no other interval's diff
   applies between them — so the creator may collapse the run's diffs
   into one merged diff: applied at the run's position it is byte-for-byte
   equivalent to applying them one by one.  A held id ends the run, since
   its diff applies between the ids around it; [held] tells them apart. *)
let mergeable_runs ordered ~held =
  let rec group runs run = function
    | [] -> List.rev (if run = [] then runs else List.rev run :: runs)
    | (id : Interval.id) :: rest ->
      if held id then
        group (if run = [] then runs else List.rev run :: runs) [] rest
      else begin
        match run with
        | (last : Interval.id) :: _
          when last.Interval.creator <> id.Interval.creator ->
          group (List.rev run :: runs) [ id ] rest
        | _ -> group runs (id :: run) rest
      end
  in
  group [] [] ordered

(* Gather diffs for each page of [targets]: held ones are in the local
   store already, the rest are fetched into it from their creators
   (blocking).  Returns the ids answered with no pieces. *)
let collect_diffs t targets =
  let remote =
    List.filter_map
      (fun (page, ids) ->
        let missed = ref 0 in
        List.iter
          (fun (id : Interval.id) ->
            if not (Diff_store.mem t.store ~page id) then begin
              if id.Interval.creator = t.me then
                raise (Protocol_violation "own diff missing from store");
              incr missed
            end)
          ids;
        if !missed = 0 then None
        else
          Some
            ( page,
              mergeable_runs (causal_order t ids) ~held:(fun id ->
                  Diff_store.mem t.store ~page id) ))
      targets
  in
  match remote with [] -> [] | _ :: _ -> fetch_missing t remote

let apply_diff t p d =
  Page.apply_diff p d;
  Obs.inc t.ins.diffs_applied_c;
  t.charge
    (t.costs.Cpu_cost.diff_data_per_byte *. float_of_int (Diff.changed_bytes d))

let rec answered_empty page (id : Interval.id) = function
  | [] -> false
  | (p, (i : Interval.id)) :: rest ->
    (p = page && i.Interval.creator = id.Interval.creator
    && i.Interval.index = id.Interval.index)
    || answered_empty page id rest

(* Apply [ids]' diffs to [page] in causal order: every id's pieces are
   in the store, or it was answered with none ([empties]). *)
let apply_diffs t page ids empties =
  let ordered = causal_order t ids in
  let p = Page_table.page t.page_table page in
  List.iter
    (fun (id : Interval.id) ->
      (match Diff_store.find t.store ~page id with
      | Some ds -> List.iter (apply_diff t p) ds
      | None ->
        if not (answered_empty page id empties) then
          raise (Protocol_violation "no diff collected for missing id"));
      note_page_interval t page ~creator:id.Interval.creator
        ~index:id.Interval.index)
    ordered

(* The ids of [ids] not in [handled], the list a fetch started from.
   Write notices that arrive during a fetch are consed onto that list,
   and a page's fetch gate keeps every other change away from it, so
   [handled] is a physical suffix of [ids] and the answer is the prefix
   before it. *)
let unhandled ids ~handled =
  let rec prefix acc = function
    | rest when rest == handled -> List.rev acc
    | [] -> raise (Protocol_violation "missing list changed under its fetch")
    | id :: rest -> prefix (id :: acc) rest
  in
  prefix [] ids

let rec unmark row = function
  | [] -> ()
  | (id : Interval.id) :: rest ->
    row.(id.Interval.creator) <- 0;
    unmark row rest

(* Drop [page]'s missing list [ids], and with it the marks of their
   creators (see [invalidate]); other creators' marks stay.  An id is
   only in a list once its page has a [noticed] row. *)
let forget_missing t page ids =
  unmark t.noticed.(page) ids;
  t.missing.(page) <- []

(* Leave [remaining] as the page's missing list; validate the page only
   if that is empty, i.e. nothing new arrived while we were blocked. *)
let settle_page t page remaining =
  match remaining with
  | [] ->
    forget_missing t page t.missing.(page);
    let p = Page_table.page t.page_table page in
    if Page.state p = Page.Invalid then begin
      Page.validate p;
      t.charge t.costs.Cpu_cost.page_protect
    end
  | _ -> t.missing.(page) <- remaining

(* Remove exactly [handled] from the page's missing set. *)
let finish_page t page ~handled =
  settle_page t page (unhandled t.missing.(page) ~handled)

let fetch_and_apply t targets =
  let prepared =
    List.map
      (fun (page, ids) ->
        (* Ids the page content already reflects (e.g. a write notice that
           arrived while a whole-page install covering it was in flight)
           must not be re-fetched: their old diffs would clobber newer
           bytes. *)
        let needed = above (page_content_vc t page) ids in
        (* Many missing intervals make a whole-page copy cheaper than diffs
           (TreadMarks requests the page outright when it holds no copy; we
           approximate with a count heuristic). *)
        let remaining =
          if List.length needed > 3 then fetch_whole_page t page needed
          else needed
        in
        (page, remaining))
      targets
  in
  let work = List.filter (fun (_, ids) -> ids <> []) prepared in
  (match work with
  | [] -> ()
  | _ ->
    let empties = collect_diffs t work in
    List.iter (fun (page, ids) -> apply_diffs t page ids empties) work);
  List.iter (fun (page, ids) -> finish_page t page ~handled:ids) targets

let fetch_batch t targets =
  Profile.enter fetch_span;
  Writeback.under_gates t.wb (List.map fst targets) (fun () ->
      fetch_and_apply t targets);
  Profile.leave fetch_span

(* Whether the write notices [pages] name [page]: [List.mem] without the
   polymorphic compare. *)
let rec names page = function
  | [] -> false
  | p :: rest -> p = page || names page rest

(* The floor below which nothing of [creator] is needed for a page whose
   content covers [covers]: the coverage, or the last GC's snapshot, at
   or below which everything is discarded (had it written the page, that
   GC would have re-elected the keeper, whose base covers it). *)
let needed_floor t ~covers creator =
  Int.max (Vc.get covers creator) (Vc.get t.gc_floor creator)

(* The logged intervals that wrote [page] and that the page's content may
   lack: above the floor, at most the vector clock (an id above it
   belongs to an accept still in progress, whose write notice then leaves
   it missing), and above [scanned], the clock of the previous round,
   whose ids have been applied already if they wrote the page.  Raises
   [scanned] to the clock. *)
let writes_above t page ~covers ~scanned =
  let ids = ref [] in
  for creator = 0 to t.nodes - 1 do
    let top = Vc.get t.vc creator in
    let from = Int.max (needed_floor t ~covers creator) scanned.(creator) in
    for index = from + 1 to top do
      let id = { Interval.creator; index } in
      if names page (find_interval t id).Interval.write_notices then
        ids := id :: !ids
    done;
    if top > scanned.(creator) then scanned.(creator) <- top
  done;
  !ids

(* Rebuild a page whose stale copy a GC dropped: install the keeper's
   base, apply every logged interval above the base that wrote the page
   (this node's own included), then re-apply the open interval's orphans.
   The catch-up loops because fetching yields: new write notices can
   arrive, and a close can publish the orphans as an own interval.  It
   tracks the clock up to which it applied rather than the page's
   coverage, which that close bumps before its diff is applied here: an
   id that wrote the page is applied exactly when it lies above the
   floor and at most [scanned]. *)
let refetch_dropped t page ~keeper =
  let base = Lrc_serve.fetch_base t ~dst:keeper ~page in
  t.dropped.(page) <- not_dropped;
  forget_page_content t page;
  let p = install t page base in
  let covers = base.covers in
  let scanned = Array.make t.nodes 0 in
  let rec catch_up () =
    match writes_above t page ~covers ~scanned with
    | [] -> ()
    | ids ->
      apply_diffs t page ids (collect_diffs t [ (page, ids) ]);
      catch_up ()
  in
  catch_up ();
  Lrc_close.restore_orphans t page p;
  settle_page t page
    (List.filter
       (fun (id : Interval.id) ->
         let c = id.Interval.creator and index = id.Interval.index in
         index > Vc.get covers c
         && not (index > needed_floor t ~covers c && index <= scanned.(c)))
       t.missing.(page))

(* [extra] with [other] in front if [other] may ride along in the batch
   of a fault on [page]: an accessed missing page that no fetch or
   refetch owns. *)
let ride t ~page other extra =
  if has_flag t other accessed_flag && other <> page then
    match t.missing.(other) with
    | [] -> extra
    | ids ->
      if
        (not (Writeback.fetching t.wb other))
        && t.dropped.(other) = not_dropped
      then (other, ids) :: extra
      else extra
  else extra

(* The missing pages other than [page] that may ride along in its
   fault's batch, each with its missing ids, in ascending page order.
   Few pages are accessed, so the scan reads the flags eight pages to a
   64-bit load and skips a word with no accessed bit; the pages past the
   last whole word are read one by one. *)
let ride_along t page =
  let extra = ref [] in
  let words = Bytes.length t.flags / 8 in
  for other = Bytes.length t.flags - 1 downto words * 8 do
    extra := ride t ~page other !extra
  done;
  for w = words - 1 downto 0 do
    if Int64.logand (flag_word t w) accessed_in_every_byte <> 0L then
      for other = (w * 8) + 7 downto w * 8 do
        extra := ride t ~page other !extra
      done
  done;
  !extra

(* Bring one invalid page up to date.  Loops because new write notices can
   arrive while we block on the network.  The other missing pages this
   node has faulted on before ride along in the same round: their diffs
   come back in the same per-creator requests, sparing each page its own
   later round trips. *)
let rec validate_page t page =
  match Writeback.fetch_gate t.wb page with
  | Some gate ->
    Ivar.read gate;
    validate_page_if_needed t page
  | None -> (
    let keeper = t.dropped.(page) in
    if keeper <> not_dropped then begin
      Profile.enter fetch_span;
      Writeback.under_gates t.wb [ page ] (fun () ->
          refetch_dropped t page ~keeper);
      Profile.leave fetch_span;
      validate_page_if_needed t page
    end
    else
      match t.missing.(page) with
      | [] ->
        let p = Page_table.page t.page_table page in
        if Page.state p = Page.Invalid then Page.validate p
      | ids ->
        fetch_batch t ((page, ids) :: ride_along t page);
        validate_page_if_needed t page)

and validate_page_if_needed t page =
  let p = Page_table.page t.page_table page in
  if Page.state p = Page.Invalid then validate_page t page

let note_access t page = set_flag t page accessed_flag

let read_fault t page =
  note_access t page;
  t.charge t.costs.Cpu_cost.fault_trap;
  validate_page t page

(* A write notice of interval [id] invalidates the local copy [p] of
   [page].  Record the missing id before the invalidation charge yields:
   a fault in that window must find it, or it would validate the page
   with nothing to fetch.

   A repeated notice (two accepts racing through the same interval) is
   recorded once.  A creator's intervals are applied in index order, so
   a fresh notice is always above the page's [noticed] mark for its
   creator.  An id leaves [missing] only when the page's content covers
   it, after which the caller filters its notice out, or when a GC drops
   the page, whose rebuild applies every logged write above its base.  So
   an id at or below the mark is one the list holds or no longer needs,
   and a mark may go with the list that made it ([forget_missing]). *)
let invalidate t page p (id : Interval.id) =
  let row =
    match t.noticed.(page) with
    | [||] ->
      let row = Array.make t.nodes 0 in
      t.noticed.(page) <- row;
      row
    | row -> row
  in
  let creator = id.Interval.creator and index = id.Interval.index in
  if index > row.(creator) then begin
    row.(creator) <- index;
    t.missing.(page) <- id :: t.missing.(page)
  end;
  if Page.state p <> Page.Invalid then begin
    Page.invalidate p;
    (* Decay the prefetch history: the page must fault again to prove it
       is still wanted before riding along in batches. *)
    clear_flag t page accessed_flag;
    t.charge t.costs.Cpu_cost.page_protect
  end

(* Fetch what [pages] miss, in one batch, unless a fetch or a refetch
   already owns them. *)
let refresh t pages =
  let stale =
    List.filter_map
      (fun page ->
        if Writeback.fetching t.wb page || t.dropped.(page) <> not_dropped
        then None
        else
          match t.missing.(page) with
          | [] -> None
          | ids -> Some (page, ids))
      pages
  in
  if stale <> [] then fetch_batch t stale

(* Drop every copy that still misses history at or below [snapshot] (that
   history is about to be discarded), remembering the keeper to refetch a
   base from, and point earlier drops at the current [keepers].  A fetch
   in flight may still need that history, so wait for every one to finish
   first; the drop itself does not yield. *)
let rec drop_stale t snapshot ~keepers =
  match Writeback.any_fetch_gate t.wb with
  | Some gate ->
    Ivar.read gate;
    drop_stale t snapshot ~keepers
  | None ->
    for page = 0 to Array.length t.missing - 1 do
      let ids = t.missing.(page) in
      if
        List.exists
          (fun (id : Interval.id) ->
            id.Interval.index <= Vc.get snapshot id.Interval.creator)
          ids
      then begin
        forget_missing t page ids;
        forget_page_content t page;
        t.dropped.(page) <- keepers.(page)
      end;
      if t.dropped.(page) <> not_dropped then begin
        let keeper = keepers.(page) in
        if keeper < 0 || keeper = t.me then
          raise
            (Protocol_violation
               (Printf.sprintf "dropped page %d has no other keeper" page));
        t.dropped.(page) <- keeper
      end
    done
