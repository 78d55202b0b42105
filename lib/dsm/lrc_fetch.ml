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

(* Try a whole-page fetch from the creator of the causally latest missing
   interval; returns the ids still missing afterwards. *)
let fetch_whole_page t page ids =
  let latest =
    List.fold_left
      (fun acc id ->
        let i = find_interval t id in
        match acc with
        | None -> Some i
        | Some best ->
          if i.Interval.rank > best.Interval.rank then Some i
          else acc)
      None ids
  in
  match latest with
  | None -> ids
  | Some target -> (
    let dst = target.Interval.id.Interval.creator in
    if dst = t.me then ids
    else
      match Lrc_serve.fetch_page t ~dst ~page with
      | None -> ids
      | Some reply ->
        if
          not
            (Vc.dominates reply.covers (page_content_vc t page)
            && Vc.dominates reply.covers t.vc)
        then
          (* Installing could lose content this node's copy (or its
             knowledge) already reflects; fall back to per-interval
             diffs.  Requiring the server to dominate the full vector
             clock is conservative but provably cannot clobber newer
             bytes. *)
          ids
        else begin
          Lrc_close.restore_orphans t page (install t page reply);
          above reply.covers ids
        end)

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

(* Fetch the diffs for [targets] (per page, its mergeable runs: same-
   creator ids whose diffs are not held locally, in causal order) into
   [have]: one diff request per creator, spanning pages, with one request
   entry per run.  Distinct creators answer independently, so their round
   trips are overlapped by issuing each request from its own forked fiber
   and joining on ivars. *)
let fetch_missing t ~into:have targets =
  let requests = Hashtbl.create 4 and asked = Itbl.create 16 in
  let creators = ref [] in
  List.iter
    (fun (page, runs) ->
      List.iter
        (fun run ->
          match run with
          | [] -> ()
          | (id : Interval.id) :: _ -> (
            let creator = id.Interval.creator in
            List.iter
              (fun id -> Itbl.replace asked (diff_key t ~page id) creator)
              run;
            match Hashtbl.find_opt requests creator with
            | None ->
              Hashtbl.replace requests creator [ (page, run) ];
              creators := creator :: !creators
            | Some cur ->
              Hashtbl.replace requests creator ((page, run) :: cur)))
        runs)
    targets;
  let do_fetch creator =
    let request = List.rev (Hashtbl.find requests creator) in
    Obs.inc t.ins.diff_requests_c;
    let reply = Lrc_serve.fetch_diffs t ~dst:creator request in
    (* Bill each physical diff once per reply: a diff aliased under
       several ids crosses the wire once. *)
    let billed = ref [] in
    List.iter
      (fun (page, (id : Interval.id), ds) ->
        if Itbl.find_opt asked (diff_key t ~page id) <> Some creator then
          raise (Protocol_violation "diff reply for an unrequested id");
        List.iter
          (fun d ->
            if not (List.memq d !billed) then begin
              billed := d :: !billed;
              Obs.add t.ins.diff_bytes_fetched_c (Diff.size_bytes d)
            end;
            Diff_store.add t.store ~page id d)
          ds;
        Itbl.replace have (diff_key t ~page id) ds)
      reply
  in
  match List.rev !creators with
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
      slots

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

(* Gather diffs for each page of [targets]: serve from the local store
   where possible, fetch the rest from their creators (blocking). *)
let collect_diffs t targets =
  let have = Itbl.create 16 in
  let remote =
    List.filter_map
      (fun (page, ids) ->
        let missed = ref 0 in
        List.iter
          (fun (id : Interval.id) ->
            match Diff_store.find t.store ~page id with
            | Some ds -> Itbl.replace have (diff_key t ~page id) ds
            | None ->
              if id.Interval.creator = t.me then
                raise (Protocol_violation "own diff missing from store");
              incr missed)
          ids;
        if !missed = 0 then None
        else
          Some
            ( page,
              mergeable_runs (causal_order t ids) ~held:(fun id ->
                  Itbl.mem have (diff_key t ~page id)) ))
      targets
  in
  fetch_missing t ~into:have remote;
  have

let apply_diff t p d =
  Page.apply_diff p d;
  Obs.inc t.ins.diffs_applied_c;
  t.charge
    (t.costs.Cpu_cost.diff_data_per_byte *. float_of_int (Diff.changed_bytes d))

let apply_diffs t page ids have =
  let ordered = causal_order t ids in
  let p = Page_table.page t.page_table page in
  (* An aliased diff can be listed under several ids; apply each physical
     diff once (applying again would be harmless but wasteful). *)
  let applied = ref [] in
  List.iter
    (fun (id : Interval.id) ->
      match Itbl.find_opt have (diff_key t ~page id) with
      | None -> raise (Protocol_violation "no diff collected for missing id")
      | Some ds ->
        List.iter
          (fun d ->
            if not (List.memq d !applied) then begin
              applied := d :: !applied;
              apply_diff t p d
            end)
          ds;
        note_page_interval t page ~creator:id.Interval.creator
          ~index:id.Interval.index)
    ordered

(* The ids of [ids] not in [handled].  Write notices that arrive during a
   fetch are consed onto the missing list the fetch started from, and never
   repeat an id already in it, so [handled] is normally a physical suffix
   of [ids] and the answer is the prefix before it: linear, where
   filtering is quadratic in the list length. *)
let unhandled ids ~handled =
  let rec prefix acc = function
    | rest when rest == handled -> Some (List.rev acc)
    | [] -> None
    | id :: rest -> prefix (id :: acc) rest
  in
  match prefix [] ids with
  | Some fresh -> fresh
  | None -> List.filter (fun id -> not (Interval.mem_id id handled)) ids

(* Remove exactly [handled] from the page's missing set; validate the page
   only if nothing new arrived while we were blocked. *)
let finish_page t page ~handled =
  let remaining =
    match Hashtbl.find_opt t.missing page with
    | None -> []
    | Some ids -> unhandled ids ~handled
  in
  if remaining = [] then begin
    Hashtbl.remove t.missing page;
    let p = Page_table.page t.page_table page in
    if Page.state p = Page.Invalid then begin
      Page.validate p;
      t.charge t.costs.Cpu_cost.page_protect
    end
  end
  else Hashtbl.replace t.missing page remaining

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
    let have = collect_diffs t work in
    List.iter (fun (page, ids) -> apply_diffs t page ids have) work);
  List.iter (fun (page, ids) -> finish_page t page ~handled:ids) targets

let fetch_batch t targets =
  Writeback.under_gates t.wb (List.map fst targets) (fun () ->
      fetch_and_apply t targets)

(* The logged intervals that wrote [page] and that the page's content may
   lack: above [covers], at most the vector clock (an id above it belongs
   to an accept still in progress, whose write notice then leaves it
   missing), and not in [applied].  Nothing at or below the last GC's
   snapshot is needed, and it is discarded: had it written the page, that
   GC would have re-elected the keeper, whose base covers it. *)
let writes_above t page ~covers ~applied =
  let ids = ref [] in
  for creator = 0 to t.nodes - 1 do
    let floor = max (Vc.get covers creator) (Vc.get t.gc_floor creator) in
    for index = floor + 1 to Vc.get t.vc creator do
      let id = { Interval.creator; index } in
      if
        (not (Itbl.mem applied (diff_key t ~page id)))
        && List.mem page (find_interval t id).Interval.write_notices
      then ids := id :: !ids
    done
  done;
  !ids

(* Rebuild a page whose stale copy a GC dropped: install the keeper's
   base, apply every logged interval above the base that wrote the page
   (this node's own included), then re-apply the open interval's orphans.
   The catch-up loops because fetching yields: new write notices can
   arrive, and a close can publish the orphans as an own interval.  It
   tracks the ids it applied rather than the page's coverage, which that
   close bumps before its diff is applied here. *)
let refetch_dropped t page ~keeper =
  let base = Lrc_serve.fetch_base t ~dst:keeper ~page in
  Hashtbl.remove t.dropped page;
  forget_page_content t page;
  let p = install t page base in
  let applied = Itbl.create 8 in
  let rec catch_up () =
    match writes_above t page ~covers:base.covers ~applied with
    | [] -> ()
    | ids ->
      List.iter (fun id -> Itbl.replace applied (diff_key t ~page id) ()) ids;
      apply_diffs t page ids (collect_diffs t [ (page, ids) ]);
      catch_up ()
  in
  catch_up ();
  Lrc_close.restore_orphans t page p;
  let handled =
    List.filter
      (fun (id : Interval.id) ->
        id.Interval.index <= Vc.get base.covers id.Interval.creator
        || Itbl.mem applied (diff_key t ~page id))
      (Option.value ~default:[] (Hashtbl.find_opt t.missing page))
  in
  finish_page t page ~handled

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
    match Hashtbl.find_opt t.dropped page with
    | Some keeper ->
      Writeback.under_gates t.wb [ page ] (fun () ->
          refetch_dropped t page ~keeper);
      validate_page_if_needed t page
    | None -> (
      match Hashtbl.find_opt t.missing page with
      | None | Some [] ->
        Hashtbl.remove t.missing page;
        let p = Page_table.page t.page_table page in
        if Page.state p = Page.Invalid then Page.validate p
      | Some ids ->
        let extra =
          Hashtbl.fold
            (fun other other_ids acc ->
              if
                other <> page && other_ids <> []
                && Hashtbl.mem t.accessed other
                && (not (Writeback.fetching t.wb other))
                && not (Hashtbl.mem t.dropped other)
              then (other, other_ids) :: acc
              else acc)
            t.missing []
          |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
        in
        fetch_batch t ((page, ids) :: extra);
        validate_page_if_needed t page))

and validate_page_if_needed t page =
  let p = Page_table.page t.page_table page in
  if Page.state p = Page.Invalid then validate_page t page

let note_access t page = Hashtbl.replace t.accessed page ()

let read_fault t page =
  note_access t page;
  t.charge t.costs.Cpu_cost.fault_trap;
  validate_page t page

(* A write notice of interval [id] invalidates the local copy [p] of
   [page].  Record the missing id before the invalidation charge yields:
   a fault in that window must find it, or it would validate the page
   with nothing to fetch. *)
let invalidate t page p (id : Interval.id) =
  let cur = Option.value ~default:[] (Hashtbl.find_opt t.missing page) in
  if not (Interval.mem_id id cur) then
    Hashtbl.replace t.missing page (id :: cur);
  if Page.state p <> Page.Invalid then begin
    Page.invalidate p;
    (* Decay the prefetch history: the page must fault again to prove it
       is still wanted before riding along in batches. *)
    Hashtbl.remove t.accessed page;
    t.charge t.costs.Cpu_cost.page_protect
  end

(* Fetch what [pages] miss, in one batch, unless a fetch or a refetch
   already owns them. *)
let refresh t pages =
  let stale =
    List.filter_map
      (fun page ->
        if Writeback.fetching t.wb page || Hashtbl.mem t.dropped page then None
        else
          match Hashtbl.find_opt t.missing page with
          | None | Some [] -> None
          | Some ids -> Some (page, ids))
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
    let stale =
      Hashtbl.fold
        (fun page ids acc ->
          if
            List.exists
              (fun (id : Interval.id) ->
                id.Interval.index <= Vc.get snapshot id.Interval.creator)
              ids
          then page :: acc
          else acc)
        t.missing []
    in
    List.iter
      (fun page ->
        Hashtbl.remove t.missing page;
        forget_page_content t page;
        Hashtbl.replace t.dropped page keepers.(page))
      stale;
    Hashtbl.filter_map_inplace
      (fun page _ ->
        let keeper = keepers.(page) in
        if keeper < 0 || keeper = t.me then
          raise
            (Protocol_violation
               (Printf.sprintf "dropped page %d has no other keeper" page));
        Some keeper)
      t.dropped
