(* The LRC engine's creation and acquire side.  See lrc_backend.mli. *)

include Lrc_core

let create ?obs ~nodes ~me ~page_table ~costs ~charge ~peer
    ?(strategy = Invalidate) () =
  if me < 0 || me >= nodes then invalid_arg "Lrc.create: bad node id";
  let obs = match obs with Some o -> o | None -> Obs.create () in
  let pages = Page_table.pages page_table in
  let t =
    {
      nodes;
      me;
      page_table;
      costs;
      strategy;
      charge;
      wb = Writeback.create ~page_table ~costs ~charge;
      peer;
      obs;
      ins = make_instruments obs ~node:me;
      vc = Vc.zero ~nodes;
      log = Interval.Log.create ~nodes;
      gc_floor = Vc.zero ~nodes;
      page_vc = Array.make pages Vc.none;
      zero_vc = Vc.zero ~nodes;
      peer_vc = Array.init nodes (fun _ -> Vc.zero ~nodes);
      store = Diff_store.create ~nodes;
      flags = Bytes.make pages '\000';
      dirty = [];
      orphans = Array.make pages [];
      missing = Array.make pages [];
      noticed = Array.make pages [||];
      dropped = Array.make pages not_dropped;
      serve_cache = Serve_cache.create 64;
      bases = Itbl.create 16;
      keeper = Array.make pages (-1);
      attach_floor = Array.init nodes (fun _ -> Vc.zero ~nodes);
      hooks = no_hooks;
      fault = None;
    }
  in
  Page_table.set_read_fault page_table (Lrc_fetch.read_fault t);
  Page_table.set_write_fault page_table (fun page ->
      Lrc_fetch.note_access t page;
      Lrc_close.write_fault t page);
  t

let set_hooks t hooks = t.hooks <- hooks

let inject_fault t fault = t.fault <- fault

let vc t = t.vc

let request_vc t = Some (Vc.copy t.vc)

let missing t page = t.missing.(page)

let dropped t page =
  let keeper = t.dropped.(page) in
  if keeper = not_dropped then None else Some keeper

let notice_mark t ~page ~creator =
  match t.noticed.(page) with [||] -> 0 | row -> row.(creator)

let keeper t page = t.keeper.(page)

let data_fetches t =
  Obs.value t.ins.diff_requests_c
  + Obs.value t.ins.interval_fetches_c
  + Obs.value t.ins.page_fetches_c

(* One per RELEASE message: the span's args and closure are built only
   while tracing. *)
let make_piggyback t ~receiver ~nontransitive =
  if not (Obs.tracing t.obs) then
    Lrc_gc.piggyback_for t ~receiver ~nontransitive
  else
    Obs.span t.obs ~node:t.me ~layer:Obs.Dsm "lrc.release"
      ~args:[ ("receiver", Obs.Int receiver) ]
    @@ fun () -> Lrc_gc.piggyback_for t ~receiver ~nontransitive

let trim_piggyback = Lrc_gc.trim_for

let log_relayed t pb = List.iter (log_interval t) pb.intervals

(* One carried interval's wire bytes: its VC (vc_entries), and its id and
   write-notice list (write_notices). *)
let interval_vc_bytes (i : Interval.t) = Vc.size_bytes i.Interval.vc

let interval_wn_bytes (i : Interval.t) =
  4 + (4 * List.length i.Interval.write_notices)

(* The piggyback's wire bytes by taxonomy component: vector clocks (the
   required VC and each interval's VC) are vc_entries, interval ids +
   write-notice lists + the nontransitive flag are write_notices,
   attached diffs are diff_payload. *)
let piggyback_cost pb =
  let vc_bytes =
    Vc.size_bytes pb.required_vc
    + List.fold_left (fun acc i -> acc + interval_vc_bytes i) 0 pb.intervals
  in
  let wn_bytes =
    1 + List.fold_left (fun acc i -> acc + interval_wn_bytes i) 0 pb.intervals
  in
  [
    (Cost.Vc_entries, vc_bytes);
    (Cost.Write_notices, wn_bytes);
    (Cost.Diff_payload, Lrc_serve.diff_entries_bytes pb.attached_diffs);
  ]

(* The pieces a list of piggybacks carries eagerly (update/hybrid
   strategies) for [(page, id)], or [found] if none does: the last
   piggyback to carry any wins.  No piggyback carries an empty list. *)
let rec attached_in ~page (id : Interval.id) found = function
  | [] -> found
  | (p, (i : Interval.id), ds) :: rest ->
    attached_in ~page id
      (if
         p = page && i.Interval.index = id.Interval.index
         && i.Interval.creator = id.Interval.creator
       then ds
       else found)
      rest

let rec attached_pieces ~page id found = function
  | [] -> found
  | pb :: rest ->
    attached_pieces ~page id (attached_in ~page id found pb.attached_diffs) rest

let carries_diffs pb =
  match pb.attached_diffs with [] -> false | _ :: _ -> true

(* Apply one interval's write notices, preserving local modifications by
   flushing dirty pages to diffs first (the multiple-writer protocol).
   Under the invalidation strategy the named pages become invalid; under
   the update/hybrid strategies a page whose diff travelled with the
   message and whose local copy is current stays valid ("pages to which a
   'complete' set of diffs can be applied remain valid", §4.3).
   [attached] is the accepted piggybacks if any of them carries diffs,
   else [[]], so that under [Invalidate] nothing is looked up. *)
let apply_interval t ~attached interval =
  let id = interval.Interval.id in
  let creator = id.Interval.creator and index = id.Interval.index in
  if creator <> t.me then begin
    List.iter
      (fun page ->
        match t.fault with
        | Some Skip_write_notice ->
          (* Armed one-shot corruption: silently drop this write notice
             (no invalidation, no audit hook) — the page keeps serving
             stale bytes, which the auditor must detect. *)
          t.fault <- None
        | None | Some Corrupt_vc_merge ->
          Obs.inc t.ins.write_notices_applied_c;
          t.charge t.costs.Cpu_cost.write_notice_apply;
          (* A whole-page install can leave the local copy ahead of the
             vector clock; a write notice for an interval the content
             already reflects must not re-invalidate the page (fetching
             its old diff would clobber newer bytes). *)
          (if index > Vc.get (page_content_vc t page) creator then begin
            let p = Page_table.page t.page_table page in
            let eager = attached_pieces ~page id [] attached in
            let state = Page.state p in
            (* [flush_page] yields while charging the encode, and the
               app fiber can re-fault the page back to Read_write in that
               window; keep flushing until it quiesces so the diffs land
               on a twinless page (the interrupted write retries,
               hardware-style), and so the page is never invalidated
               while Read_write. *)
            while Page.state p = Page.Read_write do
              Lrc_close.flush_page t page
            done;
            match (eager, state) with
            | (_ :: _ as ds), (Page.Read_only | Page.Read_write) ->
              (* Update path: the data came with the message and the
                 local copy is current, so apply in place and stay
                 valid. *)
              List.iter
                (fun d ->
                  Lrc_fetch.apply_diff t p d;
                  (* Cache the diff: this node can now serve it too. *)
                  Diff_store.add t.store ~page id d)
                ds;
              note_page_interval t page ~creator ~index
            | eager, _ ->
              (* Invalidation path (also taken when the local copy
                 already has gaps: an eagerly received diff cannot be
                 applied onto a stale base, so cache it for the later
                 validation). *)
              (match eager with
              | [] -> ()
              | ds ->
                List.iter (fun d -> Diff_store.add t.store ~page id d) ds);
              Lrc_fetch.invalidate t page p id
          end);
          t.hooks.on_write_notice ~node:t.me ~page ~creator ~index)
      interval.Interval.write_notices;
    advance t ~creator ~index
  end

(* Count the intervals of a piggyback that crossed the wire which this
   node's clock already covers: bytes it did not need. *)
let rec count_waste t = function
  | [] -> ()
  | (i : Interval.t) :: rest ->
    let id = i.Interval.id in
    if id.Interval.index <= Vc.get t.vc id.Interval.creator then begin
      Obs.inc t.ins.waste_intervals_c;
      Obs.add t.ins.waste_vc_bytes_c (interval_vc_bytes i);
      Obs.add t.ins.waste_wn_bytes_c (interval_wn_bytes i)
    end;
    count_waste t rest

let accept_piggybacks t ~local piggybacks =
  (* 1. Log every interval description carried by the messages, and join
     the timestamps we must reach. *)
  let attached =
    if List.exists carries_diffs piggybacks then piggybacks else []
  and target = Vc.copy t.vc in
  List.iter
    (fun pb ->
      if not (List.memq pb local) then count_waste t pb.intervals;
      List.iter (log_interval t) pb.intervals;
      Vc.join_in_place target pb.required_vc)
    piggybacks;
  (* 2. Collect the newly covered intervals in causal order.  At the first
     one the messages did not carry (the RELEASE_NT incomplete-information
     path, paper §4.3), fetch the descriptions from an origin that has
     it, and look again. *)
  let rec covered () =
    match
      Interval.Log.causal_range t.log ~lo:t.vc ~hi:target ~creators:(fun c ->
          c <> t.me)
    with
    | a -> a
    | exception Interval.Log.Missing { Interval.creator; index } -> (
      match
        List.find_opt
          (fun pb ->
            Vc.get pb.required_vc creator >= index && pb.origin <> t.me)
          piggybacks
      with
      | None -> raise (Protocol_violation "interval gap with no origin to ask")
      | Some pb ->
        Obs.inc t.ins.interval_fetches_c;
        List.iter (log_interval t)
          (Lrc_serve.fetch_intervals t ~dst:pb.origin ~have:t.vc);
        covered ())
  in
  (* 3. Apply them. *)
  Array.iter (apply_interval t ~attached) (covered ());
  reach t target;
  if t.fault = Some Corrupt_vc_merge then begin
    (* Armed one-shot corruption of the just-joined clock. *)
    t.fault <- None;
    corrupt_clock t
  end;
  (* 4. Remember what the origins know. *)
  List.iter
    (fun pb ->
      if pb.origin <> t.me then note_peer_vc t ~peer:pb.origin pb.required_vc)
    piggybacks

let accept t ?(local = []) piggybacks =
  Profile.enter accept_span;
  (if not (Obs.tracing t.obs) then accept_piggybacks t ~local piggybacks
   else
     Obs.span t.obs ~node:t.me ~layer:Obs.Dsm "lrc.accept"
       ~args:[ ("piggybacks", Obs.Int (List.length piggybacks)) ]
     @@ fun () -> accept_piggybacks t ~local piggybacks);
  Profile.leave accept_span

(* ------------------------------------------------------------------ *)
(* Garbage collection support *)

let metadata_pressure t =
  Diff_store.bytes_stored t.store + (32 * Interval.Log.length t.log)

let elect_keepers = Lrc_gc.elect_keepers

let gc_keep = Lrc_gc.gc_keep

let gc_drop = Lrc_gc.gc_drop

let discard_before = Lrc_gc.discard_before
