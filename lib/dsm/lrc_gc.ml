(* LRC piggybacks and the metadata GC.  See lrc_gc.mli. *)

open Lrc_core

(* Component-wise minimum of the per-peer clocks [clocks] over every node
   but this one: what the least-informed peer is known to have.  On a
   one-node cluster it is a copy of this node's own entry. *)
let min_over_peers t clocks =
  let floor = Vc.copy clocks.((t.me + 1) mod t.nodes) in
  for p = 0 to t.nodes - 1 do
    if p <> t.me then
      for c = 0 to t.nodes - 1 do
        if Vc.get clocks.(p) c < Vc.get floor c then
          Vc.set floor c (Vc.get clocks.(p) c)
      done
  done;
  floor

(* The entry of [clocks] a message to [receiver] is tailored for.  A
   locally addressed message (a manager enqueueing into its own work
   queue) is often stored and forwarded later, so it is tailored for the
   least-informed peer. *)
let tailored_for t clocks ~receiver =
  if receiver = t.me then min_over_peers t clocks else clocks.(receiver)

(* Diffs to ship eagerly with the given interval descriptions (update and
   hybrid strategies, paper §4.3).  Only diffs this node actually holds
   can be attached; missing ones fall back to demand fetching at the
   receiver. *)
let attachments_for t ~receiver intervals =
  match t.strategy with
  | Invalidate -> []
  | Update | Hybrid_update ->
    (* Ship each diff to each peer at most once (for a locally addressed
       message that may be forwarded anywhere, once globally). *)
    let floor = tailored_for t t.attach_floor ~receiver in
    (* Bound the eager data per message; anything over the budget stays
       demand-fetched (real update protocols bound their eagerness the
       same way). *)
    let budget = ref (16 * 1024) in
    let shipped = ref [] in
    let out =
      List.concat_map
        (fun (i : Interval.t) ->
          let id = i.Interval.id in
          if
            (t.strategy = Hybrid_update && id.Interval.creator <> t.me)
            || id.Interval.index <= Vc.get floor id.Interval.creator
            || !budget <= 0
          then []
          else begin
            let attached =
              List.filter_map
                (fun page ->
                  match Diff_store.find t.store ~page id with
                  | Some ds ->
                    List.iter
                      (fun d -> budget := !budget - Diff.size_bytes d)
                      ds;
                    Some (page, id, ds)
                  | None -> None)
                i.Interval.write_notices
            in
            if !budget >= 0 then begin
              shipped := id :: !shipped;
              attached
            end
            else begin
              (* Over budget: drop this interval's attachments and stop. *)
              budget := 0;
              []
            end
          end)
        intervals
    in
    let bump peer =
      List.iter
        (fun { Interval.creator; index } ->
          raise_to t.attach_floor.(peer) ~creator ~index)
        !shipped
    in
    if receiver = t.me then
      for p = 0 to t.nodes - 1 do
        if p <> t.me then bump p
      done
    else bump receiver;
    out

let piggyback_for t ~receiver ~nontransitive =
  Lrc_close.close_interval t;
  (* A node is always consistent with itself; a message to itself is
     tailored so its forwarded copy usually carries enough, and a true gap
     is still recovered through the fetch-from-origin path (§4.3). *)
  let intervals =
    if t.nodes = 1 then []
    else
      intervals_after t
        ~have:(tailored_for t t.peer_vc ~receiver)
        ~own_only:nontransitive
  in
  {
    origin = t.me;
    required_vc = Vc.copy t.vc;
    intervals;
    nontransitive;
    attached_diffs = attachments_for t ~receiver intervals;
  }

(* ------------------------------------------------------------------ *)
(* Garbage collection *)

(* The keeper election of the GC with snapshot [snapshot]: a page written
   by an interval of this epoch (at or below the snapshot and above the
   last one) goes to the creator of the causally latest such interval.
   Every node has logged exactly these intervals, so every node computes
   the same table; a page nobody wrote keeps its keeper.  The floor test
   matters: a stale piggyback can re-log an interval an earlier GC
   discarded.  Returns the pages this node now keeps, ascending. *)
let elect_keepers t snapshot =
  let latest = Hashtbl.create 64 in
  Interval.Log.fold
    (fun (i : Interval.t) () ->
      let id = i.Interval.id in
      if
        id.Interval.index > Vc.get t.gc_floor id.Interval.creator
        && Vc.dominates snapshot i.Interval.vc
      then
        List.iter
          (fun page ->
            match Hashtbl.find_opt latest page with
            | Some (best : Interval.t) when Interval.causal_compare best i > 0
              ->
              ()
            | _ -> Hashtbl.replace latest page i)
          i.Interval.write_notices)
    t.log ();
  Hashtbl.fold
    (fun page (i : Interval.t) mine ->
      let keeper = i.Interval.id.Interval.creator in
      t.keeper.(page) <- keeper;
      if keeper = t.me then page :: mine else mine)
    latest []
  |> List.sort Int.compare

(* The GC's keep step, once this node has reached [snapshot]: elect the
   keepers, then validate each page this node keeps and store its clean
   content as the page's base, with the coverage a served page would
   claim.  Checking validity and storing do not yield, so the base is a
   consistent copy. *)
let gc_keep t snapshot =
  let kept = elect_keepers t snapshot in
  Lrc_fetch.refresh t kept;
  List.iter
    (fun page ->
      Lrc_fetch.validate_page_if_needed t page;
      Lrc_serve.keep_base t page)
    kept

let gc_drop t snapshot = Lrc_fetch.drop_stale t snapshot ~keepers:t.keeper

let discard_before t snapshot =
  (* Discarding is only legal after a global rendezvous in which every node
     reached [snapshot]; record that knowledge so future piggybacks are
     never asked to cover discarded history. *)
  for peer = 0 to t.nodes - 1 do
    note_peer_vc t ~peer snapshot
  done;
  discard_log t snapshot;
  Diff_store.discard_upto t.store snapshot;
  (* A base stays until another node keeps its page. *)
  Lrc_serve.discard t ~keeps:(fun page -> t.keeper.(page) = t.me)
