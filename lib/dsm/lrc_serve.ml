(* The LRC serve side and its requests.  See lrc_serve.mli. *)

open Lrc_core

let serve_cache_cap = 512

(* Answer a diff request from the local store.  A request entry naming
   several ids of one creator (a mergeable run, see [diff_request]) is
   answered with a single merged diff under the run's lowest id and empty
   lists for the rest; merged encodings are memoized in [serve_cache], so
   repeat fetchers of the same range are served without re-merging. *)
let serve_diffs t request =
  t.charge t.costs.Cpu_cost.diff_request_fixed;
  let lookup page (id : Interval.id) =
    match Diff_store.find t.store ~page id with
    | Some ds -> ds
    | None ->
      raise
        (Protocol_violation
           (Printf.sprintf "diff (page %d, %d.%d) not available" page
              id.Interval.creator id.Interval.index))
  in
  List.concat_map
    (fun (page, ids) ->
      let same_creator =
        match ids with
        | [] | [ _ ] -> false
        | (first : Interval.id) :: rest ->
          List.for_all
            (fun (id : Interval.id) ->
              id.Interval.creator = first.Interval.creator)
            rest
      in
      if not same_creator then
        List.map (fun (id : Interval.id) -> (page, id, lookup page id)) ids
      else begin
        (* One request entry is one mergeable run: the fetcher only groups
           ids that are adjacent in its causal apply order, so collapsing
           their diffs into one merged diff — returned under the run's
           first id, with the rest answered empty — is equivalent to
           shipping them separately. *)
        let sorted =
          List.sort
            (fun (a : Interval.id) (b : Interval.id) ->
              compare a.Interval.index b.Interval.index)
            ids
        in
        let first = List.hd sorted in
        let last = List.nth sorted (List.length sorted - 1) in
        let key =
          (page, first.Interval.creator, first.Interval.index,
           last.Interval.index)
        in
        let merged =
          match Hashtbl.find_opt t.serve_cache key with
          | Some d ->
            Obs.inc t.ins.diff_cache_hits_c;
            d
          | None ->
            Obs.inc t.ins.diff_cache_misses_c;
            let pieces = List.concat_map (lookup page) sorted in
            let d = Diff.merge pieces in
            Obs.add t.ins.diffs_merged_c (List.length pieces - 1);
            t.charge
              (t.costs.Cpu_cost.diff_data_per_byte
              *. float_of_int (Diff.changed_bytes d));
            if Hashtbl.length t.serve_cache >= serve_cache_cap then
              Hashtbl.reset t.serve_cache;
            Hashtbl.replace t.serve_cache key d;
            d
        in
        (page, first, [ merged ])
        :: List.map (fun id -> (page, id, [])) (List.tl sorted)
      end)
    request

(* Serve the content as of the last interval boundary.  A write-enabled
   page's live data would leak unreleased mid-interval writes into the
   receiver's base copy, which byte-granular diffs can never correct (a
   byte that changed and changed back is absent from the final diff).
   The covering timestamp must include the page's content timestamp:
   after a whole-page install the content can run ahead of this node's
   vector clock, and under-claiming would let the receiver apply older
   diffs on top of newer bytes. *)
let clean_copy t page p =
  {
    data = Page.clean_snapshot p;
    covers = Vc.join t.vc (page_content_vc t page);
  }

(* The full page copy if the local copy is valid, with the timestamp it
   covers; [None] if the local copy is itself stale. *)
let serve_page t ~page =
  let p = Page_table.page t.page_table page in
  match Page.state p with
  | Page.Invalid -> None
  | Page.Read_only | Page.Read_write -> Some (clean_copy t page p)

(* The base copy of [page] this node keeps (see [keep_base]). *)
let serve_base t ~page =
  match Hashtbl.find_opt t.bases page with
  | Some base -> base
  | None ->
    raise (Protocol_violation (Printf.sprintf "no base copy of page %d" page))

let keep_base t page =
  Hashtbl.replace t.bases page
    (clean_copy t page (Page_table.page t.page_table page))

let discard t ~keeps =
  (* Merged encodings may cover just-discarded history; drop them all
     rather than tracking which ranges survive. *)
  Hashtbl.reset t.serve_cache;
  Hashtbl.filter_map_inplace
    (fun page base -> if keeps page then Some base else None)
    t.bases

(* ------------------------------------------------------------------ *)
(* Requests: one peer RPC each, to the node that serves it *)

(* Wire bytes of diff entries (an attachment list or a diff reply): 8
   per entry plus its diffs, where a physical diff aliased under several
   entries crosses the wire once and each later reference carries only a
   4-byte back-reference.  Top-level recursion: no closure per message. *)
let rec entries_bytes billed acc = function
  | [] -> acc
  | (_, _, ds) :: rest -> entry_diffs_bytes billed (acc + 8) rest ds

and entry_diffs_bytes billed acc rest = function
  | [] -> entries_bytes billed acc rest
  | d :: ds ->
    if List.memq d billed then entry_diffs_bytes billed (acc + 4) rest ds
    else entry_diffs_bytes (d :: billed) (acc + Diff.size_bytes d) rest ds

let diff_entries_bytes (entries : diff_reply) = entries_bytes [] 0 entries

(* A diff request names, per entry, a page and its interval ids. *)
let fetch_diffs t ~dst (request : diff_request) =
  t.peer.rpc ~dst ~cost:Cost.Diff_payload ~reply_cost:Cost.Diff_payload
    ~request_bytes:
      (List.fold_left
         (fun acc (_, ids) -> acc + 4 + (8 * List.length ids))
         8 request)
    ~reply_bytes:(fun reply -> 8 + diff_entries_bytes reply)
    (fun server -> serve_diffs server request)

(* The request body is a vector clock; the reply is interval descriptions
   (ids + VCs + write notices, billed as the write-notice component, its
   dominant term).  The server learns the requester's clock as it
   answers. *)
let fetch_intervals t ~dst ~have =
  let me = t.me in
  t.peer.rpc ~dst ~cost:Cost.Vc_entries ~reply_cost:Cost.Write_notices
    ~request_bytes:(8 + (Vc.entry_bytes * t.nodes))
    ~reply_bytes:
      (List.fold_left (fun acc i -> acc + Interval.size_bytes i) 8)
    (fun server ->
      note_peer_vc server ~peer:me have;
      intervals_after server ~have ~own_only:false)

(* A page or base request names the page; a whole page travels with the
   clock its content covers. *)
let request_page t ~dst serve =
  t.peer.rpc ~dst ~cost:Cost.Diff_payload ~reply_cost:Cost.Diff_payload
    ~request_bytes:12
    ~reply_bytes:(function
      | None -> 8
      | Some _ ->
        8 + Page_table.page_size t.page_table + (Vc.entry_bytes * t.nodes))
    serve

let fetch_page t ~dst ~page =
  request_page t ~dst (fun server -> serve_page server ~page)

(* A keeper always has the base it is asked for. *)
let fetch_base t ~dst ~page =
  Option.get
    (request_page t ~dst (fun server -> Some (serve_base server ~page)))
