(* The LRC serve side and its requests.  See lrc_serve.mli. *)

open Lrc_core

let serve_cache_cap = 512

(* Answer a diff request from the local store.  A one-id entry is a
   lookup.  A longer entry is a mergeable run (see [diff_request]): one
   creator's ids in ascending index order, adjacent in the fetcher's
   apply order, so it is answered with a single merged diff under the
   run's first id and empty lists for the rest.  Merged encodings are
   memoized in [serve_cache], so repeat fetchers of the same range are
   served without re-merging. *)
let serve_diffs t request =
  Profile.enter serve_span;
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
  let reply =
    List.concat_map
      (fun (page, ids) ->
        match ids with
        | [] -> []
        | [ id ] -> [ (page, id, lookup page id) ]
        | (first : Interval.id) :: rest ->
          let last = List.fold_left (fun _ id -> id) first rest in
          let key =
            {
              Serve_key.page;
              creator = first.Interval.creator;
              lo = first.Interval.index;
              hi = last.Interval.index;
            }
          in
          Profile.enter serve_cache_serve;
          let cached = Serve_cache.find_opt t.serve_cache key in
          Profile.leave serve_cache_serve;
          let merged =
            match cached with
            | Some d ->
              Obs.inc t.ins.diff_cache_hits_c;
              d
            | None ->
              Obs.inc t.ins.diff_cache_misses_c;
              let pieces = List.concat_map (lookup page) ids in
              let d = Diff.merge pieces in
              Obs.add t.ins.diffs_merged_c (List.length pieces - 1);
              t.charge
                (t.costs.Cpu_cost.diff_data_per_byte
                *. float_of_int (Diff.changed_bytes d));
              Profile.enter serve_cache_serve;
              if Serve_cache.length t.serve_cache >= serve_cache_cap then
                Serve_cache.reset t.serve_cache;
              Serve_cache.replace t.serve_cache key d;
              Profile.leave serve_cache_serve;
              d
          in
          (page, first, [ merged ]) :: List.map (fun id -> (page, id, [])) rest)
      request
  in
  Profile.leave serve_span;
  reply

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
  Profile.enter serve_span;
  let p = Page_table.page t.page_table page in
  let reply =
    match Page.state p with
    | Page.Invalid -> None
    | Page.Read_only | Page.Read_write -> Some (clean_copy t page p)
  in
  Profile.leave serve_span;
  reply

(* The base copy of [page] this node keeps (see [keep_base]). *)
let serve_base t ~page =
  Profile.enter bases_serve;
  let base = Itbl.find_opt t.bases page in
  Profile.leave bases_serve;
  match base with
  | Some base -> base
  | None ->
    raise (Protocol_violation (Printf.sprintf "no base copy of page %d" page))

let keep_base t page =
  Itbl.replace t.bases page
    (clean_copy t page (Page_table.page t.page_table page))

let discard t ~keeps =
  (* Merged encodings may cover just-discarded history; drop them all
     rather than tracking which ranges survive. *)
  Serve_cache.reset t.serve_cache;
  Itbl.filter_map_inplace
    (fun page base -> if keeps page then Some base else None)
    t.bases

(* ------------------------------------------------------------------ *)
(* Requests: one peer RPC each, to the node that serves it *)

(* Wire bytes of diff entries (an attachment list or a diff reply): 8
   per entry plus each of its pieces.  Top-level recursion: no closure
   per message. *)
let rec pieces_bytes acc = function
  | [] -> acc
  | d :: ds -> pieces_bytes (acc + Diff.size_bytes d) ds

let rec entries_bytes acc = function
  | [] -> acc
  | (_, _, ds) :: rest -> entries_bytes (pieces_bytes (acc + 8) ds) rest

let diff_entries_bytes (entries : diff_reply) = entries_bytes 0 entries

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
      intervals_between server ~lo:have ~hi:server.vc ~only:None)

(* A page or base request names the page; a whole page travels with the
   clock its content covers. *)
let page_reply_bytes t =
  8 + Page_table.page_size t.page_table + (Vc.entry_bytes * t.nodes)

let request_page t ~dst serve =
  t.peer.rpc ~dst ~cost:Cost.Diff_payload ~reply_cost:Cost.Diff_payload
    ~request_bytes:12
    ~reply_bytes:(function None -> 8 | Some _ -> page_reply_bytes t)
    serve

let fetch_page t ~dst ~page =
  request_page t ~dst (fun server -> serve_page server ~page)

(* A keeper always has the base it is asked for. *)
let fetch_base t ~dst ~page =
  Option.get
    (request_page t ~dst (fun server -> Some (serve_base server ~page)))
