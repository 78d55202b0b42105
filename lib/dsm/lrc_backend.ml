module Page = Carlos_vm.Page
module Page_table = Carlos_vm.Page_table
module Diff = Carlos_vm.Diff
module Ivar = Carlos_sim.Resource.Ivar
module Engine = Carlos_sim.Engine

exception Protocol_violation of string

type strategy = Invalidate | Update | Hybrid_update

type piggyback = {
  origin : int;
  required_vc : Vc.t;
  intervals : Interval.t list;
  nontransitive : bool;
  attached_diffs : (int * Interval.id * Diff.t list) list;
}

(* A diff request: for each page, the interval ids whose modifications
   are needed.  Requests are addressed to the interval creator.  A fetcher
   may list the same page in several entries; the ids of one entry must
   be adjacent in the fetcher's causal apply order for that page (no
   other interval it applies to the page, fetched or held locally, sorts
   between them), which licenses the server to merge their diffs into one
   diff under the entry's lowest id. *)
type diff_request = (int * Interval.id list) list

type diff_reply = (int * Interval.id * Diff.t list) list

(* A whole page and the clock its content covers. *)
type page_reply = { data : Bytes.t; covers : Vc.t }

type hooks = {
  on_interval_closed :
    creator:int -> index:int -> vc:Vc.t -> pages:int list -> unit;
  on_write_notice : node:int -> page:int -> creator:int -> index:int -> unit;
  on_page_interval : node:int -> page:int -> creator:int -> index:int -> unit;
  on_page_content : node:int -> page:int -> vc:Vc.t -> unit;
  on_peer_note : node:int -> peer:int -> vc:Vc.t -> unit;
}

let no_hooks =
  {
    on_interval_closed = (fun ~creator:_ ~index:_ ~vc:_ ~pages:_ -> ());
    on_write_notice = (fun ~node:_ ~page:_ ~creator:_ ~index:_ -> ());
    on_page_interval = (fun ~node:_ ~page:_ ~creator:_ ~index:_ -> ());
    on_page_content = (fun ~node:_ ~page:_ ~vc:_ -> ());
    on_peer_note = (fun ~node:_ ~peer:_ ~vc:_ -> ());
  }

type fault = Skip_write_notice | Corrupt_vc_merge

module Obs = Carlos_obs.Obs
module Cost = Carlos_obs.Cost

(* Tables keyed by one int.  The diff store and the fault path's
   per-fetch tables pack (page, creator, index) into a single key (see
   [diff_key]), so they hash and compare ints, not tuples. *)
module Itbl = Hashtbl.Make (Int)

(* Registry handles for the protocol's accounting; readers look the
   counters up in the registry by key. *)
type instruments = {
  intervals_created_c : Obs.counter;
  write_notices_sent_c : Obs.counter;
  write_notices_applied_c : Obs.counter;
  diffs_created_c : Obs.counter;
  diffs_applied_c : Obs.counter;
  diff_bytes_fetched_c : Obs.counter;
  diff_requests_c : Obs.counter;
  page_fetches_c : Obs.counter;
  interval_fetches_c : Obs.counter;
  twins_created_c : Obs.counter;
  diff_cache_hits_c : Obs.counter;
  diff_cache_misses_c : Obs.counter;
  diffs_merged_c : Obs.counter;
  diff_size_h : Obs.Hist.t;
}

let make_instruments obs ~node =
  let dsm name = Obs.counter obs ~node ~layer:Obs.Dsm name in
  let vm name = Obs.counter obs ~node ~layer:Obs.Vm name in
  {
    intervals_created_c = dsm "intervals_created";
    write_notices_sent_c = dsm "write_notices_sent";
    write_notices_applied_c = dsm "write_notices_applied";
    diffs_created_c = vm "diffs_created";
    diffs_applied_c = dsm "diffs_applied";
    diff_bytes_fetched_c = dsm "diff_bytes_fetched";
    diff_requests_c = dsm "diff_requests";
    page_fetches_c = dsm "page_fetches";
    interval_fetches_c = dsm "interval_fetches";
    twins_created_c = vm "twins";
    diff_cache_hits_c = dsm "diff_cache_hits";
    diff_cache_misses_c = dsm "diff_cache_misses";
    diffs_merged_c = dsm "diffs_merged";
    diff_size_h = Obs.histogram obs ~node ~layer:Obs.Vm "diff.bytes";
  }

type t = {
  nodes : int;
  me : int;
  page_table : Page_table.t;
  pages : int;
  costs : Cpu_cost.t;
  strategy : strategy;
  charge : float -> unit;
  vc : Vc.t;
  (* Every interval description this node knows about; invariant: for every
     node [c], contains (c, i) for all 1 <= i <= vc.(c). *)
  log : Interval.Log.t;
  (* Diffs held locally (own creations and fetched copies), keyed by
     [diff_key] of (page, creator, index).  One flush can cover several
     closed intervals, in which case the same diff is stored (aliased)
     under each of their ids; a key maps to a list because a page can be
     flushed repeatedly within one id's window, and the pieces apply in
     list order. *)
  diffs : Diff.t list Itbl.t;
  (* NOTE: with eager encoding at interval close, every write notice ever
     published has its diff in [diffs] at the creator. *)
  (* Pages written in the current (open) interval. *)
  mutable dirty : int list;
  dirty_set : (int, unit) Hashtbl.t;
  (* Diffs encoded mid-interval (a write notice arrived for a locally
     dirty page); they are published under the open interval's id once it
     closes. *)
  orphans : (int, Diff.t list) Hashtbl.t;
  (* For each invalid page, the interval ids whose diffs must be applied. *)
  missing : (int, Interval.id list) Hashtbl.t;
  (* Per page, the least upper bound of the interval timestamps whose
     writes are reflected in the local copy (own closes, applied diffs,
     whole-page installs).  A whole-page install is only sound when the
     server's copy covers at least this much. *)
  page_vc : (int, Vc.t) Hashtbl.t;
  (* The coverage of a page with no [page_vc] entry; shared, never
     mutated. *)
  zero_vc : Vc.t;
  (* Write faults, encode charges, fetch gates and the close gate. *)
  wb : Writeback.t;
  (* Pages with a live local demand — the history that picks which other
     missing pages may ride along in a fault's batch.  Membership decays:
     a write-notice invalidation removes the page, and only a fresh fault
     re-admits it, so prefetching follows demonstrated reuse.  Without the
     decay a page touched once ever (say, another node's grid block that
     node 0 initialised) would be prefetched on every later fault. *)
  accessed : (int, unit) Hashtbl.t;
  (* Creator-side cache of merged diff encodings, keyed by
     (page, creator, lo_index, hi_index).  The member set of a range is
     fully determined by the key (write notices are complete, and a
     fetcher's needed set per creator is upward-closed), so equal keys
     always denote the same merge. *)
  serve_cache : (int * int * int * int, Diff.t) Hashtbl.t;
  (* Conservative knowledge of each peer's vector timestamp, for tailoring
     RELEASE piggybacks (a REQUEST piggybacks its sender's vc). *)
  peer_vc : Vc.t array;
  (* Update/hybrid strategies: per peer, the intervals whose diffs have
     already been shipped eagerly.  Each diff goes to each peer at most
     once; anything else is recovered by demand fetching. *)
  attach_floor : Vc.t array;
  (* Metadata GC: per page, the node that keeps the page's base copy
     (-1 before any GC elected one); the same table on every node. *)
  keeper : int array;
  (* The base copies this node keeps, immutable once stored. *)
  bases : (int, page_reply) Hashtbl.t;
  (* Pages whose stale copy a GC dropped, each with the keeper to refetch
     a base from. *)
  dropped : (int, int) Hashtbl.t;
  (* The snapshot of the last GC: history at or below it is discarded. *)
  gc_floor : Vc.t;
  peer : t Backend_intf.peer;
  mutable diff_bytes_stored : int;
  obs : Obs.t;
  ins : instruments;
  mutable hooks : hooks;
  (* One-shot armed corruption; see {!inject_fault}. *)
  mutable fault : fault option;
}

(* (page, creator, index) as one int.  The index is unbounded, so it
   takes the high digits: the key stays below 2^62 for any index a run
   can reach. *)
let diff_key t ~page (id : Interval.id) =
  (((id.Interval.index * t.nodes) + id.Interval.creator) * t.pages) + page

let find_interval t (id : Interval.id) =
  try
    Interval.Log.find t.log ~creator:id.Interval.creator
      ~index:id.Interval.index
  with Not_found ->
    raise
      (Protocol_violation
         (Printf.sprintf "interval %d.%d not in log" id.Interval.creator
            id.Interval.index))

(* ------------------------------------------------------------------ *)
(* Local diff bookkeeping *)

(* Per-key diff lists are accumulated newest-first: consing is O(1) where
   appending was O(n), so a page whose log grows across many write-notice
   arrivals builds it in linear total time instead of quadratic.  Readers
   that apply or ship diffs materialize encoding order with [in_order];
   order-insensitive readers (size sums, discards) use the raw list. *)
let in_order ds = List.rev ds

let store_diff t ~page ~id diff =
  let key = diff_key t ~page id in
  let existing = Option.value ~default:[] (Itbl.find_opt t.diffs key) in
  Itbl.replace t.diffs key (diff :: existing);
  t.diff_bytes_stored <- t.diff_bytes_stored + Diff.size_bytes diff

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
    let existing =
      Option.value ~default:[] (Hashtbl.find_opt t.orphans page)
    in
    Hashtbl.replace t.orphans page (diff :: existing);
    Writeback.charge_encode t.wb diff

(* ------------------------------------------------------------------ *)
(* Fault handling *)

(* Mutate before charging: charging yields the fiber, and a concurrent
   write-notice arrival could invalidate the page mid-fault. *)
let write_fault t page =
  Hashtbl.replace t.accessed page ();
  Obs.inc t.ins.twins_created_c;
  if not (Hashtbl.mem t.dirty_set page) then begin
    Hashtbl.replace t.dirty_set page ();
    t.dirty <- page :: t.dirty
  end;
  Writeback.write_fault t.wb page

(* Record that the local copy of [page] now reflects the writes of
   interval (creator, index).  Only the creator's component may be bumped:
   an interval's full vector clock names history from other creators whose
   writes to this page have NOT necessarily been applied here. *)
let note_page_interval t page ~creator ~index =
  t.hooks.on_page_interval ~node:t.me ~page ~creator ~index;
  match Hashtbl.find_opt t.page_vc page with
  | None ->
    let vc = Vc.zero ~nodes:t.nodes in
    Vc.set vc creator index;
    Hashtbl.replace t.page_vc page vc
  | Some cur -> Vc.set cur creator (max (Vc.get cur creator) index)

(* A whole-page install genuinely carries per-creator coverage. *)
let note_page_content t page vc =
  t.hooks.on_page_content ~node:t.me ~page ~vc;
  match Hashtbl.find_opt t.page_vc page with
  | None -> Hashtbl.replace t.page_vc page (Vc.copy vc)
  | Some cur -> Vc.join_in_place cur vc

let page_content_vc t page =
  match Hashtbl.find_opt t.page_vc page with
  | Some vc -> vc
  | None -> t.zero_vc

(* ------------------------------------------------------------------ *)
(* Serving (interrupt level, non-blocking) *)

let note_peer_vc t ~peer vc =
  t.hooks.on_peer_note ~node:t.me ~peer ~vc;
  Vc.join_in_place t.peer_vc.(peer) vc

(* Intervals the receiver (whose vc we conservatively know as [have]) is
   missing, optionally restricted to locally created ones. *)
let intervals_after t ~have ~own_only =
  let creators = if own_only then fun c -> c = t.me else fun _ -> true in
  match Interval.Log.causal_range t.log ~lo:have ~hi:t.vc ~creators with
  | a -> Array.to_list a
  | exception Interval.Log.Missing id ->
    raise
      (Protocol_violation
         (Printf.sprintf "interval log gap at (%d,%d)" id.Interval.creator
            id.Interval.index))

let serve_cache_cap = 512

(* Answer a diff request from the local store.  A request entry naming
   several ids of one creator (a mergeable run, see [diff_request]) is
   answered with a single merged diff under the run's lowest id and empty
   lists for the rest; merged encodings are memoized in [serve_cache], so
   repeat fetchers of the same range are served without re-merging. *)
let serve_diffs t request =
  t.charge t.costs.Cpu_cost.diff_request_fixed;
  let lookup page (id : Interval.id) =
    match Itbl.find_opt t.diffs (diff_key t ~page id) with
    | Some ds -> in_order ds
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

let serve_intervals t ~have = intervals_after t ~have ~own_only:false

(* The full page copy if the local copy is valid, with the timestamp it
   covers; [None] if the local copy is itself stale. *)
let serve_page t ~page =
  let p = Page_table.page t.page_table page in
  match Page.state p with
  | Page.Invalid -> None
  | Page.Read_only | Page.Read_write ->
    (* Serve the content as of the last interval boundary.  A write-enabled
       page's live data would leak unreleased mid-interval writes into the
       receiver's base copy, which byte-granular diffs can never correct
       (a byte that changed and changed back is absent from the final
       diff).  The covering timestamp must include the page's content
       timestamp: after a whole-page install the content can run ahead of
       this node's vector clock, and under-claiming would let the receiver
       apply older diffs on top of newer bytes. *)
    Some
      {
        data = Page.clean_snapshot p;
        covers = Vc.join t.vc (page_content_vc t page);
      }

(* The base copy of [page] this node keeps (see [gc_keep]). *)
let serve_base t ~page =
  match Hashtbl.find_opt t.bases page with
  | Some base -> base
  | None ->
    raise (Protocol_violation (Printf.sprintf "no base copy of page %d" page))

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
      serve_intervals server ~have)

(* A whole page travels with the clock its content covers. *)
let page_reply_bytes t =
  8 + Page_table.page_size t.page_table + (Vc.entry_bytes * t.nodes)

let fetch_page t ~dst ~page =
  t.peer.rpc ~dst ~cost:Cost.Diff_payload ~reply_cost:Cost.Diff_payload
    ~request_bytes:12
    ~reply_bytes:(function None -> 8 | Some _ -> page_reply_bytes t)
    (fun server -> serve_page server ~page)

let fetch_base t ~dst ~page =
  t.peer.rpc ~dst ~cost:Cost.Diff_payload ~reply_cost:Cost.Diff_payload
    ~request_bytes:12
    ~reply_bytes:(fun _ -> page_reply_bytes t)
    (fun server -> serve_base server ~page)

(* ------------------------------------------------------------------ *)
(* Fetching *)

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
      match fetch_page t ~dst ~page with
      | None -> ids
      | Some { data; covers } ->
        if
          not
            (Vc.dominates covers (page_content_vc t page)
            && Vc.dominates covers t.vc)
        then
          (* Installing could lose content this node's copy (or its
             knowledge) already reflects; fall back to per-interval
             diffs.  Requiring the server to dominate the full vector
             clock is conservative but provably cannot clobber newer
             bytes. *)
          ids
        else begin
          Obs.inc t.ins.page_fetches_c;
          let p = Page_table.page t.page_table page in
          Page.install p data;
          Page.invalidate p;
          note_page_content t page covers;
          t.charge
            (t.costs.Cpu_cost.twin_per_byte
            *. float_of_int (Bytes.length data));
          (* Still-unpublished local writes (orphans of the open interval)
             are newer than anything the server can have; restore them. *)
          (match Hashtbl.find_opt t.orphans page with
          | Some ds -> List.iter (fun d -> Page.apply_diff p d) (in_order ds)
          | None -> ());
          (* An interval (c, k) is reflected in (or superseded within) the
             server's copy exactly when the server had seen it, i.e. when
             covers.(c) >= k.  Full vector-clock dominance would be wrong
             here: unrelated components can make an old interval look
             concurrent, and re-applying its diff over the installed copy
             would clobber newer bytes. *)
          List.filter
            (fun (id : Interval.id) ->
              id.Interval.index > Vc.get covers id.Interval.creator)
            ids
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
  let requests = Hashtbl.create 4 in
  let creators = ref [] in
  List.iter
    (fun (page, runs) ->
      List.iter
        (fun run ->
          match run with
          | [] -> ()
          | (id : Interval.id) :: _ -> (
            let creator = id.Interval.creator in
            match Hashtbl.find_opt requests creator with
            | None ->
              Hashtbl.replace requests creator [ (page, run) ];
              creators := creator :: !creators
            | Some cur ->
              Hashtbl.replace requests creator ((page, run) :: cur)))
        runs)
    targets;
  let asked = Itbl.create 16 in
  Hashtbl.iter
    (fun creator entries ->
      List.iter
        (fun (page, run) ->
          List.iter
            (fun (id : Interval.id) ->
              Itbl.replace asked (diff_key t ~page id) creator)
            run)
        entries)
    requests;
  let do_fetch creator =
    let request = List.rev (Hashtbl.find requests creator) in
    Obs.inc t.ins.diff_requests_c;
    let reply = fetch_diffs t ~dst:creator request in
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
            store_diff t ~page ~id d)
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
            let key = diff_key t ~page id in
            match Itbl.find_opt t.diffs key with
            | Some ds -> Itbl.replace have key (in_order ds)
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
              Page.apply_diff p d;
              Obs.inc t.ins.diffs_applied_c;
              t.charge
                (t.costs.Cpu_cost.diff_data_per_byte
                 *. float_of_int (Diff.changed_bytes d))
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
        let needed =
          let content = page_content_vc t page in
          List.filter
            (fun (id : Interval.id) ->
              id.Interval.index > Vc.get content id.Interval.creator)
            ids
        in
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
  let { data; covers } = fetch_base t ~dst:keeper ~page in
  Obs.inc t.ins.page_fetches_c;
  let p = Page_table.page t.page_table page in
  Page.install p data;
  Page.invalidate p;
  Hashtbl.remove t.dropped page;
  Hashtbl.remove t.page_vc page;
  note_page_content t page covers;
  t.charge (t.costs.Cpu_cost.twin_per_byte *. float_of_int (Bytes.length data));
  let applied = Itbl.create 8 in
  let rec catch_up () =
    match writes_above t page ~covers ~applied with
    | [] -> ()
    | ids ->
      List.iter (fun id -> Itbl.replace applied (diff_key t ~page id) ()) ids;
      apply_diffs t page ids (collect_diffs t [ (page, ids) ]);
      catch_up ()
  in
  catch_up ();
  (match Hashtbl.find_opt t.orphans page with
  | Some ds -> List.iter (fun d -> Page.apply_diff p d) (in_order ds)
  | None -> ());
  let handled =
    List.filter
      (fun (id : Interval.id) ->
        id.Interval.index <= Vc.get covers id.Interval.creator
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

let read_fault t page =
  Hashtbl.replace t.accessed page ();
  t.charge t.costs.Cpu_cost.fault_trap;
  validate_page t page

(* ------------------------------------------------------------------ *)

let create ?obs ~nodes ~me ~page_table ~costs ~charge ~peer
    ?(strategy = Invalidate) () =
  if me < 0 || me >= nodes then invalid_arg "Lrc.create: bad node id";
  let obs = match obs with Some o -> o | None -> Obs.create () in
  let t =
    {
      nodes;
      me;
      page_table;
      pages = Page_table.pages page_table;
      costs;
      strategy;
      charge;
      vc = Vc.zero ~nodes;
      log = Interval.Log.create ~nodes;
      diffs = Itbl.create 256;
      dirty = [];
      dirty_set = Hashtbl.create 64;
      orphans = Hashtbl.create 16;
      missing = Hashtbl.create 64;
      page_vc = Hashtbl.create 64;
      zero_vc = Vc.zero ~nodes;
      wb = Writeback.create ~page_table ~costs ~charge;
      accessed = Hashtbl.create 64;
      serve_cache = Hashtbl.create 64;
      peer_vc = Array.init nodes (fun _ -> Vc.zero ~nodes);
      attach_floor = Array.init nodes (fun _ -> Vc.zero ~nodes);
      keeper = Array.make (Page_table.pages page_table) (-1);
      bases = Hashtbl.create 16;
      dropped = Hashtbl.create 16;
      gc_floor = Vc.zero ~nodes;
      peer;
      diff_bytes_stored = 0;
      obs;
      ins = make_instruments obs ~node:me;
      hooks = no_hooks;
      fault = None;
    }
  in
  Page_table.set_read_fault page_table (read_fault t);
  Page_table.set_write_fault page_table (write_fault t);
  t

let set_hooks t hooks = t.hooks <- hooks

let inject_fault t fault = t.fault <- fault

let strategy t = t.strategy

let vc t = t.vc

let request_vc t = Some (Vc.copy t.vc)

let data_fetches t =
  Obs.value t.ins.diff_requests_c
  + Obs.value t.ins.interval_fetches_c
  + Obs.value t.ins.page_fetches_c

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
    List.iter (fun page -> Hashtbl.remove t.dirty_set page) pages;
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
    let index = Vc.tick t.vc ~me:t.me in
    let interval =
      Interval.make ~creator:t.me ~index ~vc:(Vc.copy t.vc)
        ~write_notices:pages
    in
    Interval.Log.add t.log interval;
    t.hooks.on_interval_closed ~creator:t.me ~index ~vc:interval.Interval.vc
      ~pages;
    Obs.inc t.ins.intervals_created_c;
    Obs.add t.ins.write_notices_sent_c (List.length pages);
    let id = { Interval.creator = t.me; index } in
    List.iter
      (fun page ->
        (* Diffs encoded mid-interval by write-notice arrivals... *)
        (match Hashtbl.find_opt t.orphans page with
        | Some ds ->
          List.iter (fun d -> store_diff t ~page ~id d) (in_order ds);
          Hashtbl.remove t.orphans page
        | None -> ());
        (* ...and the final state of the page if it was still writable. *)
        (match List.assoc_opt page encoded with
        | Some d -> store_diff t ~page ~id d
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
    let floor =
      if receiver = t.me then min_over_peers t t.attach_floor
      else t.attach_floor.(receiver)
    in
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
                  match Itbl.find_opt t.diffs (diff_key t ~page id) with
                  | Some ds ->
                    List.iter
                      (fun d -> budget := !budget - Diff.size_bytes d)
                      ds;
                    Some (page, id, in_order ds)
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
        (fun (id : Interval.id) ->
          if
            Vc.get t.attach_floor.(peer) id.Interval.creator
            < id.Interval.index
          then
            Vc.set t.attach_floor.(peer) id.Interval.creator
              id.Interval.index)
        !shipped
    in
    if receiver = t.me then
      for p = 0 to t.nodes - 1 do
        if p <> t.me then bump p
      done
    else bump receiver;
    out

let piggyback_for t ~receiver ~nontransitive =
  close_interval t;
  let intervals =
    if receiver = t.me then begin
      (* A node is always consistent with itself, but a locally addressed
         RELEASE (a manager enqueueing into its own work queue) is often
         stored and forwarded later.  Tailor it for the least-informed
         peer so the forwarded copy usually carries enough; a true gap is
         still recovered through the fetch-from-origin path (§4.3). *)
      if t.nodes = 1 then []
      else
        intervals_after t ~have:(min_over_peers t t.peer_vc)
          ~own_only:nontransitive
    end
    else intervals_after t ~have:t.peer_vc.(receiver) ~own_only:nontransitive
  in
  {
    origin = t.me;
    required_vc = Vc.copy t.vc;
    intervals;
    nontransitive;
    attached_diffs = attachments_for t ~receiver intervals;
  }

(* One per RELEASE message: the span's args and closure are built only
   while tracing. *)
let make_piggyback t ~receiver ~nontransitive =
  if not (Obs.tracing t.obs) then piggyback_for t ~receiver ~nontransitive
  else
    Obs.span t.obs ~node:t.me ~layer:Obs.Dsm "lrc.release"
      ~args:[ ("receiver", Obs.Int receiver) ]
    @@ fun () -> piggyback_for t ~receiver ~nontransitive

(* The piggyback's wire bytes by taxonomy component: vector clocks (the
   required VC and each interval's VC) are vc_entries, interval ids +
   write-notice lists + the nontransitive flag are write_notices,
   attached diffs are diff_payload. *)
let piggyback_cost pb =
  let vc_bytes =
    Vc.size_bytes pb.required_vc
    + List.fold_left
        (fun acc (i : Interval.t) -> acc + Vc.size_bytes i.Interval.vc)
        0 pb.intervals
  in
  let wn_bytes =
    1
    + List.fold_left
        (fun acc (i : Interval.t) ->
          acc + 4 + (4 * List.length i.Interval.write_notices))
        0 pb.intervals
  in
  [
    (Cost.Vc_entries, vc_bytes);
    (Cost.Write_notices, wn_bytes);
    (Cost.Diff_payload, diff_entries_bytes pb.attached_diffs);
  ]

(* Apply one interval's write notices, preserving local modifications by
   flushing dirty pages to diffs first (the multiple-writer protocol).
   Under the invalidation strategy the named pages become invalid; under
   the update/hybrid strategies a page whose diff travelled with the
   message and whose local copy is current stays valid ("pages to which a
   'complete' set of diffs can be applied remain valid", §4.3). *)
let apply_interval t ~attached interval =
  let creator = interval.Interval.id.Interval.creator in
  let index = interval.Interval.id.Interval.index in
  if creator <> t.me then begin
    List.iter
      (fun page ->
        if t.fault = Some Skip_write_notice then
          (* Armed one-shot corruption: silently drop this write notice
             (no invalidation, no audit hook) — the page keeps serving
             stale bytes, which the auditor must detect. *)
          t.fault <- None
        else begin
        Obs.inc t.ins.write_notices_applied_c;
        t.charge t.costs.Cpu_cost.write_notice_apply;
        (* A whole-page install can leave the local copy ahead of the
           vector clock; a write notice for an interval the content
           already reflects must not re-invalidate the page (fetching its
           old diff would clobber newer bytes). *)
        (if
          index > Vc.get (page_content_vc t page) creator
        then begin
          let p = Page_table.page t.page_table page in
          let eager =
            Itbl.find_opt attached (diff_key t ~page interval.Interval.id)
          in
          match (eager, Page.state p) with
          | Some ds, (Page.Read_only | Page.Read_write) ->
            (* Update path: the data came with the message and the local
               copy is current, so apply in place and stay valid.
               [flush_page] yields while charging the encode, and the app
               fiber can re-fault the page back to Read_write in that
               window; keep flushing until it quiesces so the diffs land
               on a twinless page (the interrupted write retries,
               hardware-style). *)
            while Page.state p = Page.Read_write do
              flush_page t page
            done;
            List.iter
              (fun d ->
                Page.apply_diff p d;
                Obs.inc t.ins.diffs_applied_c;
                t.charge
                  (t.costs.Cpu_cost.diff_data_per_byte
                  *. float_of_int (Diff.changed_bytes d));
                (* Cache the diff: this node can now serve it too. *)
                store_diff t ~page ~id:interval.Interval.id d)
              ds;
            note_page_interval t page ~creator ~index
          | eager, _ ->
            (* Invalidation path (also taken when the local copy already
               has gaps: an eagerly received diff cannot be applied onto
               a stale base, so cache it for the later validation).  Same
               yield hazard as above: a single flush can race the app
               fiber re-faulting the page, and invalidating a Read_write
               page is an error. *)
            while Page.state p = Page.Read_write do
              flush_page t page
            done;
            (match eager with
            | Some ds ->
              List.iter
                (fun d -> store_diff t ~page ~id:interval.Interval.id d)
                ds
            | None -> ());
            (* Record the missing id before the invalidation charge
               yields: a fault in that window must find it, or it would
               validate the page with nothing to fetch. *)
            let cur =
              Option.value ~default:[] (Hashtbl.find_opt t.missing page)
            in
            if not (Interval.mem_id interval.Interval.id cur) then
              Hashtbl.replace t.missing page (interval.Interval.id :: cur);
            if Page.state p <> Page.Invalid then begin
              Page.invalidate p;
              (* Decay the prefetch history: the page must fault again to
                 prove it is still wanted before riding along in batches. *)
              Hashtbl.remove t.accessed page;
              t.charge t.costs.Cpu_cost.page_protect
            end
        end);
        t.hooks.on_write_notice ~node:t.me ~page ~creator ~index
        end)
      interval.Interval.write_notices;
    Vc.set t.vc creator (max (Vc.get t.vc creator) index)
  end

let log_interval t (i : Interval.t) =
  let id = i.Interval.id in
  if
    not
      (Interval.Log.mem t.log ~creator:id.Interval.creator
         ~index:id.Interval.index)
  then Interval.Log.add t.log i

(* Find one interval gap between [t.vc] and [target] that the piggybacks
   did not carry, and the origin to ask for it. *)
let find_gap t ~target piggybacks =
  let result = ref None in
  (try
     for c = 0 to t.nodes - 1 do
       for idx = Vc.get t.vc c + 1 to Vc.get target c do
         if not (Interval.Log.mem t.log ~creator:c ~index:idx) then begin
           let origin =
             List.find_map
               (fun pb ->
                 if Vc.get pb.required_vc c >= idx && pb.origin <> t.me then
                   Some pb.origin
                 else None)
               piggybacks
           in
           (match origin with
           | Some o -> result := Some o
           | None ->
             raise (Protocol_violation "interval gap with no origin to ask"));
           raise Exit
         end
       done
     done
   with Exit -> ());
  !result

let accept_piggybacks t piggybacks =
  (* 0. Index any eagerly shipped diffs (update/hybrid strategies). *)
  let attached = Itbl.create 16 in
  List.iter
    (fun pb ->
      List.iter
        (fun (page, id, ds) -> Itbl.replace attached (diff_key t ~page id) ds)
        pb.attached_diffs)
    piggybacks;
  (* 1. Log every interval description carried by the messages. *)
  List.iter (fun pb -> List.iter (log_interval t) pb.intervals) piggybacks;
  (* 2. Union of the timestamps we must reach. *)
  let target = Vc.copy t.vc in
  List.iter (fun pb -> Vc.join_in_place target pb.required_vc) piggybacks;
  (* 3. Fetch any interval descriptions the messages did not carry (the
     RELEASE_NT incomplete-information path, paper §4.3). *)
  let rec ensure_logged () =
    match find_gap t ~target piggybacks with
    | None -> ()
    | Some origin ->
      Obs.inc t.ins.interval_fetches_c;
      let fetched = fetch_intervals t ~dst:origin ~have:t.vc in
      List.iter (log_interval t) fetched;
      ensure_logged ()
  in
  ensure_logged ();
  (* 4. Apply all newly covered intervals in causal order. *)
  let to_apply =
    match
      Interval.Log.causal_range t.log ~lo:t.vc ~hi:target ~creators:(fun c ->
          c <> t.me)
    with
    | a -> a
    | exception Interval.Log.Missing _ ->
      raise (Protocol_violation "gap survived ensure_logged")
  in
  Array.iter (apply_interval t ~attached) to_apply;
  Vc.join_in_place t.vc target;
  (if t.fault = Some Corrupt_vc_merge then begin
     (* Armed one-shot corruption: lose one non-local component of the
        just-joined clock — the canonical "botched merge" the auditor's
        monotonicity / acquire-dominance checks must catch. *)
     t.fault <- None;
     let victim = ref (-1) in
     for c = 0 to t.nodes - 1 do
       if
         c <> t.me
         && (!victim < 0 || Vc.get t.vc c > Vc.get t.vc !victim)
       then victim := c
     done;
     if !victim >= 0 && Vc.get t.vc !victim > 0 then
       Vc.set t.vc !victim (Vc.get t.vc !victim - 1)
   end);
  (* 5. Remember what the origins know. *)
  List.iter
    (fun pb ->
      if pb.origin <> t.me then note_peer_vc t ~peer:pb.origin pb.required_vc)
    piggybacks

let accept t piggybacks =
  if not (Obs.tracing t.obs) then accept_piggybacks t piggybacks
  else
    Obs.span t.obs ~node:t.me ~layer:Obs.Dsm "lrc.accept"
      ~args:[ ("piggybacks", Obs.Int (List.length piggybacks)) ]
    @@ fun () -> accept_piggybacks t piggybacks

(* ------------------------------------------------------------------ *)
(* Garbage collection support *)

let metadata_pressure t =
  t.diff_bytes_stored + (32 * Interval.Log.length t.log)

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
   content as the page's base, with the coverage [serve_page] would
   claim.  Checking validity and storing do not yield, so the base is a
   consistent copy. *)
let gc_keep t snapshot =
  let kept = elect_keepers t snapshot in
  let stale =
    List.filter_map
      (fun page ->
        if Writeback.fetching t.wb page || Hashtbl.mem t.dropped page then None
        else
          match Hashtbl.find_opt t.missing page with
          | None | Some [] -> None
          | Some ids -> Some (page, ids))
      kept
  in
  if stale <> [] then fetch_batch t stale;
  List.iter
    (fun page ->
      validate_page_if_needed t page;
      Hashtbl.replace t.bases page
        {
          data = Page.clean_snapshot (Page_table.page t.page_table page);
          covers = Vc.join t.vc (page_content_vc t page);
        })
    kept

(* The GC's drop step, once every keeper holds its bases: drop every
   copy that still misses history at or below [snapshot] (that history
   is about to be discarded), remembering the keeper to refetch a base
   from, and point earlier drops at the current keepers.  A fetch in
   flight may still need that history, so wait for every one to finish
   first; the drop itself does not yield. *)
let rec gc_drop t snapshot =
  match Writeback.any_fetch_gate t.wb with
  | Some gate ->
    Ivar.read gate;
    gc_drop t snapshot
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
        Hashtbl.remove t.page_vc page;
        Hashtbl.replace t.dropped page t.keeper.(page))
      stale;
    Hashtbl.filter_map_inplace
      (fun page _ ->
        let keeper = t.keeper.(page) in
        if keeper < 0 || keeper = t.me then
          raise
            (Protocol_violation
               (Printf.sprintf "dropped page %d has no other keeper" page));
        Some keeper)
      t.dropped

let discard_before t snapshot =
  (* Discarding is only legal after a global rendezvous in which every node
     reached [snapshot]; record that knowledge so future piggybacks are
     never asked to cover discarded history. *)
  for peer = 0 to t.nodes - 1 do
    note_peer_vc t ~peer snapshot
  done;
  let keep_interval (i : Interval.t) =
    not (Vc.dominates snapshot i.Interval.vc)
  in
  let discarded =
    Interval.Log.fold
      (fun i acc -> if keep_interval i then acc else i.Interval.id :: acc)
      t.log []
  in
  List.iter
    (fun (id : Interval.id) ->
      Interval.Log.remove t.log ~creator:id.Interval.creator
        ~index:id.Interval.index)
    discarded;
  let diff_keys =
    Itbl.fold
      (fun key ds acc ->
        let creator = key / t.pages mod t.nodes
        and index = key / (t.pages * t.nodes) in
        if index <= Vc.get snapshot creator then (key, ds) :: acc else acc)
      t.diffs []
  in
  List.iter
    (fun (key, ds) ->
      Itbl.remove t.diffs key;
      List.iter
        (fun d ->
          t.diff_bytes_stored <- t.diff_bytes_stored - Diff.size_bytes d)
        ds)
    diff_keys;
  (* Merged encodings may cover just-discarded history; drop them all
     rather than tracking which ranges survive. *)
  Hashtbl.reset t.serve_cache;
  (* A base stays until another node keeps its page. *)
  Hashtbl.filter_map_inplace
    (fun page base -> if t.keeper.(page) = t.me then Some base else None)
    t.bases;
  for c = 0 to t.nodes - 1 do
    Vc.set t.gc_floor c (Vc.get snapshot c)
  done
