(* The LRC engine's types and state record, and the node's history: its
   clock, interval log, page coverage and peer clocks.  Each group of the
   record's fields changes only in the module named with it; every part
   reads the configuration and the history directly. *)

module Page = Carlos_vm.Page
module Page_table = Carlos_vm.Page_table
module Diff = Carlos_vm.Diff
module Ivar = Carlos_sim.Resource.Ivar
module Engine = Carlos_sim.Engine
module Obs = Carlos_obs.Obs
module Cost = Carlos_obs.Cost
module Itbl = Diff_store.Itbl

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
   may list the same page in several entries.  Every entry is a non-empty
   mergeable run ([mergeable_runs] in lrc_fetch.ml): ids of the addressed
   creator in ascending index order (a creator's causal order), adjacent
   in the fetcher's causal apply order for that page (no other interval
   it applies to the page, fetched or held locally, sorts between them).
   That licenses the server to merge a longer entry's diffs into one diff
   under its first id, keyed by its first and last index. *)
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
  on_discard :
    (node:int -> snapshot:Vc.t -> creator:int -> index:int -> vc:Vc.t -> unit)
    option;
}

let no_hooks =
  {
    on_interval_closed = (fun ~creator:_ ~index:_ ~vc:_ ~pages:_ -> ());
    on_write_notice = (fun ~node:_ ~page:_ ~creator:_ ~index:_ -> ());
    on_page_interval = (fun ~node:_ ~page:_ ~creator:_ ~index:_ -> ());
    on_page_content = (fun ~node:_ ~page:_ ~vc:_ -> ());
    on_peer_note = (fun ~node:_ ~peer:_ ~vc:_ -> ());
    on_discard = None;
  }

type fault = Skip_write_notice | Corrupt_vc_merge

(* A [serve_cache] key: a page, a creator and the lowest and highest
   index of a run of its intervals. *)
module Serve_key = struct
  type t = { page : int; creator : int; lo : int; hi : int }

  let equal a b =
    a.page = b.page && a.creator = b.creator && a.lo = b.lo && a.hi = b.hi

  let hash k = (((((k.page * 31) + k.creator) * 31) + k.lo) * 31) + k.hi
end

module Serve_cache = Hashtbl.Make (Serve_key)

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
  (* Waste, "of which" counts beside the wire-cost components: carried
     intervals the receiver's clock already covered at accept, with the
     bytes [piggyback_cost] billed for them, and whole-page replies the
     requester threw away, with their reply bytes. *)
  waste_intervals_c : Obs.counter;
  waste_vc_bytes_c : Obs.counter;
  waste_wn_bytes_c : Obs.counter;
  waste_pages_c : Obs.counter;
  waste_page_bytes_c : Obs.counter;
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
    waste_intervals_c = dsm "waste.intervals";
    waste_vc_bytes_c = dsm "waste.vc_bytes";
    waste_wn_bytes_c = dsm "waste.wn_bytes";
    waste_pages_c = dsm "waste.pages";
    waste_page_bytes_c = dsm "waste.page_bytes";
    diff_size_h = Obs.histogram obs ~node ~layer:Obs.Vm "diff.bytes";
  }

type t = {
  (* Configuration, fixed at creation. *)
  nodes : int;
  me : int;
  page_table : Page_table.t;
  costs : Cpu_cost.t;
  strategy : strategy;
  charge : float -> unit;
  (* Write faults, encode charges, fetch gates and the close gate. *)
  wb : Writeback.t;
  peer : t Backend_intf.peer;
  obs : Obs.t;
  ins : instruments;
  (* The node's history, changed only by this module's functions. *)
  vc : Vc.t;
  (* Every interval description this node knows about; invariant: for every
     node [c], contains (c, i) for all 1 <= i <= vc.(c). *)
  log : Interval.Log.t;
  (* The snapshot of the last GC: history at or below it is discarded. *)
  gc_floor : Vc.t;
  (* Per-page state is indexed by page number: an array (or [Bytes])
     with one entry per page of the table and a sentinel for a page with
     nothing recorded, so the fault and write-notice paths neither hash
     nor allocate an option.  [page_vc]: per page, the least upper bound
     of the interval timestamps whose writes are reflected in the local
     copy (own closes, applied diffs, whole-page installs).  A whole-page
     install is only sound when the server's copy covers at least this
     much. *)
  page_vc : Vc.t array;
  (* The coverage of a page whose [page_vc] is [Vc.none]; shared, never
     mutated. *)
  zero_vc : Vc.t;
  (* Conservative knowledge of what each peer holds: a clock every
     interval at or below which is in the peer's log, for tailoring
     RELEASE piggybacks.  It grows from the peer's own clock (a REQUEST
     piggybacks it, an accepted RELEASE carries it), from the GC's
     snapshot, and from the required clock of a RELEASE the peer relays,
     whose intervals a relay logs on arrival ([Lrc_backend.log_relayed]).
     The peer's own clock may be lower. *)
  peer_vc : Vc.t array;
  (* Diffs held locally (own creations and fetched copies).  With eager
     encoding at interval close, every write notice ever published has
     its diff here at the creator. *)
  store : Diff_store.t;
  (* Per page, the bits [accessed_flag] and [dirty_flag] below.  The
     dirty flag marks the pages on the [dirty] list.  The accessed flag
     marks the pages with a live local demand — the history that
     picks which other missing pages may ride along in a fault's batch.
     It decays: a write-notice invalidation clears it, and only a fresh
     fault sets it again, so prefetching follows demonstrated reuse.
     Without the decay a page touched once ever (say, another node's grid
     block that node 0 initialised) would be prefetched on every later
     fault. *)
  flags : Bytes.t;
  (* Lrc_close: pages written in the current (open) interval. *)
  mutable dirty : int list;
  (* Per page, the diffs encoded mid-interval (a write notice arrived for
     a locally dirty page), newest first; they are published under the
     open interval's id once it closes. *)
  orphans : Diff.t list array;
  (* Lrc_fetch: per page, the interval ids whose diffs must be applied
     before the page is valid; empty for most pages. *)
  missing : Interval.id list array;
  (* Per page, a row indexed by creator: the highest index whose write
     notice [missing] recorded for the page while it held a list, 0 for
     none; the O(1) duplicate check of [Lrc_fetch.invalidate].  A page
     gets its row ([nodes] ints) on its first write notice; until then
     its entry is the empty array. *)
  noticed : int array array;
  (* Per page, the keeper to refetch a base from if a GC dropped the
     page's stale copy, else [not_dropped]. *)
  dropped : int array;
  (* Lrc_serve: creator-side cache of merged diff encodings, keyed by
     (page, creator, lo_index, hi_index).  The member set of a range is
     fully determined by the key (write notices are complete, and a
     fetcher's needed set per creator is upward-closed), so equal keys
     always denote the same merge. *)
  serve_cache : Diff.t Serve_cache.t;
  (* The base copies this node keeps, immutable once stored. *)
  bases : page_reply Itbl.t;
  (* Lrc_gc: per page, the node that keeps the page's base copy (-1
     before any GC elected one); the same table on every node. *)
  keeper : int array;
  (* Update/hybrid strategies: per peer, the intervals whose diffs have
     already been shipped eagerly.  Each diff goes to each peer at most
     once; anything else is recovered by demand fetching. *)
  attach_floor : Vc.t array;
  (* Lrc_backend: audit hooks, and a one-shot armed corruption (see
     {!Lrc_backend.inject_fault}). *)
  mutable hooks : hooks;
  mutable fault : fault option;
}

let diff_key t ~page id = Diff_store.key t.store ~page id

(* The [flags] bits. *)
let accessed_flag = 1

let dirty_flag = 2

let has_flag t page flag = Char.code (Bytes.get t.flags page) land flag <> 0

let set_flag t page flag =
  Bytes.set t.flags page
    (Char.unsafe_chr (Char.code (Bytes.get t.flags page) lor flag))

let clear_flag t page flag =
  Bytes.set t.flags page
    (Char.unsafe_chr (Char.code (Bytes.get t.flags page) land lnot flag))

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

(* The flags of pages [8 * w .. 8 * w + 7], one byte each, in one load;
   [w] must be below [Bytes.length flags / 8].  Masked with
   [accessed_in_every_byte], it is non-zero exactly when one of the
   eight is accessed, whatever the byte order. *)
let flag_word t w = get64u t.flags (w * 8)

let accessed_in_every_byte =
  Int64.mul 0x0101010101010101L (Int64.of_int accessed_flag)

(* The [dropped] entry of a page no GC dropped: no keeper is negative
   but the [-1] of a page no GC has elected one for. *)
let not_dropped = min_int

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
(* The clock and the log *)

(* Tick the clock and log this node's next interval, writing [pages]. *)
let new_interval t ~pages =
  let index = Vc.tick t.vc ~me:t.me in
  let interval =
    Interval.make ~creator:t.me ~index ~vc:(Vc.copy t.vc) ~write_notices:pages
  in
  Interval.Log.add t.log interval;
  t.hooks.on_interval_closed ~creator:t.me ~index ~vc:interval.Interval.vc
    ~pages;
  index

let log_interval t (i : Interval.t) =
  let id = i.Interval.id in
  if
    not
      (Interval.Log.mem t.log ~creator:id.Interval.creator
         ~index:id.Interval.index)
  then Interval.Log.add t.log i

(* Raise [vc] to cover interval (creator, index). *)
let raise_to vc ~creator ~index =
  Vc.set vc creator (Int.max (Vc.get vc creator) index)

let advance t ~creator ~index = raise_to t.vc ~creator ~index

let reach t target = Vc.join_in_place t.vc target

(* Lose one non-local component of the clock: the canonical "botched
   merge" the auditor's monotonicity / acquire-dominance checks must
   catch. *)
let corrupt_clock t =
  let victim = ref (-1) in
  for c = 0 to t.nodes - 1 do
    if c <> t.me && (!victim < 0 || Vc.get t.vc c > Vc.get t.vc !victim) then
      victim := c
  done;
  if !victim >= 0 && Vc.get t.vc !victim > 0 then
    Vc.set t.vc !victim (Vc.get t.vc !victim - 1)

(* The logged intervals above [lo] and at or below [hi], in causal order,
   optionally restricted to those created by [only].  Every one of them
   must be in the log. *)
let intervals_between t ~lo ~hi ~only =
  let creators =
    match only with Some me -> fun c -> c = me | None -> fun _ -> true
  in
  match Interval.Log.causal_range t.log ~lo ~hi ~creators with
  | a -> Array.to_list a
  | exception Interval.Log.Missing id ->
    raise
      (Protocol_violation
         (Printf.sprintf "interval log gap at (%d,%d)" id.Interval.creator
            id.Interval.index))

(* Forget every interval [snapshot] dominates and raise the floor to it.
   The snapshot is a node's clock, which is causally closed: it reaches
   [(c, k)] only once it covers that interval's whole clock.  So the
   intervals it dominates are exactly those with [k <= snapshot.(c)], a
   prefix of each creator's row, and dropping it reads no interval. *)
let discard_log t snapshot =
  let audit = t.hooks.on_discard in
  for c = 0 to t.nodes - 1 do
    let upto = Vc.get snapshot c in
    (match audit with
    | None -> ()
    | Some f ->
      Interval.Log.iter_range t.log ~creator:c ~lo:0 ~hi:upto
        (fun (i : Interval.t) ->
          f ~node:t.me ~snapshot ~creator:c ~index:i.Interval.id.Interval.index
            ~vc:i.Interval.vc));
    Interval.Log.remove_upto t.log ~creator:c ~index:upto;
    Vc.set t.gc_floor c upto
  done

(* ------------------------------------------------------------------ *)
(* Page coverage and peer clocks *)

(* Record that the local copy of [page] now reflects the writes of
   interval (creator, index).  Only the creator's component may be bumped:
   an interval's full vector clock names history from other creators whose
   writes to this page have NOT necessarily been applied here. *)
let note_page_interval t page ~creator ~index =
  t.hooks.on_page_interval ~node:t.me ~page ~creator ~index;
  let cur = t.page_vc.(page) in
  if cur == Vc.none then begin
    let vc = Vc.zero ~nodes:t.nodes in
    Vc.set vc creator index;
    t.page_vc.(page) <- vc
  end
  else raise_to cur ~creator ~index

(* A whole-page install genuinely carries per-creator coverage. *)
let note_page_content t page vc =
  t.hooks.on_page_content ~node:t.me ~page ~vc;
  let cur = t.page_vc.(page) in
  if cur == Vc.none then t.page_vc.(page) <- Vc.copy vc
  else Vc.join_in_place cur vc

let forget_page_content t page = t.page_vc.(page) <- Vc.none

let page_content_vc t page =
  let vc = t.page_vc.(page) in
  if vc == Vc.none then t.zero_vc else vc

let note_peer_vc t ~peer vc =
  t.hooks.on_peer_note ~node:t.me ~peer ~vc;
  Vc.join_in_place t.peer_vc.(peer) vc
