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
  (* Per page, the least upper bound of the interval timestamps whose
     writes are reflected in the local copy (own closes, applied diffs,
     whole-page installs).  A whole-page install is only sound when the
     server's copy covers at least this much. *)
  page_vc : (int, Vc.t) Hashtbl.t;
  (* The coverage of a page with no [page_vc] entry; shared, never
     mutated. *)
  zero_vc : Vc.t;
  (* Conservative knowledge of each peer's vector timestamp, for tailoring
     RELEASE piggybacks (a REQUEST piggybacks its sender's vc). *)
  peer_vc : Vc.t array;
  (* Diffs held locally (own creations and fetched copies).  With eager
     encoding at interval close, every write notice ever published has
     its diff here at the creator. *)
  store : Diff_store.t;
  (* Lrc_close: pages written in the current (open) interval. *)
  mutable dirty : int list;
  dirty_set : (int, unit) Hashtbl.t;
  (* Diffs encoded mid-interval (a write notice arrived for a locally
     dirty page), newest first; they are published under the open
     interval's id once it closes. *)
  orphans : (int, Diff.t list) Hashtbl.t;
  (* Lrc_fetch: for each invalid page, the interval ids whose diffs must
     be applied. *)
  missing : (int, Interval.id list) Hashtbl.t;
  (* Pages with a live local demand — the history that picks which other
     missing pages may ride along in a fault's batch.  Membership decays:
     a write-notice invalidation removes the page, and only a fresh fault
     re-admits it, so prefetching follows demonstrated reuse.  Without the
     decay a page touched once ever (say, another node's grid block that
     node 0 initialised) would be prefetched on every later fault. *)
  accessed : (int, unit) Hashtbl.t;
  (* Pages whose stale copy a GC dropped, each with the keeper to refetch
     a base from. *)
  dropped : (int, int) Hashtbl.t;
  (* Lrc_serve: creator-side cache of merged diff encodings, keyed by
     (page, creator, lo_index, hi_index).  The member set of a range is
     fully determined by the key (write notices are complete, and a
     fetcher's needed set per creator is upward-closed), so equal keys
     always denote the same merge. *)
  serve_cache : (int * int * int * int, Diff.t) Hashtbl.t;
  (* The base copies this node keeps, immutable once stored. *)
  bases : (int, page_reply) Hashtbl.t;
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
  Vc.set vc creator (max (Vc.get vc creator) index)

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

(* Forget every interval [snapshot] dominates and raise the floor to it. *)
let discard_log t snapshot =
  Interval.Log.fold
    (fun (i : Interval.t) acc ->
      if Vc.dominates snapshot i.Interval.vc then i.Interval.id :: acc else acc)
    t.log []
  |> List.iter (fun (id : Interval.id) ->
         Interval.Log.remove t.log ~creator:id.Interval.creator
           ~index:id.Interval.index);
  for c = 0 to t.nodes - 1 do
    Vc.set t.gc_floor c (Vc.get snapshot c)
  done

(* ------------------------------------------------------------------ *)
(* Page coverage and peer clocks *)

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
  | Some cur -> raise_to cur ~creator ~index

(* A whole-page install genuinely carries per-creator coverage. *)
let note_page_content t page vc =
  t.hooks.on_page_content ~node:t.me ~page ~vc;
  match Hashtbl.find_opt t.page_vc page with
  | None -> Hashtbl.replace t.page_vc page (Vc.copy vc)
  | Some cur -> Vc.join_in_place cur vc

let forget_page_content t page = Hashtbl.remove t.page_vc page

let page_content_vc t page =
  match Hashtbl.find_opt t.page_vc page with
  | Some vc -> vc
  | None -> t.zero_vc

let note_peer_vc t ~peer vc =
  t.hooks.on_peer_note ~node:t.me ~peer ~vc;
  Vc.join_in_place t.peer_vc.(peer) vc
