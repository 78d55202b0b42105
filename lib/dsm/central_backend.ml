(* Centralized-coordinator strongly-consistent store: one home node holds
   the authoritative copy of every page; everyone else caches read-only
   copies that die at the next acquire.  See central_backend.mli. *)

module Page = Carlos_vm.Page
module Page_table = Carlos_vm.Page_table
module Diff = Carlos_vm.Diff
module Obs = Carlos_obs.Obs
module Ivar = Carlos_sim.Resource.Ivar
module Cost = Carlos_obs.Cost

exception Protocol_violation of string

type piggyback = { origin : int }

type hooks = {
  on_flush_applied : home:int -> origin:int -> page:int -> version:int -> unit;
  on_page_fetched : node:int -> page:int -> version:int -> unit;
}

let no_hooks =
  {
    on_flush_applied = (fun ~home:_ ~origin:_ ~page:_ ~version:_ -> ());
    on_page_fetched = (fun ~node:_ ~page:_ ~version:_ -> ());
  }

type ins = {
  diffs_created_c : Obs.counter;
  diffs_applied_c : Obs.counter;
  flush_rpcs_c : Obs.counter;
  page_fetches_c : Obs.counter;
  bytes_fetched_c : Obs.counter;
  invalidations_c : Obs.counter;
}

type t = {
  nodes : int;
  me : int;
  home : int;
  page_table : Page_table.t;
  costs : Cpu_cost.t;
  charge : float -> unit;
  (* All nodes share one zero clock: this model has no vector time. *)
  zero_vc : Vc.t;
  (* Home only: authoritative per-page version, bumped once per applied
     flush diff (and per own-write flush). *)
  versions : int array;
  (* Write faults, the flush and its gate, and the per-page fetch gates:
     concurrent fibers faulting on one page wait on the first fetch
     instead of issuing duplicates (whose out-of-order installs could
     clobber a twin made in between).  A page holds unflushed writes
     exactly while it is [Read_write]. *)
  wb : Writeback.t;
  peer : t Backend_intf.peer;
  mutable hooks : hooks;
  ins : ins;
}

let set_hooks t hooks = t.hooks <- hooks

let vc t = t.zero_vc

let request_vc _ = None

let note_peer_vc _ ~peer:_ _ = ()

let metadata_pressure _ = 0

(* The origin id is ordering metadata: bill it as vc_entries so the
   cross-model comparison has the centralized model's "logical clock"
   cost on the same axis as LRC's vector time. *)
let piggyback_cost (_ : piggyback) = [ (Cost.Vc_entries, 4) ]

(* ------------------------------------------------------------------ *)
(* Home side (interrupt level, non-blocking except CPU charges) *)

let bump_version t ~origin page =
  t.versions.(page) <- t.versions.(page) + 1;
  t.hooks.on_flush_applied ~home:t.me ~origin ~page
    ~version:t.versions.(page)

let serve_page t ~page =
  if t.me <> t.home then
    raise (Protocol_violation "central: serve_page on a non-home node");
  (* The live frame is the authoritative copy, whether or not the home
     node itself holds an open twin on it. *)
  let p = Page_table.page t.page_table page in
  (Bytes.copy (Page.data p), t.versions.(page))

let serve_flush t ~origin diffs =
  if t.me <> t.home then
    raise (Protocol_violation "central: serve_flush on a non-home node");
  let changed = ref 0 in
  List.iter
    (fun diff ->
      let page = Diff.page diff in
      let p = Page_table.page t.page_table page in
      (* Patch the twin as well when the home node has its own open writes
         on the page, so its next flush does not republish these bytes. *)
      Page.apply_diff_to_twin p diff;
      changed := !changed + Diff.changed_bytes diff;
      Obs.inc t.ins.diffs_applied_c;
      bump_version t ~origin page)
    diffs;
  t.charge
    ((t.costs.Cpu_cost.diff_data_per_byte *. float_of_int !changed)
    +. t.costs.Cpu_cost.diff_request_fixed)

(* ------------------------------------------------------------------ *)
(* Requests: one peer RPC each, to home *)

(* The reply is the page and its version. *)
let fetch_page t ~page =
  t.peer.rpc ~dst:t.home ~cost:Cost.Diff_payload ~reply_cost:Cost.Diff_payload
    ~request_bytes:12
    ~reply_bytes:(fun _ -> 12 + Page_table.page_size t.page_table)
    (fun home -> serve_page home ~page)

let flush t diffs =
  let origin = t.me in
  t.peer.rpc ~dst:t.home ~cost:Cost.Diff_payload ~reply_cost:Cost.Diff_payload
    ~request_bytes:
      (List.fold_left (fun acc d -> acc + Diff.size_bytes d) 8 diffs)
    ~reply_bytes:(fun () -> 8)
    (fun home -> serve_flush home ~origin diffs)

(* ------------------------------------------------------------------ *)
(* Fault handling *)

let rec fetch_if_invalid t page =
  let p = Page_table.page t.page_table page in
  if Page.state p = Page.Invalid then
    match Writeback.fetch_gate t.wb page with
    | Some gate ->
      Ivar.read gate;
      fetch_if_invalid t page
    | None ->
      Writeback.under_gates t.wb [ page ] (fun () ->
          let data, version = fetch_page t ~page in
          Obs.inc t.ins.page_fetches_c;
          Obs.add t.ins.bytes_fetched_c (Bytes.length data);
          Page.install p data;
          t.hooks.on_page_fetched ~node:t.me ~page ~version;
          t.charge
            ((t.costs.Cpu_cost.twin_per_byte
             *. float_of_int (Bytes.length data))
            +. t.costs.Cpu_cost.page_protect))

let read_fault t page =
  if t.me = t.home then
    raise
      (Protocol_violation
         (Printf.sprintf "home node took a read fault on page %d" page));
  t.charge t.costs.Cpu_cost.fault_trap;
  fetch_if_invalid t page

let create ?obs ~nodes ~me ~home ~page_table ~costs ~charge ~peer () =
  let obs = match obs with Some o -> o | None -> Obs.create () in
  let counter name = Obs.counter obs ~node:me ~layer:Obs.Dsm name in
  let t =
    {
      nodes;
      me;
      home;
      page_table;
      costs;
      charge;
      zero_vc = Vc.zero ~nodes;
      versions = Array.make (Page_table.pages page_table) 0;
      wb = Writeback.create ~page_table ~costs ~charge;
      peer;
      hooks = no_hooks;
      ins =
        {
          diffs_created_c = counter "central.diffs_created";
          diffs_applied_c = counter "central.diffs_applied";
          flush_rpcs_c = counter "central.flush_rpcs";
          page_fetches_c = counter "central.page_fetches";
          bytes_fetched_c = counter "central.bytes_fetched";
          invalidations_c = counter "central.invalidations";
        };
    }
  in
  Page_table.set_read_fault page_table (read_fault t);
  Page_table.set_write_fault page_table (Writeback.write_fault t.wb);
  t

(* ------------------------------------------------------------------ *)
(* Flushing *)

(* Encode every written page's modifications and hand them to home, as
   the node's one flush in progress: a release that finds nothing left to
   encode has waited for any flush another fiber of this node was still
   sending, so home has applied every write made before it. *)
let publish t =
  match Writeback.encode_written t.wb ~created:t.ins.diffs_created_c with
  | [] -> ()
  | diffs when t.me = t.home ->
    (* The home node's writes are already in the authoritative frames;
       flushing just retires the twins and advances the versions. *)
    List.iter
      (fun diff ->
        Obs.inc t.ins.diffs_applied_c;
        bump_version t ~origin:t.me (Diff.page diff))
      diffs
  | diffs ->
    Obs.inc t.ins.flush_rpcs_c;
    flush t diffs

let flush_dirty t = Writeback.exclusively t.wb publish t

(* ------------------------------------------------------------------ *)
(* Release / acquire *)

let make_piggyback t ~receiver:_ ~nontransitive:_ =
  flush_dirty t;
  { origin = t.me }

let invalidate_cached t =
  if t.me = t.home then 0
  else begin
    let n = ref 0 in
    for page = 0 to Page_table.pages t.page_table - 1 do
      let p = Page_table.page t.page_table page in
      (* flush_dirty just ran, so no page is Read_write unless a
         concurrent fiber re-twinned it mid-charge; such a page carries
         fresh local writes and will flush (and die) at the next sync. *)
      if Page.state p = Page.Read_only then begin
        Page.invalidate p;
        incr n
      end
    done;
    !n
  end

let accept t pbs =
  if pbs <> [] then begin
    (* A barrier manager reaches its own fall without sending a release:
       its writes flush here, before the wholesale invalidation below
       (which requires clean pages anyway). *)
    flush_dirty t;
    let invalidated = invalidate_cached t in
    Obs.add t.ins.invalidations_c invalidated;
    if invalidated > 0 then
      t.charge (t.costs.Cpu_cost.page_protect *. float_of_int invalidated)
  end

let data_fetches t =
  Obs.value t.ins.flush_rpcs_c + Obs.value t.ins.page_fetches_c
