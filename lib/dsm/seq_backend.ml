(* Sequencer-based totally-ordered store: node [sequencer] stamps every
   write batch and CAS into one global order and pushes the stamped
   updates to every replica, which applies them in stamp order.  See
   seq_backend.mli. *)

module Page = Carlos_vm.Page
module Page_table = Carlos_vm.Page_table
module Diff = Carlos_vm.Diff
module Obs = Carlos_obs.Obs
module Ivar = Carlos_sim.Resource.Ivar
module Cost = Carlos_obs.Cost

exception Protocol_violation of string

type update =
  | Diff_u of Carlos_vm.Diff.t
  | Patch_u of { page : int; offset : int; data : Bytes.t }

type entry = { seq : int; origin : int; update : update }

type piggyback = { origin : int; upto : int }

type hooks = {
  on_stamped : seq:int -> origin:int -> unit;
  on_applied : node:int -> seq:int -> origin:int -> unit;
  on_acquire : node:int -> upto:int -> applied:int -> unit;
}

let no_hooks =
  {
    on_stamped = (fun ~seq:_ ~origin:_ -> ());
    on_applied = (fun ~node:_ ~seq:_ ~origin:_ -> ());
    on_acquire = (fun ~node:_ ~upto:_ ~applied:_ -> ());
  }

type ins = {
  diffs_created_c : Obs.counter;
  diffs_applied_c : Obs.counter;
  sequence_rpcs_c : Obs.counter;
  cas_rpcs_c : Obs.counter;
  stamps_c : Obs.counter;
  pushed_entries_c : Obs.counter;
  update_bytes_c : Obs.counter;
}

type t = {
  nodes : int;
  me : int;
  sequencer : int;
  page_table : Page_table.t;
  costs : Cpu_cost.t;
  charge : float -> unit;
  (* All nodes share one zero clock: this model has no vector time. *)
  zero_vc : Vc.t;
  dirty : bool array;
  (* Sequencer only: last stamp assigned, plus a cooperative mutex so
     stamp order equals per-destination push order even when the
     dispatcher fiber and local application fibers interleave at charge
     points. *)
  mutable next_seq : int;
  mutable seq_busy : bool;
  seq_queue : unit Ivar.t Queue.t;
  (* Every node: highest stamp applied locally, the causal horizon
     carried on outgoing releases, and acquirers parked until the
     applied stamp reaches their needed horizon. *)
  mutable applied_seq : int;
  mutable horizon : int;
  mutable acq_waiters : (int * unit Ivar.t) list;
  peer : t Backend_intf.peer;
  mutable hooks : hooks;
  ins : ins;
}

let create ?obs ~nodes ~me ~sequencer ~page_table ~costs ~charge ~peer () =
  let obs = match obs with Some o -> o | None -> Obs.create () in
  let counter name = Obs.counter obs ~node:me ~layer:Obs.Dsm name in
  let t =
    {
      nodes;
      me;
      sequencer;
      page_table;
      costs;
      charge;
      zero_vc = Vc.zero ~nodes;
      dirty = Array.make (Page_table.pages page_table) false;
      next_seq = 0;
      seq_busy = false;
      seq_queue = Queue.create ();
      applied_seq = 0;
      horizon = 0;
      acq_waiters = [];
      peer;
      hooks = no_hooks;
      ins =
        {
          diffs_created_c = counter "seq.diffs_created";
          diffs_applied_c = counter "seq.diffs_applied";
          sequence_rpcs_c = counter "seq.sequence_rpcs";
          cas_rpcs_c = counter "seq.cas_rpcs";
          stamps_c = counter "seq.stamps";
          pushed_entries_c = counter "seq.pushed_entries";
          update_bytes_c = counter "seq.update_bytes";
        };
    }
  in
  Page_table.set_read_fault page_table (fun page ->
      (* Every node holds a full replica that is only ever updated in
         place; no page is ever invalidated in this model. *)
      raise
        (Protocol_violation
           (Printf.sprintf "seq: read fault on page %d (never invalidated)"
              page)));
  Page_table.set_write_fault page_table (fun page ->
      let p = Page_table.page t.page_table page in
      (* Twin + dirty before charging: charges yield the fiber and a
         concurrent flush must see a consistent pair. *)
      Page.make_twin p;
      t.dirty.(page) <- true;
      t.charge
        (t.costs.Cpu_cost.fault_trap
        +. (t.costs.Cpu_cost.twin_per_byte
           *. float_of_int (Bytes.length (Page.data p)))
        +. t.costs.Cpu_cost.page_protect));
  t

let set_hooks t hooks = t.hooks <- hooks

let applied_seq t = t.applied_seq

let vc t = t.zero_vc

let request_vc _ = None

let note_peer_vc _ ~peer:_ _ = ()

let metadata_pressure _ = 0

(* origin + upto horizon: the sequencer's ordering metadata, on the same
   vc_entries axis as LRC's vector clocks. *)
let piggyback_cost (_ : piggyback) = [ (Cost.Vc_entries, 12) ]

(* ------------------------------------------------------------------ *)
(* Sequencer mutex *)

let rec lock_sequencer t =
  if t.seq_busy then begin
    let gate = Ivar.create () in
    Queue.push gate t.seq_queue;
    Ivar.read gate;
    lock_sequencer t
  end
  else t.seq_busy <- true

let unlock_sequencer t =
  t.seq_busy <- false;
  match Queue.take_opt t.seq_queue with
  | Some gate -> Ivar.fill gate ()
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Acquire parking *)

let wake_waiters t =
  let ready, rest =
    List.partition (fun (upto, _) -> upto <= t.applied_seq) t.acq_waiters
  in
  t.acq_waiters <- rest;
  List.iter (fun (_, gate) -> Ivar.fill gate ()) ready

(* ------------------------------------------------------------------ *)
(* Replica side (interrupt level) *)

let apply_push t entries =
  if t.me = t.sequencer then
    raise (Protocol_violation "seq: push delivered to the sequencer");
  let bytes = ref 0 in
  List.iter
    (fun { seq; origin; update } ->
      if seq <> t.applied_seq + 1 then
        raise
          (Protocol_violation
             (Printf.sprintf "seq: out-of-order push %d (applied %d)" seq
                t.applied_seq));
      (match update with
      | Diff_u diff ->
        (* Skip the payload of our own diffs: the frames already hold
           those values, and newer unreleased local writes must not be
           reverted to them. *)
        if origin <> t.me then begin
          let p = Page_table.page t.page_table (Diff.page diff) in
          Page.apply_diff_to_twin p diff;
          Obs.inc t.ins.diffs_applied_c;
          Obs.add t.ins.update_bytes_c (Diff.changed_bytes diff);
          bytes := !bytes + Diff.changed_bytes diff
        end
      | Patch_u { page; offset; data } ->
        let p = Page_table.page t.page_table page in
        Page.patch p ~offset data;
        Obs.inc t.ins.diffs_applied_c;
        Obs.add t.ins.update_bytes_c (Bytes.length data);
        bytes := !bytes + Bytes.length data);
      t.applied_seq <- seq;
      t.hooks.on_applied ~node:t.me ~seq ~origin)
    entries;
  wake_waiters t;
  t.charge
    ((t.costs.Cpu_cost.diff_data_per_byte *. float_of_int !bytes)
    +. (t.costs.Cpu_cost.write_notice_apply
       *. float_of_int (List.length entries)))

(* ------------------------------------------------------------------ *)
(* Pushes *)

let entry_size_bytes { update; _ } =
  16
  +
  match update with
  | Diff_u d -> Diff.size_bytes d
  | Patch_u { data; _ } -> 8 + Bytes.length data

let push_size_bytes entries =
  List.fold_left (fun acc e -> acc + entry_size_bytes e) 8 entries

(* The sequencer's stamped updates ride one-way posts; the per-pair FIFO
   of the message layer turns send order (= stamp order, under the
   sequencer mutex) into apply order at each replica. *)
let broadcast t entries =
  for dst = 0 to t.nodes - 1 do
    if dst <> t.me then begin
      t.peer.post ~dst ~cost:Cost.Diff_payload
        ~payload_bytes:(push_size_bytes entries)
        (fun replica -> apply_push replica entries);
      Obs.add t.ins.pushed_entries_c (List.length entries)
    end
  done

(* ------------------------------------------------------------------ *)
(* Sequencer side (interrupt level or local application fiber) *)

let serve_sequence t ~origin diffs =
  if t.me <> t.sequencer then
    raise (Protocol_violation "seq: serve_sequence on a non-sequencer node");
  if diffs = [] then 0
  else begin
    lock_sequencer t;
    let changed = ref 0 in
    let last = ref 0 in
    let entries =
      List.map
        (fun diff ->
          t.next_seq <- t.next_seq + 1;
          let seq = t.next_seq in
          last := seq;
          Obs.inc t.ins.stamps_c;
          t.hooks.on_stamped ~seq ~origin;
          (* Apply foreign diffs to the authoritative frames (patching any
             open twin too, so the sequencer's own next flush does not
             republish these bytes); the sequencer's own values are
             already in place. *)
          if origin <> t.me then begin
            let p = Page_table.page t.page_table (Diff.page diff) in
            Page.apply_diff_to_twin p diff;
            Obs.inc t.ins.diffs_applied_c;
            Obs.add t.ins.update_bytes_c (Diff.changed_bytes diff);
            changed := !changed + Diff.changed_bytes diff
          end;
          t.applied_seq <- seq;
          t.hooks.on_applied ~node:t.me ~seq ~origin;
          { seq; origin; update = Diff_u diff })
        diffs
    in
    (* Pushes stay inside the mutex: per-destination send order must
       equal stamp order, and sends yield at charge points. *)
    broadcast t entries;
    wake_waiters t;
    t.charge
      ((t.costs.Cpu_cost.diff_data_per_byte *. float_of_int !changed)
      +. t.costs.Cpu_cost.diff_request_fixed);
    unlock_sequencer t;
    !last
  end

let serve_cas t ~origin ~page ~offset ~expected ~desired =
  if t.me <> t.sequencer then
    raise (Protocol_violation "seq: serve_cas on a non-sequencer node");
  lock_sequencer t;
  let p = Page_table.page t.page_table page in
  let observed = Int64.to_int (Bytes.get_int64_le (Page.data p) offset) in
  let result =
    if observed <> expected then (false, observed)
    else begin
      let data = Bytes.create 8 in
      Bytes.set_int64_le data 0 (Int64.of_int desired);
      Page.patch p ~offset data;
      t.next_seq <- t.next_seq + 1;
      let seq = t.next_seq in
      Obs.inc t.ins.stamps_c;
      t.hooks.on_stamped ~seq ~origin;
      t.applied_seq <- seq;
      t.hooks.on_applied ~node:t.me ~seq ~origin;
      (* Unlike a diff, the patched value was computed here, so the
         origin's replica needs the push too. *)
      broadcast t [ { seq; origin; update = Patch_u { page; offset; data } } ];
      wake_waiters t;
      (true, expected)
    end
  in
  t.charge t.costs.Cpu_cost.diff_request_fixed;
  unlock_sequencer t;
  result

(* ------------------------------------------------------------------ *)
(* Requests: one peer RPC each, to the sequencer *)

(* The reply is the last stamp assigned. *)
let sequence t diffs =
  let origin = t.me in
  t.peer.rpc ~dst:t.sequencer ~cost:Cost.Diff_payload
    ~reply_cost:Cost.Diff_payload
    ~request_bytes:
      (List.fold_left (fun acc d -> acc + Diff.size_bytes d) 8 diffs)
    ~reply_bytes:(fun _ -> 12)
    (fun sequencer -> serve_sequence sequencer ~origin diffs)

(* CAS is a synchronization primitive: billed on the same axis as
   locks. *)
let remote_cas t ~page ~offset ~expected ~desired =
  let origin = t.me in
  t.peer.rpc ~dst:t.sequencer ~cost:Cost.Lock_proto ~reply_cost:Cost.Lock_proto
    ~request_bytes:32
    ~reply_bytes:(fun _ -> 16)
    (fun sequencer ->
      serve_cas sequencer ~origin ~page ~offset ~expected ~desired)

(* ------------------------------------------------------------------ *)
(* Flushing *)

(* Encode every dirty page's modifications and route them through the
   sequencer.  Dirty flags are snapshotted and cleared before any charge
   (mutate-before-charge: a concurrent writer re-dirtying a page keeps
   its flag for the next flush). *)
let flush_dirty t =
  let pages = ref [] in
  Array.iteri
    (fun page d ->
      if d then begin
        t.dirty.(page) <- false;
        pages := page :: !pages
      end)
    t.dirty;
  let diffs =
    List.filter_map
      (fun page ->
        let p = Page_table.page t.page_table page in
        let encoded = ref [] in
        (* A charge below may yield to a fiber that re-twins the page;
           loop until it is clean at this instant. *)
        while Page.state p = Page.Read_write do
          let diff = Page.encode_diff p ~page_index:page in
          Obs.inc t.ins.diffs_created_c;
          t.charge
            ((t.costs.Cpu_cost.diff_scan_per_byte
             *. float_of_int (Bytes.length (Page.data p)))
            +. (t.costs.Cpu_cost.diff_data_per_byte
               *. float_of_int (Diff.changed_bytes diff))
            +. t.costs.Cpu_cost.page_protect);
          if not (Diff.is_empty diff) then encoded := diff :: !encoded
        done;
        match List.rev !encoded with
        | [] -> None
        | [ d ] -> Some d
        | ds -> Some (Diff.merge ds))
      (List.rev !pages)
  in
  if diffs <> [] then begin
    let last =
      if t.me = t.sequencer then serve_sequence t ~origin:t.me diffs
      else begin
        Obs.inc t.ins.sequence_rpcs_c;
        sequence t diffs
      end
    in
    (* The sequencer's reply shares a FIFO channel with its pushes to us,
       so every stamp up to [last] is already applied locally here. *)
    if last > t.horizon then t.horizon <- last
  end

(* ------------------------------------------------------------------ *)
(* CAS *)

let cas t ~page ~offset ~expected ~desired =
  (* Flush first so the sequencer judges the CAS against a frame that
     includes our earlier writes. *)
  flush_dirty t;
  let result =
    if t.me = t.sequencer then
      serve_cas t ~origin:t.me ~page ~offset ~expected ~desired
    else begin
      Obs.inc t.ins.cas_rpcs_c;
      remote_cas t ~page ~offset ~expected ~desired
    end
  in
  (* On success our Patch_u arrived before the RPC reply (FIFO), so the
     local applied stamp covers it. *)
  if t.applied_seq > t.horizon then t.horizon <- t.applied_seq;
  result

(* ------------------------------------------------------------------ *)
(* Release / acquire *)

let make_piggyback t ~receiver:_ ~nontransitive:_ =
  flush_dirty t;
  { origin = t.me; upto = t.horizon }

let accept t pbs =
  if pbs <> [] then begin
    (* A barrier manager reaches its own fall without sending a release:
       its writes enter the global order here. *)
    flush_dirty t;
    let upto = List.fold_left (fun acc pb -> max acc pb.upto) 0 pbs in
    if upto > t.horizon then t.horizon <- upto;
    while t.applied_seq < upto do
      let gate = Ivar.create () in
      t.acq_waiters <- (upto, gate) :: t.acq_waiters;
      Ivar.read gate
    done;
    t.hooks.on_acquire ~node:t.me ~upto ~applied:t.applied_seq
  end

let data_fetches t =
  Obs.value t.ins.sequence_rpcs_c + Obs.value t.ins.cas_rpcs_c
