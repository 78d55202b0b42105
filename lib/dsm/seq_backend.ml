(* Sequencer-based totally-ordered store: node 0, the sequencer, stamps
   every write batch into one global order and pushes the stamped diffs
   to every replica, which applies them in stamp order.  See
   seq_backend.mli. *)

module Page = Carlos_vm.Page
module Page_table = Carlos_vm.Page_table
module Diff = Carlos_vm.Diff
module Obs = Carlos_obs.Obs
module Ivar = Carlos_sim.Resource.Ivar
module Semaphore = Carlos_sim.Resource.Semaphore
module Cost = Carlos_obs.Cost

(* The node that stamps every write batch. *)
let sequencer = 0

exception Protocol_violation of string

type entry = { seq : int; origin : int; diff : Diff.t }

type piggyback = { origin : int; upto : int }

type hooks = {
  on_stamped : seq:int -> origin:int -> unit;
  on_applied : node:int -> seq:int -> origin:int -> unit;
  on_acquire : node:int -> upto:int -> applied:int -> unit;
  on_handed : node:int -> diffs:int -> unit;
  on_release : node:int -> upto:int -> unit;
}

let no_hooks =
  {
    on_stamped = (fun ~seq:_ ~origin:_ -> ());
    on_applied = (fun ~node:_ ~seq:_ ~origin:_ -> ());
    on_acquire = (fun ~node:_ ~upto:_ ~applied:_ -> ());
    on_handed = (fun ~node:_ ~diffs:_ -> ());
    on_release = (fun ~node:_ ~upto:_ -> ());
  }

type ins = {
  diffs_created_c : Obs.counter;
  diffs_applied_c : Obs.counter;
  sequence_rpcs_c : Obs.counter;
  stamps_c : Obs.counter;
  pushed_entries_c : Obs.counter;
  update_bytes_c : Obs.counter;
}

type t = {
  nodes : int;
  me : int;
  page_table : Page_table.t;
  costs : Cpu_cost.t;
  charge : float -> unit;
  (* All nodes share one zero clock: this model has no vector time. *)
  zero_vc : Vc.t;
  (* Write faults, the flush and its gate.  A page holds unsequenced
     writes exactly while it is [Read_write]. *)
  wb : Writeback.t;
  (* Sequencer only: last stamp assigned, plus a mutex (a semaphore of
     one) so stamp order equals per-destination push order even when the
     dispatcher fiber and local application fibers interleave at charge
     points. *)
  mutable next_seq : int;
  seq_mutex : Semaphore.t;
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

let create ?obs ~nodes ~me ~page_table ~costs ~charge ~peer () =
  let obs = match obs with Some o -> o | None -> Obs.create () in
  let counter name = Obs.counter obs ~node:me ~layer:Obs.Dsm name in
  let t =
    {
      nodes;
      me;
      page_table;
      costs;
      charge;
      zero_vc = Vc.zero ~nodes;
      wb = Writeback.create ~page_table ~costs ~charge;
      next_seq = 0;
      seq_mutex = Semaphore.create 1;
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
  Page_table.set_write_fault page_table (Writeback.write_fault t.wb);
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
  if t.me = sequencer then
    raise (Protocol_violation "seq: push delivered to the sequencer");
  let bytes = ref 0 in
  List.iter
    (fun { seq; origin; diff } ->
      if seq <> t.applied_seq + 1 then
        raise
          (Protocol_violation
             (Printf.sprintf "seq: out-of-order push %d (applied %d)" seq
                t.applied_seq));
      (* Skip the payload of our own diffs: the frames already hold those
         values, and newer unreleased local writes must not be reverted to
         them. *)
      if origin <> t.me then begin
        let p = Page_table.page t.page_table (Diff.page diff) in
        Page.apply_diff_to_twin p diff;
        Obs.inc t.ins.diffs_applied_c;
        Obs.add t.ins.update_bytes_c (Diff.changed_bytes diff);
        bytes := !bytes + Diff.changed_bytes diff
      end;
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

let push_size_bytes entries =
  List.fold_left (fun acc e -> acc + 16 + Diff.size_bytes e.diff) 8 entries

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
  if t.me <> sequencer then
    raise (Protocol_violation "seq: serve_sequence on a non-sequencer node");
  if diffs = [] then 0
  else begin
    Semaphore.wait t.seq_mutex;
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
          { seq; origin; diff })
        diffs
    in
    (* Pushes stay inside the mutex: per-destination send order must
       equal stamp order, and sends yield at charge points. *)
    broadcast t entries;
    wake_waiters t;
    t.charge
      ((t.costs.Cpu_cost.diff_data_per_byte *. float_of_int !changed)
      +. t.costs.Cpu_cost.diff_request_fixed);
    Semaphore.signal t.seq_mutex;
    !last
  end

(* ------------------------------------------------------------------ *)
(* Requests: one peer RPC each, to the sequencer *)

(* The reply is the last stamp assigned. *)
let sequence t diffs =
  let origin = t.me in
  t.peer.rpc ~dst:sequencer ~cost:Cost.Diff_payload
    ~reply_cost:Cost.Diff_payload
    ~request_bytes:
      (List.fold_left (fun acc d -> acc + Diff.size_bytes d) 8 diffs)
    ~reply_bytes:(fun _ -> 12)
    (fun server -> serve_sequence server ~origin diffs)

(* ------------------------------------------------------------------ *)
(* Flushing *)

(* Encode every written page's modifications and route them through the
   sequencer, as the node's one flush in progress: a release that finds
   nothing left to encode has waited for any flush another fiber of this
   node was still sending, so its horizon covers every stamp its writes
   received. *)
let publish t =
  match Writeback.encode_written t.wb ~created:t.ins.diffs_created_c with
  | [] -> ()
  | diffs ->
    t.hooks.on_handed ~node:t.me ~diffs:(List.length diffs);
    let last =
      if t.me = sequencer then serve_sequence t ~origin:t.me diffs
      else begin
        Obs.inc t.ins.sequence_rpcs_c;
        sequence t diffs
      end
    in
    (* The sequencer's reply shares a FIFO channel with its pushes to us,
       so every stamp up to [last] is already applied locally here. *)
    if last > t.horizon then t.horizon <- last

let flush_dirty t = Writeback.exclusively t.wb publish t

(* ------------------------------------------------------------------ *)
(* Release / acquire *)

let make_piggyback t ~receiver:_ ~nontransitive:_ =
  flush_dirty t;
  t.hooks.on_release ~node:t.me ~upto:t.horizon;
  { origin = t.me; upto = t.horizon }

let log_relayed _ _ = ()

let trim_piggyback _ pb ~receiver:_ = pb

let accept t ?local:_ pbs =
  if pbs <> [] then begin
    (* A barrier manager reaches its own fall without sending a release:
       its writes enter the global order here. *)
    flush_dirty t;
    let upto = List.fold_left (fun acc pb -> Int.max acc pb.upto) 0 pbs in
    if upto > t.horizon then t.horizon <- upto;
    while t.applied_seq < upto do
      let gate = Ivar.create () in
      t.acq_waiters <- (upto, gate) :: t.acq_waiters;
      Ivar.read gate
    done;
    t.hooks.on_acquire ~node:t.me ~upto ~applied:t.applied_seq
  end

let data_fetches t = Obs.value t.ins.sequence_rpcs_c
