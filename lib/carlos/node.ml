module Engine = Carlos_sim.Engine
module Resource = Carlos_sim.Resource
module Ivar = Resource.Ivar
module Mailbox = Resource.Mailbox
module Shm = Carlos_vm.Shm
module Lrc = Carlos_dsm.Lrc_backend
module Central = Carlos_dsm.Central_backend
module Seq = Carlos_dsm.Seq_backend
module Backend = Carlos_dsm.Backend
module Vc = Carlos_dsm.Vc
module Interval = Carlos_dsm.Interval
module Cpu_cost = Carlos_dsm.Cpu_cost
module Wire_cost = Carlos_obs.Cost
module Obs = Carlos_obs.Obs
module Audit = Carlos_audit.Audit

exception Handler_error of string

let am_header_bytes = 16

type lane = User_lane | System_lane

(* Registry handles for the [msgs.*] counters ([Carlos] layer); readers
   look them up in the registry by key. *)
type instruments = {
  sent_c : Obs.counter;
  bytes_c : Obs.counter;
  release_c : Obs.counter;
  release_nt_c : Obs.counter;
  request_c : Obs.counter;
  none_c : Obs.counter;
  stored_c : Obs.counter;
  forwarded_c : Obs.counter;
}

(* An all-float record is stored flat, so updating a field allocates
   nothing; a mutable float field of [t] would box on every write. *)
type cpu = {
  (* Preemptible CPU model: application computation occupies the CPU up
     to [busy_until]; message-handler and consistency work runs at
     interrupt level (SIGIO/SIGSEGV in the real system), preempting the
     application by pushing its completion time back. *)
  mutable busy_until : float;
  (* Computation charged by [compute] and not yet flushed to the CPU. *)
  mutable pending : float;
}

type t = {
  id : int;
  engine : Engine.t;
  shm : Shm.t;
  backend : Backend.t;
  cpu : cpu;
  costs : Cpu_cost.t;
  breakdown : Breakdown.t;
  (* Arrival order from the reliable transport; drained by the interrupt
     fiber, which must never block on anything but the CPU. *)
  rx : delivery Mailbox.t;
  user_lane : delivery Mailbox.t;
  mutable transport_send : dst:int -> wire_bytes:int -> wire -> unit;
  mutable safe_point_hook : t -> unit;
  obs : Obs.t;
  wire_cost : Wire_cost.t;
  ins : instruments;
  mutable audit : Audit.t option;
}

and wire = {
  origin : int; (* original sender; forwarding preserves it *)
  annotation : Annotation.t;
  lane : lane;
  payload_bytes : int;
  handler : handler;
  piggyback : Backend.piggyback option; (* RELEASE / RELEASE_NT *)
  sender_vc : Vc.t option; (* REQUEST *)
  cost : Wire_cost.component; (* taxonomy class of the payload bytes *)
  trace_id : int; (* stable causal trace id, from Obs.next_flow_id *)
  mutable hops : int; (* transmissions so far (0 = not yet sent) *)
}

and delivery = {
  message : wire;
  src : int; (* immediate sender (differs from origin after forwarding) *)
  target : t;
  mutable disposition : disposition;
}

and disposition = Undecided | Stored | Accepted | Forwarded

and handler = t -> delivery -> unit

let id t = t.id

let engine t = t.engine

let shm t = t.shm

let backend t = t.backend

let lrc t =
  match t.backend with
  | Backend.Lrc_b b -> b
  | Backend.Central_b _ | Backend.Seq_b _ ->
    raise (Handler_error "Node.lrc: node does not run the LRC backend")

let breakdown t = t.breakdown

let set_audit t a = t.audit <- a

let audit t = t.audit

let audit_annotation = function
  | Annotation.Release -> Audit.Release
  | Annotation.Release_nt -> Audit.Release_nt
  | Annotation.Request -> Audit.Request
  | Annotation.None_ -> Audit.None_

let time t = Engine.now t.engine

(* ------------------------------------------------------------------ *)
(* CPU accounting *)

(* Sleep until the CPU is free; interrupt-level work arriving meanwhile
   pushes [busy_until] back.  Top level: no closure per charge. *)
let rec wait_for_cpu t =
  let now = Engine.now t.engine in
  if now < t.cpu.busy_until then begin
    Engine.delay (t.cpu.busy_until -. now);
    wait_for_cpu t
  end

let charge t bucket dt =
  if dt > 0.0 then begin
    Breakdown.add t.breakdown bucket dt;
    match bucket with
    | Breakdown.User ->
      (* Base-load computation: runs after any earlier reservation and is
         preempted (pushed back) by interrupt-level work that arrives
         while it executes. *)
      let start = Float.max (Engine.now t.engine) t.cpu.busy_until in
      t.cpu.busy_until <- start +. dt;
      wait_for_cpu t
    | Breakdown.Unix | Breakdown.Carlos ->
      (* Interrupt-level work: executes immediately and delays the
         application's pending computation. *)
      t.cpu.busy_until <- t.cpu.busy_until +. dt;
      Engine.delay dt
  end

let compute t dt =
  if dt < 0.0 then invalid_arg "Node.compute: negative time";
  t.cpu.pending <- t.cpu.pending +. dt

let flush_compute t =
  if t.cpu.pending > 0.0 then begin
    let dt = t.cpu.pending in
    t.cpu.pending <- 0.0;
    charge t Breakdown.User dt
  end;
  t.safe_point_hook t

(* ------------------------------------------------------------------ *)
(* Sending *)

(* Bill each part of one transmission to its taxonomy component (per hop:
   a forwarded message's bytes cross the wire again) and return the
   message's wire size, the sum of the parts.  Together with the
   sliding-window (acks, retransmits) and datagram (frame headers, drops)
   attributions this accounts for every wire byte — see Carlos_obs.Cost. *)
let rec bill_parts wire_cost acc = function
  | [] -> acc
  | (c, n) :: rest ->
    Wire_cost.add wire_cost c n;
    bill_parts wire_cost (acc + n) rest

let attribute_wire t message =
  Wire_cost.add t.wire_cost message.cost message.payload_bytes;
  Wire_cost.add t.wire_cost Wire_cost.Am_header am_header_bytes;
  let vc_bytes =
    match message.sender_vc with
    | Some vc ->
      let n = Vc.size_bytes vc in
      Wire_cost.add t.wire_cost Wire_cost.Vc_entries n;
      n
    | None -> 0
  in
  let size = am_header_bytes + message.payload_bytes + vc_bytes in
  match message.piggyback with
  | Some pb -> bill_parts t.wire_cost size (Backend.piggyback_cost pb)
  | None -> size

let count_send t message size =
  Obs.inc t.ins.sent_c;
  Obs.add t.ins.bytes_c size;
  match message.annotation with
  | Annotation.Release -> Obs.inc t.ins.release_c
  | Annotation.Release_nt -> Obs.inc t.ins.release_nt_c
  | Annotation.Request -> Obs.inc t.ins.request_c
  | Annotation.None_ -> Obs.inc t.ins.none_c

(* What the auditor reads from a message's LRC piggyback: its required
   clock, whether it is non-transitive, and the (creator, index) ids of
   the intervals it carries.  Non-LRC piggybacks carry no clock; the
   LRC-specific invariants self-gate on [required_vc = None]. *)
let audited_piggyback message =
  match message.piggyback with
  | Some (Backend.Lrc_pb pb) ->
    ( Some pb.Lrc.required_vc,
      pb.Lrc.nontransitive,
      List.map
        (fun (i : Interval.t) ->
          (i.Interval.id.Interval.creator, i.Interval.id.Interval.index))
        pb.Lrc.intervals )
  | Some (Backend.Central_pb _ | Backend.Seq_pb _) | None -> (None, false, [])

(* Auditor notification for the first transmission of a message.  Must run
   before any CPU charge: charges yield the fiber, and a nested handler
   could move the node's peer-knowledge mirror out from under the
   tailoring check. *)
let audit_send t ~dst message =
  match t.audit with
  | Some a when message.hops = 0 ->
    let required_vc, nontransitive, intervals = audited_piggyback message in
    Audit.on_send a ~trace_id:message.trace_id ~src:t.id ~dst
      ~annotation:(audit_annotation message.annotation)
      ~vc:(Backend.vc t.backend) ~required_vc ~nontransitive ~intervals
      ~sender_vc:message.sender_vc
  | _ -> ()

(* The sender half of a causality arrow: a "send" complete slice covering
   the transmission cost, with the flow event (start for a first
   transmission, step for a forwarding hop) anchored inside it so
   Perfetto draws the arrow from this slice. *)
let trace_send t ~dst message ~duration =
  if Obs.tracing t.obs then begin
    let annot = Annotation.to_string message.annotation in
    Obs.complete_at t.obs ~ts:(Engine.now t.engine) ~duration ~node:t.id
      ~layer:Obs.Carlos "send"
      ~args:
        [
          ("id", Obs.Int message.trace_id);
          ("dst", Obs.Int dst);
          ("annot", Obs.Str annot);
        ];
    (if message.hops = 0 then Obs.flow_start else Obs.flow_step)
      t.obs ~id:message.trace_id ~node:t.id ~layer:Obs.Carlos annot
      ~args:[ ("dst", Obs.Int dst) ]
  end

(* The receiver of a [relayed] RELEASE keeps what it carries (it logs
   the intervals of a message it relays), so from now on it holds the
   required clock, and this node's next RELEASE to it need not carry
   them again.  Noted right after the audit saw the send and before
   anything yields, so no other fiber's RELEASE to [dst] is tailored to
   this note and enters the channel ahead of this message. *)
let note_relayed t ~dst message =
  match message.piggyback with
  | Some (Backend.Lrc_pb pb) when dst <> t.id ->
    Backend.note_peer_vc t.backend ~peer:dst pb.Lrc.required_vc
  | Some _ | None -> ()

let transmit ?(relayed = false) t ~dst message =
  audit_send t ~dst message;
  if relayed then note_relayed t ~dst message;
  if dst = t.id then begin
    (* Local delivery: protocol hops that land on the sending node (a
       manager forwarding to itself, a manager dequeuing from its own
       queue) never touch the wire; they cost one dispatch and are not
       counted as network messages. *)
    trace_send t ~dst message ~duration:t.costs.Cpu_cost.handler_dispatch;
    message.hops <- message.hops + 1;
    charge t Breakdown.Carlos t.costs.Cpu_cost.handler_dispatch;
    Mailbox.send t.rx { message; src = t.id; target = t; disposition = Undecided }
  end
  else begin
    let size = attribute_wire t message in
    count_send t message size;
    trace_send t ~dst message ~duration:t.costs.Cpu_cost.send_syscall;
    message.hops <- message.hops + 1;
    charge t Breakdown.Unix t.costs.Cpu_cost.send_syscall;
    t.transport_send ~dst ~wire_bytes:size message
  end

let send_internal ?(cost = Wire_cost.App_payload) ?relayed t ~dst ~lane
    ~annotation ~payload_bytes ~handler =
  flush_compute t;
  let piggyback, sender_vc =
    match annotation with
    | Annotation.Release ->
      ( Some (Backend.make_piggyback t.backend ~receiver:dst
            ~nontransitive:false),
        None )
    | Annotation.Release_nt ->
      ( Some (Backend.make_piggyback t.backend ~receiver:dst
            ~nontransitive:true),
        None )
    | Annotation.Request -> (
      (* Models without vector time send a bare REQUEST: no clock bytes
         on the wire and no piggyback charge on either side. *)
      match Backend.request_vc t.backend with
      | Some vc ->
        charge t Breakdown.Carlos t.costs.Cpu_cost.vc_piggyback;
        (None, Some vc)
      | None -> (None, None))
    | Annotation.None_ -> (None, None)
  in
  let message =
    { origin = t.id; annotation; lane; payload_bytes; handler; piggyback;
      sender_vc; cost; trace_id = Obs.next_flow_id t.obs; hops = 0 }
  in
  transmit ?relayed t ~dst message

let send ?cost ?relayed t ~dst ~annotation ~payload_bytes ~handler =
  send_internal ?cost ?relayed t ~dst ~lane:User_lane ~annotation
    ~payload_bytes ~handler

(* One-way system-lane control message: runs at the destination's
   interrupt level with no reply (the peer channel's [post], which the
   sequencer backend's update pushes use). *)
let post ?cost t ~dst ~payload_bytes ~handler =
  send_internal ?cost t ~dst ~lane:System_lane ~annotation:Annotation.None_
    ~payload_bytes ~handler

(* ------------------------------------------------------------------ *)
(* Disposition *)

let delivery_src d = d.src

let delivery_trace_id d = d.message.trace_id

let check_disposable d op =
  match d.disposition with
  | Undecided | Stored -> ()
  | Accepted | Forwarded ->
    raise (Handler_error (op ^ ": message already disposed of"))

let accept_deliveries t deliveries vc_before =
  let piggybacks =
    List.filter_map
      (fun d ->
        check_disposable d "accept";
        d.disposition <- Accepted;
        match d.message.annotation with
        | Annotation.Release | Annotation.Release_nt ->
          charge t Breakdown.Carlos t.costs.Cpu_cost.release_fixed;
          d.message.piggyback
        | Annotation.Request | Annotation.None_ -> None)
      deliveries
  in
  (* A message this node sent itself and received by a local hop never
     crossed the wire. *)
  let local =
    List.filter_map
      (fun d ->
        if d.src = t.id && d.message.origin = t.id then d.message.piggyback
        else None)
      deliveries
  in
  if piggybacks <> [] then Backend.accept t.backend ~local piggybacks;
  match (t.audit, vc_before) with
  | Some a, Some before ->
    Audit.on_accept a ~node:t.id ~vc_before:before
      ~vc_after:(Vc.copy (Backend.vc t.backend))
      (List.map
         (fun d ->
           {
             Audit.acc_trace_id = d.message.trace_id;
             acc_annotation = audit_annotation d.message.annotation;
             acc_origin = d.message.origin;
             acc_required_vc =
               (match d.message.piggyback with
               | Some (Backend.Lrc_pb pb) -> Some pb.Lrc.required_vc
               | Some (Backend.Central_pb _ | Backend.Seq_pb _) | None ->
                 None);
           })
         deliveries)
  | _ -> ()

(* Span closures are built only while tracing: this runs per message. *)
let accept_batch t deliveries =
  let vc_before =
    match t.audit with
    | Some _ -> Some (Vc.copy (Backend.vc t.backend))
    | None -> None
  in
  if not (Obs.tracing t.obs) then accept_deliveries t deliveries vc_before
  else
    Obs.span t.obs ~node:t.id ~layer:Obs.Carlos "accept" @@ fun () ->
    List.iter
      (fun d ->
        (* Arrow terminus: binds to this accept slice (or, for an accept
           called directly from a handler, the enclosing deliver slice). *)
        Obs.flow_finish t.obs ~id:d.message.trace_id ~node:t.id
          ~layer:Obs.Carlos
          (Annotation.to_string d.message.annotation))
      deliveries;
    accept_deliveries t deliveries vc_before

let accept d = accept_batch d.target [ d ]

(* A relay keeps what a RELEASE carries as soon as it stores or forwards
   it, without accepting it. *)
let log_relayed t message =
  match message.piggyback with
  | Some pb -> Backend.log_relayed t.backend pb
  | None -> ()

(* A RELEASE forwarded to another node travels as a copy built from this
   node's log to carry what [dst] lacks, as its REQUEST clock told this
   node; the copy keeps the origin, the required clock and the trace id.
   A local hop never touches the wire and forwards the message as it is.
   The copy and the audit see the same peer knowledge: nothing yields
   between them. *)
let forward d ~dst =
  check_disposable d "forward";
  let t = d.target in
  d.disposition <- Forwarded;
  Obs.inc t.ins.forwarded_c;
  log_relayed t d.message;
  let message =
    match d.message.piggyback with
    | Some pb when dst <> t.id ->
      {
        d.message with
        piggyback = Some (Backend.trim_piggyback t.backend pb ~receiver:dst);
      }
    | Some _ | None -> d.message
  in
  (match t.audit with
  | Some a ->
    let required_vc, nontransitive, intervals = audited_piggyback message in
    Audit.on_forward a ~trace_id:message.trace_id ~node:t.id ~dst
      ~vc:(Backend.vc t.backend) ~origin:message.origin ~required_vc
      ~nontransitive ~intervals
  | None -> ());
  transmit t ~dst message

let store d =
  (match d.disposition with
  | Undecided -> ()
  | Stored | Accepted | Forwarded ->
    raise (Handler_error "store: message already disposed of"));
  let t = d.target in
  d.disposition <- Stored;
  Obs.inc t.ins.stored_c;
  log_relayed t d.message;
  match t.audit with
  | Some a ->
    Audit.on_store a ~trace_id:d.message.trace_id ~node:t.id
      ~vc:(Backend.vc t.backend)
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Receiving *)

let handle t d =
  charge t Breakdown.Carlos t.costs.Cpu_cost.handler_dispatch;
  (match d.message.annotation with
  | Annotation.Request -> (
    match d.message.sender_vc with
    | Some vc ->
      charge t Breakdown.Carlos t.costs.Cpu_cost.vc_piggyback;
      Backend.note_peer_vc t.backend ~peer:d.message.origin vc
    | None -> ())
  | Annotation.Release | Annotation.Release_nt | Annotation.None_ -> ());
  d.message.handler t d;
  match d.disposition with
  | Undecided ->
    raise
      (Handler_error
         "handler returned without accepting, forwarding or storing")
  | Stored | Accepted | Forwarded -> ()

(* The span, its args and its closure are built only while tracing. *)
let run_handler t d =
  if not (Obs.tracing t.obs) then handle t d
  else begin
    let annot = Annotation.to_string d.message.annotation in
    Obs.span t.obs ~node:t.id ~layer:Obs.Carlos "deliver"
      ~args:
        [
          ("id", Obs.Int d.message.trace_id);
          ("src", Obs.Int d.src);
          ("annot", Obs.Str annot);
        ]
    @@ fun () ->
    (* Intermediate hop of the causality arrow: binds to this deliver
       slice.  The arrow terminates at the accept (flow_finish). *)
    Obs.flow_step t.obs ~id:d.message.trace_id ~node:t.id ~layer:Obs.Carlos
      annot;
    handle t d
  end

(* Non-blocking: called directly by the sliding-window layer, which relies
   on its upcall returning promptly to keep per-pair delivery in order. *)
let deliver t ~src message =
  Mailbox.send t.rx { message; src; target = t; disposition = Undecided }

let start_dispatcher t =
  (* Interrupt fiber: receive-side system costs and system-lane handlers
     (which are non-blocking by construction: protocol services and RPC
     reply continuations). *)
  Engine.spawn t.engine (fun () ->
      let rec loop () =
        let d = Mailbox.recv t.rx in
        (* Locally delivered messages (src = self) never crossed the wire
           and pay no receive syscall. *)
        if d.src <> t.id then
          charge t Breakdown.Unix t.costs.Cpu_cost.recv_syscall;
        (match d.message.lane with
        | System_lane -> run_handler t d
        | User_lane -> Mailbox.send t.user_lane d);
        loop ()
      in
      loop ());
  (* User dispatcher fiber: runs user-message handlers one at a time; these
     may block (e.g. the acquire side of an accepted RELEASE fetching
     missing consistency information), which simply delays later user
     messages, as in the paper's model. *)
  Engine.spawn t.engine (fun () ->
      let rec loop () =
        let d = Mailbox.recv t.user_lane in
        run_handler t d;
        loop ()
      in
      loop ())

(* ------------------------------------------------------------------ *)
(* Blocking helpers *)

let await t ivar =
  flush_compute t;
  Ivar.read ivar

let rpc ?cost ?reply_cost t ~dst ~request_bytes ~service ~reply_bytes =
  flush_compute t;
  let result = Ivar.create () in
  let me = t.id in
  let reply_cost = match reply_cost with Some c -> Some c | None -> cost in
  send_internal ?cost t ~dst ~lane:System_lane ~annotation:Annotation.None_
    ~payload_bytes:request_bytes ~handler:(fun remote d ->
      accept d;
      let reply = service remote in
      send_internal ?cost:reply_cost remote ~dst:me ~lane:System_lane
        ~annotation:Annotation.None_
        ~payload_bytes:(reply_bytes reply)
        ~handler:(fun _local d2 ->
          accept d2;
          Ivar.fill result reply));
  Ivar.read result

(* ------------------------------------------------------------------ *)
(* Construction *)

let model_mismatch () =
  raise (Handler_error "Node: peer runs a different consistency model")

let make ~obs ~id ~nodes ~engine ~shm ~costs ~backend ~strategy =
  (* The backend charges its work to this node's CPU and reaches its
     peers through this node's messages; tie the knot with a forward
     reference. *)
  let self = ref None in
  let node () = Option.get !self in
  let charge_dsm dt = charge (node ()) Breakdown.Carlos dt in
  (* [project] finds the same model's backend on the destination node. *)
  let peer project =
    {
      Carlos_dsm.Backend_intf.rpc =
        (fun ~dst ~cost ~reply_cost ~request_bytes ~reply_bytes serve ->
          rpc ~cost ~reply_cost (node ()) ~dst ~request_bytes ~reply_bytes
            ~service:(fun remote -> serve (project remote.backend)));
      post =
        (fun ~dst ~cost ~payload_bytes serve ->
          post ~cost (node ()) ~dst ~payload_bytes ~handler:(fun remote d ->
              accept d;
              serve (project remote.backend)));
    }
  in
  let page_table = Shm.page_table shm in
  let backend =
    match backend with
    | Backend.Lrc ->
      Backend.Lrc_b
        (Lrc.create ~obs ~nodes ~me:id ~page_table ~costs ~charge:charge_dsm
           ~peer:(peer (function Backend.Lrc_b b -> b | _ -> model_mismatch ()))
           ~strategy ())
    | Backend.Central ->
      Backend.Central_b
        (Central.create ~obs ~nodes ~me:id ~page_table ~costs
           ~charge:charge_dsm
           ~peer:
             (peer (function
               | Backend.Central_b b -> b
               | _ -> model_mismatch ()))
           ())
    | Backend.Seq ->
      Backend.Seq_b
        (Seq.create ~obs ~nodes ~me:id ~page_table ~costs
           ~charge:charge_dsm
           ~peer:(peer (function Backend.Seq_b b -> b | _ -> model_mismatch ()))
           ())
  in
  let counter name = Obs.counter obs ~node:id ~layer:Obs.Carlos name in
  let t =
    {
      id;
      engine;
      shm;
      backend;
      cpu = { busy_until = 0.0; pending = 0.0 };
      costs;
      breakdown = Breakdown.create ~obs ~node:id ();
      rx = Mailbox.create ();
      user_lane = Mailbox.create ();
      transport_send =
        (fun ~dst:_ ~wire_bytes:_ _ ->
          invalid_arg "Node: transport not installed");
      safe_point_hook = (fun _ -> ());
      obs;
      wire_cost = Wire_cost.create obs;
      audit = None;
      ins =
        {
          sent_c = counter "msgs.sent";
          bytes_c = counter "msgs.bytes";
          release_c = counter "msgs.release";
          release_nt_c = counter "msgs.release_nt";
          request_c = counter "msgs.request";
          none_c = counter "msgs.none";
          stored_c = counter "msgs.stored";
          forwarded_c = counter "msgs.forwarded";
        };
    }
  in
  self := Some t;
  t

let set_transport_send t f = t.transport_send <- f

let set_safe_point_hook t f = t.safe_point_hook <- f
