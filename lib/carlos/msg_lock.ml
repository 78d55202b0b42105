module Ivar = Carlos_sim.Resource.Ivar
module Obs = Carlos_obs.Obs

type status = Released | Acquiring | Holding

type per_node = {
  mutable status : status;
  (* The lock token rests at the last holder after a release until a
     forwarded request claims it.  A node can be [Acquiring] while still
     holding the dormant token (it released and immediately re-requested);
     a forwarded request arriving in that window was ordered ahead of the
     re-request by the manager and must be granted at once — chaining it
     instead creates a two-node cycle. *)
  mutable token : bool;
  mutable next : int option; (* successor to grant to on release *)
  mutable gate : unit Ivar.t option; (* filled when the grant arrives *)
}

type t = {
  manager : int;
  name : string;
  mutable tail : int; (* last requester, as known at the manager *)
  per_node : per_node array;
  obs : Obs.t;
  wait_h : Obs.Hist.t; (* per-acquisition wait, [lock.wait:<name>] *)
}

let create system ~manager ~name =
  let n = System.node_count system in
  if manager < 0 || manager >= n then invalid_arg "Msg_lock.create: manager";
  let obs = System.obs system in
  {
    manager;
    name;
    tail = manager;
    per_node =
      Array.init n (fun i ->
          { status = Released; token = i = manager; next = None; gate = None });
    obs;
    wait_h =
      Obs.histogram obs ~node:Obs.global_node ~layer:Obs.Carlos
        ("lock.wait:" ^ name);
  }

let request_bytes = 16

let grant_bytes = 8

(* Send the RELEASE grant that hands the lock to [requester]; accepting it
   fills the gate the requester parked on. *)
let grant t node ~requester =
  Obs.event t.obs ~node:(Node.id node) ~layer:Obs.Carlos "lock.handoff"
    ~args:[ ("name", Obs.Str t.name); ("to", Obs.Int requester) ];
  Node.send ~cost:Carlos_obs.Cost.Lock_proto node ~dst:requester ~annotation:Annotation.Release
    ~payload_bytes:grant_bytes
    ~handler:(fun here d ->
      Node.accept d;
      let st = t.per_node.(Node.id here) in
      st.token <- true;
      match st.gate with
      | Some gate ->
        st.gate <- None;
        Ivar.fill gate ()
      | None ->
        raise (Node.Handler_error (t.name ^ ": grant with nobody waiting")))

let acquire t node =
  let me = Node.id node in
  let st = t.per_node.(me) in
  (match st.status with
  | Released -> ()
  | Acquiring | Holding ->
    invalid_arg
      (Printf.sprintf "Msg_lock.acquire(%s): node %d already has it" t.name me));
  st.status <- Acquiring;
  let gate = Ivar.create () in
  st.gate <- Some gate;
  (* The handler travels with the message: first hop runs at the manager
     (update the tail, forward to the previous tail), second hop at the
     previous tail (grant now or chain the requester behind it). *)
  let requested_at = Node.time node in
  let hop = ref `At_manager in
  Node.send ~cost:Carlos_obs.Cost.Lock_proto node ~dst:t.manager ~annotation:Annotation.Request
    ~payload_bytes:request_bytes
    ~handler:(fun here d ->
      match !hop with
      | `At_manager ->
        hop := `At_tail;
        let prev = t.tail in
        t.tail <- me;
        Node.forward d ~dst:prev
      | `At_tail ->
        Node.accept d;
        let tail_state = t.per_node.(Node.id here) in
        if tail_state.token && tail_state.status <> Holding then begin
          (* Dormant token (covers self-handoff, where the manager routed
             our own request back to us). *)
          tail_state.token <- false;
          grant t here ~requester:me
        end
        else begin
          match tail_state.next with
          | None -> tail_state.next <- Some me
          | Some _ ->
            raise
              (Node.Handler_error (t.name ^ ": tail already has a successor"))
        end);
  Node.await node gate;
  let wait = Node.time node -. requested_at in
  Obs.Hist.observe t.wait_h wait;
  Obs.event t.obs ~node:me ~layer:Obs.Carlos "lock.acquired"
    ~args:[ ("name", Obs.Str t.name); ("wait", Obs.F wait) ];
  st.status <- Holding

let release t node =
  let me = Node.id node in
  let st = t.per_node.(me) in
  (match st.status with
  | Holding -> ()
  | Released | Acquiring ->
    invalid_arg
      (Printf.sprintf "Msg_lock.release(%s): node %d does not hold it" t.name
         me));
  Node.flush_compute node;
  st.status <- Released;
  match st.next with
  | None -> () (* the token rests here until a forwarded request claims it *)
  | Some successor ->
    st.next <- None;
    st.token <- false;
    grant t node ~requester:successor

let with_lock t node f =
  acquire t node;
  match f () with
  | v ->
    release t node;
    v
  | exception e ->
    (* The body may already have released (or [release] itself may be what
       raised): releasing again would turn [e] into an [Invalid_argument]
       about not holding the lock.  Release only when still holding, and
       always re-raise the original exception. *)
    (if t.per_node.(Node.id node).status = Holding then
       try release t node with _ -> ());
    raise e
