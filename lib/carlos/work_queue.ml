module Ivar = Carlos_sim.Resource.Ivar
module Obs = Carlos_obs.Obs
module Audit = Carlos_audit.Audit

type mode = Forwarding | All_release | No_forwarding

(* An item held at the manager: either the stored enqueue message itself
   (forwarding modes) or just the accepted value (No_forwarding). *)
type 'a held =
  | Stored of Node.delivery
  | Value of { item : 'a; bytes : int }

type 'a t = {
  manager : int;
  name : string;
  mode : mode;
  items : 'a held Queue.t;
  waiters : int Queue.t;
  mutable closed : bool;
  gates : 'a option Ivar.t Queue.t array; (* per node, parked dequeues *)
  obs : Obs.t;
  wait_h : Obs.Hist.t; (* per-dequeue blocked time, [wq.wait:<name>] *)
  (* Test-only corruption: the manager accepts the next enqueue instead of
     relaying it (see {!chaos_accept_once}). *)
  mutable chaos_accept : bool;
}

let create system ~manager ~name ?(mode = Forwarding) () =
  let nodes = System.node_count system in
  if manager < 0 || manager >= nodes then
    invalid_arg "Work_queue.create: manager";
  let obs = System.obs system in
  {
    manager;
    name;
    mode;
    items = Queue.create ();
    waiters = Queue.create ();
    closed = false;
    gates = Array.init nodes (fun _ -> Queue.create ());
    obs;
    wait_h =
      Obs.histogram obs ~node:Obs.global_node ~layer:Obs.Carlos
        ("wq.wait:" ^ name);
    chaos_accept = false;
  }

let chaos_accept_once t = t.chaos_accept <- true

let deliver_local t here result =
  let q = t.gates.(Node.id here) in
  if Queue.is_empty q then
    raise (Node.Handler_error (t.name ^ ": reply with no parked dequeue"))
  else Ivar.fill (Queue.pop q) result

(* Answer a waiting dequeuer with [held] (runs at the manager). *)
let hand_over t manager_node ~dst held =
  match held with
  | Stored d -> Node.forward d ~dst
  | Value { item; bytes } ->
    Node.send manager_node ~dst ~annotation:Annotation.Release
      ~payload_bytes:(8 + bytes)
      ~handler:(fun here reply ->
        Node.accept reply;
        deliver_local t here (Some item))

let answer_closed t manager_node ~dst =
  Node.send manager_node ~dst ~annotation:Annotation.None_ ~payload_bytes:8
    ~handler:(fun here reply ->
      Node.accept reply;
      deliver_local t here None)

let enqueue t node ~bytes item =
  Obs.event t.obs ~node:(Node.id node) ~layer:Obs.Carlos "wq.enqueue"
    ~args:[ ("name", Obs.Str t.name) ];
  (* The enqueue handler travels with the message.  At the manager it is
     stored (or accepted in No_forwarding mode); when forwarded onward, it
     runs again at the dequeuer and completes the hand-off. *)
  let hop = ref `At_manager in
  let relayed =
    match t.mode with Forwarding | All_release -> true | No_forwarding -> false
  in
  Node.send node ~relayed ~dst:t.manager ~annotation:Annotation.Release
    ~payload_bytes:(8 + bytes)
    ~handler:(fun here d ->
      match !hop with
      | `At_manager -> (
        (* In the forwarding modes the manager is a pure relay for enqueue
           messages: declare that to the auditor before disposing, so an
           accept here (the chaos hook, or a future protocol bug) is
           reported against this message's trace id. *)
        (match (t.mode, Node.audit here) with
        | (Forwarding | All_release), Some a ->
          Audit.expect_relay a ~trace_id:(Node.delivery_trace_id d)
            ~node:(Node.id here)
        | _ -> ());
        (match t.mode with
        | Forwarding | All_release -> ()
        | No_forwarding -> Node.accept d);
        hop := `At_dequeuer;
        let held =
          match t.mode with
          | Forwarding | All_release ->
            if t.chaos_accept then begin
              (* Corrupted manager: becomes consistent with the producer
                 and re-publishes the item itself. *)
              t.chaos_accept <- false;
              Node.accept d;
              Value { item; bytes }
            end
            else begin
              Node.store d;
              Stored d
            end
          | No_forwarding -> Value { item; bytes }
        in
        if Queue.is_empty t.waiters then Queue.add held t.items
        else hand_over t here ~dst:(Queue.pop t.waiters) held)
      | `At_dequeuer ->
        Node.accept d;
        deliver_local t here (Some item))

let dequeue t node =
  let me = Node.id node in
  let gate = Ivar.create () in
  Queue.add gate t.gates.(me);
  let requested_at = Node.time node in
  let annotation =
    match t.mode with
    | Forwarding | No_forwarding -> Annotation.Request
    | All_release -> Annotation.Release
  in
  Node.send node ~dst:t.manager ~annotation ~payload_bytes:16
    ~handler:(fun manager_node d ->
      Node.accept d;
      if not (Queue.is_empty t.items) then
        hand_over t manager_node ~dst:me (Queue.pop t.items)
      else if t.closed then answer_closed t manager_node ~dst:me
      else Queue.add me t.waiters);
  let result = Node.await node gate in
  let wait = Node.time node -. requested_at in
  Obs.Hist.observe t.wait_h wait;
  Obs.event t.obs ~node:me ~layer:Obs.Carlos "wq.dequeue"
    ~args:[ ("name", Obs.Str t.name); ("wait", Obs.F wait) ];
  result

let close t node =
  Node.send node ~dst:t.manager ~annotation:Annotation.None_ ~payload_bytes:8
    ~handler:(fun manager_node d ->
      Node.accept d;
      t.closed <- true;
      while not (Queue.is_empty t.waiters) do
        answer_closed t manager_node ~dst:(Queue.pop t.waiters)
      done)
