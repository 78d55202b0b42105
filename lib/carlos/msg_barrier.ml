module Ivar = Carlos_sim.Resource.Ivar
module Obs = Carlos_obs.Obs
module Profile = Carlos_obs.Profile

type arrival = {
  client : int;
  gate : unit Ivar.t;
  stored : Node.delivery option; (* None for the manager's own arrival *)
}

type t = {
  manager : int;
  name : string;
  transitive : bool;
  nodes : int;
  mutable arrivals : arrival list;
  mutable episodes : int;
  mutable first_arrival_at : float;
  obs : Obs.t;
  skew_h : Obs.Hist.t; (* first-to-last arrival spread per episode *)
}

let create system ~manager ~name ?(transitive = false) () =
  let nodes = System.node_count system in
  if manager < 0 || manager >= nodes then
    invalid_arg "Msg_barrier.create: manager";
  let obs = System.obs system in
  {
    manager;
    name;
    transitive;
    nodes;
    arrivals = [];
    episodes = 0;
    first_arrival_at = 0.0;
    obs;
    skew_h =
      Obs.histogram obs ~node:Obs.global_node ~layer:Obs.Carlos
        ("barrier.skew:" ^ name);
  }

let arrival_bytes = 8

let departure_bytes = 8

(* Runs at the manager when the last node arrives: accept the union of
   stored arrivals, then release everyone. *)
let fall t manager_node =
  let arrivals = List.rev t.arrivals in
  t.arrivals <- [];
  Obs.Hist.observe t.skew_h (Node.time manager_node -. t.first_arrival_at);
  Obs.event t.obs ~node:t.manager ~layer:Obs.Carlos "barrier.fall"
    ~args:[ ("name", Obs.Str t.name); ("episode", Obs.Int t.episodes) ];
  t.episodes <- t.episodes + 1;
  Node.accept_batch manager_node
    (List.filter_map (fun a -> a.stored) arrivals);
  List.iter
    (fun a ->
      if a.client = t.manager then Ivar.fill a.gate ()
      else
        Node.send ~cost:Carlos_obs.Cost.Barrier_proto manager_node ~dst:a.client ~annotation:Annotation.Release
          ~payload_bytes:departure_bytes
          ~handler:(fun _client_node d ->
            Node.accept d;
            Ivar.fill a.gate ()))
    arrivals

let note_arrival t manager_node arrival =
  if t.arrivals = [] then t.first_arrival_at <- Node.time manager_node;
  t.arrivals <- arrival :: t.arrivals;
  if List.length t.arrivals = t.nodes then fall t manager_node

let barrier_span = Profile.span Obs.Carlos "carlos.barrier"

let wait_barrier t node =
  Node.flush_compute node;
  let me = Node.id node in
  Obs.event t.obs ~node:me ~layer:Obs.Carlos "barrier.arrive"
    ~args:[ ("name", Obs.Str t.name); ("episode", Obs.Int t.episodes) ];
  let gate = Ivar.create () in
  if me = t.manager then begin
    (* The manager's own arrival: no message, but it participates in the
       count.  Its consistency contribution is its own memory. *)
    note_arrival t node { client = me; gate; stored = None };
    Node.await node gate
  end
  else begin
    let annotation =
      if t.transitive then Annotation.Release else Annotation.Release_nt
    in
    Node.send ~cost:Carlos_obs.Cost.Barrier_proto node ~dst:t.manager ~annotation ~payload_bytes:arrival_bytes
      ~handler:(fun manager_node d ->
        Node.store d;
        note_arrival t manager_node { client = me; gate; stored = Some d });
    Node.await node gate
  end

let wait t node =
  Profile.enter barrier_span;
  wait_barrier t node;
  Profile.leave barrier_span

let episodes t = t.episodes
