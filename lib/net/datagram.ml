module Rng = Carlos_sim.Rng
module Obs = Carlos_obs.Obs
module Cost = Carlos_obs.Cost

(* 14 (Ethernet) + 20 (IP) + 8 (UDP). *)
let header_bytes = 42

type 'a t = {
  medium : 'a Medium.t;
  loss : float;
  rng : Rng.t option;
  mutable sends_seen : int;
  forced_drops : (int, unit) Hashtbl.t;
  sent_c : Obs.counter;
  dropped_c : Obs.counter;
  dropped_bytes_c : Obs.counter;
  payload_c : Obs.counter;
  cost : Cost.t;
}

let create medium ?(loss = 0.0) ?rng () =
  if loss < 0.0 || loss >= 1.0 then invalid_arg "Datagram.create: bad loss";
  if loss > 0.0 && rng = None then
    invalid_arg "Datagram.create: loss requires an rng";
  let obs = Medium.obs medium in
  let g = Obs.global_node in
  {
    medium;
    loss;
    rng;
    sends_seen = 0;
    forced_drops = Hashtbl.create 7;
    sent_c = Obs.counter obs ~node:g ~layer:Obs.Net "datagram.sent";
    dropped_c = Obs.counter obs ~node:g ~layer:Obs.Net "datagram.dropped";
    dropped_bytes_c =
      Obs.counter obs ~node:g ~layer:Obs.Net "datagram.dropped_bytes";
    payload_c = Obs.counter obs ~node:g ~layer:Obs.Net "datagram.payload_bytes";
    cost = Cost.create obs;
  }

let obs t = Medium.obs t.medium

let nodes t = Medium.nodes t.medium

let set_handler t ~node handler =
  Medium.set_handler t.medium ~node (fun ~src ~size v ->
      handler ~src ~size:(size - header_bytes) v)

let latency t = Medium.latency t.medium

let bandwidth t = Medium.bandwidth t.medium

let backlog t = Medium.backlog t.medium

let inject_drops t idxs =
  List.iter
    (fun i ->
      if i < 0 then invalid_arg "Datagram.inject_drops: negative index";
      Hashtbl.replace t.forced_drops (t.sends_seen + i) ())
    idxs

let dropped t =
  (* A forced drop consumes no rng draw, so seeded random-loss runs are
     unperturbed by tests that also inject targeted drops. *)
  let idx = t.sends_seen in
  t.sends_seen <- idx + 1;
  if Hashtbl.mem t.forced_drops idx then begin
    Hashtbl.remove t.forced_drops idx;
    true
  end
  else
    t.loss > 0.0
    &&
    match t.rng with
    | Some rng -> Rng.flip rng ~p:t.loss
    | None -> false

let send t ~src ~dst ~payload_bytes v =
  if payload_bytes < 0 then invalid_arg "Datagram.send: negative size";
  Obs.inc t.sent_c;
  Obs.add t.payload_c payload_bytes;
  (* Frame headers are billed for every frame, dropped ones included;
     dropped frames' full size goes to dropped_bytes so that the cost
     conservation equation (sum of components = medium.bytes +
     dropped_bytes) stays exact under loss. *)
  Cost.add t.cost Cost.Frame_header header_bytes;
  if dropped t then begin
    Obs.inc t.dropped_c;
    Obs.add t.dropped_bytes_c (payload_bytes + header_bytes)
  end
  else Medium.send t.medium ~src ~dst ~size:(payload_bytes + header_bytes) v
