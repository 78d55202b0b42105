module Engine = Carlos_sim.Engine
module Ivar = Carlos_sim.Resource.Ivar

type t = {
  node : Node.t;
  mutable live : int;
  mutable joiners : unit Ivar.t list;
}

let create node = { node; live = 0; joiners = [] }

let finish t =
  t.live <- t.live - 1;
  if t.live = 0 then begin
    let joiners = t.joiners in
    t.joiners <- [];
    List.iter (fun iv -> Ivar.fill iv ()) joiners
  end

let spawn t f =
  t.live <- t.live + 1;
  Engine.spawn (Node.engine t.node) (fun () ->
      match f () with
      | () -> finish t
      | exception e ->
        finish t;
        raise e)

let yield t =
  (* Charge any accumulated computation so the interleaving reflects the
     work done, then reschedule at the current instant. *)
  Node.flush_compute t.node;
  let q = Engine.waiters () in
  Engine.at (Node.engine t.node) ~time:(Node.time t.node)
    (Engine.callback (fun () -> Engine.wake_one q));
  Engine.wait q

let join_all t =
  if t.live > 0 then begin
    let iv = Ivar.create () in
    t.joiners <- iv :: t.joiners;
    Node.await t.node iv
  end

let live t = t.live
