module Obs = Carlos_obs.Obs

type bucket = User | Unix | Carlos

type t = { user_g : Obs.gauge; unix_g : Obs.gauge; carlos_g : Obs.gauge }

let create ?obs ?node () =
  let obs = match obs with Some o -> o | None -> Obs.create () in
  let node = match node with Some n -> n | None -> Obs.global_node in
  {
    user_g = Obs.gauge obs ~node ~layer:Obs.Carlos "time.user";
    unix_g = Obs.gauge obs ~node ~layer:Obs.Carlos "time.unix";
    carlos_g = Obs.gauge obs ~node ~layer:Obs.Carlos "time.carlos";
  }

let add t bucket dt =
  if dt < 0.0 then invalid_arg "Breakdown.add: negative time";
  match bucket with
  | User -> Obs.add_gauge t.user_g dt
  | Unix -> Obs.add_gauge t.unix_g dt
  | Carlos -> Obs.add_gauge t.carlos_g dt

let user t = Obs.gauge_value t.user_g

let unix t = Obs.gauge_value t.unix_g

let carlos t = Obs.gauge_value t.carlos_g

let busy t = user t +. unix t +. carlos t

let idle t ~wall = Float.max 0.0 (wall -. busy t)
