(* Reading instruments back from an observability registry.

   Every layer keeps its counters only in the registry, so the tests read
   them by key.  [Obs.counter_value] answers 0 for a key that nothing
   registered, so a misspelt name would pass an "= 0" check without
   testing anything; these readers fail the test instead. *)

module Obs = Carlos_obs.Obs

let find obs ~node ~layer name =
  match Obs.find (Obs.snapshot obs) ~node ~layer name with
  | Some v -> v
  | None ->
    Alcotest.failf "instrument %S of node %d is not registered" name node

(* [node] defaults to [Obs.global_node], where the cluster-wide network
   instruments live. *)
let counter ?(node = Obs.global_node) obs ~layer name =
  match find obs ~node ~layer name with
  | Obs.Counter_v n -> n
  | _ -> Alcotest.failf "instrument %S of node %d is not a counter" name node

let gauge ?(node = Obs.global_node) obs ~layer name =
  match find obs ~node ~layer name with
  | Obs.Gauge_v x -> x
  | _ -> Alcotest.failf "instrument %S of node %d is not a gauge" name node

let histogram ?(node = Obs.global_node) obs ~layer name =
  match find obs ~node ~layer name with
  | Obs.Hist_v h -> h
  | _ -> Alcotest.failf "instrument %S of node %d is not a histogram" name node
