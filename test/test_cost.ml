(* Wire-byte taxonomy tests: every byte the network carried (or dropped)
   must be attributed to exactly one protocol component, on every
   backend, under every annotation mix, and under datagram loss with
   retransmissions.  The conservation identity is

     sum(cost.* components) = medium.bytes + datagram.dropped_bytes

   checked three ways: directly ([Cost.conserved]), through the online
   auditor (which records a cost-conservation violation at end of run),
   and as a QCheck property over random lossy configurations. *)

module System = Carlos.System
module Audit = Carlos_audit.Audit
module Obs = Carlos_obs.Obs
module Cost = Carlos_obs.Cost
module Backend = Carlos_dsm.Backend
module Tsp = Carlos_apps.Tsp
module Qsort = Carlos_apps.Qsort
module Water = Carlos_apps.Water
module Grid = Carlos_apps.Grid

let tsp_params =
  { Tsp.default_params with Tsp.cities = 11; prefix_depth = 2; expand_frac = 0.3 }

let qs_params =
  { Qsort.default_params with Qsort.elements = 32 * 1024; threshold = 512 }

let water_params = { Water.default_params with Water.molecules = 64; steps = 2 }

let grid_params = { Grid.default_params with Grid.size = 32; iterations = 6 }

(* The gate matrix: app x variant, each runnable on a given backend. *)
let apps =
  [
    ( "grid/lock",
      (fun nodes -> Grid.config ~nodes grid_params),
      fun sys ->
        let r = Grid.run sys Grid.Barrier grid_params in
        r.Grid.exact );
    ( "grid/hybrid",
      (fun nodes -> Grid.config ~nodes grid_params),
      fun sys ->
        let r = Grid.run sys Grid.Hybrid grid_params in
        r.Grid.exact );
    ( "tsp/lock",
      (fun nodes -> System.default_config ~nodes),
      fun sys ->
        let r = Tsp.run sys Tsp.Lock tsp_params in
        r.Tsp.best = Tsp.solve_reference tsp_params );
    ( "tsp/hybrid",
      (fun nodes -> System.default_config ~nodes),
      fun sys ->
        let r = Tsp.run sys Tsp.Hybrid tsp_params in
        r.Tsp.best = Tsp.solve_reference tsp_params );
    ( "qsort/hybrid",
      (fun nodes -> Qsort.config ~nodes qs_params),
      fun sys ->
        let r = Qsort.run sys Qsort.Hybrid1 qs_params in
        r.Qsort.sorted );
    ( "water/lock",
      (fun nodes -> System.default_config ~nodes),
      fun sys ->
        let r = Water.run sys Water.Lock water_params in
        r.Water.energy_ok );
  ]

let check_conserved ~name obs =
  let total = Cost.total obs and wire = Cost.wire_total obs in
  if total <> wire then
    Alcotest.failf "%s: components sum %d <> wire total %d (delta %d)" name
      total wire (total - wire);
  Alcotest.(check bool) (name ^ ": some bytes attributed") true (total > 0);
  (* The breakdown lists every component once, in index order, and sums
     to the same total. *)
  let b = Cost.breakdown obs in
  Alcotest.(check int)
    (name ^ ": breakdown complete")
    Cost.count (List.length b);
  Alcotest.(check int)
    (name ^ ": breakdown sums to total")
    total
    (List.fold_left (fun acc (_, v) -> acc + v) 0 b)

let test_conservation_matrix () =
  List.iter
    (fun backend ->
      List.iter
        (fun (name, config, run) ->
          let name = name ^ "@" ^ Backend.kind_to_string backend in
          let cfg = { (config 4) with System.backend } in
          let sys = System.create ~audit:true cfg in
          Alcotest.(check bool) (name ^ ": app ok") true (run sys);
          check_conserved ~name (System.obs sys);
          match System.auditor sys with
          | None -> Alcotest.fail "auditor requested but absent"
          | Some a ->
            Alcotest.(check int)
              (name ^ ": audit clean (incl. cost-conservation)")
              0 (Audit.violation_count a))
        apps)
    Backend.all_kinds

let test_attribution_classes () =
  (* A barrier app on LRC touches diffs, clocks, write notices, barrier
     protocol and headers — and nothing in the lock or app classes. *)
  let sys = System.create (Grid.config ~nodes:4 grid_params) in
  let r = Grid.run sys Grid.Barrier grid_params in
  Alcotest.(check bool) "exact" true r.Grid.exact;
  let obs = System.obs sys in
  let v c = Cost.read obs c in
  List.iter
    (fun (cname, c) ->
      Alcotest.(check bool) (cname ^ " attributed") true (v c > 0))
    [
      ("vc_entries", Cost.Vc_entries);
      ("write_notices", Cost.Write_notices);
      ("diff_payload", Cost.Diff_payload);
      ("barrier_proto", Cost.Barrier_proto);
      ("ack", Cost.Ack);
      ("am_header", Cost.Am_header);
      ("frame_header", Cost.Frame_header);
    ];
  Alcotest.(check int) "no lock traffic" 0 (v Cost.Lock_proto);
  (* Every active message carries exactly 16 header bytes, every frame
     exactly 42. *)
  Alcotest.(check int) "am_header multiple of 16" 0 (v Cost.Am_header mod 16);
  Alcotest.(check int)
    "frame_header = 42 * frames"
    (42 * Obs.counter_value obs ~node:Obs.global_node ~layer:Obs.Net
            "medium.frames")
    (v Cost.Frame_header);
  (* No loss configured: nothing dropped, nothing retransmitted. *)
  Alcotest.(check int) "no retransmits" 0 (v Cost.Retransmit)

(* Conservation must survive datagram loss: dropped frames are billed to
   their components (plus dropped_bytes on the wire side) and
   head-of-line retransmissions are attributed as [Retransmit]. *)
let prop_conservation_under_loss =
  QCheck.Test.make ~count:8 ~name:"conservation under datagram loss"
    QCheck.(
      make
        Gen.(
          triple (int_range 2 4) (float_range 0.02 0.08) (int_range 0 1000)))
    (fun (nodes, loss, seed) ->
      let cfg =
        {
          (System.default_config ~nodes) with
          System.loss;
          rto = 0.02;
          seed;
        }
      in
      let sys = System.create cfg in
      let r = Water.run sys Water.Hybrid water_params in
      let obs = System.obs sys in
      if not r.Water.energy_ok then
        QCheck.Test.fail_report "application failed under loss";
      if Cost.total obs <> Cost.wire_total obs then
        QCheck.Test.fail_reportf "components %d <> wire %d" (Cost.total obs)
          (Cost.wire_total obs);
      (* At these loss rates the run must actually have exercised the
         drop path, or the property is vacuous. *)
      let dropped =
        Obs.counter_value obs ~node:Obs.global_node ~layer:Obs.Net
          "datagram.dropped_bytes"
      in
      if dropped = 0 then QCheck.Test.fail_report "no datagrams dropped";
      if Cost.read obs Cost.Retransmit = 0 then
        QCheck.Test.fail_report "no retransmissions observed";
      true)

let () =
  Props.run "cost"
    [
      ( "conservation",
        Alcotest.test_case "backend x app matrix (audited)" `Quick
          test_conservation_matrix
        :: Props.qcheck [ prop_conservation_under_loss ] );
      ( "attribution",
        [ Alcotest.test_case "component classes" `Quick
            test_attribution_classes ] );
    ]
