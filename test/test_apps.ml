(* End-to-end application tests at reduced scale: every variant of every
   paper application must produce the correct answer at several cluster
   sizes and under every cost table (the cost tables reschedule everything,
   which historically exposed protocol races). *)

module System = Carlos.System
module Node = Carlos.Node
module Threads = Carlos.Threads
module Cpu_cost = Carlos_dsm.Cpu_cost
module Tsp = Carlos_apps.Tsp
module Qsort = Carlos_apps.Qsort
module Water = Carlos_apps.Water
module Grid = Carlos_apps.Grid
module Harness = Carlos_apps.Harness

let tsp_params =
  { Tsp.default_params with Tsp.cities = 11; prefix_depth = 2; expand_frac = 0.3 }

let qs_params =
  { Qsort.default_params with Qsort.elements = 32 * 1024; threshold = 512 }

let water_params = { Water.default_params with Water.molecules = 64; steps = 2 }

let grid_params = { Grid.default_params with Grid.size = 32; iterations = 6 }

(* ------------------------------------------------------------------ *)

let test_tsp variant nodes () =
  let sys = System.create (System.default_config ~nodes) in
  let r = Tsp.run sys variant tsp_params in
  Alcotest.(check int) "optimal tour" (Tsp.solve_reference tsp_params) r.Tsp.best

let test_qsort ?(costs = Cpu_cost.default) variant nodes () =
  let cfg = { (Qsort.config ~nodes qs_params) with System.costs } in
  let sys = System.create cfg in
  let r = Qsort.run sys variant qs_params in
  Alcotest.(check bool) "sorted" true r.Qsort.sorted

let test_water variant nodes () =
  let sys = System.create (System.default_config ~nodes) in
  let r = Water.run sys variant water_params in
  if not r.Water.energy_ok then
    Alcotest.failf "energy %.9f vs reference %.9f" r.Water.energy
      (Water.reference_energy water_params)

let test_qsort_full_scale_all_costs () =
  (* The full 256K-element instance under each cost table; different
     schedules exercised different protocol paths during bring-up. *)
  List.iter
    (fun costs ->
      let p = Qsort.default_params in
      let cfg = { (Qsort.config ~nodes:4 p) with System.costs } in
      let r = Qsort.run (System.create cfg) Qsort.Lock p in
      Alcotest.(check bool) "sorted" true r.Qsort.sorted)
    [ Cpu_cost.default; Cpu_cost.treadmarks; Cpu_cost.fast_network ]

let test_qsort_input_748_with_gc () =
  (* The full instance at input offset 748 (application and system seeds
     both shifted by 748) with the metadata GC on: a write-notice flush
     whose diff was parked only after its encode charge let a concurrent
     close publish the page's write notice without a diff, and a later
     fetch of it failed. *)
  let offset = 748 in
  let p =
    { Qsort.default_params with
      Qsort.seed = Qsort.default_params.Qsort.seed + offset }
  in
  let cfg = Qsort.config ~nodes:4 p in
  let cfg = { cfg with System.seed = cfg.System.seed + offset } in
  let r = Qsort.run (System.create cfg) Qsort.Hybrid1 p in
  Alcotest.(check bool) "a GC ran" true (r.Qsort.report.System.gc_runs > 0);
  Alcotest.(check bool) "sorted" true r.Qsort.sorted

let test_tsp_determinism () =
  let run () =
    let sys = System.create (System.default_config ~nodes:3) in
    let r = Tsp.run sys Tsp.Hybrid tsp_params in
    (r.Tsp.best, r.Tsp.visited, r.Tsp.report.System.wall,
     r.Tsp.report.System.messages)
  in
  Alcotest.(check bool) "bit-identical reruns" true (run () = run ())

let test_water_message_counts () =
  (* The hybrid must send far fewer messages than the lock version (the
     paper's headline observation). *)
  let sys1 = System.create (System.default_config ~nodes:4) in
  let lock = Water.run sys1 Water.Lock water_params in
  let sys2 = System.create (System.default_config ~nodes:4) in
  let hybrid = Water.run sys2 Water.Hybrid water_params in
  Alcotest.(check bool) "hybrid sends fewer messages" true
    (hybrid.Water.report.System.messages
    < lock.Water.report.System.messages);
  Alcotest.(check bool) "hybrid is faster" true
    (hybrid.Water.report.System.wall < lock.Water.report.System.wall)

let test_water_under_datagram_loss () =
  (* The sliding-window protocol must make the whole stack correct even
     when the UDP stand-in drops datagrams. *)
  let cfg =
    { (System.default_config ~nodes:3) with System.loss = 0.05; rto = 0.02 }
  in
  let r = Water.run (System.create cfg) Water.Hybrid water_params in
  Alcotest.(check bool) "energy correct despite 5% loss" true r.Water.energy_ok

let test_qsort_under_datagram_loss () =
  let p = qs_params in
  let cfg =
    { (Qsort.config ~nodes:3 p) with System.loss = 0.03; rto = 0.02 }
  in
  let r = Qsort.run (System.create cfg) Qsort.Hybrid1 p in
  Alcotest.(check bool) "sorted despite 3% loss" true r.Qsort.sorted

let test_water_update_strategy () =
  (* The update/hybrid coherence strategies must preserve application
     results end-to-end. *)
  List.iter
    (fun strategy ->
      let cfg = { (System.default_config ~nodes:4) with System.strategy } in
      List.iter
        (fun variant ->
          let r = Water.run (System.create cfg) variant water_params in
          Alcotest.(check bool) "energy" true r.Water.energy_ok)
        [ Water.Lock; Water.Hybrid ])
    [ Carlos_dsm.Lrc_backend.Update; Carlos_dsm.Lrc_backend.Hybrid_update ]

let test_tsp_update_strategy () =
  List.iter
    (fun strategy ->
      let cfg = { (System.default_config ~nodes:3) with System.strategy } in
      let r = Tsp.run (System.create cfg) Tsp.Lock tsp_params in
      Alcotest.(check int) "optimal" (Tsp.solve_reference tsp_params) r.Tsp.best)
    [ Carlos_dsm.Lrc_backend.Update; Carlos_dsm.Lrc_backend.Hybrid_update ]

let test_qsort_update_strategy () =
  List.iter
    (fun strategy ->
      let cfg = { (Qsort.config ~nodes:4 qs_params) with System.strategy } in
      let r = Qsort.run (System.create cfg) Qsort.Hybrid1 qs_params in
      Alcotest.(check bool) "sorted" true r.Qsort.sorted)
    [ Carlos_dsm.Lrc_backend.Update; Carlos_dsm.Lrc_backend.Hybrid_update ]

let test_grid variant nodes () =
  let sys = System.create (Grid.config ~nodes grid_params) in
  let r = Grid.run sys variant grid_params in
  if not r.Grid.exact then
    Alcotest.failf "checksum %.12f vs reference %.12f" r.Grid.checksum
      (Grid.reference grid_params)

(* The rewritten float loops read shared memory through unboxed cells in
   a fixed order.  These bits, from before the rewrite, pin that order
   and the grouping of every sum, at the apps' default sizes. *)
let test_water_energy_bits () =
  let p = Water.default_params in
  let bits x = Printf.sprintf "%Lx" (Int64.bits_of_float x) in
  Alcotest.(check string) "reference" "40c2ecde3aa03e4f"
    (bits (Water.reference_energy p));
  let r = Water.run (System.create (System.default_config ~nodes:4)) Water.Lock p in
  Alcotest.(check string) "lock N=4" "40c2ecde3aa03e4f" (bits r.Water.energy)

let test_grid_checksum_bits () =
  let p = Grid.default_params in
  let r = Grid.run (System.create (Grid.config ~nodes:4 p)) Grid.Barrier p in
  Alcotest.(check string) "barrier N=4" "411c57554f2da7ed"
    (Printf.sprintf "%Lx" (Int64.bits_of_float r.Grid.checksum))

let test_grid_update_strategy () =
  List.iter
    (fun strategy ->
      let sys = System.create (Grid.config ~nodes:4 ~strategy grid_params) in
      let r = Grid.run sys Grid.Hybrid grid_params in
      Alcotest.(check bool) "exact" true r.Grid.exact)
    [ Carlos_dsm.Lrc_backend.Update; Carlos_dsm.Lrc_backend.Hybrid_update ]

let test_grid_domain_parallel_identical () =
  (* Domain-safety of the engine and obs layers: the same grid/lock
     simulation run concurrently in 4 domains must produce metric
     snapshots and trace exports byte-identical to a sequential run —
     the engine binding, profiler and twin pools are domain-local and
     each simulation owns its registry, so no cross-domain state leaks
     into the results. *)
  let run () =
    let sys = System.create (Grid.config ~nodes:4 grid_params) in
    let obs = Carlos.System.obs sys in
    Carlos_obs.Obs.set_tracing obs true;
    let r = Grid.run sys Grid.Barrier grid_params in
    let metrics =
      Format.asprintf "%a" Carlos_obs.Obs.pp_metrics
        (Carlos_obs.Obs.snapshot obs)
    in
    let trace = Format.asprintf "%a" Carlos_obs.Obs.pp_chrome_trace obs in
    (r.Grid.checksum, metrics, trace)
  in
  let reference = run () in
  let domains = Array.init 4 (fun _ -> Domain.spawn run) in
  Array.iteri
    (fun i d ->
      let checksum, metrics, trace = Domain.join d in
      let ref_checksum, ref_metrics, ref_trace = reference in
      Alcotest.(check (float 0.0))
        (Printf.sprintf "domain %d checksum" i)
        ref_checksum checksum;
      Alcotest.(check string)
        (Printf.sprintf "domain %d metrics" i)
        ref_metrics metrics;
      Alcotest.(check string)
        (Printf.sprintf "domain %d trace" i)
        ref_trace trace)
    domains

let test_grid_neighbour_sync_beats_barrier () =
  (* The hybrid's neighbour-only synchronization must not be slower than
     the global barrier. *)
  let sys1 = System.create (Grid.config ~nodes:4 grid_params) in
  let b = Grid.run sys1 Grid.Barrier grid_params in
  let sys2 = System.create (Grid.config ~nodes:4 grid_params) in
  let h = Grid.run sys2 Grid.Hybrid grid_params in
  Alcotest.(check bool) "both exact" true (b.Grid.exact && h.Grid.exact);
  Alcotest.(check bool) "hybrid not slower" true
    (h.Grid.report.System.wall <= b.Grid.report.System.wall *. 1.05)

(* ------------------------------------------------------------------ *)
(* The application catalogue *)

(* Every accepted name per app, canonical names first, with the label it
   resolves to. *)
let catalogue_names =
  [
    ( "tsp",
      [
        ("lock", "TSP/lock");
        ("hybrid", "TSP/hybrid");
        ("hybrid-1", "TSP/hybrid");
        ("hybrid-all-release", "TSP/hybrid-all-release");
      ] );
    ( "qsort",
      [
        ("lock", "QS/lock");
        ("hybrid", "QS/hybrid-1");
        ("hybrid-1", "QS/hybrid-1");
        ("hybrid-2", "QS/hybrid-2");
        ("hybrid-noforward", "QS/hybrid-noforward");
      ] );
    ( "water",
      [
        ("lock", "Water/lock");
        ("hybrid", "Water/hybrid");
        ("hybrid-all-release", "Water/hybrid-all-release");
      ] );
    ( "grid",
      [
        ("barrier", "Grid/barrier");
        ("lock", "Grid/barrier");
        ("hybrid", "Grid/hybrid");
        ("hybrid-1", "Grid/hybrid");
      ] );
  ]

let find app name =
  match Harness.find_variant app name with
  | Ok v -> v
  | Error e -> Alcotest.fail e

let test_catalogue_names () =
  Alcotest.(check (list string))
    "apps" (List.map fst catalogue_names)
    (List.map (fun (a : Harness.app) -> a.name) Harness.apps);
  List.iter2
    (fun (app : Harness.app) (_, expected) ->
      let accepted =
        List.concat_map
          (fun (v : Harness.variant) ->
            List.map (fun name -> (name, Harness.label app v)) v.names)
          app.variants
      in
      Alcotest.(check (list (pair string string))) app.name expected accepted;
      List.iter
        (fun (name, label) ->
          Alcotest.(check string)
            (app.name ^ " " ^ name)
            label
            (Harness.label app (find app name)))
        expected;
      List.iter
        (fun name ->
          match Harness.find_variant app name with
          | Ok _ -> Alcotest.failf "%s accepts %S" app.name name
          | Error _ -> ())
        [ "nope"; ""; "Lock"; "hybrid-3" ])
    Harness.apps catalogue_names

(* A catalogue run equals the direct run on the configuration each app
   needs (Qsort.config's GC threshold, Grid.config's coherent pages). *)
let test_catalogue_matches_direct () =
  let nodes = 3 in
  let check (app : Harness.app) name cfg direct =
    Alcotest.(check bool) (app.name ^ " config") true (app.config ~nodes = cfg);
    let o = (find app name).run (System.create (app.config ~nodes)) in
    let report, ok = direct (System.create cfg) in
    Alcotest.(check (float 0.0))
      (app.name ^ " wall") report.System.wall o.report.System.wall;
    Alcotest.(check int)
      (app.name ^ " messages") report.System.messages
      o.report.System.messages;
    Alcotest.(check bool) (app.name ^ " ok") ok o.ok
  in
  check (Harness.tsp ~params:tsp_params ()) "hybrid-1"
    (System.default_config ~nodes) (fun sys ->
      let r = Tsp.run sys Tsp.Hybrid tsp_params in
      (r.Tsp.report, r.Tsp.best = Tsp.solve_reference tsp_params));
  check (Harness.qsort ~params:qs_params ()) "hybrid"
    (Qsort.config ~nodes qs_params) (fun sys ->
      let r = Qsort.run sys Qsort.Hybrid1 qs_params in
      (r.Qsort.report, r.Qsort.sorted));
  check (Harness.water ~params:water_params ()) "lock"
    (System.default_config ~nodes) (fun sys ->
      let r = Water.run sys Water.Lock water_params in
      (r.Water.report, r.Water.energy_ok));
  check (Harness.grid ~params:grid_params ()) "lock"
    (Grid.config ~nodes grid_params) (fun sys ->
      let r = Grid.run sys Grid.Barrier grid_params in
      (r.Grid.report, r.Grid.exact))

(* ------------------------------------------------------------------ *)
(* Threads *)

let test_threads_join () =
  let sys = System.create (System.default_config ~nodes:1) in
  let counter = ref 0 in
  let (_ : System.report) =
    System.run sys (fun node ->
        let pool = Threads.create node in
        for _ = 1 to 5 do
          Threads.spawn pool (fun () ->
              Node.compute node 0.001;
              Node.flush_compute node;
              incr counter)
        done;
        Threads.join_all pool;
        Alcotest.(check int) "all threads ran before join returned" 5 !counter)
  in
  Alcotest.(check int) "count" 5 !counter

let test_threads_hide_latency () =
  (* Two threads each blocking on a remote fetch must finish faster than
     the same fetches done serially. *)
  let run ~threaded =
    let sys = System.create (System.default_config ~nodes:2) in
    let a = System.alloc sys ~align:4096 8 in
    let b = System.alloc sys ~align:4096 8 in
    let barrier = Carlos.Msg_barrier.create sys ~manager:0 ~name:"b" () in
    let report =
      System.run sys (fun node ->
          let shm = Node.shm node in
          if Node.id node = 0 then begin
            Carlos_vm.Shm.write_i64 shm a 1;
            Carlos_vm.Shm.write_i64 shm b 2
          end;
          Carlos.Msg_barrier.wait barrier node;
          if Node.id node = 1 then
            if threaded then begin
              let pool = Threads.create node in
              Threads.spawn pool (fun () ->
                  ignore (Carlos_vm.Shm.read_i64 shm a));
              Threads.spawn pool (fun () ->
                  ignore (Carlos_vm.Shm.read_i64 shm b));
              Threads.join_all pool
            end
            else begin
              ignore (Carlos_vm.Shm.read_i64 shm a);
              ignore (Carlos_vm.Shm.read_i64 shm b)
            end;
          Carlos.Msg_barrier.wait barrier node)
    in
    report.System.wall
  in
  let serial = run ~threaded:false and overlapped = run ~threaded:true in
  Alcotest.(check bool)
    (Printf.sprintf "overlapped %.4f < serial %.4f" overlapped serial)
    true (overlapped < serial)

let test_threads_yield () =
  let sys = System.create (System.default_config ~nodes:1) in
  let order = ref [] in
  let (_ : System.report) =
    System.run sys (fun node ->
        let pool = Threads.create node in
        Threads.spawn pool (fun () ->
            order := `A1 :: !order;
            Threads.yield pool;
            order := `A2 :: !order);
        Threads.spawn pool (fun () -> order := `B :: !order);
        Threads.join_all pool)
  in
  Alcotest.(check bool) "yield interleaves" true
    (List.rev !order = [ `A1; `B; `A2 ])

(* ------------------------------------------------------------------ *)

let quick name f = Alcotest.test_case name `Quick f

let () =
  Props.run "apps"
    [
      ( "tsp",
        [
          quick "lock N=1" (test_tsp Tsp.Lock 1);
          quick "lock N=3" (test_tsp Tsp.Lock 3);
          quick "lock N=4" (test_tsp Tsp.Lock 4);
          quick "hybrid N=1" (test_tsp Tsp.Hybrid 1);
          quick "hybrid N=3" (test_tsp Tsp.Hybrid 3);
          quick "hybrid N=4" (test_tsp Tsp.Hybrid 4);
          quick "all-release N=4" (test_tsp Tsp.Hybrid_all_release 4);
          quick "determinism" test_tsp_determinism;
        ] );
      ( "qsort",
        [
          quick "lock N=1" (test_qsort Qsort.Lock 1);
          quick "lock N=3" (test_qsort Qsort.Lock 3);
          quick "lock N=4" (test_qsort Qsort.Lock 4);
          quick "hybrid-1 N=3" (test_qsort Qsort.Hybrid1 3);
          quick "hybrid-1 N=4" (test_qsort Qsort.Hybrid1 4);
          quick "hybrid-2 N=4" (test_qsort Qsort.Hybrid2 4);
          quick "no-forwarding N=4" (test_qsort Qsort.Hybrid_nf 4);
          quick "lock N=4 treadmarks costs"
            (test_qsort ~costs:Cpu_cost.treadmarks Qsort.Lock 4);
          quick "hybrid N=4 fast network"
            (test_qsort ~costs:Cpu_cost.fast_network Qsort.Hybrid1 4);
          Alcotest.test_case "full scale, all cost tables" `Slow
            test_qsort_full_scale_all_costs;
          quick "hybrid-1 N=4 input 748 with gc" test_qsort_input_748_with_gc;
        ] );
      ( "water",
        [
          quick "lock N=1" (test_water Water.Lock 1);
          quick "lock N=3" (test_water Water.Lock 3);
          quick "lock N=4" (test_water Water.Lock 4);
          quick "hybrid N=1" (test_water Water.Hybrid 1);
          quick "hybrid N=3" (test_water Water.Hybrid 3);
          quick "hybrid N=4" (test_water Water.Hybrid 4);
          quick "all-release N=4" (test_water Water.Hybrid_all_release 4);
          quick "message counts" test_water_message_counts;
          quick "under datagram loss" test_water_under_datagram_loss;
          quick "update strategies" test_water_update_strategy;
          quick "energy bits at default params" test_water_energy_bits;
        ] );
      ( "grid",
        [
          quick "barrier N=1" (test_grid Grid.Barrier 1);
          quick "barrier N=4" (test_grid Grid.Barrier 4);
          quick "hybrid N=2" (test_grid Grid.Hybrid 2);
          quick "hybrid N=4" (test_grid Grid.Hybrid 4);
          quick "hybrid under update strategies" test_grid_update_strategy;
          quick "neighbour sync vs barrier" test_grid_neighbour_sync_beats_barrier;
          quick "4 concurrent domains byte-identical"
            test_grid_domain_parallel_identical;
          quick "checksum bits at 4 nodes" test_grid_checksum_bits;
        ] );
      ( "robustness",
        [
          quick "qsort under loss" test_qsort_under_datagram_loss;
          quick "tsp update strategies" test_tsp_update_strategy;
          quick "qsort update strategies" test_qsort_update_strategy;
        ] );
      ( "catalogue",
        [
          quick "accepted names and labels" test_catalogue_names;
          quick "runs match direct runs" test_catalogue_matches_direct;
        ] );
      ( "threads",
        [
          quick "join_all" test_threads_join;
          quick "latency hiding" test_threads_hide_latency;
          quick "yield" test_threads_yield;
        ] );
    ]
