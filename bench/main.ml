(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§5), plus the §5.4 annotation-cost study, the
   TreadMarks-vs-CarlOS comparison, the coherence-strategy, ATM and grid
   ablations, the snapshot benches (gate matrix, scaling sweep) and a
   Bechamel micro-suite measuring the real cost of each reproduced
   workload on the host.

   Usage: bench/main.exe [-j N] [-o FILE] [-n LIST] [BENCH ...]
   The bench names are listed in [benches] below (an unknown name prints
   them).  With no BENCH, every paper table and ablation runs.  [-j N]
   fans the snapshot benches' rows across N domains (default
   [Domain.recommended_domain_count ()]); the output is identical for
   every N.

   Every run goes through the application catalogue
   ({!Carlos_apps.Harness}): a row names an application, one of its
   variant names and an adjustment of its configuration, and any failed
   application check makes the run exit 1. *)

module System = Carlos.System
module Backend = Carlos_dsm.Backend
module Cpu_cost = Carlos_dsm.Cpu_cost
module Tsp = Carlos_apps.Tsp
module Qsort = Carlos_apps.Qsort
module Water = Carlos_apps.Water
module Grid = Carlos_apps.Grid
module Harness = Carlos_apps.Harness
module Engine = Carlos_sim.Engine
module Medium = Carlos_net.Medium
module Lrc_backend = Carlos_dsm.Lrc_backend

let ppf = Format.std_formatter

let section title = Format.fprintf ppf "@.=== %s ===@." title

let paper_note rows = Format.fprintf ppf "  paper: %s@." rows

(* Failed checks of every bench, newest first; any entry exits 1. *)
let failed = ref []

let app name = List.find (fun (a : Harness.app) -> a.name = name) Harness.apps

let tsp = app "tsp"

let qsort = app "qsort"

let water = app "water"

let grid_app = app "grid"

let variant app name =
  match Harness.find_variant app name with
  | Ok v -> v
  | Error e -> invalid_arg e

(* Run variant [name] of [app] on a fresh [nodes]-node system whose
   configuration is the app's own, adjusted by [override].  Touches no
   bench state, so snapshot rows may call it on a worker domain. *)
let exec ~nodes ~override (app : Harness.app) name =
  let sys = System.create (override (app.config ~nodes)) in
  (sys, (variant app name).run sys)

(* A table or ablation row: (label, app, variant name, config override). *)
let run ?(nodes = 4) (label, app, name, override) =
  let _, o = exec ~nodes ~override app name in
  if not o.Harness.ok then
    failed := Printf.sprintf "%s/n%d" label nodes :: !failed;
  o

let print_row ?(nodes = 4) ~base label (o : Harness.outcome) =
  Harness.pp_row ppf (Harness.row ~label ~nodes ~base ~ok:o.ok o.report)

let wall (o : Harness.outcome) = o.report.System.wall

(* Rows printed with their own wall time as the speedup base. *)
let run_rows rows =
  List.map
    (fun ((label, _, _, _) as r) ->
      let o = run r in
      print_row ~base:(wall o) label o;
      o)
    rows

let pct a b = 100.0 *. (b -. a) /. a

let with_costs costs c = { c with System.costs }

(* ------------------------------------------------------------------ *)
(* Tables 1-3: one series of node counts per variant.  A row's speedup
   base is the wall time of the table's most recent one-node row: each
   variant's own in Tables 1 and 3, lock@1 for every Table 2 row. *)

type table = {
  title : string;
  app : Harness.app;
  series : (string * int list) list; (* variant name, node counts *)
  note : string;
}

let table1 =
  {
    title = "Table 1: TSP on CarlOS (lock vs message-passing work queue)";
    app = tsp;
    series = [ ("lock", [ 1; 2; 3; 4 ]); ("hybrid", [ 1; 2; 3; 4 ]) ];
    note =
      "lock  52.3/39.7/31.8s (1.64/2.16/2.69), 5838/8626/10403 msgs; hybrid \
       44.9/31.0/22.0s (1.91/2.76/3.89), 1204/1916/2198 msgs";
  }

let table2 =
  {
    title = "Table 2: Quicksort on CarlOS (lock vs message queue variants)";
    app = qsort;
    series =
      [
        ("lock", [ 1; 2; 3; 4 ]);
        ("hybrid-1", [ 2; 3; 4 ]);
        ("hybrid-2", [ 4 ]);
        ("hybrid-noforward", [ 4 ]);
      ];
    note =
      "lock 19.6/18.6/17.3s (1.36/1.44/1.54); hybrid-1 17.5/13.9/11.8s \
       (1.53/1.93/2.27); hybrid-2@4 14.2s (1.89); no-forwarding ~ hybrid-2";
  }

let table3 =
  {
    title = "Table 3: Water on CarlOS (molecule locks vs shipped updates)";
    app = water;
    series = [ ("lock", [ 1; 2; 3; 4 ]); ("hybrid", [ 1; 2; 3; 4 ]) ];
    note =
      "lock 23.3/19.4/17.3s (1.34/1.61/1.81), 6920/11348/15423 msgs; hybrid \
       18.4/14.4/12.1s (1.70/2.20/2.58), 2546/4155/5634 msgs";
  }

let table t () =
  section t.title;
  Harness.pp_header ppf ();
  let base = ref 1.0 in
  List.iter
    (fun (name, node_counts) ->
      let label = Harness.label t.app (variant t.app name) in
      List.iter
        (fun nodes ->
          let o = run ~nodes (label, t.app, name, Fun.id) in
          if nodes = 1 then base := wall o;
          print_row ~nodes ~base:!base label o)
        node_counts)
    t.series;
  paper_note t.note

(* ------------------------------------------------------------------ *)
(* Figure 2: execution breakdown on four nodes *)

let fig2 () =
  section
    "Figure 2: execution breakdown on 4 nodes (per-node averages, seconds)";
  Harness.pp_breakdown ppf
    (List.concat_map
       (fun (app : Harness.app) ->
         List.map
           (fun name ->
             let label = app.prefix ^ "/" ^ name in
             (label, (run (label, app, name, Fun.id)).report))
           [ "lock"; "hybrid" ])
       [ tsp; qsort; water ]);
  paper_note
    "totals 31.8/22.0, 17.3/11.8, 17.3/12.1 s; idle dominates the \
     overheads, all three overhead components shrink in the hybrids"

(* ------------------------------------------------------------------ *)
(* Section 5.4: the choice of annotations.  Each application's hybrid,
   then the same program with every message marked RELEASE. *)

let all_release =
  [
    (tsp, "hybrid", "hybrid-all-release", "all-RELEASE");
    (qsort, "hybrid-1", "hybrid-2", "all-RELEASE(H2)");
    (water, "hybrid", "hybrid-all-release", "all-RELEASE");
  ]

let sec54 () =
  section "Section 5.4: annotation-cost study";
  let c = Cpu_cost.default in
  Format.fprintf ppf
    "  model costs: REQUEST over NONE = %.0f us/end; RELEASE fixed extra = \
     %.0f us; write-notice apply = %.0f us@."
    (c.Cpu_cost.vc_piggyback *. 1e6)
    (c.Cpu_cost.release_fixed *. 1e6)
    (c.Cpu_cost.write_notice_apply *. 1e6);
  paper_note
    "REQUEST vs NONE 5-15 us; RELEASE ~30 us + write notices at 42-141 us";
  Harness.pp_header ppf ();
  (* The all-RELEASE program's slowdown over the hybrid, per app. *)
  let penalty ?(print = false) override
      ((app : Harness.app), hybrid, ablated, ablated_label) =
    let label = app.prefix ^ "/" ^ hybrid in
    let h = run (label, app, hybrid, override) in
    let label_a = app.prefix ^ "/" ^ ablated_label in
    let a = run (label_a, app, ablated, override) in
    if print then begin
      print_row ~base:(wall h) label h;
      print_row ~base:(wall h) label_a a
    end;
    (app.prefix, pct (wall h) (wall a))
  in
  let show ps =
    String.concat ", "
      (List.map (fun (prefix, p) -> Printf.sprintf "%s %+.1f%%" prefix p) ps)
  in
  let ethernet = List.map (penalty ~print:true Fun.id) all_release in
  Format.fprintf ppf "  all-RELEASE penalty: %s@." (show ethernet);
  paper_note "penalties: TSP +2.4%, Water +1.4%, QS significant";
  (* The same ablation on a modern low-latency interconnect (paper §6:
     "in other contexts, such as more modern networks ... the choice of
     annotations will become more important"). *)
  let fast =
    List.map
      (penalty (with_costs Cpu_cost.fast_network))
      (List.filter (fun (app, _, _, _) -> app != qsort) all_release)
  in
  Format.fprintf ppf
    "  fast-network all-RELEASE penalty: %s (vs %s on Ethernet)@." (show fast)
    (String.concat ", "
       (List.map
          (fun (prefix, _) ->
            Printf.sprintf "%+.1f%%" (List.assoc prefix ethernet))
          fast))

(* ------------------------------------------------------------------ *)
(* TreadMarks vs CarlOS (paper §5: 5-6% for TSP and QS, none for Water) *)

let tmcmp () =
  section "TreadMarks vs CarlOS (lock versions, 4 nodes)";
  List.iter
    (fun (app : Harness.app) ->
      let label = app.prefix ^ "/lock" in
      let tm =
        run (label ^ "@treadmarks", app, "lock", with_costs Cpu_cost.treadmarks)
      in
      let c = run (label, app, "lock", Fun.id) in
      Format.fprintf ppf "  %-6s: TreadMarks %.1fs, CarlOS %.1fs (%+.1f%%)@."
        app.prefix (wall tm) (wall c)
        (pct (wall tm) (wall c)))
    [ tsp; qsort; water ];
  paper_note "TSP and Quicksort ~5-6% slower on CarlOS; Water equal"

(* ------------------------------------------------------------------ *)
(* Coherence-strategy ablation: the paper implemented only invalidation
   ("Thus far, we have used only the invalidation strategy in CarlOS")
   but designed the messages to carry diffs for update and hybrid
   strategies (§4.3); §3 argues update coherence makes the
   notify-with-RELEASE pattern eager.  This ablation measures all three
   on Water, where position pages are re-read by every node each step. *)

(* One row per strategy x variant, labelled "App/variant/strategy". *)
let strategy_rows (app : Harness.app) variants strategies =
  List.concat_map
    (fun (sname, strategy) ->
      List.map
        (fun v ->
          ( Printf.sprintf "%s/%s/%s" app.prefix v sname,
            app,
            v,
            fun c -> { c with System.strategy } ))
        variants)
    strategies

let strategies () =
  section "Ablation: coherence strategy (Water, 4 nodes)";
  Harness.pp_header ppf ();
  ignore
    (run_rows
       (strategy_rows water [ "lock"; "hybrid" ]
          [
            ("invalidate", Lrc_backend.Invalidate);
            ("update", Lrc_backend.Update);
            ("hybrid-upd", Lrc_backend.Hybrid_update);
          ]));
  Format.fprintf ppf
    "  expectation: update ships data eagerly with each RELEASE — fewer \
     faults and diff requests, larger messages (paper §3, §4.3)@."

(* ------------------------------------------------------------------ *)
(* Network ablation: §4 plans a high-performance ATM upgrade and §5.4
   argues vector timestamps and annotation costs matter more there ("the
   vector timestamp ... is a large part of an ATM frame").  Re-run the
   4-node experiments on an ATM-class fabric (155 Mbit/s, 10 us latency,
   lean host costs). *)

let atm () =
  section "Ablation: ATM-class network (155 Mbit/s, 10 us, 4 nodes)";
  let atm c =
    {
      c with
      System.bandwidth = 19.4e6;
      latency = 10e-6;
      costs = Cpu_cost.fast_network;
    }
  in
  Harness.pp_header ppf ();
  (* The hybrid's gain over the lock version, in percent of the lock's. *)
  let gap (app : Harness.app) =
    match
      run_rows
        (List.map
           (fun v -> (app.prefix ^ "/" ^ v, app, v, atm))
           [ "lock"; "hybrid" ])
    with
    | [ l; h ] -> 100.0 *. (wall l -. wall h) /. wall l
    | _ -> assert false
  in
  let t = gap tsp in
  let w = gap water in
  Format.fprintf ppf
    "  lock-vs-hybrid gap on ATM: TSP %.1f%%, Water %.1f%% -- on a fast \
     fabric the hybrid's advantage nearly vanishes: its benefit came from \
     avoiding expensive messaging (the paper's par.6 Amdahl's-law point)@."
    t w

(* ------------------------------------------------------------------ *)
(* The §3 motif: an iterative finite-difference solver where "it is
   easier to use a shared-memory style of communication combined with a
   notification message marked RELEASE".  Global barriers vs
   neighbour-only notifications, under invalidate and update coherence. *)

let grid () =
  section "Paper §3 motif: grid relaxation (96x96 Jacobi, 4 nodes)";
  Harness.pp_header ppf ();
  ignore
    (run_rows
       (strategy_rows grid_app [ "barrier"; "hybrid" ]
          [
            ("invalidate", Lrc_backend.Invalidate);
            ("update", Lrc_backend.Update);
          ]));
  Format.fprintf ppf
    "  neighbour notifications replace global barriers; under the update \
     strategy the boundary rows travel with the RELEASE (par.3)@."

(* ------------------------------------------------------------------ *)
(* Bechamel micro-suite: host cost of regenerating each table at reduced
   scale (one Test.make per table/figure). *)

let micro () =
  section "Bechamel micro-suite (host time per reduced-scale experiment)";
  let open Bechamel in
  (* Hot-path probe cost: a disabled-profiler span must cost a branch,
     not a syscall or an allocation — this pair of rows is the
     regression micro-bench for the zero-cost-when-off guarantee. *)
  let profile_spans enabled () =
    let module Profile = Carlos_obs.Profile in
    Profile.set_enabled enabled;
    for _ = 1 to 1000 do
      let t0 = Profile.start () in
      Profile.stop Profile.Event t0
    done;
    Profile.set_enabled false;
    Profile.reset ()
  in
  (* The engine's paths: a fiber's delay that runs inline because
     nothing else is queued, the same delays suspending through the
     effect handler because a second fiber's wake-up is always queued
     ahead (two fibers in lockstep, 5,000 delays each), and frames that
     queue for the wire and run as a callback chain. *)
  let inline_delays () =
    let eng = Engine.create () in
    Engine.spawn eng (fun () ->
        for _ = 1 to 10_000 do
          Engine.delay 1e-6
        done);
    Engine.run eng
  in
  let queued_delays () =
    let eng = Engine.create () in
    for _ = 1 to 2 do
      Engine.spawn eng (fun () ->
          for _ = 1 to 5_000 do
            Engine.delay 1e-6
          done)
    done;
    Engine.run eng
  in
  let queued_frames () =
    let eng = Engine.create () in
    let medium =
      Medium.create eng ~nodes:2 ~latency:1e-4 ~bandwidth:1_250_000.0
    in
    Medium.set_handler medium ~node:1 (fun ~src:_ ~size:_ () -> ());
    Engine.spawn eng (fun () ->
        for _ = 1 to 1000 do
          Medium.send medium ~src:0 ~dst:1 ~size:100 ()
        done);
    Engine.run eng
  in
  (* Set-up cost: building grid-32's system (32 nodes, [Grid.config]),
     whose simulated memory is materialized on first touch. *)
  let grid32 = Grid.config ~nodes:32 Grid.default_params in
  let create_grid32 () = ignore (System.create grid32) in
  (* The entry is built once: TSP's reference search runs in the first
     sample only. *)
  let tiny name ~nodes app variant =
    Test.make ~name
      (Staged.stage (fun () -> ignore (exec ~nodes ~override:Fun.id app variant)))
  in
  let tests =
    [
      Test.make ~name:"engine-delay-x10k-inline" (Staged.stage inline_delays);
      Test.make ~name:"engine-delay-x10k-queued" (Staged.stage queued_delays);
      Test.make ~name:"medium-x1k-frames-queued" (Staged.stage queued_frames);
      Test.make ~name:"system-create-grid32" (Staged.stage create_grid32);
      Test.make ~name:"profile-span-x1000-disabled"
        (Staged.stage (profile_spans false));
      Test.make ~name:"profile-span-x1000-enabled"
        (Staged.stage (profile_spans true));
      tiny "table1-tsp" ~nodes:2
        (Harness.tsp
           ~params:{ Tsp.default_params with Tsp.cities = 10; prefix_depth = 2 }
           ())
        "hybrid";
      tiny "table2-qsort" ~nodes:2
        (Harness.qsort
           ~params:{ Qsort.default_params with Qsort.elements = 16 * 1024 }
           ())
        "hybrid";
      tiny "table3-water" ~nodes:2
        (Harness.water
           ~params:{ Water.default_params with Water.molecules = 64; steps = 1 }
           ())
        "hybrid";
      tiny "fig2-breakdown" ~nodes:4
        (Harness.water
           ~params:{ Water.default_params with Water.molecules = 48; steps = 1 }
           ())
        "lock";
    ]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:50 ~quota:(Time.second 1.0) () in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ instance ] test in
      let ols =
        Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
      in
      let analyzed = Analyze.all ols instance results in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ est ] ->
            Format.fprintf ppf "  %-24s %10.3f ms/run@." name (est /. 1e6)
          | Some _ | None ->
            Format.fprintf ppf "  %-24s (no estimate)@." name)
        analyzed)
    tests

(* ------------------------------------------------------------------ *)
(* Machine-readable snapshot ([-o FILE], default BENCH_PR10.json):
   per-app wall clock, message/wire totals and the per-component
   wire-byte breakdown ({!Carlos_obs.Cost}) for the 4-node
   backend x app x variant matrix ([json]), plus a node-count sweep at
   reduced application scale with fitted per-component growth exponents
   ([scaling]).  Gate rows carry "config": "batched", the label earlier
   snapshots gave the (now only) protocol, so they still key-match them.
   Every measured run is checked for wire-byte conservation (components
   must sum exactly to medium.bytes + datagram.dropped_bytes), and every
   LRC gate row additionally against the retransmit gate: a loss-free
   run retransmits zero bytes.  Both snapshot benches
   accumulate into the same file, written once after all requested
   benches ran.  Format documented in EXPERIMENTS.md; compare snapshots
   with bin/bench_diff.exe. *)

module Obs = Carlos_obs.Obs
module Wire_cost = Carlos_obs.Cost
module Bench_report = Carlos_report.Bench_report

let output_file = ref "BENCH_PR10.json"

(* ------------------------------------------------------------------ *)
(* Parallel runner: fans independent bench rows across domains ([-j N],
   default [Domain.recommended_domain_count ()]).  Each row is a
   complete, deterministic simulation whose mutable state is per-run
   (twin pool included) or domain-local (engine binding, profiler
   accumulators), so
   rows may execute in any order on any domain; results are indexed by
   submission order and merged deterministically, making the snapshot
   byte-identical for every [-j]. *)
module Parallel_runner = struct
  let jobs = ref (Domain.recommended_domain_count ())

  let run (tasks : (unit -> 'a) array) : 'a array =
    let n = Array.length tasks in
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let worker () =
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          results.(i) <- Some (tasks.(i) ());
          loop ()
        end
      in
      loop ()
    in
    let k = max 1 (min !jobs n) in
    if k = 1 then worker ()
    else begin
      let others = Array.init (k - 1) (fun _ -> Domain.spawn worker) in
      worker ();
      Array.iter Domain.join others
    end;
    Array.map (function Some r -> r | None -> assert false) results
end

let scaling_nodes = ref [ 4; 8; 16; 32 ]

let json_runs = ref [] (* formatted row strings, newest first *)

let scaling_rows = ref []

(* (app, backend, nodes, (metric, value) list) per scaling row, for the
   growth-exponent fits. *)
let scaling_samples = ref []

(* One measured row, produced (possibly on a worker domain) without
   touching shared state; committed into the snapshot accumulators
   serially, in submission order, by {!commit_row}. *)
type row_result = {
  rr_row : string; (* formatted JSON row *)
  rr_metrics : (string * float) list;
  rr_failures : string list; (* oldest first *)
}

(* Run one configuration and format its row.  [host_ms] is wall-clock
   host time for the row ([host_s] stays CPU time for continuity);
   both are nondeterministic and must never be gated on. *)
let measure ~nodes ~app ~variant ~backend ~mode f =
  let cpu0 = Sys.time () in
  let wall0 = Unix.gettimeofday () in
  let sys, (o : Harness.outcome) = f () in
  let report = o.report and ok = o.ok in
  let host_ms = (Unix.gettimeofday () -. wall0) *. 1000.0 in
  let host = Sys.time () -. cpu0 in
  let name = Printf.sprintf "%s/%s/%s/%s/n%d" app variant backend mode nodes in
  let failures = ref [] in
  if not ok then failures := [ name ];
  let obs = System.obs sys in
  let c cname = Obs.counter_value obs ~node:Obs.global_node ~layer:Obs.Net cname in
  if not (Wire_cost.conserved obs) then
    failures :=
      !failures
      @ [
          Printf.sprintf "%s: cost conservation (components %d <> wire %d)"
            name (Wire_cost.total obs) (Wire_cost.wire_total obs);
        ];
  let components = Wire_cost.breakdown obs in
  let components_json =
    String.concat ", "
      (List.map
         (fun (comp, v) -> Printf.sprintf "%S: %d" (Wire_cost.name comp) v)
         components)
  in
  let row =
    Printf.sprintf
      {|    { "app": %S, "variant": %S, "backend": %S, "config": %S, "nodes": %d, "wall_s": %.6f, "messages": %d, "bytes": %d, "frames": %d, "wire_bytes": %d, "acks": %d, "acks_coalesced": %d, "diff_requests": %d, "components": { %s }, "ok": %b, "host_s": %.3f, "host_ms": %.3f }|}
      app variant backend mode nodes report.System.wall report.System.messages
      report.System.message_bytes (c "medium.frames") (c "medium.bytes")
      (c "sw.acks") (c "sw.acks_coalesced") report.System.diff_requests
      components_json ok host host_ms
  in
  let metrics =
    ("messages", float_of_int report.System.messages)
    :: ("wire_bytes", float_of_int (c "medium.bytes"))
    :: ("wall_s", report.System.wall)
    :: ("host_ms", host_ms)
    :: List.map
         (fun (comp, v) ->
           ("components." ^ Wire_cost.name comp, float_of_int v))
         components
  in
  { rr_row = row; rr_metrics = metrics; rr_failures = !failures }

let commit_row dest rr =
  dest := rr.rr_row :: !dest;
  List.iter (fun f -> failed := f :: !failed) rr.rr_failures

(* Measure one snapshot row per job (app, variant name, backend, nodes),
   fanned across domains, then append the rows to [dest] in submission
   order; returns each job with its row's metrics. *)
let run_jobs ~dest ~mode jobs =
  let results =
    Parallel_runner.run
      (Array.of_list
         (List.map
            (fun ((app : Harness.app), variant, backend, nodes) () ->
              measure ~nodes ~app:app.name ~variant
                ~backend:(Backend.kind_to_string backend) ~mode (fun () ->
                  exec ~nodes
                    ~override:(fun c -> { c with System.backend })
                    app variant))
            jobs))
  in
  List.mapi
    (fun i job ->
      commit_row dest results.(i);
      (job, results.(i).rr_metrics))
    jobs

(* The retransmit gate: no 4-node LRC gate row may retransmit a byte.
   The gate matrix runs on a loss-free wire, so any retransmission is a
   timer that fired before its ack could arrive.  A violation is a
   snapshot failure (exit 1), same as a cost-conservation break. *)
let check_retransmit_gate rows =
  section "Retransmit gate: retransmitted bytes (4-node LRC, must be 0)";
  List.iter
    (fun (((app : Harness.app), v, _, _), metrics) ->
      let br =
        Option.value ~default:0.0
          (List.assoc_opt "components.retransmit" metrics)
      in
      Format.fprintf ppf "  %-14s %12.0f%s@." (app.name ^ "/" ^ v) br
        (if br = 0.0 then "" else "  GATE FAIL");
      if br <> 0.0 then
        failed :=
          Printf.sprintf "%s/%s: %.0f retransmitted bytes (gate: 0)" app.name
            v br
          :: !failed)
    rows

let bench_json () =
  let rows =
    run_jobs ~dest:json_runs ~mode:"batched"
      (List.concat_map
         (fun backend ->
           List.concat_map
             (fun app ->
               List.map (fun v -> (app, v, backend, 4)) [ "lock"; "hybrid" ])
             Harness.apps)
         Backend.all_kinds)
  in
  check_retransmit_gate
    (List.filter (fun ((_, _, backend, _), _) -> backend = Backend.Lrc) rows);
  Format.fprintf ppf "json: %d gate rows measured@." (List.length !json_runs)

(* ------------------------------------------------------------------ *)
(* Scaling sweep: grid and tsp at reduced scale on every backend across
   [!scaling_nodes] (default 4/8/16/32, override with [-n LIST]).  Each
   row lands in the snapshot's "scaling" array with the same shape as
   the gate rows; per-(app, backend) growth exponents of every byte
   component are fitted on log-log and written to "fits". *)

let bench_scaling () =
  section "Scaling sweep: per-component wire bytes vs node count";
  let apps =
    [
      Harness.grid
        ~params:{ Grid.default_params with Grid.size = 48; iterations = 8 }
        ();
      Harness.tsp
        ~params:{ Tsp.default_params with Tsp.cities = 12; prefix_depth = 3 }
        ();
    ]
  in
  let rows =
    run_jobs ~dest:scaling_rows ~mode:"scaling"
      (List.concat_map
         (fun app ->
           List.concat_map
             (fun backend ->
               List.map (fun nodes -> (app, "lock", backend, nodes))
                 !scaling_nodes)
             Backend.all_kinds)
         apps)
  in
  List.iter
    (fun (((app : Harness.app), _, backend, nodes), metrics) ->
      let bname = Backend.kind_to_string backend in
      scaling_samples := (app.name, bname, nodes, metrics) :: !scaling_samples;
      Format.fprintf ppf "  %-5s@%-8s n=%-3d %10.0f wire bytes@." app.name
        bname nodes
        (Option.value ~default:0.0 (List.assoc_opt "wire_bytes" metrics)))
    rows

(* Fit y = a * n^b per (app, backend, metric) over the sweep; rendered
   into the snapshot's "fits" array. *)
let fits_json () =
  let groups =
    List.sort_uniq Stdlib.compare
      (List.map (fun (app, b, _, _) -> (app, b)) !scaling_samples)
  in
  let fit_metrics =
    [ "messages"; "wire_bytes" ]
    @ List.map (fun c -> "components." ^ Wire_cost.name c) Wire_cost.all
  in
  List.concat_map
    (fun (app, b) ->
      List.filter_map
        (fun metric ->
          let points =
            List.filter_map
              (fun (app', b', nodes, metrics) ->
                if app' = app && b' = b then
                  Option.map
                    (fun v -> (float_of_int nodes, v))
                    (List.assoc_opt metric metrics)
                else None)
              !scaling_samples
          in
          Option.map
            (fun e ->
              Printf.sprintf
                {|    { "app": %S, "backend": %S, "metric": %S, "exponent": %.4f }|}
                app b metric e)
            (Bench_report.fit_exponent points))
        fit_metrics)
    groups

(* Write the combined snapshot once, after every requested bench ran. *)
let write_snapshot () =
  if !json_runs <> [] || !scaling_rows <> [] then begin
    let arr rows =
      match rows with
      | [] -> "[]"
      | _ -> "[\n" ^ String.concat ",\n" (List.rev rows) ^ "\n  ]"
    in
    let oc = open_out !output_file in
    Printf.fprintf oc
      "{\n\
      \  \"nodes\": 4,\n\
      \  \"runs\": %s,\n\
      \  \"scaling\": %s,\n\
      \  \"fits\": %s\n\
       }\n"
      (arr !json_runs) (arr !scaling_rows) (arr (fits_json ()));
    close_out oc;
    Format.fprintf ppf "wrote %s (%d gate rows, %d scaling rows)@."
      !output_file (List.length !json_runs)
      (List.length !scaling_rows)
  end;
  if !failed <> [] then begin
    Format.fprintf ppf "FAILED checks: %s@."
      (String.concat ", " (List.rev !failed));
    Format.pp_print_flush ppf ();
    exit 1
  end

(* ------------------------------------------------------------------ *)

(* Every bench, by name; with no argument, those marked [true] run. *)
let benches =
  [
    ("table1", table table1, true);
    ("table2", table table2, true);
    ("table3", table table3, true);
    ("fig2", fig2, true);
    ("sec54", sec54, true);
    ("tmcmp", tmcmp, true);
    ("strategies", strategies, true);
    ("atm", atm, true);
    ("grid", grid, true);
    ("micro", micro, false);
    ("json", bench_json, false);
    ("scaling", bench_scaling, false);
  ]

let usage_error msg =
  Format.fprintf ppf "%s@.usage: bench/main.exe [-j N] [-o FILE] [-n LIST] \
                      [BENCH ...]@.  BENCH: %s@.  default: %s@."
    msg
    (String.concat " " (List.map (fun (name, _, _) -> name) benches))
    (String.concat " "
       (List.filter_map
          (fun (name, _, default) -> if default then Some name else None)
          benches));
  Format.pp_print_flush ppf ();
  exit 2

let () =
  (* Pull "-o FILE" (snapshot destination), "-j N" (worker domains) and
     "-n LIST" (scaling node counts, e.g. "-n 4,8,16,32") out of the
     argument list before dispatching bench names. *)
  let rec strip_flags = function
    | "-o" :: file :: rest ->
      output_file := file;
      strip_flags rest
    | "-j" :: n :: rest ->
      (match int_of_string_opt n with
      | Some k when k >= 1 -> Parallel_runner.jobs := k
      | _ -> usage_error "-j requires a positive worker count");
      strip_flags rest
    | "-n" :: list :: rest ->
      (match
         List.map int_of_string_opt (String.split_on_char ',' list)
       with
      | counts when List.for_all Option.is_some counts && counts <> [] ->
        scaling_nodes := List.map Option.get counts
      | _ -> usage_error "-n requires a comma-separated node-count list");
      strip_flags rest
    | [ ("-o" | "-n" | "-j") ] ->
      usage_error "-o, -n and -j require an argument"
    | arg :: rest -> arg :: strip_flags rest
    | [] -> []
  in
  let selected =
    match strip_flags (List.tl (Array.to_list Sys.argv)) with
    | [] -> List.filter (fun (_, _, default) -> default) benches
    | names ->
      List.map
        (fun name ->
          match List.find_opt (fun (n, _, _) -> n = name) benches with
          | Some b -> b
          | None -> usage_error ("unknown bench " ^ name))
        names
  in
  List.iter (fun (_, f, _) -> f ()) selected;
  write_snapshot ();
  Format.pp_print_flush ppf ()
