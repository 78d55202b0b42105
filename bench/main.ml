(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§5), plus the §5.4 annotation-cost study, the
   TreadMarks-vs-CarlOS comparison, and a Bechamel micro-suite (one
   Test.make per table) measuring the real cost of each reproduced
   workload on the host.

   Usage:
     bench/main.exe [-j N] [-o FILE] [-n LIST] [table1] [table2] [table3]
                    [fig2] [sec54] [tmcmp] [micro] [json] [scaling] ...
   With no argument, everything except [micro] runs.  [-j N] fans the
   snapshot benches' rows across N domains (default
   [Domain.recommended_domain_count ()]); the output is identical for
   every N. *)

module System = Carlos.System
module Backend = Carlos_dsm.Backend
module Cost = Carlos_dsm.Cost
module Tsp = Carlos_apps.Tsp
module Qsort = Carlos_apps.Qsort
module Water = Carlos_apps.Water
module Grid = Carlos_apps.Grid
module Harness = Carlos_apps.Harness
module Engine = Carlos_sim.Engine
module Medium = Carlos_net.Medium

let ppf = Format.std_formatter

let section title = Format.fprintf ppf "@.=== %s ===@." title

let paper_note rows = Format.fprintf ppf "  paper: %s@." rows

(* ------------------------------------------------------------------ *)
(* Table 1: TSP *)

let run_tsp ?(costs = Cost.default) variant nodes =
  let cfg = { (System.default_config ~nodes) with System.costs = costs } in
  let sys = System.create cfg in
  Tsp.run sys variant Tsp.default_params

let table1 () =
  section "Table 1: TSP on CarlOS (lock vs message-passing work queue)";
  let reference = Tsp.solve_reference Tsp.default_params in
  Harness.pp_header ppf ();
  List.iter
    (fun variant ->
      let base = ref 1.0 in
      List.iter
        (fun nodes ->
          let r = run_tsp variant nodes in
          if nodes = 1 then base := r.Tsp.report.System.wall;
          Harness.pp_row ppf
            (Harness.row
               ~label:("TSP/" ^ Tsp.variant_name variant)
               ~nodes ~base:!base ~ok:(r.Tsp.best = reference) r.Tsp.report))
        [ 1; 2; 3; 4 ])
    [ Tsp.Lock; Tsp.Hybrid ];
  paper_note
    "lock  52.3/39.7/31.8s (1.64/2.16/2.69), 5838/8626/10403 msgs; hybrid \
     44.9/31.0/22.0s (1.91/2.76/3.89), 1204/1916/2198 msgs"

(* ------------------------------------------------------------------ *)
(* Table 2: Quicksort *)

let run_qsort variant nodes =
  let sys = System.create (Qsort.config ~nodes Qsort.default_params) in
  Qsort.run sys variant Qsort.default_params

let table2 () =
  section "Table 2: Quicksort on CarlOS (lock vs message queue variants)";
  Harness.pp_header ppf ();
  let base = ref 1.0 in
  List.iter
    (fun (variant, node_counts) ->
      List.iter
        (fun nodes ->
          let r = run_qsort variant nodes in
          if variant = Qsort.Lock && nodes = 1 then
            base := r.Qsort.report.System.wall;
          Harness.pp_row ppf
            (Harness.row
               ~label:("QS/" ^ Qsort.variant_name variant)
               ~nodes ~base:!base ~ok:r.Qsort.sorted r.Qsort.report))
        node_counts)
    [
      (Qsort.Lock, [ 1; 2; 3; 4 ]);
      (Qsort.Hybrid1, [ 2; 3; 4 ]);
      (Qsort.Hybrid2, [ 4 ]);
      (Qsort.Hybrid_nf, [ 4 ]);
    ];
  paper_note
    "lock 19.6/18.6/17.3s (1.36/1.44/1.54); hybrid-1 17.5/13.9/11.8s \
     (1.53/1.93/2.27); hybrid-2@4 14.2s (1.89); no-forwarding ~ hybrid-2"

(* ------------------------------------------------------------------ *)
(* Table 3: Water *)

let run_water ?(costs = Cost.default) variant nodes =
  let cfg = { (System.default_config ~nodes) with System.costs = costs } in
  let sys = System.create cfg in
  Water.run sys variant Water.default_params

let table3 () =
  section "Table 3: Water on CarlOS (molecule locks vs shipped updates)";
  Harness.pp_header ppf ();
  List.iter
    (fun variant ->
      let base = ref 1.0 in
      List.iter
        (fun nodes ->
          let r = run_water variant nodes in
          if nodes = 1 then base := r.Water.report.System.wall;
          Harness.pp_row ppf
            (Harness.row
               ~label:("Water/" ^ Water.variant_name variant)
               ~nodes ~base:!base ~ok:r.Water.energy_ok r.Water.report))
        [ 1; 2; 3; 4 ])
    [ Water.Lock; Water.Hybrid ];
  paper_note
    "lock 23.3/19.4/17.3s (1.34/1.61/1.81), 6920/11348/15423 msgs; hybrid \
     18.4/14.4/12.1s (1.70/2.20/2.58), 2546/4155/5634 msgs"

(* ------------------------------------------------------------------ *)
(* Figure 2: execution breakdown on four nodes *)

let fig2 () =
  section
    "Figure 2: execution breakdown on 4 nodes (per-node averages, seconds)";
  let runs =
    [
      ("TSP/lock", (run_tsp Tsp.Lock 4).Tsp.report);
      ("TSP/hybrid", (run_tsp Tsp.Hybrid 4).Tsp.report);
      ("QS/lock", (run_qsort Qsort.Lock 4).Qsort.report);
      ("QS/hybrid", (run_qsort Qsort.Hybrid1 4).Qsort.report);
      ("Water/lock", (run_water Water.Lock 4).Water.report);
      ("Water/hybrid", (run_water Water.Hybrid 4).Water.report);
    ]
  in
  Harness.pp_breakdown ppf runs;
  paper_note
    "totals 31.8/22.0, 17.3/11.8, 17.3/12.1 s; idle dominates the \
     overheads, all three overhead components shrink in the hybrids"

(* ------------------------------------------------------------------ *)
(* Section 5.4: the choice of annotations *)

let sec54 () =
  section "Section 5.4: annotation-cost study";
  let c = Cost.default in
  Format.fprintf ppf
    "  model costs: REQUEST over NONE = %.0f us/end; RELEASE fixed extra = \
     %.0f us; write-notice apply = %.0f us@."
    (c.Cost.vc_piggyback *. 1e6)
    (c.Cost.release_fixed *. 1e6)
    (c.Cost.write_notice_apply *. 1e6);
  paper_note
    "REQUEST vs NONE 5-15 us; RELEASE ~30 us + write notices at 42-141 us";
  Harness.pp_header ppf ();
  let tsp_h = run_tsp Tsp.Hybrid 4 in
  let tsp_r = run_tsp Tsp.Hybrid_all_release 4 in
  let qs_h = run_qsort Qsort.Hybrid1 4 in
  let qs_r = run_qsort Qsort.Hybrid2 4 in
  let w_h = run_water Water.Hybrid 4 in
  let w_r = run_water Water.Hybrid_all_release 4 in
  let reference = Tsp.solve_reference Tsp.default_params in
  let pct a b = 100.0 *. (b -. a) /. a in
  Harness.pp_row ppf
    (Harness.row ~label:"TSP/hybrid" ~nodes:4
       ~base:tsp_h.Tsp.report.System.wall
       ~ok:(tsp_h.Tsp.best = reference) tsp_h.Tsp.report);
  Harness.pp_row ppf
    (Harness.row ~label:"TSP/all-RELEASE" ~nodes:4
       ~base:tsp_h.Tsp.report.System.wall
       ~ok:(tsp_r.Tsp.best = reference) tsp_r.Tsp.report);
  Harness.pp_row ppf
    (Harness.row ~label:"QS/hybrid-1" ~nodes:4
       ~base:qs_h.Qsort.report.System.wall ~ok:qs_h.Qsort.sorted
       qs_h.Qsort.report);
  Harness.pp_row ppf
    (Harness.row ~label:"QS/all-RELEASE(H2)" ~nodes:4
       ~base:qs_h.Qsort.report.System.wall ~ok:qs_r.Qsort.sorted
       qs_r.Qsort.report);
  Harness.pp_row ppf
    (Harness.row ~label:"Water/hybrid" ~nodes:4
       ~base:w_h.Water.report.System.wall ~ok:w_h.Water.energy_ok
       w_h.Water.report);
  Harness.pp_row ppf
    (Harness.row ~label:"Water/all-RELEASE" ~nodes:4
       ~base:w_h.Water.report.System.wall ~ok:w_r.Water.energy_ok
       w_r.Water.report);
  Format.fprintf ppf
    "  all-RELEASE penalty: TSP %+.1f%%, QS %+.1f%%, Water %+.1f%%@."
    (pct tsp_h.Tsp.report.System.wall tsp_r.Tsp.report.System.wall)
    (pct qs_h.Qsort.report.System.wall qs_r.Qsort.report.System.wall)
    (pct w_h.Water.report.System.wall w_r.Water.report.System.wall);
  paper_note "penalties: TSP +2.4%, Water +1.4%, QS significant";
  (* The same ablation on a modern low-latency interconnect (paper §6:
     "in other contexts, such as more modern networks ... the choice of
     annotations will become more important"). *)
  let tsp_h' = run_tsp ~costs:Cost.fast_network Tsp.Hybrid 4 in
  let tsp_r' = run_tsp ~costs:Cost.fast_network Tsp.Hybrid_all_release 4 in
  let w_h' = run_water ~costs:Cost.fast_network Water.Hybrid 4 in
  let w_r' = run_water ~costs:Cost.fast_network Water.Hybrid_all_release 4 in
  Format.fprintf ppf
    "  fast-network all-RELEASE penalty: TSP %+.1f%%, Water %+.1f%% (vs \
     %+.1f%%, %+.1f%% on Ethernet)@."
    (pct tsp_h'.Tsp.report.System.wall tsp_r'.Tsp.report.System.wall)
    (pct w_h'.Water.report.System.wall w_r'.Water.report.System.wall)
    (pct tsp_h.Tsp.report.System.wall tsp_r.Tsp.report.System.wall)
    (pct w_h.Water.report.System.wall w_r.Water.report.System.wall)

(* ------------------------------------------------------------------ *)
(* TreadMarks vs CarlOS (paper §5: 5-6% for TSP and QS, none for Water) *)

let tmcmp () =
  section "TreadMarks vs CarlOS (lock versions, 4 nodes)";
  let pct a b = 100.0 *. (b -. a) /. a in
  let tsp_tm = run_tsp ~costs:Cost.treadmarks Tsp.Lock 4 in
  let tsp_c = run_tsp Tsp.Lock 4 in
  let qs_tm =
    let p = Qsort.default_params in
    let cfg =
      { (Qsort.config ~nodes:4 p) with System.costs = Cost.treadmarks }
    in
    Qsort.run (System.create cfg) Qsort.Lock p
  in
  let qs_c = run_qsort Qsort.Lock 4 in
  let w_tm = run_water ~costs:Cost.treadmarks Water.Lock 4 in
  let w_c = run_water Water.Lock 4 in
  Format.fprintf ppf "  TSP   : TreadMarks %.1fs, CarlOS %.1fs (%+.1f%%)@."
    tsp_tm.Tsp.report.System.wall tsp_c.Tsp.report.System.wall
    (pct tsp_tm.Tsp.report.System.wall tsp_c.Tsp.report.System.wall);
  Format.fprintf ppf "  QS    : TreadMarks %.1fs, CarlOS %.1fs (%+.1f%%)@."
    qs_tm.Qsort.report.System.wall qs_c.Qsort.report.System.wall
    (pct qs_tm.Qsort.report.System.wall qs_c.Qsort.report.System.wall);
  Format.fprintf ppf "  Water : TreadMarks %.1fs, CarlOS %.1fs (%+.1f%%)@."
    w_tm.Water.report.System.wall w_c.Water.report.System.wall
    (pct w_tm.Water.report.System.wall w_c.Water.report.System.wall);
  paper_note "TSP and Quicksort ~5-6% slower on CarlOS; Water equal"

(* ------------------------------------------------------------------ *)
(* Coherence-strategy ablation: the paper implemented only invalidation
   ("Thus far, we have used only the invalidation strategy in CarlOS")
   but designed the messages to carry diffs for update and hybrid
   strategies (§4.3); §3 argues update coherence makes the
   notify-with-RELEASE pattern eager.  This ablation measures all three
   on Water, where position pages are re-read by every node each step. *)

let strategies () =
  section "Ablation: coherence strategy (Water, 4 nodes)";
  Harness.pp_header ppf ();
  List.iter
    (fun (name, strategy) ->
      List.iter
        (fun (vname, variant) ->
          let cfg =
            { (System.default_config ~nodes:4) with
              System.strategy
            }
          in
          let sys = System.create cfg in
          let r = Water.run sys variant Water.default_params in
          Harness.pp_row ppf
            (Harness.row
               ~label:(Printf.sprintf "Water/%s/%s" vname name)
               ~nodes:4 ~base:r.Water.report.System.wall
               ~ok:r.Water.energy_ok r.Water.report))
        [ ("lock", Water.Lock); ("hybrid", Water.Hybrid) ])
    [
      ("invalidate", Carlos_dsm.Lrc_backend.Invalidate);
      ("update", Carlos_dsm.Lrc_backend.Update);
      ("hybrid-upd", Carlos_dsm.Lrc_backend.Hybrid_update);
    ];
  Format.fprintf ppf
    "  expectation: update ships data eagerly with each RELEASE — fewer      faults and diff requests, larger messages (paper §3, §4.3)@."

(* ------------------------------------------------------------------ *)
(* Network ablation: §4 plans a high-performance ATM upgrade and §5.4
   argues vector timestamps and annotation costs matter more there ("the
   vector timestamp ... is a large part of an ATM frame").  Re-run the
   4-node experiments on an ATM-class fabric (155 Mbit/s, 10 us latency,
   lean host costs). *)

let atm () =
  section "Ablation: ATM-class network (155 Mbit/s, 10 us, 4 nodes)";
  let atm_cfg ~nodes =
    {
      (System.default_config ~nodes) with
      System.bandwidth = 19.4e6;
      latency = 10e-6;
      costs = Cost.fast_network;
    }
  in
  Harness.pp_header ppf ();
  let tsp v =
    let r = Tsp.run (System.create (atm_cfg ~nodes:4)) v Tsp.default_params in
    Harness.pp_row ppf
      (Harness.row
         ~label:("TSP/" ^ Tsp.variant_name v)
         ~nodes:4 ~base:r.Tsp.report.System.wall
         ~ok:(r.Tsp.best = Tsp.solve_reference Tsp.default_params)
         r.Tsp.report);
    r.Tsp.report.System.wall
  in
  let water v =
    let r =
      Water.run (System.create (atm_cfg ~nodes:4)) v Water.default_params
    in
    Harness.pp_row ppf
      (Harness.row
         ~label:("Water/" ^ Water.variant_name v)
         ~nodes:4 ~base:r.Water.report.System.wall ~ok:r.Water.energy_ok
         r.Water.report);
    r.Water.report.System.wall
  in
  let tl = tsp Tsp.Lock and th = tsp Tsp.Hybrid in
  let wl = water Water.Lock and wh = water Water.Hybrid in
  Format.fprintf ppf
    "  lock-vs-hybrid gap on ATM: TSP %.1f%%, Water %.1f%% -- on a fast \
     fabric the hybrid's advantage nearly vanishes: its benefit came from \
     avoiding expensive messaging (the paper's par.6 Amdahl's-law point)@."
    (100.0 *. (tl -. th) /. tl)
    (100.0 *. (wl -. wh) /. wl)

(* ------------------------------------------------------------------ *)
(* The §3 motif: an iterative finite-difference solver where "it is
   easier to use a shared-memory style of communication combined with a
   notification message marked RELEASE".  Global barriers vs
   neighbour-only notifications, under invalidate and update coherence. *)

let grid () =
  section "Paper §3 motif: grid relaxation (96x96 Jacobi, 4 nodes)";
  Harness.pp_header ppf ();
  List.iter
    (fun (sname, strategy) ->
      List.iter
        (fun variant ->
          let sys = System.create (Grid.config ~nodes:4 ~strategy Grid.default_params) in
          let r = Grid.run sys variant Grid.default_params in
          Harness.pp_row ppf
            (Harness.row
               ~label:
                 (Printf.sprintf "Grid/%s/%s" (Grid.variant_name variant)
                    sname)
               ~nodes:4 ~base:r.Grid.report.System.wall ~ok:r.Grid.exact
               r.Grid.report))
        [ Grid.Barrier; Grid.Hybrid ])
    [
      ("invalidate", Carlos_dsm.Lrc_backend.Invalidate);
      ("update", Carlos_dsm.Lrc_backend.Update);
    ];
  Format.fprintf ppf
    "  neighbour notifications replace global barriers; under the update      strategy the boundary rows travel with the RELEASE (par.3)@."

(* ------------------------------------------------------------------ *)
(* Bechamel micro-suite: host cost of regenerating each table at reduced
   scale (one Test.make per table/figure). *)

let micro () =
  section "Bechamel micro-suite (host time per reduced-scale experiment)";
  let open Bechamel in
  let tiny_tsp () =
    let p = { Tsp.default_params with Tsp.cities = 10; prefix_depth = 2 } in
    ignore
      (Tsp.run (System.create (System.default_config ~nodes:2)) Tsp.Hybrid p)
  in
  let tiny_qsort () =
    let p = { Qsort.default_params with Qsort.elements = 16 * 1024 } in
    ignore
      (Qsort.run (System.create (Qsort.config ~nodes:2 p)) Qsort.Hybrid1 p)
  in
  let tiny_water () =
    let p = { Water.default_params with Water.molecules = 64; steps = 1 } in
    ignore
      (Water.run
         (System.create (System.default_config ~nodes:2))
         Water.Hybrid p)
  in
  let tiny_fig2 () =
    let p = { Water.default_params with Water.molecules = 48; steps = 1 } in
    ignore
      (Water.run (System.create (System.default_config ~nodes:4)) Water.Lock p)
  in
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
  (* The engine's two cheap paths: a fiber's delay that runs inline
     because nothing else is queued, and frames that queue for the wire
     and run as a callback chain. *)
  let inline_delays () =
    let eng = Engine.create () in
    Engine.spawn eng (fun () ->
        for _ = 1 to 10_000 do
          Engine.delay 1e-6
        done);
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
  let tests =
    [
      Test.make ~name:"engine-delay-x10k-inline" (Staged.stage inline_delays);
      Test.make ~name:"medium-x1k-frames-queued" (Staged.stage queued_frames);
      Test.make ~name:"profile-span-x1000-disabled"
        (Staged.stage (profile_spans false));
      Test.make ~name:"profile-span-x1000-enabled"
        (Staged.stage (profile_spans true));
      Test.make ~name:"table1-tsp" (Staged.stage tiny_tsp);
      Test.make ~name:"table2-qsort" (Staged.stage tiny_qsort);
      Test.make ~name:"table3-water" (Staged.stage tiny_water);
      Test.make ~name:"fig2-breakdown" (Staged.stage tiny_fig2);
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

let snapshot_failed = ref []

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
  let sys, report, ok = f () in
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
  List.iter (fun f -> snapshot_failed := f :: !snapshot_failed) rr.rr_failures

type json_app = {
  ja_name : string;
  ja_config : int -> System.config; (* nodes *)
  ja_variants : (string * (System.t -> System.report * bool)) list;
}

let gate_apps () =
  let reference = Tsp.solve_reference Tsp.default_params in
  [
    {
      ja_name = "tsp";
      ja_config = (fun nodes -> System.default_config ~nodes);
      ja_variants =
        List.map
          (fun (name, variant) ->
            ( name,
              fun sys ->
                let r = Tsp.run sys variant Tsp.default_params in
                (r.Tsp.report, r.Tsp.best = reference) ))
          [ ("lock", Tsp.Lock); ("hybrid", Tsp.Hybrid) ];
    };
    {
      ja_name = "qsort";
      ja_config = (fun nodes -> Qsort.config ~nodes Qsort.default_params);
      ja_variants =
        List.map
          (fun (name, variant) ->
            ( name,
              fun sys ->
                let r = Qsort.run sys variant Qsort.default_params in
                (r.Qsort.report, r.Qsort.sorted) ))
          [ ("lock", Qsort.Lock); ("hybrid", Qsort.Hybrid1) ];
    };
    {
      ja_name = "water";
      ja_config = (fun nodes -> System.default_config ~nodes);
      ja_variants =
        List.map
          (fun (name, variant) ->
            ( name,
              fun sys ->
                let r = Water.run sys variant Water.default_params in
                (r.Water.report, r.Water.energy_ok) ))
          [ ("lock", Water.Lock); ("hybrid", Water.Hybrid) ];
    };
    {
      ja_name = "grid";
      ja_config = (fun nodes -> Grid.config ~nodes Grid.default_params);
      ja_variants =
        List.map
          (fun (name, variant) ->
            ( name,
              fun sys ->
                let r = Grid.run sys variant Grid.default_params in
                (r.Grid.report, r.Grid.exact) ))
          [ ("lock", Grid.Barrier); ("hybrid", Grid.Hybrid) ];
    };
  ]

(* Run the 4-node gate matrix for [backend], fanning the rows across
   domains, then appending them to [dest] in submission order; returns
   [((app, variant), metrics)] per row. *)
let run_gate_matrix ~dest ~backend apps =
  let nodes = 4 in
  let jobs =
    List.concat_map
      (fun ja ->
        List.map
          (fun (vname, run) ->
            ( (ja.ja_name, vname),
              fun () ->
                measure ~nodes ~app:ja.ja_name ~variant:vname
                  ~backend:(Backend.kind_to_string backend) ~mode:"batched"
                  (fun () ->
                    let cfg = { (ja.ja_config nodes) with System.backend } in
                    let sys = System.create cfg in
                    let report, ok = run sys in
                    (sys, report, ok)) ))
          ja.ja_variants)
      apps
  in
  let results = Parallel_runner.run (Array.of_list (List.map snd jobs)) in
  List.mapi
    (fun i (key, _) ->
      let rr = results.(i) in
      commit_row dest rr;
      (key, rr.rr_metrics))
    jobs

(* The retransmit gate: no 4-node LRC gate row may retransmit a byte.
   The gate matrix runs on a loss-free wire, so any retransmission is a
   timer that fired before its ack could arrive.  A violation is a
   snapshot failure (exit 1), same as a cost-conservation break. *)
let check_retransmit_gate rows =
  section "Retransmit gate: retransmitted bytes (4-node LRC, must be 0)";
  List.iter
    (fun ((app, v), metrics) ->
      let br =
        Option.value ~default:0.0
          (List.assoc_opt "components.retransmit" metrics)
      in
      Format.fprintf ppf "  %-14s %12.0f%s@." (app ^ "/" ^ v) br
        (if br = 0.0 then "" else "  GATE FAIL");
      if br <> 0.0 then
        snapshot_failed :=
          Printf.sprintf "%s/%s: %.0f retransmitted bytes (gate: 0)" app v br
          :: !snapshot_failed)
    rows

let bench_json () =
  let apps = gate_apps () in
  List.iter
    (fun backend ->
      let rows = run_gate_matrix ~dest:json_runs ~backend apps in
      if backend = Backend.Lrc then check_retransmit_gate rows)
    Backend.all_kinds;
  Format.fprintf ppf "json: %d gate rows measured@." (List.length !json_runs)

(* ------------------------------------------------------------------ *)
(* Scaling sweep: grid and tsp at reduced scale on every backend across
   [!scaling_nodes] (default 4/8/16/32, override with [-n LIST]).  Each
   row lands in the snapshot's "scaling" array with the same shape as
   the gate rows; per-(app, backend) growth exponents of every byte
   component are fitted on log-log and written to "fits". *)

let bench_scaling () =
  section "Scaling sweep: per-component wire bytes vs node count";
  let grid_p = { Grid.default_params with Grid.size = 48; iterations = 8 } in
  let tsp_p = { Tsp.default_params with Tsp.cities = 12; prefix_depth = 3 } in
  let tsp_ref = Tsp.solve_reference tsp_p in
  let apps =
    [
      ( "grid",
        "lock",
        (fun nodes -> Grid.config ~nodes grid_p),
        fun sys ->
          let r = Grid.run sys Grid.Barrier grid_p in
          (r.Grid.report, r.Grid.exact) );
      ( "tsp",
        "lock",
        (fun nodes -> System.default_config ~nodes),
        fun sys ->
          let r = Tsp.run sys Tsp.Lock tsp_p in
          (r.Tsp.report, r.Tsp.best = tsp_ref) );
    ]
  in
  let jobs =
    List.concat_map
      (fun (app, vname, config, run) ->
        List.concat_map
          (fun backend ->
            let bname = Backend.kind_to_string backend in
            List.map
              (fun nodes ->
                ( (app, bname, nodes),
                  fun () ->
                    measure ~nodes ~app ~variant:vname ~backend:bname
                      ~mode:"scaling" (fun () ->
                        let cfg = { (config nodes) with System.backend } in
                        let sys = System.create cfg in
                        let report, ok = run sys in
                        (sys, report, ok)) ))
              !scaling_nodes)
          Backend.all_kinds)
      apps
  in
  let results = Parallel_runner.run (Array.of_list (List.map snd jobs)) in
  List.iteri
    (fun i ((app, bname, nodes), _) ->
      let rr = results.(i) in
      commit_row scaling_rows rr;
      scaling_samples :=
        (app, bname, nodes, rr.rr_metrics) :: !scaling_samples;
      Format.fprintf ppf "  %-5s@%-8s n=%-3d %10.0f wire bytes@." app bname
        nodes
        (Option.value ~default:0.0
           (List.assoc_opt "wire_bytes" rr.rr_metrics)))
    jobs

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
  if !snapshot_failed <> [] then begin
    Format.fprintf ppf "FAILED checks: %s@."
      (String.concat ", " (List.rev !snapshot_failed));
    Format.pp_print_flush ppf ();
    exit 1
  end

(* ------------------------------------------------------------------ *)

let () =
  let all =
    [ table1; table2; table3; fig2; sec54; tmcmp; strategies; atm; grid ]
  in
  let named =
    [
      ("table1", table1);
      ("table2", table2);
      ("table3", table3);
      ("fig2", fig2);
      ("sec54", sec54);
      ("tmcmp", tmcmp);
      ("strategies", strategies);
      ("atm", atm);
      ("grid", grid);
      ("micro", micro);
      ("json", bench_json);
      ("scaling", bench_scaling);
    ]
  in
  (* Pull "-o FILE" (snapshot destination) and "-n LIST" (scaling node
     counts, e.g. "-n 4,8,16,32") out of the argument list before
     dispatching bench names. *)
  let rec strip_flags = function
    | "-o" :: file :: rest ->
      output_file := file;
      strip_flags rest
    | "-j" :: n :: rest ->
      (match int_of_string_opt n with
      | Some k when k >= 1 -> Parallel_runner.jobs := k
      | _ ->
        Format.fprintf ppf "-j requires a positive worker count@.";
        Format.pp_print_flush ppf ();
        exit 2);
      strip_flags rest
    | "-n" :: list :: rest ->
      (match
         List.map int_of_string_opt (String.split_on_char ',' list)
       with
      | counts when List.for_all Option.is_some counts && counts <> [] ->
        scaling_nodes := List.map Option.get counts
      | _ ->
        Format.fprintf ppf "-n requires a comma-separated node-count list@.";
        Format.pp_print_flush ppf ();
        exit 2);
      strip_flags rest
    | [ ("-o" | "-n" | "-j") ] ->
      Format.fprintf ppf "-o, -n and -j require an argument@.";
      Format.pp_print_flush ppf ();
      exit 2
    | arg :: rest -> arg :: strip_flags rest
    | [] -> []
  in
  let args = strip_flags (List.tl (Array.to_list Sys.argv)) in
  (match args with
  | [] -> List.iter (fun f -> f ()) all
  | names ->
    List.iter
      (fun name ->
        match List.assoc_opt name named with
        | Some f -> f ()
        | None ->
          Format.fprintf ppf "unknown bench %s (have: %s)@." name
            (String.concat ", " (List.map fst named)))
      names);
  write_snapshot ();
  Format.pp_print_flush ppf ()
