(* carlos_run: command-line driver for the CarlOS simulator.

   Run any of the paper's applications in any variant on a configurable
   cluster and print the paper-style report row plus the per-node
   execution breakdown.  The run's full observability registry can be
   exported as a Chrome trace ([--trace out.json], open in
   chrome://tracing or ui.perfetto.dev) and as a metrics dump
   ([--metrics], [--metrics-json out.jsonl]). *)

module System = Carlos.System
module Backend = Carlos_dsm.Backend
module Cpu_cost = Carlos_dsm.Cpu_cost
module Obs = Carlos_obs.Obs
module Audit = Carlos_audit.Audit
module Causal = Carlos_audit.Causal
module Harness = Carlos_apps.Harness
module Profile = Carlos_obs.Profile

open Cmdliner

type opts = {
  nodes : int;
  variant : string;
  backend : string;
  costs : string;
  breakdown : bool;
  trace_file : string option;
  metrics : bool;
  metrics_json : string option;
  audit : bool;
  causal : bool;
  profile : bool;
}

let nodes_arg =
  let doc = "Number of workstations in the simulated cluster." in
  Arg.(value & opt int 4 & info [ "n"; "nodes" ] ~docv:"N" ~doc)

let variant_arg =
  let doc =
    "Application variant, per application (aliases joined by |): "
    ^ String.concat "; "
        (List.map
           (fun (app : Harness.app) ->
             app.name ^ ": "
             ^ String.concat ", "
                 (List.map
                    (fun (v : Harness.variant) -> String.concat "|" v.names)
                    app.variants))
           Harness.apps)
    ^ "."
  in
  Arg.(value & opt string "hybrid" & info [ "variant" ] ~docv:"VARIANT" ~doc)

let backend_arg =
  let doc =
    "Consistency backend: lrc (the paper's lazy release consistency), \
     central (one-home-node sequentially-consistent store), seq \
     (sequencer-stamped totally-ordered store)."
  in
  Arg.(value & opt string "lrc" & info [ "backend" ] ~docv:"BACKEND" ~doc)

let costs_arg =
  let doc = "Cost table: default, treadmarks, fast-network." in
  Arg.(value & opt string "default" & info [ "costs" ] ~docv:"COSTS" ~doc)

let breakdown_arg =
  let doc = "Also print the per-node execution breakdown (Figure 2 style)." in
  Arg.(value & flag & info [ "breakdown" ] ~doc)

let trace_arg =
  let doc =
    "Record the run's typed event trace and write it to $(docv) as Chrome \
     trace_event JSON (open in chrome://tracing or ui.perfetto.dev)."
  in
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE" ~doc)

let metrics_arg =
  let doc =
    "Print the full metrics registry (every counter, gauge and histogram \
     of every layer) after the run."
  in
  Arg.(value & flag & info [ "metrics" ] ~doc)

let metrics_json_arg =
  let doc = "Write the metrics registry to $(docv) as JSONL." in
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-json" ] ~docv:"FILE" ~doc)

let audit_arg =
  let doc =
    "Run the online consistency auditor alongside the application (vector \
     clocks monotone, RELEASE acquire-dominance, piggyback tailoring, \
     write-notice completeness, causal page order, relay purity).  Any \
     violation is printed and the exit status is non-zero."
  in
  Arg.(value & flag & info [ "audit" ] ~doc)

let causal_arg =
  let doc =
    "Print the offline causal analysis after the run: critical path \
     through the message DAG, per-lock contention and handoff chains, \
     barrier skew.  Implies event tracing."
  in
  Arg.(value & flag & info [ "causal-report" ] ~doc)

let profile_arg =
  let doc =
    "Profile the engine hot path in host (wall-clock) time and print the \
     per-category table after the run.  With --metrics-json the profile is \
     appended as $(b,\"type\":\"profile\") lines; with --trace the aggregate \
     appears as slices on the host-profile pseudo-process.  Host times are \
     nondeterministic and never enter the metrics registry proper."
  in
  Arg.(value & flag & info [ "profile" ] ~doc)

let opts_term =
  let mk nodes variant backend costs breakdown trace_file metrics
      metrics_json audit causal profile =
    { nodes; variant; backend; costs; breakdown; trace_file; metrics;
      metrics_json; audit; causal; profile }
  in
  Term.(
    const mk $ nodes_arg $ variant_arg $ backend_arg $ costs_arg
    $ breakdown_arg $ trace_arg $ metrics_arg $ metrics_json_arg $ audit_arg
    $ causal_arg $ profile_arg)

let costs_of_string = function
  | "default" -> Ok Cpu_cost.default
  | "treadmarks" -> Ok Cpu_cost.treadmarks
  | "fast-network" -> Ok Cpu_cost.fast_network
  | s -> Error (Printf.sprintf "unknown cost table %S" s)

let with_file file f =
  let oc = open_out file in
  let ppf = Format.formatter_of_out_channel oc in
  f ppf;
  Format.pp_print_flush ppf ();
  close_out oc

let finish ~opts ~sys ~label ~ok report =
  Harness.pp_header Format.std_formatter ();
  Harness.pp_row Format.std_formatter
    (Harness.row ~label ~nodes:(Array.length report.System.per_node)
       ~base:report.System.wall ~ok report);
  if opts.breakdown then
    Harness.pp_breakdown Format.std_formatter [ (label, report) ];
  let obs = System.obs sys in
  try
    if opts.profile then Profile.set_enabled false;
    (match opts.trace_file with
    | None -> ()
    | Some file ->
      if opts.profile then Profile.to_obs obs;
      with_file file (fun ppf -> Obs.pp_chrome_trace ppf obs);
      Format.printf "trace: %d events -> %s@." (List.length (Obs.events obs))
        file);
    let snap = lazy (Obs.snapshot obs) in
    (match opts.metrics_json with
    | None -> ()
    | Some file ->
      with_file file (fun ppf ->
          Obs.pp_metrics_jsonl ppf (Lazy.force snap);
          if opts.profile then Profile.pp_jsonl ppf ()));
    if opts.metrics then begin
      Format.printf "metrics:@.";
      Obs.pp_metrics Format.std_formatter (Lazy.force snap)
    end;
    if opts.profile then begin
      Format.printf "host profile:@.";
      Profile.pp Format.std_formatter ()
    end;
    if opts.causal then begin
      Format.printf "causal report:@.";
      Causal.pp Format.std_formatter (Causal.analyse obs)
    end;
    let audit_ok =
      match System.auditor sys with
      | None -> true
      | Some a ->
        Audit.pp_report Format.std_formatter a;
        Audit.violation_count a = 0
    in
    if not ok then `Error (false, "application-level check failed")
    else if not audit_ok then `Error (false, "consistency audit failed")
    else `Ok ()
  with Sys_error msg -> `Error (false, "cannot write export: " ^ msg)

let make_system ~opts ~backend cfg =
  let cfg = { cfg with System.backend } in
  let sys = System.create ~audit:opts.audit cfg in
  if opts.trace_file <> None || opts.causal then System.set_tracing sys true;
  if opts.profile then begin
    Profile.reset ();
    Profile.set_enabled true
  end;
  sys

let run_app (app : Harness.app) opts =
  match
    ( costs_of_string opts.costs,
      Backend.kind_of_string opts.backend,
      Harness.find_variant app opts.variant )
  with
  | Error e, _, _ | _, Error e, _ | _, _, Error e -> `Error (false, e)
  | Ok costs, Ok backend, Ok variant ->
    let cfg =
      { (app.config ~nodes:opts.nodes) with System.costs }
    in
    let sys = make_system ~opts ~backend cfg in
    let o = variant.run sys in
    Format.printf "%s@." o.summary;
    finish ~opts ~sys
      ~label:(Harness.backend_label (Harness.label app variant) backend)
      ~ok:o.ok o.report

let costs_cmd =
  let run () =
    Format.printf "default (DEC 3000/300 + OSF/1 + 10 Mbit/s Ethernet):@.%a@.@."
      Cpu_cost.pp Cpu_cost.default;
    Format.printf "treadmarks (leaner built-in sync path):@.%a@.@." Cpu_cost.pp
      Cpu_cost.treadmarks;
    Format.printf "fast-network (modern low-latency interconnect):@.%a@."
      Cpu_cost.pp Cpu_cost.fast_network;
    `Ok ()
  in
  Cmd.v
    (Cmd.info "costs" ~doc:"Print the available virtual-time cost tables.")
    Term.(ret (const run $ const ()))

let app_cmd (app : Harness.app) =
  let run = run_app app in
  Cmd.v (Cmd.info app.name ~doc:app.doc) Term.(ret (const run $ opts_term))

let () =
  let doc =
    "CarlOS: message-driven relaxed consistency in a simulated software DSM"
  in
  let info = Cmd.info "carlos_run" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info (List.map app_cmd Harness.apps @ [ costs_cmd ])))
