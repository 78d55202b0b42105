module System = Carlos.System

type row = {
  label : string;
  nodes : int;
  time : float;
  speedup : float;
  messages : int;
  avg_bytes : float;
  utilization : float;
  gc_runs : int;
  ok : bool;
}

(* One labelling convention for backend-qualified rows everywhere
   (driver output, bench matrix): "App/variant@backend". *)
let backend_label label kind =
  label ^ "@" ^ Carlos_dsm.Backend.kind_to_string kind

let row ~label ~nodes ~base ~ok (report : System.report) =
  {
    label;
    nodes;
    time = report.System.wall;
    speedup = (if report.System.wall > 0.0 then base /. report.System.wall else 0.0);
    messages = report.System.messages;
    avg_bytes = report.System.avg_message_bytes;
    utilization = report.System.net_utilization;
    gc_runs = report.System.gc_runs;
    ok;
  }

let pp_header ppf () =
  Format.fprintf ppf "%-22s %2s | %8s %8s | %8s %6s | %5s %3s %s@."
    "Version" "N" "Time(s)" "Speedup" "Msgs" "Size" "Util" "GC" "ok"

let pp_row ppf r =
  Format.fprintf ppf "%-22s %2d | %8.1f %8.2f | %8d %6.0f | %4.0f%% %3d %s@."
    r.label r.nodes r.time r.speedup r.messages r.avg_bytes
    (100.0 *. r.utilization) r.gc_runs
    (if r.ok then "ok" else "FAIL")

let pp_breakdown ppf runs =
  Format.fprintf ppf "%-22s | %8s %8s %8s %8s | %8s@." "Version" "User"
    "Unix" "CarlOS" "Idle" "Total";
  List.iter
    (fun (label, (report : System.report)) ->
      let n = float_of_int (Array.length report.System.per_node) in
      let avg f =
        Array.fold_left (fun acc r -> acc +. f r) 0.0 report.System.per_node
        /. n
      in
      Format.fprintf ppf "%-22s | %8.2f %8.2f %8.2f %8.2f | %8.2f@." label
        (avg (fun r -> r.System.user))
        (avg (fun r -> r.System.unix))
        (avg (fun r -> r.System.carlos))
        (avg (fun r -> r.System.idle))
        report.System.wall)
    runs

(* ------------------------------------------------------------------ *)
(* The application catalogue *)

type outcome = { report : System.report; ok : bool; summary : string }

type variant = {
  names : string list;
  label : string;
  run : System.t -> outcome;
}

type app = {
  name : string;
  prefix : string;
  doc : string;
  config : nodes:int -> System.config;
  variants : variant list;
}

let label app v = app.prefix ^ "/" ^ v.label

let find_variant app name =
  match List.find_opt (fun v -> List.mem name v.names) app.variants with
  | Some v -> Ok v
  | None ->
    Error
      (Printf.sprintf "%s has no variant %S (accepted: %s)" app.name name
         (String.concat ", " (List.concat_map (fun v -> v.names) app.variants)))

(* One entry; [run sys v] runs variant [v] and checks its result. *)
let entry ~name ~prefix ~doc ~config ~variant_name ~run variants =
  {
    name;
    prefix;
    doc;
    config;
    variants =
      List.map
        (fun (names, v) ->
          { names; label = variant_name v; run = (fun sys -> run sys v) })
        variants;
  }

let tsp ?(params = Tsp.default_params) () =
  (* The sequential reference search is done at most once per entry; the
     mutex keeps that true when rows of one entry run on several
     domains. *)
  let reference = lazy (Tsp.solve_reference params) in
  let lock = Mutex.create () in
  entry ~name:"tsp" ~prefix:"TSP" ~doc:"Run the TSP application (paper §5.1)."
    ~config:(fun ~nodes -> System.default_config ~nodes)
    ~variant_name:Tsp.variant_name
    ~run:(fun sys v ->
      let r = Tsp.run sys v params in
      let best = Mutex.protect lock (fun () -> Lazy.force reference) in
      {
        report = r.Tsp.report;
        ok = r.Tsp.best = best;
        summary =
          Printf.sprintf "TSP: best tour %d (reference %d), %d nodes visited"
            r.Tsp.best best r.Tsp.visited;
      })
    [
      ([ "lock" ], Tsp.Lock);
      ([ "hybrid"; "hybrid-1" ], Tsp.Hybrid);
      ([ "hybrid-all-release" ], Tsp.Hybrid_all_release);
    ]

let qsort ?(params = Qsort.default_params) () =
  entry ~name:"qsort" ~prefix:"QS"
    ~doc:"Run the Quicksort application (paper §5.2)."
    ~config:(fun ~nodes -> Qsort.config ~nodes params)
    ~variant_name:Qsort.variant_name
    ~run:(fun sys v ->
      let r = Qsort.run sys v params in
      {
        report = r.Qsort.report;
        ok = r.Qsort.sorted;
        summary =
          Printf.sprintf "Quicksort: %d elements, %d leaves, sorted=%b"
            params.Qsort.elements r.Qsort.leaves r.Qsort.sorted;
      })
    [
      ([ "lock" ], Qsort.Lock);
      ([ "hybrid"; "hybrid-1" ], Qsort.Hybrid1);
      ([ "hybrid-2" ], Qsort.Hybrid2);
      ([ "hybrid-noforward" ], Qsort.Hybrid_nf);
    ]

let water ?(params = Water.default_params) () =
  entry ~name:"water" ~prefix:"Water"
    ~doc:"Run the Water application (paper §5.3)."
    ~config:(fun ~nodes -> System.default_config ~nodes)
    ~variant_name:Water.variant_name
    ~run:(fun sys v ->
      let r = Water.run sys v params in
      {
        report = r.Water.report;
        ok = r.Water.energy_ok;
        summary =
          Printf.sprintf "Water: %d molecules, %d steps, energy %.6f (ok=%b)"
            params.Water.molecules params.Water.steps r.Water.energy
            r.Water.energy_ok;
      })
    [
      ([ "lock" ], Water.Lock);
      ([ "hybrid" ], Water.Hybrid);
      ([ "hybrid-all-release" ], Water.Hybrid_all_release);
    ]

let grid ?(params = Grid.default_params) () =
  entry ~name:"grid" ~prefix:"Grid"
    ~doc:"Run the Jacobi grid application (barrier apps)."
    ~config:(fun ~nodes -> Grid.config ~nodes params)
    ~variant_name:Grid.variant_name
    ~run:(fun sys v ->
      let r = Grid.run sys v params in
      {
        report = r.Grid.report;
        ok = r.Grid.exact;
        summary =
          Printf.sprintf "Grid: %dx%d, %d iterations, checksum %.6f (exact=%b)"
            params.Grid.size params.Grid.size params.Grid.iterations
            r.Grid.checksum r.Grid.exact;
      })
      (* "lock" names the barrier variant so that one variant matrix covers
         every app: Grid's conservative mode is the plain barrier. *)
    [ ([ "barrier"; "lock" ], Grid.Barrier); ([ "hybrid"; "hybrid-1" ], Grid.Hybrid) ]

let apps = [ tsp (); qsort (); water (); grid () ]
