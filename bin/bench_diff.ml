(* bench_diff: compare two BENCH_PR*.json snapshots and fail on
   regression.

   Matches rows by (app, variant, backend, config, nodes) and compares
   the selected numeric fields; an increase beyond --tolerance percent
   is a regression (messages, bytes and seconds all grow when the
   protocol gets worse), a decrease is reported as an improvement and
   never fails.  Rows of OLD that are missing from NEW (after --only
   filtering) also fail: a silently dropped gate row must not pass.

   Exit status: 0 clean, 1 regression/missing row, 124 usage error. *)

module Report = Carlos_report.Bench_report
open Cmdliner

let old_arg =
  let doc = "Baseline snapshot (e.g. the committed BENCH_PR10.json)." in
  Arg.(required & pos 0 (some file) None & info [] ~docv:"OLD" ~doc)

let new_arg =
  let doc = "Fresh snapshot to judge against $(i,OLD)." in
  Arg.(required & pos 1 (some file) None & info [] ~docv:"NEW" ~doc)

let tolerance_arg =
  let doc = "Allowed increase per field, in percent." in
  Arg.(value & opt float 2.0 & info [ "tolerance" ] ~docv:"PCT" ~doc)

let fields_arg =
  let doc =
    "Comma-separated numeric fields to compare (nested component bytes as \
     $(b,components.vc_entries) etc.)."
  in
  Arg.(
    value
    & opt (list string) [ "messages"; "wire_bytes" ]
    & info [ "fields" ] ~docv:"F1,F2" ~doc)

let only_arg =
  let doc =
    "Restrict the comparison to rows whose $(i,ATTR) (app, variant, \
     backend, config or nodes) equals $(i,VALUE).  Repeatable; all pairs \
     must match."
  in
  let kv =
    let parse s =
      match String.index_opt s '=' with
      | Some i ->
        Ok
          ( String.sub s 0 i,
            String.sub s (i + 1) (String.length s - i - 1) )
      | None -> Error (`Msg (Printf.sprintf "expected ATTR=VALUE, got %S" s))
    in
    let print ppf (a, v) = Format.fprintf ppf "%s=%s" a v in
    Arg.conv (parse, print)
  in
  Arg.(value & opt_all kv [] & info [ "only" ] ~docv:"ATTR=VALUE" ~doc)

(* Host-time fields are wall-clock measurements: nondeterministic by
   nature, so they are never judged for regression.  Selecting them via
   --fields prints an informational old/new table instead. *)
let info_field = function "host_ms" | "host_s" -> true | _ -> false

let pp_info_fields ppf fields old_rows new_rows =
  List.iter
    (fun field ->
      List.iter
        (fun o ->
          match
            List.find_opt (fun n -> n.Report.key = o.Report.key) new_rows
          with
          | None -> ()
          | Some n -> (
            match (Report.metric o field, Report.metric n field) with
            | Some ov, Some nv ->
              Format.fprintf ppf "  %s (info): %a  %.3f -> %.3f (%+.1f%%)@."
                field Report.pp_key o.Report.key ov nv
                (if ov = 0.0 then 0.0 else (nv -. ov) /. ov *. 100.0)
            | Some ov, None ->
              Format.fprintf ppf "  %s (info): %a  %.3f -> (absent)@." field
                Report.pp_key o.Report.key ov
            | None, Some nv ->
              Format.fprintf ppf "  %s (info): %a  (absent) -> %.3f@." field
                Report.pp_key o.Report.key nv
            | None, None -> ()))
        old_rows)
    fields

let run old_file new_file tolerance fields only =
  match
    ( (try Ok (Report.load old_file) with
      | Carlos_report.Json.Parse_error m ->
        Error (Printf.sprintf "%s: %s" old_file m)
      | Sys_error m -> Error m),
      (try Ok (Report.load new_file) with
      | Carlos_report.Json.Parse_error m ->
        Error (Printf.sprintf "%s: %s" new_file m)
      | Sys_error m -> Error m) )
  with
  | Error e, _ | _, Error e -> `Error (false, e)
  | Ok old_rows, Ok new_rows -> (
    let info_fields, fields = List.partition info_field fields in
    match
      Report.compare ~fields ~tolerance_pct:tolerance ~only old_rows new_rows
    with
    | exception Invalid_argument m -> `Error (false, m)
    | c ->
      let ppf = Format.std_formatter in
      Format.fprintf ppf
        "bench_diff: %s -> %s, %d row(s) compared, fields %s, tolerance \
         %.2f%%@."
        old_file new_file c.Report.compared
        (String.concat ","
           (fields @ List.map (fun f -> f ^ "(info)") info_fields))
        tolerance;
      pp_info_fields ppf info_fields
        (List.filter (Report.selected only) old_rows)
        (List.filter (Report.selected only) new_rows);
      List.iter
        (fun d -> Format.fprintf ppf "  improvement: %a@." Report.pp_delta d)
        c.Report.improvements;
      List.iter
        (fun k ->
          Format.fprintf ppf "  new row (not judged): %a@." Report.pp_key k)
        c.Report.added;
      List.iter
        (fun k ->
          Format.fprintf ppf "  MISSING in %s: %a@." new_file Report.pp_key k)
        c.Report.missing;
      List.iter
        (fun d -> Format.fprintf ppf "  REGRESSION: %a@." Report.pp_delta d)
        c.Report.regressions;
      if c.Report.regressions <> [] || c.Report.missing <> [] then begin
        Format.fprintf ppf "bench_diff: FAIL: %d regression(s), %d missing \
                            row(s)@."
          (List.length c.Report.regressions)
          (List.length c.Report.missing);
        Format.pp_print_flush ppf ();
        exit 1
      end
      else begin
        Format.fprintf ppf "bench_diff: ok@.";
        `Ok ()
      end)

let () =
  let doc = "Compare two CarlOS bench snapshots and fail on regression" in
  let info = Cmd.info "bench_diff" ~version:"1.0.0" ~doc in
  let term =
    Term.(
      ret
        (const run $ old_arg $ new_arg $ tolerance_arg $ fields_arg
       $ only_arg))
  in
  exit (Cmd.eval (Cmd.v info term))
