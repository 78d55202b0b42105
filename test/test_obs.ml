(* Unit tests for the typed observability layer: registry semantics
   (idempotent registration, reads by key), histogram merge algebra,
   series, tracing, and exporter determinism. *)

module Obs = Carlos_obs.Obs

let snap_value snap ~node ~layer name =
  match Obs.find snap ~node ~layer name with
  | Some v -> v
  | None -> Alcotest.failf "instrument %s missing from snapshot" name

(* ------------------------------------------------------------------ *)
(* Registry basics *)

let test_instruments () =
  let t = Obs.create () in
  let c = Obs.counter t ~node:0 ~layer:Obs.Net "frames" in
  Obs.inc c;
  Obs.add c 4;
  Alcotest.(check int) "counter" 5 (Obs.value c);
  let g = Obs.gauge t ~node:0 ~layer:Obs.Carlos "time.user" in
  Obs.add_gauge g 1.5;
  Obs.add_gauge g 0.25;
  Alcotest.(check (float 1e-12)) "gauge" 1.75 (Obs.gauge_value g)

let test_registration_idempotent () =
  let t = Obs.create () in
  let c1 = Obs.counter t ~node:2 ~layer:Obs.Dsm "x" in
  let c2 = Obs.counter t ~node:2 ~layer:Obs.Dsm "x" in
  Obs.inc c1;
  Obs.inc c2;
  (* Same key, same instrument: both handles see both increments. *)
  Alcotest.(check int) "shared" 2 (Obs.value c1);
  (* Same name under a different node or layer is a distinct instrument. *)
  let other = Obs.counter t ~node:3 ~layer:Obs.Dsm "x" in
  Alcotest.(check int) "distinct node" 0 (Obs.value other)

let test_kind_mismatch () =
  let t = Obs.create () in
  let (_ : Obs.counter) = Obs.counter t ~node:0 ~layer:Obs.Vm "n" in
  match Obs.gauge t ~node:0 ~layer:Obs.Vm "n" with
  | (_ : Obs.gauge) -> Alcotest.fail "kind mismatch must raise"
  | exception Invalid_argument _ -> ()

let test_queries () =
  let t = Obs.create () in
  for node = 0 to 3 do
    let c = Obs.counter t ~node ~layer:Obs.Carlos "msgs.sent" in
    Obs.add c (node + 1)
  done;
  Alcotest.(check int) "sum over nodes" 10
    (Obs.sum_counters t ~layer:Obs.Carlos "msgs.sent");
  Alcotest.(check int) "single value" 3
    (Obs.counter_value t ~node:2 ~layer:Obs.Carlos "msgs.sent");
  Alcotest.(check int) "absent is zero" 0
    (Obs.counter_value t ~node:9 ~layer:Obs.Carlos "msgs.sent")

(* ------------------------------------------------------------------ *)
(* Histogram algebra *)

let test_hist_basics () =
  let h = Obs.Hist.create () in
  List.iter (Obs.Hist.observe h) [ 1.0; 2.0; 4.0; 8.0 ];
  let s = Obs.Hist.snap h in
  Alcotest.(check int) "count" 4 s.Obs.Hist.count;
  Alcotest.(check (float 1e-12)) "sum" 15.0 s.Obs.Hist.sum;
  Alcotest.(check (float 1e-12)) "min" 1.0 s.Obs.Hist.min;
  Alcotest.(check (float 1e-12)) "max" 8.0 s.Obs.Hist.max;
  Alcotest.(check (float 1e-12)) "mean" 3.75 (Obs.Hist.mean s)

let test_hist_percentile () =
  (* 1/2/4/8 each occupy their own power-of-two bucket at its lower edge,
     so the interpolation reaches exact values at every quartile. *)
  let h = Obs.Hist.create () in
  List.iter (Obs.Hist.observe h) [ 1.0; 2.0; 4.0; 8.0 ];
  let s = Obs.Hist.snap h in
  let check name exp p =
    Alcotest.(check (float 1e-12)) name exp (Obs.Hist.percentile s p)
  in
  check "p0 = min" 1.0 0.0;
  check "p25" 2.0 25.0;
  check "p50" 4.0 50.0;
  check "p75" 8.0 75.0;
  check "p100 = max" 8.0 100.0;
  (* Bucket bounds clamp to [min, max]: a single-valued histogram answers
     exactly at every percentile. *)
  let h5 = Obs.Hist.create () in
  for _ = 1 to 10 do
    Obs.Hist.observe h5 5.0
  done;
  let s5 = Obs.Hist.snap h5 in
  List.iter
    (fun p ->
      Alcotest.(check (float 0.0)) "all-5" 5.0 (Obs.Hist.percentile s5 p))
    [ 0.0; 10.0; 50.0; 90.0; 99.9; 100.0 ];
  Alcotest.(check (float 0.0)) "empty" 0.0
    (Obs.Hist.percentile Obs.Hist.empty 50.0)

(* Degenerate snaps have defined answers: an empty snap is 0 at every
   percentile, and a NaN percentile propagates — never an infinity
   sentinel leaking out of the bucket walk. *)
let test_hist_percentile_degenerate () =
  List.iter
    (fun p ->
      Alcotest.(check (float 0.0)) "empty -> 0" 0.0
        (Obs.Hist.percentile Obs.Hist.empty p))
    [ -5.0; 0.0; 50.0; 100.0; 250.0 ];
  Alcotest.(check bool) "nan p on empty -> nan" true
    (Float.is_nan (Obs.Hist.percentile Obs.Hist.empty Float.nan));
  let h = Obs.Hist.create () in
  Obs.Hist.observe h 3.0;
  Alcotest.(check bool) "nan p on nonempty -> nan" true
    (Float.is_nan (Obs.Hist.percentile (Obs.Hist.snap h) Float.nan))

(* ------------------------------------------------------------------ *)
(* Series: append-only samples *)

let series_samples snap ~node name =
  match snap_value snap ~node ~layer:Obs.Dsm name with
  | Obs.Series_v a -> Array.to_list a
  | _ -> Alcotest.fail "expected a series"

let test_series () =
  let t = Obs.create () in
  let s = Obs.series t ~node:1 ~layer:Obs.Dsm "metadata_pressure" in
  Alcotest.(check (list (pair (float 0.0) (float 0.0)))) "empty" []
    (series_samples (Obs.snapshot t) ~node:1 "metadata_pressure");
  Obs.series_observe s ~ts:0.5 3.0;
  Obs.series_observe s ~ts:0.0 1.0;
  Obs.series_observe s ~ts:1.0 2.0;
  Alcotest.(check (list (pair (float 0.0) (float 0.0)))) "insertion order"
    [ (0.5, 3.0); (0.0, 1.0); (1.0, 2.0) ]
    (series_samples (Obs.snapshot t) ~node:1 "metadata_pressure")

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_series_jsonl () =
  let t = Obs.create () in
  let s = Obs.series t ~node:0 ~layer:Obs.Dsm "metadata_pressure" in
  Obs.series_observe s ~ts:0.25 4.0;
  Obs.series_observe s ~ts:1.0 7.0;
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  Obs.pp_metrics_jsonl ppf (Obs.snapshot t);
  Format.pp_print_flush ppf ();
  Alcotest.(check bool) "samples array present" true
    (contains ~sub:{|"type":"series","count":2,"samples":[[0.25,4],[1,7]]|}
       (Buffer.contents buf))

(* Generator of histogram snapshots with small integer-valued observations:
   the merge's float sums are then exact, so associativity is exact too. *)
let hist_gen =
  let open QCheck.Gen in
  list_size (int_range 0 20) (int_range 0 1000) >>= fun xs ->
  let h = Obs.Hist.create () in
  List.iter (fun x -> Obs.Hist.observe h (float_of_int x)) xs;
  return (Obs.Hist.snap h)

(* Percentiles are monotone in p and bracketed by [min, max]. *)
let prop_hist_percentile_monotone =
  QCheck.Test.make ~count:200 ~name:"percentile monotone and bracketed"
    (QCheck.make
       QCheck.Gen.(
         pair hist_gen (list_size (int_range 2 6) (float_range 0.0 100.0))))
    (fun (s, ps) ->
      s.Obs.Hist.count = 0
      ||
      let vs = List.map (Obs.Hist.percentile s) (List.sort compare ps) in
      List.for_all (fun v -> v >= s.Obs.Hist.min && v <= s.Obs.Hist.max) vs
      && fst
           (List.fold_left
              (fun (ok, prev) v -> (ok && v >= prev, v))
              (true, neg_infinity) vs))

let hist_eq a b =
  a.Obs.Hist.count = b.Obs.Hist.count
  && a.Obs.Hist.sum = b.Obs.Hist.sum
  && a.Obs.Hist.min = b.Obs.Hist.min
  && a.Obs.Hist.max = b.Obs.Hist.max
  && a.Obs.Hist.buckets = b.Obs.Hist.buckets

let prop_hist_merge_commutative =
  QCheck.Test.make ~name:"histogram merge is commutative" ~count:100
    (QCheck.make QCheck.Gen.(pair hist_gen hist_gen))
    (fun (a, b) -> hist_eq (Obs.Hist.merge a b) (Obs.Hist.merge b a))

let prop_hist_merge_associative =
  QCheck.Test.make ~name:"histogram merge is associative" ~count:100
    (QCheck.make QCheck.Gen.(triple hist_gen hist_gen hist_gen))
    (fun (a, b, c) ->
      hist_eq
        (Obs.Hist.merge (Obs.Hist.merge a b) c)
        (Obs.Hist.merge a (Obs.Hist.merge b c)))

let prop_hist_merge_identity =
  QCheck.Test.make ~name:"empty histogram is the merge identity" ~count:100
    (QCheck.make hist_gen)
    (fun a ->
      hist_eq (Obs.Hist.merge a Obs.Hist.empty) a
      && hist_eq (Obs.Hist.merge Obs.Hist.empty a) a)

(* ------------------------------------------------------------------ *)
(* Tracing *)

let test_tracing_off_by_default () =
  let t = Obs.create () in
  Obs.event t ~node:0 ~layer:Obs.Net "dropped";
  Alcotest.(check int) "nothing recorded" 0 (List.length (Obs.events t))

let[@inline never] clock_step () = raise Exit

let[@inline never] failing_body () = raise (Failure "span body")

(* A body's exception leaves a traced span with its own backtrace, even
   when closing the span raises and catches an exception of its own (a
   clock that does so). *)
let test_span_keeps_backtrace () =
  let recording = Printexc.backtrace_status () in
  Printexc.record_backtrace true;
  Fun.protect ~finally:(fun () -> Printexc.record_backtrace recording)
  @@ fun () ->
  let clock () = try clock_step () with Exit -> 1.0 in
  let t = Obs.create ~clock () in
  Obs.set_tracing t true;
  match Obs.span t ~node:0 ~layer:Obs.Carlos "s" failing_body with
  | () -> Alcotest.fail "span swallowed the exception"
  | exception Failure _ -> (
    let bt = Printexc.get_raw_backtrace () in
    match Printexc.backtrace_slots bt with
    | Some slots ->
      let in_body slot =
        match Printexc.Slot.name slot with
        | Some name -> String.ends_with ~suffix:"failing_body" name
        | None -> false
      in
      if not (Array.exists in_body slots) then
        Alcotest.fail "the backtrace lost the body's frames"
    | None -> Alcotest.fail "no backtrace recorded")

let test_events_and_spans () =
  let now = ref 0.0 in
  let t = Obs.create ~clock:(fun () -> !now) () in
  Obs.set_tracing t true;
  now := 1.5;
  Obs.event t ~node:2 ~layer:Obs.Carlos "send"
    ~args:[ ("dst", Obs.Int 3) ];
  let result =
    Obs.span t ~node:2 ~layer:Obs.Dsm "lrc.accept" (fun () ->
        now := 2.5;
        42)
  in
  Alcotest.(check int) "span passes result through" 42 result;
  match Obs.events t with
  | [ e1; e2 ] ->
    Alcotest.(check (float 0.0)) "instant ts" 1.5 e1.Obs.ts;
    Alcotest.(check string) "instant name" "send" e1.Obs.name;
    (match e1.Obs.phase with
    | Obs.Instant -> ()
    | _ -> Alcotest.fail "expected instant");
    Alcotest.(check (float 0.0)) "span start" 1.5 e2.Obs.ts;
    (match e2.Obs.phase with
    | Obs.Complete d -> Alcotest.(check (float 1e-12)) "span duration" 1.0 d
    | _ -> Alcotest.fail "expected complete")
  | evs -> Alcotest.failf "expected 2 events, got %d" (List.length evs)

let test_flow_events () =
  let now = ref 0.0 in
  let t = Obs.create ~clock:(fun () -> !now) () in
  let id = Obs.next_flow_id t in
  Alcotest.(check int) "flow ids from 1" 1 id;
  Alcotest.(check int) "flow ids monotone" 2 (Obs.next_flow_id t);
  (* Allocation works with tracing off, recording is a no-op. *)
  Obs.flow_start t ~id ~node:0 ~layer:Obs.Carlos "RELEASE";
  Alcotest.(check int) "off: nothing recorded" 0 (List.length (Obs.events t));
  Obs.set_tracing t true;
  now := 1.0;
  Obs.flow_start t ~id ~node:0 ~layer:Obs.Carlos "RELEASE";
  now := 2.0;
  Obs.flow_step t ~id ~node:1 ~layer:Obs.Carlos "RELEASE";
  now := 3.0;
  Obs.flow_finish t ~id ~node:2 ~layer:Obs.Carlos "RELEASE";
  match Obs.events t with
  | [ s; st; f ] ->
    (match (s.Obs.phase, st.Obs.phase, f.Obs.phase) with
    | Obs.Flow_start a, Obs.Flow_step b, Obs.Flow_finish c ->
      Alcotest.(check (list int)) "same id" [ id; id; id ] [ a; b; c ]
    | _ -> Alcotest.fail "expected start/step/finish");
    Alcotest.(check string) "shared name" "RELEASE" f.Obs.name
  | evs -> Alcotest.failf "expected 3 events, got %d" (List.length evs)

(* ------------------------------------------------------------------ *)
(* Exporters *)

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

let render pp x =
  let buf = Buffer.create 1024 in
  let ppf = Format.formatter_of_buffer buf in
  pp ppf x;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

let populated () =
  let t = Obs.create ~clock:(fun () -> 0.125) () in
  Obs.set_tracing t true;
  Obs.add (Obs.counter t ~node:1 ~layer:Obs.Net "frames") 3;
  Obs.add_gauge (Obs.gauge t ~node:0 ~layer:Obs.Carlos "time.user") 0.5;
  Obs.Hist.observe (Obs.histogram t ~node:0 ~layer:Obs.Vm "diff.bytes") 64.0;
  Obs.event t ~node:1 ~layer:Obs.Carlos "send" ~args:[ ("x", Obs.Str "\"q\"") ];
  let id = Obs.next_flow_id t in
  Obs.complete_at t ~ts:0.125 ~duration:0.001 ~node:1 ~layer:Obs.Carlos "send";
  Obs.flow_start t ~id ~node:1 ~layer:Obs.Carlos "RELEASE"
    ~args:[ ("dst", Obs.Int 2) ];
  Obs.flow_step t ~id ~node:2 ~layer:Obs.Carlos "RELEASE";
  Obs.flow_finish t ~id ~node:3 ~layer:Obs.Carlos "RELEASE";
  t

let test_chrome_trace_shape () =
  let t = populated () in
  let out = render Obs.pp_chrome_trace t in
  Alcotest.(check bool) "object with traceEvents" true
    (String.length out > 2
    && String.sub out 0 1 = "{"
    && contains ~affix:"\"traceEvents\":[" out);
  Alcotest.(check bool) "pid/tid present" true
    (contains ~affix:"\"pid\":1" out);
  Alcotest.(check bool) "microsecond timestamps" true
    (contains ~affix:"\"ts\":125000" out);
  Alcotest.(check bool) "quotes escaped" true
    (contains ~affix:{|\"q\"|} out);
  Alcotest.(check bool) "flow start" true
    (contains ~affix:{|"ph":"s","id":1|} out);
  Alcotest.(check bool) "flow step" true
    (contains ~affix:{|"ph":"t","id":1|} out);
  Alcotest.(check bool) "flow finish binds to enclosing slice" true
    (contains ~affix:{|"ph":"f","bp":"e","id":1|} out)

let test_export_determinism () =
  (* Two identically-driven registries (flow events included) must dump
     byte-identical Chrome and metrics exports. *)
  let a = populated () and b = populated () in
  Alcotest.(check string) "chrome trace deterministic"
    (render Obs.pp_chrome_trace a)
    (render Obs.pp_chrome_trace b);
  Alcotest.(check string) "metrics deterministic"
    (render Obs.pp_metrics (Obs.snapshot a))
    (render Obs.pp_metrics (Obs.snapshot b))

let test_metrics_jsonl_shape () =
  let t = populated () in
  let snap = Obs.snapshot t in
  let out = render Obs.pp_metrics_jsonl snap in
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' out)
  in
  Alcotest.(check int) "one line per instrument"
    (List.length (Obs.bindings snap))
    (List.length lines);
  List.iter
    (fun l ->
      Alcotest.(check bool) "line is an object" true
        (String.length l > 1
        && l.[0] = '{'
        && l.[String.length l - 1] = '}'))
    lines

let qcheck = Props.qcheck

(* [observe] allocates nothing in the release profile: its sum, min and
   max are stored unboxed, the bucket comes from the exponent bits, and
   the float argument is not boxed to be passed.  Without cross-module
   inlining (the dev profile) the argument is boxed, 2 words a call. *)
let test_hist_observe_allocation () =
  let h = Obs.Hist.create () in
  let x = ref 0.001 in
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    Obs.Hist.observe h !x;
    x := !x *. 1.01
  done;
  let words = Gc.minor_words () -. before in
  let bound = if Build_profile.name = "release" then 0.0 else 2000.0 in
  if words > bound then
    Alcotest.failf "1,000 observations allocate %.0f words" words

(* The bucket from the exponent bits is [Float.frexp]'s. *)
let frexp_bucket v =
  if v <= 0.0 then 0
  else
    let _, e = Float.frexp v in
    Int.max 0 (Int.min 63 (e + 40))

let prop_hist_bucket_matches_frexp =
  let edge =
    [ 0.0; -0.0; -1.0; Float.min_float; Float.min_float /. 2.0;
      4.9e-324; Float.max_float; Float.infinity; Float.neg_infinity;
      Float.nan; 1.0; 0.5; 1e-12; 1e7; 2.0 ** -41.0; 2.0 ** 23.0 ]
  in
  QCheck.Test.make ~name:"histogram bucket matches frexp" ~count:1000
    QCheck.(
      oneof
        [ float; oneofl edge; map (fun b -> Int64.float_of_bits b) int64 ])
    (fun v -> Obs.Hist.bucket_of v = frexp_bucket v)

let () =
  Props.run "obs"
    [
      ( "registry",
        [
          Alcotest.test_case "instrument kinds" `Quick test_instruments;
          Alcotest.test_case "registration idempotent" `Quick
            test_registration_idempotent;
          Alcotest.test_case "kind mismatch rejected" `Quick
            test_kind_mismatch;
          Alcotest.test_case "queries" `Quick test_queries;
        ] );
      ( "histograms",
        Alcotest.test_case "basics" `Quick test_hist_basics
        :: Alcotest.test_case "percentile" `Quick test_hist_percentile
        :: Alcotest.test_case "percentile degenerate" `Quick
             test_hist_percentile_degenerate
        :: Alcotest.test_case "observe allocates nothing" `Quick
             test_hist_observe_allocation
        :: qcheck
             [
               prop_hist_bucket_matches_frexp;
               prop_hist_merge_commutative;
               prop_hist_merge_associative;
               prop_hist_merge_identity;
               prop_hist_percentile_monotone;
             ] );
      ( "series",
        [
          Alcotest.test_case "observe keeps insertion order" `Quick
            test_series;
          Alcotest.test_case "jsonl shape" `Quick test_series_jsonl;
        ] );
      ( "tracing",
        [
          Alcotest.test_case "off by default" `Quick
            test_tracing_off_by_default;
          Alcotest.test_case "events and spans" `Quick test_events_and_spans;
          Alcotest.test_case "flow events" `Quick test_flow_events;
          Alcotest.test_case "span keeps the body's backtrace" `Quick
            test_span_keeps_backtrace;
        ] );
      ( "exporters",
        [
          Alcotest.test_case "chrome trace shape" `Quick
            test_chrome_trace_shape;
          Alcotest.test_case "metrics jsonl shape" `Quick
            test_metrics_jsonl_shape;
          Alcotest.test_case "export determinism" `Quick
            test_export_determinism;
        ] );
    ]
