(* Tests for lib/audit: the online consistency auditor (clean runs stay
   clean; injected protocol corruptions are reported with the offending
   trace id) and the causal-trace machinery it rides on (flow chains
   through the forwarding work-queue manager, offline causal analysis). *)

module Vc = Carlos_dsm.Vc
module Lrc = Carlos_dsm.Lrc_backend
module Seq = Carlos_dsm.Seq_backend
module Shm = Carlos_vm.Shm
module Annotation = Carlos.Annotation
module Node = Carlos.Node
module System = Carlos.System
module Msg_lock = Carlos.Msg_lock
module Msg_barrier = Carlos.Msg_barrier
module Work_queue = Carlos.Work_queue
module Obs = Carlos_obs.Obs
module Audit = Carlos_audit.Audit
module Causal = Carlos_audit.Causal

let test_config ?(nodes = 4) () =
  {
    (System.default_config ~nodes) with
    System.page_size = 512;
    coherent_pages = 32;
  }

let make ?nodes () = System.create ~audit:true (test_config ?nodes ())

let auditor sys =
  match System.auditor sys with
  | Some a -> a
  | None -> Alcotest.fail "system created with ~audit:true has no auditor"

let check_clean sys =
  let a = auditor sys in
  if Audit.violation_count a <> 0 then
    Alcotest.failf "expected clean audit, got:@.%a" (fun ppf () ->
        Audit.pp_report ppf a)
      ()

(* A run mixing every synchronization flavour with real shared-memory
   traffic: lock-protected counter increments (REQUEST + RELEASE chains,
   write notices, diffs), a barrier episode (RELEASE_NT union at the
   manager), and per-node slot writes read back after the barrier. *)
let busy_app sys =
  let counter = System.alloc sys 8 in
  let slots = Array.init 4 (fun _ -> System.alloc sys ~align:512 512) in
  let lock = Msg_lock.create sys ~manager:0 ~name:"l" in
  let barrier = Msg_barrier.create sys ~manager:0 ~name:"b" () in
  let total = ref 0 in
  let report =
    System.run sys (fun node ->
        let me = Node.id node in
        for _ = 1 to 3 do
          Msg_lock.with_lock lock node (fun () ->
              let v = Shm.read_i64 (Node.shm node) counter in
              Node.compute node 1e-4;
              Shm.write_i64 (Node.shm node) counter (v + 1))
        done;
        Shm.write_i64 (Node.shm node) slots.(me) (100 + me);
        Msg_barrier.wait barrier node;
        if me = 3 then begin
          Msg_lock.acquire lock node;
          total := Array.fold_left (fun acc a ->
              acc + Shm.read_i64 (Node.shm node) a) 0 slots;
          Msg_lock.release lock node
        end)
  in
  (report, !total)

let test_clean_busy_run () =
  let sys = make () in
  let _report, total = busy_app sys in
  Alcotest.(check int) "slot sum read after barrier" (100 + 101 + 102 + 103)
    total;
  check_clean sys

let test_clean_under_tracing () =
  (* Tracing on: the flow/span instrumentation must not perturb the
     protocol or the auditor. *)
  let sys = make () in
  System.set_tracing sys true;
  let _ = busy_app sys in
  check_clean sys;
  Alcotest.(check bool) "events recorded" true
    (List.length (Obs.events (System.obs sys)) > 0)

let test_wq_forward_flow () =
  (* Forwarding work queue with tracing: items are relayed by the manager
     (never accepted there), and each relayed message leaves a complete
     causal flow chain: Flow_start at the producer, Flow_steps at the
     manager (deliver + forward) and the consumer (deliver), Flow_finish
     at the consumer's accept. *)
  let sys = make ~nodes:3 () in
  System.set_tracing sys true;
  let wq = Work_queue.create sys ~manager:0 ~name:"wq" () in
  let got = ref [] in
  let (_ : System.report) =
    System.run sys (fun node ->
        match Node.id node with
        | 1 ->
          for i = 1 to 4 do
            Work_queue.enqueue wq node ~bytes:16 i
          done;
          Work_queue.close wq node
        | 2 ->
          let rec drain () =
            match Work_queue.dequeue wq node with
            | Some v ->
              got := v :: !got;
              drain ()
            | None -> ()
          in
          drain ()
        | _ -> ())
  in
  Alcotest.(check (list int)) "all items relayed in order" [ 1; 2; 3; 4 ]
    (List.rev !got);
  check_clean sys;
  (* Reconstruct flow chains from the typed events. *)
  let chains = Hashtbl.create 32 in
  List.iter
    (fun (e : Obs.event) ->
      let add id tag =
        Hashtbl.replace chains id
          (tag :: Option.value ~default:[] (Hashtbl.find_opt chains id))
      in
      match e.Obs.phase with
      | Obs.Flow_start id -> add id `S
      | Obs.Flow_step id -> add id `T
      | Obs.Flow_finish id -> add id `F
      | _ -> ())
    (Obs.events (System.obs sys));
  let forwarded =
    Hashtbl.fold
      (fun _ chain acc ->
        match List.rev chain with
        | `S :: rest
          when List.length (List.filter (( = ) `T) rest) >= 3
               && List.exists (( = ) `F) rest ->
          acc + 1
        | _ -> acc)
      chains 0
  in
  Alcotest.(check bool)
    (Printf.sprintf "forwarded flow chains present (got %d)" forwarded)
    true (forwarded >= 4)

let test_causal_analysis () =
  let sys = make () in
  System.set_tracing sys true;
  let _ = busy_app sys in
  match Causal.analyse (System.obs sys) with
  | None -> Alcotest.fail "no critical path extracted"
  | Some p ->
    Alcotest.(check bool) "critical path has hops" true
      (List.length p.Causal.cp_hops > 0);
    Alcotest.(check bool) "wire time positive" true (p.Causal.cp_wire > 0.0)

(* ------------------------------------------------------------------ *)
(* Negative tests: each injected corruption must be caught, with the
   offending message's trace id attached. *)

let find_violation sys check =
  List.find_opt
    (fun (v : Audit.violation) -> v.Audit.check = check)
    (Audit.violations (auditor sys))

let test_catches_skipped_write_notice () =
  let sys = make ~nodes:2 () in
  let x = System.alloc sys 8 in
  let (_ : System.report) =
    System.run sys (fun node ->
        if Node.id node = 0 then begin
          Shm.write_i64 (Node.shm node) x 41;
          (* Drop the processing of one write notice during node 1's next
             accept: its page keeps serving stale bytes. *)
          Lrc.inject_fault (Node.lrc (System.node sys 1))
            (Some Lrc.Skip_write_notice);
          Node.send node ~dst:1 ~annotation:Annotation.Release
            ~payload_bytes:8
            ~handler:(fun _ d -> Node.accept d)
        end)
  in
  match find_violation sys "write-notice-lost" with
  | None ->
    Alcotest.failf "skipped write notice not reported:@.%a"
      (fun ppf () -> Audit.pp_report ppf (auditor sys))
      ()
  | Some v ->
    Alcotest.(check bool) "violation carries a trace id" true
      (v.Audit.trace_id <> None);
    Alcotest.(check int) "detected at the accepting node" 1 v.Audit.node

let test_catches_corrupt_vc_merge () =
  let sys = make ~nodes:2 () in
  let x = System.alloc sys 8 in
  let (_ : System.report) =
    System.run sys (fun node ->
        if Node.id node = 0 then begin
          Shm.write_i64 (Node.shm node) x 41;
          (* Decrement one merged component after node 1's next join: the
             clock no longer reaches the RELEASE's required timestamp. *)
          Lrc.inject_fault (Node.lrc (System.node sys 1))
            (Some Lrc.Corrupt_vc_merge);
          Node.send node ~dst:1 ~annotation:Annotation.Release
            ~payload_bytes:8
            ~handler:(fun _ d -> Node.accept d)
        end)
  in
  let v =
    match
      ( find_violation sys "acquire-dominance",
        find_violation sys "vc-monotonic" )
    with
    | Some v, _ | None, Some v -> v
    | None, None ->
      Alcotest.failf "corrupted VC merge not reported:@.%a"
        (fun ppf () -> Audit.pp_report ppf (auditor sys))
        ()
  in
  Alcotest.(check bool) "violation carries a trace id" true
    (v.Audit.trace_id <> None)

(* The GC discards each creator's intervals up to the snapshot's entry
   for it, which is exact only while the coordinator's clock is causally
   closed.  Node 2 writes after it has seen node 1's write, so interval
   2.1's clock covers 1.1.  The barrier's manager, node 0, is the GC's
   coordinator; armed after the barrier, it decrements node 1's entry
   once it has accepted the GC's contributions, so the snapshot reaches
   2.1 but not its clock.  A logged interval weighs 32 bytes of
   pressure, so the threshold is first exceeded once the barrier has
   logged both intervals everywhere: exactly one GC runs, after the
   arming. *)
let test_catches_gc_discard_above_snapshot () =
  let sys =
    System.create ~audit:true
      { (test_config ~nodes:3 ()) with System.gc_threshold = Some 63 }
  in
  let x = System.alloc sys ~align:512 8 and y = System.alloc sys ~align:512 8 in
  let lock = Msg_lock.create sys ~manager:1 ~name:"l" in
  let barrier = Msg_barrier.create sys ~manager:0 ~name:"b" () in
  let report =
    System.run sys (fun node ->
        let shm = Node.shm node in
        (match Node.id node with
        | 1 -> Msg_lock.with_lock lock node (fun () -> Shm.write_i64 shm x 1)
        | 2 ->
          Node.compute node 1e-3;
          Msg_lock.with_lock lock node (fun () ->
              Shm.write_i64 shm y (Shm.read_i64 shm x + 1))
        | _ -> ());
        Msg_barrier.wait barrier node;
        if Node.id node = 0 then
          Lrc.inject_fault (Node.lrc node) (Some Lrc.Corrupt_vc_merge))
  in
  Alcotest.(check int) "one gc" 1 report.System.gc_runs;
  match find_violation sys "gc-discard-dominated" with
  | None ->
    Alcotest.failf "discard above the snapshot not reported:@.%a"
      (fun ppf () -> Audit.pp_report ppf (auditor sys))
      ()
  | Some v ->
    Alcotest.(check bool) "reports interval 2.1" true
      (String.starts_with ~prefix:"GC discarded interval 2.1 " v.Audit.detail)

let test_catches_manager_accept () =
  let sys = make ~nodes:3 () in
  let wq = Work_queue.create sys ~manager:0 ~name:"wq" () in
  Work_queue.chaos_accept_once wq;
  let (_ : System.report) =
    System.run sys (fun node ->
        match Node.id node with
        | 1 ->
          Work_queue.enqueue wq node ~bytes:16 7;
          Work_queue.close wq node
        | 2 -> (
          match Work_queue.dequeue wq node with
          | Some 7 -> ()
          | _ -> Alcotest.fail "item lost")
        | _ -> ())
  in
  match find_violation sys "relay-consistent" with
  | None ->
    Alcotest.failf "manager accept not reported:@.%a"
      (fun ppf () -> Audit.pp_report ppf (auditor sys))
      ()
  | Some v ->
    Alcotest.(check bool) "violation carries a trace id" true
      (v.Audit.trace_id <> None);
    Alcotest.(check int) "detected at the manager" 0 v.Audit.node

(* The sequencer backend's release rule, driven through its hooks: node
   1 releases while its handed diff is unstamped, then once it is stamped
   but with a horizon below that stamp, and finally with a horizon that
   covers it.  Only the last release is clean. *)
let test_catches_early_seq_release () =
  let a = Audit.create ~nodes:2 () in
  let h = Audit.seq_hooks a in
  h.Seq.on_handed ~node:1 ~diffs:1;
  h.Seq.on_release ~node:1 ~upto:0;
  h.Seq.on_stamped ~seq:1 ~origin:1;
  h.Seq.on_release ~node:1 ~upto:0;
  h.Seq.on_release ~node:1 ~upto:1;
  Alcotest.(check (list string))
    "both early releases reported"
    [ "seq-release-horizon"; "seq-release-horizon" ]
    (List.map (fun v -> v.Audit.check) (Audit.violations a))

(* The forward-tailoring rule, driven through the hooks.  Node 1's
   RELEASE to the manager, node 0, requires intervals 1.1, 2.1 and 2.2,
   and node 0 knows from a REQUEST that node 3 holds 2.1, so the exact
   copy to node 3 carries 1.1 and 2.2.  Of three copies of a RELEASE
   that carried all three intervals, the one that also drops 2.2 is
   over-trimmed and the one that keeps 2.1 is under-trimmed.  The fourth
   RELEASE is sent once node 1 knows node 0 holds 2.2, so it carries
   only 1.1; forwarding that copy as it is still omits 2.2 for node 3. *)
let test_catches_mistrimmed_forward () =
  let nodes = 4 in
  let a = Audit.create ~nodes () in
  let clock entries =
    let vc = Vc.zero ~nodes in
    List.iter (fun (c, i) -> Vc.set vc c i) entries;
    vc
  in
  let node1 = clock [ (1, 1); (2, 2) ] in
  let note ~node ~peer entries =
    (Audit.lrc_hooks a).Lrc.on_peer_note ~node ~peer ~vc:(clock entries)
  in
  note ~node:0 ~peer:3 [ (2, 1) ];
  let forward ~trace_id ~carried intervals =
    Audit.on_send a ~trace_id ~src:1 ~dst:0 ~annotation:Audit.Release
      ~vc:node1 ~required_vc:(Some node1) ~nontransitive:false
      ~intervals:carried ~sender_vc:None;
    Audit.on_forward a ~trace_id ~node:0 ~dst:3 ~vc:(Vc.zero ~nodes)
      ~origin:1 ~required_vc:(Some node1) ~nontransitive:false ~intervals
  in
  let carried = [ (1, 1); (2, 1); (2, 2) ] in
  forward ~trace_id:1 ~carried [ (1, 1) ];
  forward ~trace_id:2 ~carried carried;
  forward ~trace_id:3 ~carried [ (1, 1); (2, 2) ];
  note ~node:1 ~peer:0 [ (2, 2) ];
  forward ~trace_id:4 ~carried:[ (1, 1) ] [ (1, 1) ];
  Alcotest.(check (list (pair string (option int))))
    "over- and under-trimmed copies reported"
    [
      ("forward-tailoring", Some 1);
      ("forward-tailoring", Some 2);
      ("forward-tailoring", Some 4);
    ]
    (List.map (fun v -> (v.Audit.check, v.Audit.trace_id)) (Audit.violations a))

(* A RELEASE a node addresses to itself must carry no intervals: the
   node holds everything up to its own clock, and a copy it relays later
   is built from its log.  Of two self-addressed RELEASEs, the one that
   carries an interval is reported. *)
let test_catches_self_release_intervals () =
  let nodes = 2 in
  let a = Audit.create ~nodes () in
  let vc = Vc.zero ~nodes in
  Vc.set vc 0 1;
  let send ~trace_id intervals =
    Audit.on_send a ~trace_id ~src:0 ~dst:0 ~annotation:Audit.Release ~vc
      ~required_vc:(Some vc) ~nontransitive:false ~intervals ~sender_vc:None
  in
  send ~trace_id:1 [];
  send ~trace_id:2 [ (0, 1) ];
  Alcotest.(check (list (pair string (option int))))
    "the carried interval reported"
    [ ("request-tailoring", Some 2) ]
    (List.map (fun v -> (v.Audit.check, v.Audit.trace_id)) (Audit.violations a))

let () =
  Props.run "audit"
    [
      ( "clean",
        [
          Alcotest.test_case "busy run, no violations" `Quick
            test_clean_busy_run;
          Alcotest.test_case "tracing does not perturb" `Quick
            test_clean_under_tracing;
          Alcotest.test_case "work-queue forward flow chains" `Quick
            test_wq_forward_flow;
          Alcotest.test_case "causal analysis" `Quick test_causal_analysis;
        ] );
      ( "negative",
        [
          Alcotest.test_case "skipped write notice" `Quick
            test_catches_skipped_write_notice;
          Alcotest.test_case "corrupt vc merge" `Quick
            test_catches_corrupt_vc_merge;
          Alcotest.test_case "gc discards above its snapshot" `Quick
            test_catches_gc_discard_above_snapshot;
          Alcotest.test_case "manager becomes consistent" `Quick
            test_catches_manager_accept;
          Alcotest.test_case "seq release before its stamp" `Quick
            test_catches_early_seq_release;
          Alcotest.test_case "mistrimmed forward" `Quick
            test_catches_mistrimmed_forward;
          Alcotest.test_case "self-addressed release with intervals" `Quick
            test_catches_self_release_intervals;
        ] );
    ]
