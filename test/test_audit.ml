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
  let c = Causal.analyse (System.obs sys) in
  (match c.Causal.path with
  | None -> Alcotest.fail "no critical path extracted"
  | Some p ->
    Alcotest.(check bool) "critical path has hops" true
      (List.length p.Causal.cp_hops > 0);
    Alcotest.(check bool) "wire time positive" true (p.Causal.cp_wire > 0.0));
  (match c.Causal.locks with
  | [ l ] ->
    Alcotest.(check string) "lock name" "l" l.Causal.lk_name;
    Alcotest.(check bool) "acquisitions counted" true
      (l.Causal.lk_acquisitions >= 12);
    Alcotest.(check bool) "handoff edges recorded" true
      (l.Causal.lk_handoffs <> [])
  | ls -> Alcotest.failf "expected one lock report, got %d" (List.length ls));
  match c.Causal.barriers with
  | [ b ] ->
    Alcotest.(check string) "barrier name" "b" b.Causal.br_name;
    Alcotest.(check int) "one episode" 1 b.Causal.br_episodes
  | bs ->
    Alcotest.failf "expected one barrier report, got %d" (List.length bs)

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
          Alcotest.test_case "manager becomes consistent" `Quick
            test_catches_manager_accept;
          Alcotest.test_case "seq release before its stamp" `Quick
            test_catches_early_seq_release;
        ] );
    ]
