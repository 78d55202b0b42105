(* Integration tests for the CarlOS layer: annotated messages over the
   simulated cluster, message-based locks/barriers/semaphores, the
   centralized work queue with forwarding, the Figure-1 causality scenario,
   and the global metadata GC. *)

module Engine = Carlos_sim.Engine
module Vc = Carlos_dsm.Vc
module Lrc = Carlos_dsm.Lrc_backend
module Backend = Carlos_dsm.Backend
module Shm = Carlos_vm.Shm
module Annotation = Carlos.Annotation
module Node = Carlos.Node
module System = Carlos.System
module Msg_lock = Carlos.Msg_lock
module Msg_barrier = Carlos.Msg_barrier
module Msg_semaphore = Carlos.Msg_semaphore
module Work_queue = Carlos.Work_queue
module Obs = Carlos_obs.Obs

let test_config ?(nodes = 4) () =
  {
    (System.default_config ~nodes) with
    System.page_size = 512;
    coherent_pages = 32;
  }

let make ?nodes () = System.create (test_config ?nodes ())

(* ------------------------------------------------------------------ *)
(* Plain messaging *)

let test_message_roundtrip () =
  let sys = make ~nodes:2 () in
  let got = ref None in
  let report =
    System.run sys (fun node ->
        if Node.id node = 0 then
          Node.send node ~dst:1 ~annotation:Annotation.None_ ~payload_bytes:32
            ~handler:(fun here d ->
              Node.accept d;
              got := Some (Node.id here, Node.delivery_src d)))
  in
  Alcotest.(check (option (pair int int))) "handler ran at receiver"
    (Some (1, 0)) !got;
  Alcotest.(check bool) "one message counted" true (report.System.messages >= 1);
  Alcotest.(check bool) "time advanced" true (report.System.wall > 0.0)

let test_handler_must_dispose () =
  let sys = make ~nodes:2 () in
  match
    System.run sys (fun node ->
        if Node.id node = 0 then
          Node.send node ~dst:1 ~annotation:Annotation.None_ ~payload_bytes:8
            ~handler:(fun _ _ -> ()))
  with
  | exception Node.Handler_error _ -> ()
  | _ -> Alcotest.fail "handler without disposition must be detected"

let test_release_propagates_memory () =
  let sys = make ~nodes:2 () in
  let x = System.alloc sys 8 in
  let seen = ref 0 in
  let (_ : System.report) =
    System.run sys (fun node ->
        match Node.id node with
        | 0 ->
          Shm.write_i64 (Node.shm node) x 99;
          Node.send node ~dst:1 ~annotation:Annotation.Release ~payload_bytes:8
            ~handler:(fun here d ->
              Node.accept d;
              (* Handlers must not touch coherent memory; hand off to a
                 fresh fiber for the read. *)
              Engine.fork (fun () -> seen := Shm.read_i64 (Node.shm here) x))
        | _ -> ())
  in
  Alcotest.(check int) "released value visible" 99 !seen

let test_none_does_not_propagate_memory () =
  let sys = make ~nodes:2 () in
  let x = System.alloc sys 8 in
  let receiver_vc_component = ref (-1) in
  let (_ : System.report) =
    System.run sys (fun node ->
        match Node.id node with
        | 0 ->
          Shm.write_i64 (Node.shm node) x 99;
          Node.send node ~dst:1 ~annotation:Annotation.None_ ~payload_bytes:8
            ~handler:(fun here d ->
              Node.accept d;
              receiver_vc_component := Vc.get (Lrc.vc (Node.lrc here)) 0)
        | _ -> ())
  in
  (* The NONE message does not interact with consistency: node 1 has seen
     no interval from node 0. *)
  Alcotest.(check int) "no consistency induced" 0 !receiver_vc_component

(* ------------------------------------------------------------------ *)
(* Figure 1: the lock protocol must not induce the symmetric ordering. *)

let test_figure1_asymmetry () =
  let sys = make ~nodes:3 () in
  let x = System.alloc sys 8 in
  (* y lands on a different page than x *)
  let y = System.alloc sys ~align:512 512 in
  let lock = Msg_lock.create sys ~manager:1 ~name:"fig1" in
  let p2_read_x = ref 0 in
  let p1_vc_of_p2 = ref (-1) in
  let barrier = Msg_barrier.create sys ~manager:0 ~name:"end" () in
  let (_ : System.report) =
    System.run sys (fun node ->
        (match Node.id node with
        | 1 ->
          (* P1 writes x while holding the lock. *)
          Msg_lock.acquire lock node;
          Shm.write_i64 (Node.shm node) x 7;
          Node.compute node 0.01;
          Msg_lock.release lock node
        | 2 ->
          (* P2 writes y (its own page) before requesting the lock; the
             "get lock" REQUEST must not make P1 consistent with P2. *)
          Shm.write_i64 (Node.shm node) y 1;
          Node.compute node 0.02;
          Msg_lock.acquire lock node;
          p2_read_x := Shm.read_i64 (Node.shm node) x;
          Msg_lock.release lock node
        | _ -> ());
        (* Observe P1's knowledge of P2 before the closing barrier makes
           everyone consistent. *)
        if Node.id node = 1 then
          p1_vc_of_p2 := Vc.get (Lrc.vc (Node.lrc node)) 2;
        Msg_barrier.wait barrier node)
  in
  Alcotest.(check int) "x visible at P2 after lock transfer" 7 !p2_read_x;
  Alcotest.(check int)
    "P1 never became consistent with P2 (no symmetric ordering)" 0
    !p1_vc_of_p2

(* ------------------------------------------------------------------ *)
(* Lock *)

let test_lock_mutual_exclusion () =
  let sys = make () in
  let lock = Msg_lock.create sys ~manager:0 ~name:"mutex" in
  let counter = System.alloc sys 8 in
  let in_cs = ref 0 and max_in_cs = ref 0 in
  let iterations = 5 in
  let (_ : System.report) =
    System.run sys (fun node ->
        for _ = 1 to iterations do
          Msg_lock.acquire lock node;
          incr in_cs;
          if !in_cs > !max_in_cs then max_in_cs := !in_cs;
          let v = Shm.read_i64 (Node.shm node) counter in
          Node.compute node 0.002;
          Shm.write_i64 (Node.shm node) counter (v + 1);
          decr in_cs;
          Msg_lock.release lock node
        done)
  in
  Alcotest.(check int) "never two holders" 1 !max_in_cs;
  (* Verify the final count through a fresh system-free read: use node 0's
     view after everything quiesced (it may be stale; acquire once more
     through a new run is overkill — count the acquisitions in the lock's
     wait histogram instead, one observation per grant). *)
  Alcotest.(check int) "all acquisitions granted" (4 * iterations)
    (Counters.histogram (System.obs sys) ~layer:Obs.Carlos "lock.wait:mutex")
      .Obs.Hist.count

let test_lock_counter_value () =
  let sys = make () in
  let lock = Msg_lock.create sys ~manager:2 ~name:"ctr" in
  let counter = System.alloc sys 8 in
  let final = ref (-1) in
  let barrier = Msg_barrier.create sys ~manager:0 ~name:"b" () in
  let iterations = 8 in
  let (_ : System.report) =
    System.run sys (fun node ->
        for _ = 1 to iterations do
          Msg_lock.with_lock lock node (fun () ->
              let v = Shm.read_i64 (Node.shm node) counter in
              Shm.write_i64 (Node.shm node) counter (v + 1))
        done;
        Msg_barrier.wait barrier node;
        if Node.id node = 3 then
          (* After the barrier everyone is consistent. *)
          final := Shm.read_i64 (Node.shm node) counter)
  in
  Alcotest.(check int) "sequentially consistent counter" (4 * iterations)
    !final

exception Body_failed

let test_lock_released_on_exception () =
  (* An exception thrown inside the critical section must release the
     lock (other nodes keep making progress) and re-raise unchanged. *)
  let sys = make () in
  let lock = Msg_lock.create sys ~manager:0 ~name:"exc" in
  let counter = System.alloc sys 8 in
  let barrier = Msg_barrier.create sys ~manager:0 ~name:"b" () in
  let reraised = ref false in
  let final = ref (-1) in
  let (_ : System.report) =
    System.run sys (fun node ->
        (if Node.id node = 1 then
           try
             Msg_lock.with_lock lock node (fun () ->
                 let v = Shm.read_i64 (Node.shm node) counter in
                 Shm.write_i64 (Node.shm node) counter (v + 1);
                 raise Body_failed)
           with Body_failed -> reraised := true);
        (* Every node, including the one that failed, must still be able
           to take the lock afterwards. *)
        Msg_lock.with_lock lock node (fun () ->
            let v = Shm.read_i64 (Node.shm node) counter in
            Shm.write_i64 (Node.shm node) counter (v + 1));
        Msg_barrier.wait barrier node;
        if Node.id node = 0 then
          final := Shm.read_i64 (Node.shm node) counter)
  in
  Alcotest.(check bool) "original exception re-raised" true !reraised;
  Alcotest.(check int) "failed section's write plus one per node" 5 !final

(* ------------------------------------------------------------------ *)
(* Barrier *)

let test_barrier_separates_phases () =
  let sys = make () in
  let barrier = Msg_barrier.create sys ~manager:0 ~name:"phase" () in
  let order = ref [] in
  let (_ : System.report) =
    System.run sys (fun node ->
        Node.compute node (0.001 *. float_of_int (Node.id node + 1));
        Node.flush_compute node;
        order := (`Before, Node.id node) :: !order;
        Msg_barrier.wait barrier node;
        order := (`After, Node.id node) :: !order)
  in
  let events = List.rev !order in
  let rec check_phase seen_after = function
    | [] -> true
    | (`After, _) :: rest -> check_phase true rest
    | (`Before, _) :: rest -> (not seen_after) && check_phase seen_after rest
  in
  Alcotest.(check bool) "no Before after an After" true
    (check_phase false events);
  Alcotest.(check int) "one episode" 1 (Msg_barrier.episodes barrier)

let test_barrier_makes_all_consistent () =
  let sys = make () in
  let slots = Array.init 4 (fun _ -> System.alloc sys ~align:512 512) in
  let barrier = Msg_barrier.create sys ~manager:0 ~name:"all" () in
  let sums = Array.make 4 0 in
  let (_ : System.report) =
    System.run sys (fun node ->
        let me = Node.id node in
        Shm.write_i64 (Node.shm node) slots.(me) (10 + me);
        Msg_barrier.wait barrier node;
        let total = ref 0 in
        Array.iter
          (fun a -> total := !total + Shm.read_i64 (Node.shm node) a)
          slots;
        sums.(me) <- !total)
  in
  Array.iteri
    (fun i sum ->
      Alcotest.(check int) (Printf.sprintf "node %d sum" i) 46 sum)
    sums

let test_barrier_reusable () =
  let sys = make ~nodes:3 () in
  let barrier = Msg_barrier.create sys ~manager:1 ~name:"loop" () in
  let x = System.alloc sys 8 in
  let reads = ref [] in
  let (_ : System.report) =
    System.run sys (fun node ->
        for step = 1 to 4 do
          if Node.id node = step mod 3 then
            Shm.write_i64 (Node.shm node) x step;
          Msg_barrier.wait barrier node;
          if Node.id node = 0 then
            reads := Shm.read_i64 (Node.shm node) x :: !reads;
          Msg_barrier.wait barrier node
        done)
  in
  Alcotest.(check (list int)) "each step visible" [ 4; 3; 2; 1 ] !reads;
  Alcotest.(check int) "episodes" 8 (Msg_barrier.episodes barrier);
  Alcotest.(check int) "one skew per episode" 8
    (Counters.histogram (System.obs sys) ~layer:Obs.Carlos "barrier.skew:loop")
      .Obs.Hist.count

let test_transitive_barrier () =
  let sys = make ~nodes:3 () in
  let barrier =
    Msg_barrier.create sys ~manager:0 ~name:"tr" ~transitive:true ()
  in
  let x = System.alloc sys 8 in
  let got = ref 0 in
  let (_ : System.report) =
    System.run sys (fun node ->
        if Node.id node = 2 then Shm.write_i64 (Node.shm node) x 5;
        Msg_barrier.wait barrier node;
        if Node.id node = 1 then got := Shm.read_i64 (Node.shm node) x)
  in
  Alcotest.(check int) "value crossed the barrier" 5 !got

(* ------------------------------------------------------------------ *)
(* Semaphore / condition *)

let test_semaphore_bounds_concurrency () =
  let sys = make () in
  let sem = Msg_semaphore.Semaphore.create sys ~manager:0 ~name:"s" ~initial:2 in
  let inside = ref 0 and peak = ref 0 in
  let (_ : System.report) =
    System.run sys (fun node ->
        for _ = 1 to 3 do
          Msg_semaphore.Semaphore.wait sem node;
          incr inside;
          if !inside > !peak then peak := !inside;
          Node.compute node 0.005;
          Node.flush_compute node;
          decr inside;
          Msg_semaphore.Semaphore.signal sem node
        done)
  in
  Alcotest.(check bool) "at most 2 inside" true (!peak <= 2);
  Alcotest.(check bool) "some concurrency" true (!peak >= 1);
  Alcotest.(check int) "one wait per P" 12
    (Counters.histogram (System.obs sys) ~layer:Obs.Carlos "sem.wait:s")
      .Obs.Hist.count

let test_semaphore_as_signal () =
  let sys = make ~nodes:2 () in
  let sem = Msg_semaphore.Semaphore.create sys ~manager:0 ~name:"sig" ~initial:0 in
  let x = System.alloc sys 8 in
  let got = ref 0 in
  let (_ : System.report) =
    System.run sys (fun node ->
        match Node.id node with
        | 0 ->
          Shm.write_i64 (Node.shm node) x 31;
          Msg_semaphore.Semaphore.signal sem node
        | _ ->
          Msg_semaphore.Semaphore.wait sem node;
          (* V was RELEASE via the manager: the waiter sees the write. *)
          got := Shm.read_i64 (Node.shm node) x)
  in
  Alcotest.(check int) "producer's write visible" 31 !got

let test_condition_signal () =
  let sys = make ~nodes:3 () in
  let lock = Msg_lock.create sys ~manager:0 ~name:"m" in
  let cond = Msg_semaphore.Condition.create sys ~manager:0 ~name:"c" in
  let x = System.alloc sys 8 in
  let got = ref (-1) in
  let (_ : System.report) =
    System.run sys (fun node ->
        match Node.id node with
        | 1 ->
          Msg_lock.acquire lock node;
          (* Wait until the producer has published. *)
          while Shm.read_i64 (Node.shm node) x = 0 do
            Msg_semaphore.Condition.wait cond node ~lock
          done;
          got := Shm.read_i64 (Node.shm node) x;
          Msg_lock.release lock node
        | 2 ->
          Node.compute node 0.01;
          Msg_lock.acquire lock node;
          Shm.write_i64 (Node.shm node) x 12;
          Msg_semaphore.Condition.signal cond node;
          Msg_lock.release lock node
        | _ -> ())
  in
  Alcotest.(check int) "condition handoff" 12 !got

(* ------------------------------------------------------------------ *)
(* Work queue *)

let test_work_queue_basic () =
  let sys = make ~nodes:3 () in
  let q = Work_queue.create sys ~manager:0 ~name:"q" () in
  let consumed = ref [] in
  let (_ : System.report) =
    System.run sys (fun node ->
        match Node.id node with
        | 1 ->
          for i = 1 to 6 do
            Work_queue.enqueue q node ~bytes:8 i
          done;
          Work_queue.close q node
        | 2 ->
          let rec loop () =
            match Work_queue.dequeue q node with
            | Some item ->
              consumed := item :: !consumed;
              loop ()
            | None -> ()
          in
          loop ()
        | _ -> ())
  in
  Alcotest.(check (list int)) "all items in order" [ 1; 2; 3; 4; 5; 6 ]
    (List.rev !consumed);
  (* Six items plus the closing [None]. *)
  Alcotest.(check int) "one wait per dequeue" 7
    (Counters.histogram (System.obs sys) ~layer:Obs.Carlos "wq.wait:q")
      .Obs.Hist.count

let test_work_queue_forwarding_skips_manager () =
  let sys = make ~nodes:3 () in
  let q = Work_queue.create sys ~manager:0 ~name:"fq" () in
  let data = System.alloc sys 8 in
  let got = ref 0 in
  let manager_vc_of_producer = ref (-1) in
  let (_ : System.report) =
    System.run sys (fun node ->
        match Node.id node with
        | 1 ->
          (* Producer writes shared data, then enqueues a reference. *)
          Shm.write_i64 (Node.shm node) data 1234;
          Work_queue.enqueue q node ~bytes:8 data;
          Work_queue.close q node
        | 2 -> (
          match Work_queue.dequeue q node with
          | Some addr -> got := Shm.read_i64 (Node.shm node) addr
          | None -> Alcotest.fail "no item")
        | _ -> ())
  in
  (* Check after quiescence: the manager never accepted the enqueue
     RELEASE, so it saw no interval from the producer. *)
  manager_vc_of_producer := Vc.get (Lrc.vc (Node.lrc (System.node sys 0))) 1;
  Alcotest.(check int) "consumer is consistent with producer" 1234 !got;
  Alcotest.(check int) "manager stayed out of the causal chain" 0
    !manager_vc_of_producer

let test_work_queue_no_forwarding_involves_manager () =
  let sys = make ~nodes:3 () in
  let q =
    Work_queue.create sys ~manager:0 ~name:"nf" ~mode:Work_queue.No_forwarding ()
  in
  let data = System.alloc sys 8 in
  let got = ref 0 in
  let (_ : System.report) =
    System.run sys (fun node ->
        match Node.id node with
        | 1 ->
          Shm.write_i64 (Node.shm node) data 77;
          Work_queue.enqueue q node ~bytes:8 data;
          Work_queue.close q node
        | 2 -> (
          match Work_queue.dequeue q node with
          | Some addr -> got := Shm.read_i64 (Node.shm node) addr
          | None -> Alcotest.fail "no item")
        | _ -> ())
  in
  Alcotest.(check int) "consumer still consistent" 77 !got;
  (* Here the manager accepted the enqueue: it IS in the causal chain. *)
  Alcotest.(check int) "manager became consistent" 1
    (Vc.get (Lrc.vc (Node.lrc (System.node sys 0))) 1)

let test_work_queue_blocking_dequeue () =
  let sys = make ~nodes:2 () in
  let q = Work_queue.create sys ~manager:0 ~name:"blk" () in
  let got = ref None in
  let (_ : System.report) =
    System.run sys (fun node ->
        match Node.id node with
        | 0 -> got := Work_queue.dequeue q node
        | _ ->
          (* Give the dequeuer time to park. *)
          Node.compute node 0.05;
          Work_queue.enqueue q node ~bytes:8 "late item")
  in
  Alcotest.(check (option string)) "parked dequeue woken" (Some "late item")
    !got

let test_work_queue_manager_dequeues_locally () =
  let sys = make ~nodes:2 () in
  let q = Work_queue.create sys ~manager:0 ~name:"own" () in
  let got = ref None in
  let (_ : System.report) =
    System.run sys (fun node ->
        match Node.id node with
        | 0 ->
          Work_queue.enqueue q node ~bytes:8 "mine";
          got := Work_queue.dequeue q node
        | _ -> ())
  in
  Alcotest.(check (option string)) "self-service" (Some "mine") !got

(* A two-hop chain through the work queue, audited: node 1 writes slot A
   and enqueues; node 2 dequeues, reads A, writes slot B and re-enqueues;
   node 3 dequeues and must read both.  Node 3 already synchronized with
   node 1 before it dequeues, so its REQUEST clock covers A's interval:
   in Forwarding mode the manager's copy to node 3 (the second hop of
   node 2's item) must bill fewer write-notice and clock bytes than node
   2's enqueue (its first hop), which was tailored for the manager. *)
let test_work_queue_forwarded_chain mode () =
  let sys = System.create ~audit:true (test_config ()) in
  let q = Work_queue.create sys ~manager:0 ~name:"chain" ~mode () in
  let slot_a = System.alloc sys ~align:512 8 in
  let slot_b = System.alloc sys ~align:512 8 in
  let obs = System.obs sys in
  let metadata () =
    Carlos_obs.Cost.read obs Carlos_obs.Cost.Write_notices
    + Carlos_obs.Cost.read obs Carlos_obs.Cost.Vc_entries
  in
  let module Ivar = Carlos_sim.Resource.Ivar in
  let synced_with_1 = Ivar.create () and node1_done = Ivar.create () in
  let b_enqueued = Ivar.create () in
  let first_hop = ref 0 and second_hop = ref 0 in
  let seen = ref (0, 0) in
  let (_ : System.report) =
    System.run sys (fun node ->
        let shm = Node.shm node in
        match Node.id node with
        | 1 ->
          Shm.write_i64 shm slot_a 11;
          Work_queue.enqueue q node ~bytes:8 slot_a;
          Node.send node ~dst:3 ~annotation:Annotation.Release
            ~payload_bytes:8 ~handler:(fun _ d ->
              Node.accept d;
              Ivar.fill synced_with_1 ());
          Ivar.fill node1_done ()
        | 2 -> (
          match Work_queue.dequeue q node with
          | Some a ->
            Shm.write_i64 shm slot_b (2 * Shm.read_i64 shm a);
            Node.await node node1_done;
            let before = metadata () in
            Work_queue.enqueue q node ~bytes:8 slot_b;
            first_hop := metadata () - before;
            Ivar.fill b_enqueued ()
          | None -> Alcotest.fail "node 2 got no item")
        | 3 -> (
          Node.await node synced_with_1;
          Node.await node b_enqueued;
          let before = metadata () in
          (* The dequeue's REQUEST bills the node's clock. *)
          let request_vc = Vc.size_bytes (Lrc.vc (Node.lrc node)) in
          match Work_queue.dequeue q node with
          | Some b ->
            second_hop := metadata () - before - request_vc;
            seen := (Shm.read_i64 shm slot_a, Shm.read_i64 shm b)
          | None -> Alcotest.fail "node 3 got no item")
        | _ -> ())
  in
  Alcotest.(check (pair int int)) "node 3 reads both writes" (11, 22) !seen;
  (match System.auditor sys with
  | Some a ->
    Alcotest.(check int) "audit clean" 0 (Carlos_audit.Audit.violation_count a)
  | None -> Alcotest.fail "no auditor");
  if mode = Work_queue.Forwarding then
    Alcotest.(check bool)
      (Printf.sprintf "second hop bills fewer metadata bytes (%d < %d)"
         !second_hop !first_hop)
      true
      (!second_hop < !first_hop)

(* Back-to-back enqueues through a relaying manager: node 1 writes a
   slot and enqueues it into node 0's queue, three times, before node 2
   dequeues the three items.  Node 0 logs what each enqueue carries, and
   node 1 knows it does, so every enqueue carries only the interval it
   just closed, one write notice each.  The audit holds every forwarded
   copy to exactly what node 2 lacks, and node 0's log holds all of it:
   no interval description is fetched. *)
let test_work_queue_relayed_enqueues_ship_once () =
  let sys = System.create ~audit:true (test_config ()) in
  let q = Work_queue.create sys ~manager:0 ~name:"once" () in
  let slots = Array.init 3 (fun _ -> System.alloc sys ~align:512 8) in
  let obs = System.obs sys in
  let notices () = Carlos_obs.Cost.read obs Carlos_obs.Cost.Write_notices in
  let module Ivar = Carlos_sim.Resource.Ivar in
  let enqueued = Ivar.create () in
  let billed = ref [] and seen = ref [] in
  let (_ : System.report) =
    System.run sys (fun node ->
        let shm = Node.shm node in
        match Node.id node with
        | 1 ->
          Array.iteri
            (fun k slot ->
              Shm.write_i64 shm slot (100 + k);
              let before = notices () in
              Work_queue.enqueue q node ~bytes:8 slot;
              billed := (notices () - before) :: !billed)
            slots;
          Ivar.fill enqueued ()
        | 2 ->
          Node.await node enqueued;
          for _ = 1 to 3 do
            match Work_queue.dequeue q node with
            | Some slot -> seen := Shm.read_i64 shm slot :: !seen
            | None -> Alcotest.fail "node 2 got no item"
          done
        | _ -> ())
  in
  Alcotest.(check (list int)) "node 2 reads every write" [ 100; 101; 102 ]
    (List.rev !seen);
  (* The non-transitive flag, then one interval's id and its one write
     notice. *)
  let one_interval = 1 + 4 + 4 in
  Alcotest.(check (list int))
    "each enqueue carries only its new interval"
    [ one_interval; one_interval; one_interval ]
    (List.rev !billed);
  (match System.auditor sys with
  | Some a ->
    Alcotest.(check int) "every copy exact" 0
      (Carlos_audit.Audit.violation_count a)
  | None -> Alcotest.fail "no auditor");
  let fetches =
    List.fold_left
      (fun acc node ->
        acc + Counters.counter obs ~node ~layer:Obs.Dsm "interval_fetches")
      0 [ 0; 1; 2; 3 ]
  in
  Alcotest.(check int) "no interval fetched" 0 fetches

let test_condition_broadcast () =
  let sys = make ~nodes:4 () in
  let lock = Msg_lock.create sys ~manager:0 ~name:"bm" in
  let cond = Msg_semaphore.Condition.create sys ~manager:0 ~name:"bc" in
  let flag = System.alloc sys 8 in
  let woken = ref 0 in
  let (_ : System.report) =
    System.run sys (fun node ->
        match Node.id node with
        | 0 ->
          (* Give the waiters time to park, then broadcast. *)
          Node.compute node 0.05;
          Msg_lock.acquire lock node;
          Shm.write_i64 (Node.shm node) flag 1;
          Msg_semaphore.Condition.broadcast cond node;
          Msg_lock.release lock node
        | _ ->
          Msg_lock.acquire lock node;
          while Shm.read_i64 (Node.shm node) flag = 0 do
            Msg_semaphore.Condition.wait cond node ~lock
          done;
          incr woken;
          Msg_lock.release lock node)
  in
  Alcotest.(check int) "all waiters woken" 3 !woken

let prop_work_queue_random_pipelines =
  (* Random producer/consumer assignments over the work queue: every
     produced item is consumed exactly once and carries the producer's
     shared-memory payload (the forwarding consistency guarantee). *)
  let gen =
    QCheck.Gen.(
      int_range 2 4 >>= fun nodes ->
      int_range 1 12 >>= fun items_per_producer ->
      int_range 0 2 >>= fun mode ->
      return (nodes, items_per_producer, mode))
  in
  let print (nodes, items_per_producer, mode) =
    Printf.sprintf "nodes=%d items_per_producer=%d mode=%d" nodes
      items_per_producer mode
  in
  QCheck.Test.make ~name:"work queue: random pipelines conserve items"
    ~count:25 (QCheck.make ~print gen)
    (fun (nodes, items_per_producer, mode) ->
      let sys = make ~nodes () in
      let mode =
        match mode with
        | 0 -> Work_queue.Forwarding
        | 1 -> Work_queue.All_release
        | _ -> Work_queue.No_forwarding
      in
      let q = Work_queue.create sys ~manager:0 ~name:"rq" ~mode () in
      (* Producers: every node but the last; consumer: the last node. *)
      let producers = nodes - 1 in
      let total = producers * items_per_producer in
      let payload = System.alloc sys (8 * max 1 total) in
      let consumed = ref [] in
      let produced_count = ref 0 in
      let (_ : System.report) =
        System.run sys (fun node ->
            let me = Node.id node in
            let shm = Node.shm node in
            if me < producers then begin
              for i = 0 to items_per_producer - 1 do
                let slot = (me * items_per_producer) + i in
                Shm.write_i64 shm (payload + (8 * slot)) (1000 + slot);
                Work_queue.enqueue q node ~bytes:8 slot;
                incr produced_count;
                if !produced_count = total then Work_queue.close q node
              done
            end
            else if me = nodes - 1 then begin
              let rec drain acc =
                match Work_queue.dequeue q node with
                | None -> consumed := acc
                | Some slot ->
                  let v = Shm.read_i64 shm (payload + (8 * slot)) in
                  drain ((slot, v) :: acc)
              in
              drain []
            end)
      in
      let sorted = List.sort compare !consumed in
      let expected = List.init total (fun slot -> (slot, 1000 + slot)) in
      sorted = expected)

(* ------------------------------------------------------------------ *)
(* GC under the full system *)

let test_global_gc_under_load () =
  let cfg = { (test_config ~nodes:3 ()) with System.gc_threshold = Some 2000 } in
  let sys = System.create cfg in
  let lock = Msg_lock.create sys ~manager:0 ~name:"gc" in
  let counter = System.alloc sys 8 in
  let barrier = Msg_barrier.create sys ~manager:0 ~name:"gcb" () in
  let final = ref 0 in
  let iterations = 20 in
  let (_ : System.report) =
    System.run sys (fun node ->
        for _ = 1 to iterations do
          Msg_lock.with_lock lock node (fun () ->
              let v = Shm.read_i64 (Node.shm node) counter in
              Shm.write_i64 (Node.shm node) counter (v + 1))
        done;
        Msg_barrier.wait barrier node;
        if Node.id node = 0 then
          final := Shm.read_i64 (Node.shm node) counter)
  in
  Alcotest.(check int) "correct despite GC" (3 * iterations) !final;
  Alcotest.(check bool) "at least one GC ran" true
    (Counters.counter (System.obs sys) ~layer:Obs.Carlos "gc.runs" >= 1)

(* ------------------------------------------------------------------ *)
(* Determinism and reporting *)

let run_report_sys () =
  let sys = make () in
  let lock = Msg_lock.create sys ~manager:0 ~name:"d" in
  let counter = System.alloc sys 8 in
  let barrier = Msg_barrier.create sys ~manager:0 ~name:"db" () in
  let report =
    System.run sys (fun node ->
        for _ = 1 to 5 do
          Msg_lock.with_lock lock node (fun () ->
              let v = Shm.read_i64 (Node.shm node) counter in
              Node.compute node 0.001;
              Shm.write_i64 (Node.shm node) counter (v + 1))
        done;
        Msg_barrier.wait barrier node)
  in
  (sys, report)

let run_report () = snd (run_report_sys ())

let test_determinism () =
  let r1 = run_report () and r2 = run_report () in
  Alcotest.(check (float 0.0)) "same wall" r1.System.wall r2.System.wall;
  Alcotest.(check int) "same messages" r1.System.messages r2.System.messages;
  Alcotest.(check int) "same bytes" r1.System.message_bytes
    r2.System.message_bytes

(* Two identical runs must emit byte-identical observability exports: the
   metrics dump and the Chrome trace. *)
let test_determinism_exports () =
  let dump () =
    let sys = make () in
    System.set_tracing sys true;
    let lock = Msg_lock.create sys ~manager:0 ~name:"d" in
    let counter = System.alloc sys 8 in
    let barrier = Msg_barrier.create sys ~manager:0 ~name:"db" () in
    let (_ : System.report) =
      System.run sys (fun node ->
          for _ = 1 to 5 do
            Msg_lock.with_lock lock node (fun () ->
                let v = Shm.read_i64 (Node.shm node) counter in
                Node.compute node 0.001;
                Shm.write_i64 (Node.shm node) counter (v + 1))
          done;
          Msg_barrier.wait barrier node)
    in
    let render pp x =
      let buf = Buffer.create 8192 in
      let ppf = Format.formatter_of_buffer buf in
      pp ppf x;
      Format.pp_print_flush ppf ();
      Buffer.contents buf
    in
    let obs = System.obs sys in
    ( List.length (Obs.events obs),
      render Obs.pp_metrics_jsonl (Obs.snapshot obs),
      render Obs.pp_chrome_trace obs )
  in
  let n1, m1, c1 = dump () and _, m2, c2 = dump () in
  Alcotest.(check bool) "trace non-empty" true (n1 > 0);
  Alcotest.(check bool) "metrics non-empty" true (String.length m1 > 0);
  Alcotest.(check string) "identical metrics dumps" m1 m2;
  Alcotest.(check string) "identical Chrome traces" c1 c2

(* The registry and System.report must tell the same story: the report is
   a view over registry data, not a second accounting. *)
let test_report_matches_registry () =
  let sys, r = run_report_sys () in
  let obs = System.obs sys in
  Alcotest.(check int) "messages = sum of msgs.sent"
    (Obs.sum_counters obs ~layer:Obs.Carlos "msgs.sent")
    r.System.messages;
  Alcotest.(check int) "bytes = sum of msgs.bytes"
    (Obs.sum_counters obs ~layer:Obs.Carlos "msgs.bytes")
    r.System.message_bytes;
  Array.iter
    (fun nr ->
      Alcotest.(check (float 1e-12))
        "user gauge"
        (match
           Obs.find (Obs.snapshot obs) ~node:nr.System.node ~layer:Obs.Carlos
             "time.user"
         with
        | Some (Obs.Gauge_v g) -> g
        | _ -> Alcotest.fail "time.user gauge missing")
        nr.System.user)
    r.System.per_node

(* ------------------------------------------------------------------ *)
(* Randomized whole-stack property: arbitrary lock/barrier programs over
   shared counters, under random strategies, cost tables and datagram
   loss, must be sequentially consistent (every counter ends at exactly
   its increment count, and no increment is ever lost) on every
   backend. *)

type random_program = {
  rp_nodes : int;
  rp_vars : int;
  rp_rounds : int;
  rp_plan : int array array array; (* node -> round -> list of var indices *)
  rp_strategy : int; (* 0 invalidate, 1 update, 2 hybrid *)
  rp_lossy : bool;
  rp_costs : int; (* 0 default, 1 treadmarks, 2 fast *)
}

let random_program_gen =
  let open QCheck.Gen in
  int_range 2 4 >>= fun rp_nodes ->
  int_range 1 5 >>= fun rp_vars ->
  int_range 1 3 >>= fun rp_rounds ->
  array_size (return rp_nodes)
    (array_size (return rp_rounds)
       (array_size (int_range 0 6) (int_range 0 (rp_vars - 1))))
  >>= fun rp_plan ->
  int_range 0 2 >>= fun rp_strategy ->
  bool >>= fun rp_lossy ->
  int_range 0 2 >>= fun rp_costs ->
  return { rp_nodes; rp_vars; rp_rounds; rp_plan; rp_strategy; rp_lossy; rp_costs }

let print_random_program rp =
  let plan =
    Array.to_list rp.rp_plan
    |> List.mapi (fun node rounds ->
           Printf.sprintf "n%d:%s" node
             (String.concat "|"
                (Array.to_list
                   (Array.map
                      (fun vars ->
                        String.concat ","
                          (Array.to_list (Array.map string_of_int vars)))
                      rounds))))
  in
  Printf.sprintf
    "nodes=%d vars=%d rounds=%d strategy=%d lossy=%b costs=%d plan=[%s]"
    rp.rp_nodes rp.rp_vars rp.rp_rounds rp.rp_strategy rp.rp_lossy rp.rp_costs
    (String.concat " " plan)

(* [spread] gives each counter a page of its own; by default they all
   share one. *)
let run_random_program ?gc_threshold ?(spread = false) ~backend rp =
  let strategy =
    match rp.rp_strategy with
    | 0 -> Carlos_dsm.Lrc_backend.Invalidate
    | 1 -> Carlos_dsm.Lrc_backend.Update
    | _ -> Carlos_dsm.Lrc_backend.Hybrid_update
  in
  let costs =
    match rp.rp_costs with
    | 0 -> Carlos_dsm.Cpu_cost.default
    | 1 -> Carlos_dsm.Cpu_cost.treadmarks
    | _ -> Carlos_dsm.Cpu_cost.fast_network
  in
  let cfg =
    {
      (test_config ~nodes:rp.rp_nodes ()) with
      System.backend;
      strategy;
      costs;
      loss = (if rp.rp_lossy then 0.02 else 0.0);
      rto = 0.02;
    }
  in
  let cfg =
    if gc_threshold = None then cfg else { cfg with System.gc_threshold }
  in
  let sys = System.create cfg in
  (* Sharing one page is the worst case for false sharing; one page per
     counter lets each page keep its own GC history. *)
  let stride = if spread then cfg.System.page_size else 8 in
  let base = System.alloc sys ~align:stride (stride * rp.rp_vars) in
  let locks =
    Array.init rp.rp_vars (fun v ->
        Msg_lock.create sys
          ~manager:(v mod rp.rp_nodes)
          ~name:(Printf.sprintf "v%d" v))
  in
  let barrier = Msg_barrier.create sys ~manager:0 ~name:"round" () in
  let finals = Array.make rp.rp_vars (-1) in
  let (_ : System.report) =
    System.run sys (fun node ->
        let me = Node.id node in
        let shm = Node.shm node in
        for round = 0 to rp.rp_rounds - 1 do
          Array.iter
            (fun v ->
              Msg_lock.with_lock locks.(v) node (fun () ->
                  let a = base + (stride * v) in
                  let x = Shm.read_i64 shm a in
                  Node.compute node 1e-4;
                  Shm.write_i64 shm a (x + 1)))
            rp.rp_plan.(me).(round);
          Msg_barrier.wait barrier node
        done;
        if me = 0 then
          for v = 0 to rp.rp_vars - 1 do
            finals.(v) <- Shm.read_i64 shm (base + (stride * v))
          done)
  in
  let expected = Array.make rp.rp_vars 0 in
  Array.iter
    (Array.iter (Array.iter (fun v -> expected.(v) <- expected.(v) + 1)))
    rp.rp_plan;
  (expected, finals)

let check_random_program ?gc_threshold ?spread ~backend rp =
  let expected, finals = run_random_program ?gc_threshold ?spread ~backend rp in
  if expected <> finals then
    QCheck.Test.fail_reportf "expected %s, got %s"
      (String.concat "," (Array.to_list (Array.map string_of_int expected)))
      (String.concat "," (Array.to_list (Array.map string_of_int finals)))
  else true

let prop_random_programs backend =
  let name = "random lock/barrier programs are coherent" in
  QCheck.Test.make
    ~name:
      (if backend = Backend.Lrc then name
       else name ^ " on " ^ Backend.kind_to_string backend)
    ~count:40
    (QCheck.make ~print:print_random_program random_program_gen)
    (check_random_program ~backend)

(* The smallest program that lost an update on the sequencer backend:
   one fiber of node 1 was still waiting for the stamp of its increment
   when another fiber of node 1 released, found nothing left to flush,
   and sent a horizon without that stamp.  Counter 0 ended at 3. *)
let test_flush_race backend () =
  let rp =
    {
      rp_nodes = 3;
      rp_vars = 3;
      rp_rounds = 1;
      rp_plan = [| [| [| 0; 0; 1 |] |]; [| [| 0 |] |]; [| [| 0; 2 |] |] |];
      rp_strategy = 0;
      rp_lossy = false;
      rp_costs = 0;
    }
  in
  let expected, finals = run_random_program ~backend rp in
  Alcotest.(check (array int)) "every increment survives" expected finals

(* The same programs with a metadata GC every few hundred bytes of
   consistency metadata: many rendezvous run while the program does, so
   pages are dropped and refetched from their keepers mid-run.  Half the
   programs give each counter its own page, so a page can sit out an
   epoch while the GC discards other pages' history. *)
let prop_random_programs_gc_stress =
  QCheck.Test.make
    ~name:"random lock/barrier programs are coherent under GC stress"
    ~count:40
    QCheck.(
      pair (make ~print:print_random_program random_program_gen) bool)
    (fun (rp, spread) ->
      check_random_program ~gc_threshold:300 ~spread ~backend:Backend.Lrc rp)

let test_tracing () =
  let sys = make ~nodes:2 () in
  System.set_tracing sys true;
  let (_ : System.report) =
    System.run sys (fun node ->
        if Node.id node = 0 then
          Node.send node ~dst:1 ~annotation:Annotation.Release ~payload_bytes:8
            ~handler:(fun _ d -> Node.accept d))
  in
  let events = Obs.events (System.obs sys) in
  Alcotest.(check bool) "a send was traced" true
    (List.exists (fun (e : Obs.event) -> e.name = "send") events);
  Alcotest.(check bool) "a delivery was traced" true
    (List.exists (fun (e : Obs.event) -> e.name = "deliver") events)

let test_report_consistency () =
  let r = run_report () in
  Alcotest.(check bool) "wall positive" true (r.System.wall > 0.0);
  Alcotest.(check bool) "utilization sane" true
    (r.System.net_utilization >= 0.0 && r.System.net_utilization < 1.0);
  Array.iter
    (fun nr ->
      let total =
        nr.System.user +. nr.System.unix +. nr.System.carlos +. nr.System.idle
      in
      if total > r.System.wall +. 1e-6 then
        Alcotest.failf "node %d breakdown exceeds wall" nr.System.node)
    r.System.per_node

(* [compute] runs once per simulated operation in the apps' hot loops;
   its pending time lives in an unboxed cell, so a call allocates
   nothing. *)
let test_compute_allocation () =
  let sys = make ~nodes:1 () in
  let words = ref nan in
  let (_ : System.report) =
    System.run sys (fun node ->
        let dt = Sys.opaque_identity 1e-6 in
        Node.compute node dt;
        let n = 10_000 in
        let before = Gc.minor_words () in
        for _ = 1 to n do
          Node.compute node dt
        done;
        words := (Gc.minor_words () -. before) /. float_of_int n)
  in
  if !words > 0.0 then
    Alcotest.failf "Node.compute allocates %.2f words per call" !words

(* ------------------------------------------------------------------ *)

let () =
  Props.run "carlos"
    [
      ( "messaging",
        [
          Alcotest.test_case "roundtrip" `Quick test_message_roundtrip;
          Alcotest.test_case "handler must dispose" `Quick
            test_handler_must_dispose;
          Alcotest.test_case "RELEASE propagates" `Quick
            test_release_propagates_memory;
          Alcotest.test_case "NONE does not" `Quick
            test_none_does_not_propagate_memory;
          Alcotest.test_case "figure 1 asymmetry" `Quick
            test_figure1_asymmetry;
          Alcotest.test_case "compute allocation" `Quick
            test_compute_allocation;
        ] );
      ( "lock",
        [
          Alcotest.test_case "mutual exclusion" `Quick
            test_lock_mutual_exclusion;
          Alcotest.test_case "counter value" `Quick test_lock_counter_value;
          Alcotest.test_case "released on exception" `Quick
            test_lock_released_on_exception;
        ] );
      ( "barrier",
        [
          Alcotest.test_case "separates phases" `Quick
            test_barrier_separates_phases;
          Alcotest.test_case "makes all consistent" `Quick
            test_barrier_makes_all_consistent;
          Alcotest.test_case "reusable" `Quick test_barrier_reusable;
          Alcotest.test_case "transitive variant" `Quick
            test_transitive_barrier;
        ] );
      ( "semaphore",
        [
          Alcotest.test_case "bounds concurrency" `Quick
            test_semaphore_bounds_concurrency;
          Alcotest.test_case "signal with memory" `Quick
            test_semaphore_as_signal;
          Alcotest.test_case "condition" `Quick test_condition_signal;
          Alcotest.test_case "condition broadcast" `Quick
            test_condition_broadcast;
        ] );
      ( "work-queue",
        [
          Alcotest.test_case "basic" `Quick test_work_queue_basic;
          Alcotest.test_case "forwarding skips manager" `Quick
            test_work_queue_forwarding_skips_manager;
          Alcotest.test_case "no-forwarding involves manager" `Quick
            test_work_queue_no_forwarding_involves_manager;
          Alcotest.test_case "blocking dequeue" `Quick
            test_work_queue_blocking_dequeue;
          Alcotest.test_case "manager self-service" `Quick
            test_work_queue_manager_dequeues_locally;
          Alcotest.test_case "forwarded chain, forwarding" `Quick
            (test_work_queue_forwarded_chain Work_queue.Forwarding);
          Alcotest.test_case "forwarded chain, all-release" `Quick
            (test_work_queue_forwarded_chain Work_queue.All_release);
          Alcotest.test_case "forwarded chain, no forwarding" `Quick
            (test_work_queue_forwarded_chain Work_queue.No_forwarding);
          Alcotest.test_case "relayed enqueues ship each interval once"
            `Quick test_work_queue_relayed_enqueues_ship_once;
          Props.to_alcotest prop_work_queue_random_pipelines;
        ] );
      ( "system",
        [
          Alcotest.test_case "gc under load" `Quick test_global_gc_under_load;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "deterministic exports" `Quick
            test_determinism_exports;
          Alcotest.test_case "report matches registry" `Quick
            test_report_matches_registry;
          Alcotest.test_case "report consistency" `Quick
            test_report_consistency;
          Alcotest.test_case "tracing" `Quick test_tracing;
        ]
        @ List.map
            (fun backend ->
              Alcotest.test_case
                ("flush race on " ^ Backend.kind_to_string backend)
                `Quick (test_flush_race backend))
            Backend.all_kinds
        @ List.map
            (fun backend -> Props.to_alcotest (prop_random_programs backend))
            Backend.all_kinds
        @ [ Props.to_alcotest prop_random_programs_gc_stress ] );
    ]
