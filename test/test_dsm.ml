(* Tests for the lazy-release-consistency engine, exercised through a
   loopback peer that wires several Lrc instances together with direct
   function calls (no simulated network).  Each test drives the cluster
   from one engine fiber, where the protocol can fork its parallel
   per-creator fetches and block on ivars.  This isolates the
   protocol logic: write trapping, interval bookkeeping, piggyback
   construction, acceptance, diff fetching, the multiple-writer protocol,
   the non-transitive path, and metadata garbage collection. *)

module Page = Carlos_vm.Page
module Page_table = Carlos_vm.Page_table
module Shm = Carlos_vm.Shm
module Vc = Carlos_dsm.Vc
module Interval = Carlos_dsm.Interval
module Cpu_cost = Carlos_dsm.Cpu_cost
module Lrc = Carlos_dsm.Lrc_backend
module Backend_intf = Carlos_dsm.Backend_intf
module Diff = Carlos_vm.Diff
module Cost = Carlos_obs.Cost
module Engine = Carlos_sim.Engine
module Obs = Carlos_obs.Obs

(* One message a loopback peer carried: destination, cost class and
   size, and for an RPC the reply's cost class and size. *)
type sent = {
  dst : int;
  cost : Cost.component;
  bytes : int;
  reply : (Cost.component * int) option; (* [None] for a post *)
}

(* A peer shared by every node of a cluster: it runs each request directly
   on the destination's backend in [servers] (filled in once every backend
   exists) and records what it carried in [log], newest first. *)
let loopback_peer servers log =
  {
    Backend_intf.rpc =
      (fun ~dst ~cost ~reply_cost ~request_bytes ~reply_bytes serve ->
        let reply = serve !servers.(dst) in
        log :=
          { dst; cost; bytes = request_bytes;
            reply = Some (reply_cost, reply_bytes reply) }
          :: !log;
        reply);
    post =
      (fun ~dst ~cost ~payload_bytes serve ->
        log := { dst; cost; bytes = payload_bytes; reply = None } :: !log;
        serve !servers.(dst));
  }

(* The messages carried since the last call, oldest first. *)
let take_sent log =
  let sent = List.rev !log in
  log := [];
  sent

type cluster = {
  obs : Obs.t; (* one registry, instruments keyed by node *)
  shms : Shm.t array;
  lrcs : Lrc.t array;
  charged : float ref;
  log : sent list ref;
}

(* [charge] runs after the [charged] tally; by default it does nothing,
   so protocol work takes no time and never yields. *)
let make_cluster ?strategy ?(charge = ignore) n =
  let obs = Obs.create () in
  let shms =
    Array.init n (fun node -> Shm.create ~obs ~node ~page_size:256 ~pages:8 ())
  in
  let charged = ref 0.0 in
  let charge dt =
    charged := !charged +. dt;
    charge dt
  in
  let servers = ref [||] and log = ref [] in
  let peer = loopback_peer servers log in
  let lrcs =
    Array.init n (fun me ->
        Lrc.create ~obs ~nodes:n ~me
          ~page_table:(Shm.page_table shms.(me))
          ~costs:Cpu_cost.default ~charge ~peer ?strategy ())
  in
  servers := lrcs;
  { obs; shms; lrcs; charged; log }

(* Run [f] as the only fiber of a fresh engine and return its result. *)
let in_engine f =
  let engine = Engine.create () in
  let result = ref None in
  Engine.spawn engine (fun () -> result := Some (f ()));
  Engine.run engine;
  Option.get !result

(* A test case that drives a loopback cluster from an engine fiber. *)
let loopback name f = Alcotest.test_case name `Quick (fun () -> in_engine f)

(* Address of slot [i] (8 bytes each) on coherent page [page]. *)
let slot c ~page i = Shm.addr c.shms.(0) ~page ~offset:(8 * i)

(* Model a synchronizing message from [src] to [dst]. *)
let release c ~src ~dst =
  let pb = Lrc.make_piggyback c.lrcs.(src) ~receiver:dst ~nontransitive:false in
  Lrc.accept c.lrcs.(dst) [ pb ];
  pb

let _release_nt c ~src ~dst =
  let pb = Lrc.make_piggyback c.lrcs.(src) ~receiver:dst ~nontransitive:true in
  Lrc.accept c.lrcs.(dst) [ pb ];
  pb

(* Node [node]'s protocol ([Dsm]) and page-fault ([Vm]) counters. *)
let dsm_counter c ~node name = Counters.counter c.obs ~node ~layer:Obs.Dsm name

let vm_counter c ~node name = Counters.counter c.obs ~node ~layer:Obs.Vm name

let page_state c ~node ~page =
  Page.state (Page_table.page (Shm.page_table c.shms.(node)) page)

(* ------------------------------------------------------------------ *)

let test_basic_propagation () =
  let c = make_cluster 2 in
  let a = slot c ~page:0 0 in
  Shm.write_i64 c.shms.(0) a 42;
  let _ = release c ~src:0 ~dst:1 in
  Alcotest.(check int) "value visible after release/accept" 42
    (Shm.read_i64 c.shms.(1) a);
  Alcotest.(check bool) "consistency work was charged" true (!(c.charged) > 0.0)

let test_write_notice_invalidates () =
  let c = make_cluster 2 in
  let a = slot c ~page:2 0 in
  Shm.write_i64 c.shms.(0) a 7;
  let _ = release c ~src:0 ~dst:1 in
  Alcotest.(check bool) "page 2 invalid at receiver before access" true
    (page_state c ~node:1 ~page:2 = Page.Invalid);
  Alcotest.(check bool) "other pages untouched" true
    (page_state c ~node:1 ~page:3 = Page.Read_only)

let test_vc_advances () =
  let c = make_cluster 3 in
  let a = slot c ~page:0 0 in
  Shm.write_i64 c.shms.(0) a 1;
  let pb = release c ~src:0 ~dst:1 in
  Alcotest.(check bool) "receiver dominates required" true
    (Vc.dominates (Lrc.vc c.lrcs.(1)) pb.Lrc.required_vc);
  Alcotest.(check int) "one interval from node 0" 1
    (Vc.get (Lrc.vc c.lrcs.(1)) 0)

let test_no_fault_for_own_data () =
  let c = make_cluster 2 in
  let a = slot c ~page:1 0 in
  Shm.write_i64 c.shms.(0) a 5;
  Alcotest.(check int) "own read" 5 (Shm.read_i64 c.shms.(0) a);
  Alcotest.(check int) "no read faults" 0 (vm_counter c ~node:0 "read_faults");
  Alcotest.(check int) "one write fault" 1
    (vm_counter c ~node:0 "write_faults")

let test_transitivity () =
  let c = make_cluster 3 in
  let a = slot c ~page:0 0 and b = slot c ~page:1 0 in
  Shm.write_i64 c.shms.(0) a 10;
  let _ = release c ~src:0 ~dst:1 in
  Shm.write_i64 c.shms.(1) b 20;
  let _ = release c ~src:1 ~dst:2 in
  (* Happened-before is transitive: node 2 must see node 0's write. *)
  Alcotest.(check int) "transitive value" 10 (Shm.read_i64 c.shms.(2) a);
  Alcotest.(check int) "direct value" 20 (Shm.read_i64 c.shms.(2) b)

let test_tailored_piggyback () =
  let c = make_cluster 2 in
  let a = slot c ~page:0 0 in
  Shm.write_i64 c.shms.(0) a 1;
  let pb1 = release c ~src:0 ~dst:1 in
  Alcotest.(check int) "first release carries the interval" 1
    (List.length pb1.Lrc.intervals);
  (* Tell node 0 what node 1 now has (a REQUEST piggyback would do this). *)
  Lrc.note_peer_vc c.lrcs.(0) ~peer:1 (Lrc.vc c.lrcs.(1));
  Shm.write_i64 c.shms.(0) a 2;
  let pb2 = release c ~src:0 ~dst:1 in
  Alcotest.(check int) "second release carries only the new interval" 1
    (List.length pb2.Lrc.intervals);
  Alcotest.(check int) "value" 2 (Shm.read_i64 c.shms.(1) a);
  (* Without note_peer_vc the second release would have carried both. *)
  ()

let test_untold_peer_gets_full_history () =
  let c = make_cluster 3 in
  let a = slot c ~page:0 0 in
  Shm.write_i64 c.shms.(0) a 1;
  let _ = release c ~src:0 ~dst:1 in
  Shm.write_i64 c.shms.(0) a 2;
  (* Node 2 was never heard from: the piggyback includes both intervals. *)
  let pb = Lrc.make_piggyback c.lrcs.(0) ~receiver:2 ~nontransitive:false in
  Alcotest.(check int) "both intervals" 2 (List.length pb.Lrc.intervals);
  Lrc.accept c.lrcs.(2) [ pb ];
  Alcotest.(check int) "latest value" 2 (Shm.read_i64 c.shms.(2) a)

let test_multiple_writers_false_sharing () =
  let c = make_cluster 3 in
  (* Nodes 0 and 1 write disjoint slots of the same page concurrently. *)
  let a = slot c ~page:0 0 and b = slot c ~page:0 1 in
  Shm.write_i64 c.shms.(0) a 111;
  Shm.write_i64 c.shms.(1) b 222;
  let pb0 = Lrc.make_piggyback c.lrcs.(0) ~receiver:2 ~nontransitive:false in
  let pb1 = Lrc.make_piggyback c.lrcs.(1) ~receiver:2 ~nontransitive:false in
  Lrc.accept c.lrcs.(2) [ pb0; pb1 ];
  Alcotest.(check int) "writer 0 slot" 111 (Shm.read_i64 c.shms.(2) a);
  Alcotest.(check int) "writer 1 slot" 222 (Shm.read_i64 c.shms.(2) b)

let test_concurrent_writer_preserves_local_mods () =
  let c = make_cluster 2 in
  let a = slot c ~page:0 0 and b = slot c ~page:0 1 in
  (* Node 1 writes its own slot, then accepts node 0's concurrent write to
     the same page: the local modification must survive invalidation. *)
  Shm.write_i64 c.shms.(1) b 9;
  Shm.write_i64 c.shms.(0) a 8;
  let _ = release c ~src:0 ~dst:1 in
  Alcotest.(check int) "remote write" 8 (Shm.read_i64 c.shms.(1) a);
  Alcotest.(check int) "local write preserved" 9 (Shm.read_i64 c.shms.(1) b)

let test_nontransitive_triggers_interval_fetch () =
  let c = make_cluster 3 in
  let a = slot c ~page:0 0 and b = slot c ~page:1 0 in
  Shm.write_i64 c.shms.(0) a 10;
  let _ = release c ~src:0 ~dst:1 in
  Shm.write_i64 c.shms.(1) b 20;
  (* Non-transitive release from 1 to 2: carries only node 1's intervals,
     but the required vc names node 0's interval, so node 2 must fetch the
     missing description from node 1. *)
  let pb = Lrc.make_piggyback c.lrcs.(1) ~receiver:2 ~nontransitive:true in
  Alcotest.(check bool) "only own intervals in NT piggyback" true
    (List.for_all
       (fun (i : Interval.t) -> i.Interval.id.Interval.creator = 1)
       pb.Lrc.intervals);
  Lrc.accept c.lrcs.(2) [ pb ];
  Alcotest.(check int) "interval fetch happened" 1
    (dsm_counter c ~node:2 "interval_fetches");
  Alcotest.(check int) "transitive value still correct" 10
    (Shm.read_i64 c.shms.(2) a);
  Alcotest.(check int) "direct value" 20 (Shm.read_i64 c.shms.(2) b)

let test_barrier_union_has_no_gaps () =
  let c = make_cluster 4 in
  (* Every client writes its own page, then sends a non-transitive arrival
     to the manager (node 0), which accepts them all at once.  The union of
     own-interval contributions is complete, so no interval fetch should be
     needed (this is why RELEASE_NT exists, paper §2). *)
  let addrs = Array.init 4 (fun i -> slot c ~page:i 0) in
  for node = 1 to 3 do
    Shm.write_i64 c.shms.(node) addrs.(node) (100 + node)
  done;
  let arrivals =
    List.map
      (fun node ->
        Lrc.make_piggyback c.lrcs.(node) ~receiver:0 ~nontransitive:true)
      [ 1; 2; 3 ]
  in
  Lrc.accept c.lrcs.(0) arrivals;
  Alcotest.(check int) "no interval fetches at manager" 0
    (dsm_counter c ~node:0 "interval_fetches");
  for node = 1 to 3 do
    Alcotest.(check int)
      (Printf.sprintf "manager sees node %d write" node)
      (100 + node)
      (Shm.read_i64 c.shms.(0) addrs.(node))
  done

let test_orphan_diff_path () =
  let c = make_cluster 3 in
  let a = slot c ~page:0 0 in
  (* Node 0 writes and releases to node 1 (interval closed, diff pending
     behind the twin). *)
  Shm.write_i64 c.shms.(0) a 1;
  let _ = release c ~src:0 ~dst:1 in
  (* Node 0 keeps writing the same page in its open (unreleased)
     interval; node 1 synchronized only with the first release, so it
     reads exactly the released value — eager per-interval diffs keep the
     unreleased write invisible. *)
  Shm.write_i64 c.shms.(0) a 2;
  Alcotest.(check int) "node 1 reads only the released value" 1
    (Shm.read_i64 c.shms.(1) a);
  let _ = release c ~src:0 ~dst:2 in
  Alcotest.(check int) "node 2 sees final value" 2 (Shm.read_i64 c.shms.(2) a)

let test_empty_diff_release () =
  let c = make_cluster 2 in
  let a = slot c ~page:0 0 in
  (* Write the value that is already there: a twin and an interval exist,
     but the eventual diff is empty.  Everything must still work. *)
  Shm.write_i64 c.shms.(0) a 0;
  let _ = release c ~src:0 ~dst:1 in
  Alcotest.(check int) "read" 0 (Shm.read_i64 c.shms.(1) a)

let test_release_without_writes_carries_no_interval () =
  let c = make_cluster 2 in
  let pb = Lrc.make_piggyback c.lrcs.(0) ~receiver:1 ~nontransitive:false in
  Alcotest.(check int) "no intervals" 0 (List.length pb.Lrc.intervals);
  Lrc.accept c.lrcs.(1) [ pb ];
  Alcotest.(check int) "vc unchanged" 0 (Vc.get (Lrc.vc c.lrcs.(1)) 0)

let test_whole_page_fetch_for_long_histories () =
  let c = make_cluster 2 in
  let a = slot c ~page:0 0 in
  (* Ten separate intervals all touching page 0; the reader should prefer a
     single whole-page fetch over ten diff fetches. *)
  for i = 1 to 10 do
    Shm.write_i64 c.shms.(0) a i;
    let pb = Lrc.make_piggyback c.lrcs.(0) ~receiver:1 ~nontransitive:false in
    ignore pb;
    (* Deliver only the consistency information, without reading, so the
       missing list grows. *)
    Lrc.accept c.lrcs.(1) [ pb ]
  done;
  Alcotest.(check int) "value" 10 (Shm.read_i64 c.shms.(1) a);
  Alcotest.(check int) "whole-page fetch used" 1
    (dsm_counter c ~node:1 "page_fetches")

(* The GC rendezvous by hand, on two nodes: node 0 keeps page 0, node 1
   drops its stale copy and rebuilds it on the next fault from node 0's
   base plus the post-snapshot history — a diff of node 0, an own
   interval and an open-interval orphan. *)
let test_metadata_gc () =
  let c = make_cluster 2 in
  let at i = slot c ~page:0 i in
  (* Five closed intervals of node 0 that node 1 has not heard of. *)
  for i = 1 to 5 do
    Shm.write_i64 c.shms.(0) (at 0) i;
    ignore (Lrc.make_piggyback c.lrcs.(0) ~receiver:1 ~nontransitive:false)
  done;
  let before = Lrc.metadata_pressure c.lrcs.(0) in
  Alcotest.(check bool) "pressure accumulated" true (before > 0);
  (* Collect: the coordinator's clock after the arrivals is the snapshot. *)
  let arrival =
    Lrc.make_piggyback c.lrcs.(1) ~receiver:0 ~nontransitive:true
  in
  Lrc.accept c.lrcs.(0) [ arrival ];
  let snapshot = Vc.copy (Lrc.vc c.lrcs.(0)) in
  (* Node 1 writes after the snapshot: one closed interval, then an open
     one that the departure's write notices flush into an orphan. *)
  Shm.write_i64 c.shms.(1) (at 1) 5;
  ignore (Lrc.make_piggyback c.lrcs.(1) ~receiver:0 ~nontransitive:false);
  Shm.write_i64 c.shms.(1) (at 2) 6;
  let _ = release c ~src:0 ~dst:1 in
  List.iter (fun l -> Lrc.gc_keep l snapshot) (Array.to_list c.lrcs);
  List.iter (fun l -> Lrc.gc_drop l snapshot) (Array.to_list c.lrcs);
  List.iter (fun l -> Lrc.discard_before l snapshot) (Array.to_list c.lrcs);
  Alcotest.(check bool) "pressure dropped" true
    (Lrc.metadata_pressure c.lrcs.(0) < before);
  (* A diff of node 0 after the snapshot. *)
  Shm.write_i64 c.shms.(0) (at 3) 7;
  let _ = release c ~src:0 ~dst:1 in
  Alcotest.(check int) "no page fetched before the fault" 0
    (dsm_counter c ~node:1 "page_fetches");
  Alcotest.(check int) "base content" 5 (Shm.read_i64 c.shms.(1) (at 0));
  Alcotest.(check int) "one base fetched" 1
    (dsm_counter c ~node:1 "page_fetches");
  Alcotest.(check int) "own interval re-applied" 5
    (Shm.read_i64 c.shms.(1) (at 1));
  Alcotest.(check int) "orphan re-applied" 6 (Shm.read_i64 c.shms.(1) (at 2));
  Alcotest.(check int) "post-snapshot diff applied" 7
    (Shm.read_i64 c.shms.(1) (at 3));
  (* Node 1's open interval closes with the orphan; node 0 sees it all. *)
  let _ = release c ~src:1 ~dst:0 in
  Alcotest.(check int) "node 0 sees the own interval" 5
    (Shm.read_i64 c.shms.(0) (at 1));
  Alcotest.(check int) "node 0 sees the orphan" 6
    (Shm.read_i64 c.shms.(0) (at 2));
  (* The system keeps working after the GC. *)
  Shm.write_i64 c.shms.(0) (at 0) 99;
  let _ = release c ~src:0 ~dst:1 in
  Alcotest.(check int) "post-gc value" 99 (Shm.read_i64 c.shms.(1) (at 0))

(* One whole GC rendezvous on a loopback cluster, node 0 coordinating. *)
let run_gc c =
  let n = Array.length c.lrcs in
  let arrivals =
    List.init (n - 1) (fun i ->
        Lrc.make_piggyback c.lrcs.(i + 1) ~receiver:0 ~nontransitive:true)
  in
  Lrc.accept c.lrcs.(0) arrivals;
  let snapshot = Vc.copy (Lrc.vc c.lrcs.(0)) in
  for i = 1 to n - 1 do
    ignore (release c ~src:0 ~dst:i)
  done;
  Array.iter (fun l -> Lrc.gc_keep l snapshot) c.lrcs;
  Array.iter (fun l -> Lrc.gc_drop l snapshot) c.lrcs;
  Array.iter (fun l -> Lrc.discard_before l snapshot) c.lrcs

let test_dropped_page_survives_later_gc () =
  (* Node 1 drops page 1 at the first GC.  Nobody writes page 1 in the
     next epoch, so it keeps its keeper and base, while the second GC
     discards the history in between (node 0's writes to page 0).  The
     refetch must not ask for that discarded history. *)
  let c = make_cluster 2 in
  let p0 = slot c ~page:0 0 and p1 = slot c ~page:1 0 in
  Shm.write_i64 c.shms.(0) p1 11;
  ignore (release c ~src:0 ~dst:1);
  run_gc c;
  for i = 1 to 3 do
    Shm.write_i64 c.shms.(0) p0 i;
    ignore (release c ~src:0 ~dst:1)
  done;
  run_gc c;
  Shm.write_i64 c.shms.(0) p0 4;
  ignore (release c ~src:0 ~dst:1);
  Alcotest.(check int) "dropped page from its old base" 11
    (Shm.read_i64 c.shms.(1) p1);
  Alcotest.(check int) "page 0 current" 4 (Shm.read_i64 c.shms.(1) p0);
  Alcotest.(check int) "both pages refetched from a base" 2
    (dsm_counter c ~node:1 "page_fetches")

let test_lock_handoff_chain () =
  let c = make_cluster 4 in
  let a = slot c ~page:0 0 in
  (* A counter incremented under a lock that migrates around the ring:
     release-accept edges must carry the full history. *)
  let holder = ref 0 in
  Shm.write_i64 c.shms.(0) a 1;
  for next = 1 to 3 do
    let _ = release c ~src:!holder ~dst:next in
    let v = Shm.read_i64 c.shms.(next) a in
    Shm.write_i64 c.shms.(next) a (v + 1);
    holder := next
  done;
  let _ = release c ~src:3 ~dst:0 in
  Alcotest.(check int) "counter value" 4 (Shm.read_i64 c.shms.(0) a)

let test_determinism () =
  let run () =
    let c = make_cluster 3 in
    let a = slot c ~page:0 0 and b = slot c ~page:1 1 in
    Shm.write_i64 c.shms.(0) a 1;
    let _ = release c ~src:0 ~dst:1 in
    Shm.write_i64 c.shms.(1) b 2;
    let _ = release c ~src:1 ~dst:2 in
    ignore (Shm.read_i64 c.shms.(2) a);
    ignore (Shm.read_i64 c.shms.(2) b);
    ( dsm_counter c ~node:2 "diffs_applied",
      dsm_counter c ~node:2 "write_notices_applied",
      !(c.charged) )
  in
  let r1 = run () and r2 = run () in
  Alcotest.(check bool) "identical stats across runs" true (r1 = r2)

let prop_lock_chain_counter =
  (* Random release chains: a counter passed along any sequence of
     release/accept edges always reads its true value. *)
  QCheck.Test.make ~name:"lrc: counter correct along random release chains"
    ~count:60
    QCheck.(list_of_size Gen.(int_range 1 25) (int_range 0 3))
    (fun hops ->
      in_engine @@ fun () ->
      let c = make_cluster 4 in
      let a = slot c ~page:0 0 in
      let holder = ref 0 and count = ref 0 in
      Shm.write_i64 c.shms.(0) a 0;
      List.iter
        (fun next ->
          if next <> !holder then begin
            let _ = release c ~src:!holder ~dst:next in
            ()
          end;
          let v = Shm.read_i64 c.shms.(next) a in
          if v <> !count then QCheck.Test.fail_reportf "read %d at %d" v !count;
          Shm.write_i64 c.shms.(next) a (v + 1);
          incr count;
          holder := next)
        hops;
      true)

let prop_false_sharing_slots =
  (* Each node owns one slot of a single page and increments it under
     random release edges to a central reader; final values must match. *)
  QCheck.Test.make ~name:"lrc: per-node slots survive false sharing"
    ~count:60
    QCheck.(list_of_size Gen.(int_range 1 20) (int_range 1 3))
    (fun writers ->
      in_engine @@ fun () ->
      let c = make_cluster 4 in
      let counts = Array.make 4 0 in
      List.iter
        (fun node ->
          let a = slot c ~page:0 node in
          let v = Shm.read_i64 c.shms.(node) a in
          Shm.write_i64 c.shms.(node) a (v + 1);
          counts.(node) <- counts.(node) + 1;
          let _ = release c ~src:node ~dst:0 in
          ())
        writers;
      Array.for_all2 ( = )
        (Array.init 4 (fun node ->
             if node = 0 then 0 else Shm.read_i64 c.shms.(0) (slot c ~page:0 node)))
        (Array.mapi (fun i v -> if i = 0 then 0 else v) counts))

(* Regression tests for subtle protocol bugs found during bring-up. *)

let test_serve_page_excludes_open_writes () =
  let c = make_cluster 2 in
  let a = slot c ~page:0 0 in
  (* Four released values, enough missing intervals for node 1 to fetch
     the whole page; then an unreleased open-interval value 9. *)
  for i = 1 to 4 do
    Shm.write_i64 c.shms.(0) a i;
    ignore (release c ~src:0 ~dst:1)
  done;
  Shm.write_i64 c.shms.(0) a 9;
  (* The served copy is the clean snapshot: byte-granular diffs assume
     the receiver's base matches the writer's twin, so unreleased
     mid-interval writes must not leak. *)
  Alcotest.(check int) "served copy excludes the unreleased write" 4
    (Shm.read_i64 c.shms.(1) a);
  Alcotest.(check int) "served as a whole page" 1
    (dsm_counter c ~node:1 "page_fetches");
  (* The open write is still published correctly at the next release. *)
  let _ = release c ~src:0 ~dst:1 in
  Alcotest.(check int) "next release publishes it" 9
    (Shm.read_i64 c.shms.(1) a)

let test_concurrent_release_during_cpu_yield () =
  (* Two same-node fibers releasing interleaved must not double-publish
     one dirty list (the close_interval snapshot race).  Protocol work
     takes no time here, so nothing yields; we emulate by two
     back-to-back make_piggyback calls: the second must carry no new
     interval. *)
  let c = make_cluster 2 in
  let a = slot c ~page:0 0 in
  Shm.write_i64 c.shms.(0) a 5;
  let pb1 = Lrc.make_piggyback c.lrcs.(0) ~receiver:1 ~nontransitive:false in
  let pb2 = Lrc.make_piggyback c.lrcs.(0) ~receiver:1 ~nontransitive:false in
  Alcotest.(check int) "first close publishes" 1 (List.length pb1.Lrc.intervals);
  Alcotest.(check int) "second close publishes nothing new" 1
    (List.length pb2.Lrc.intervals);
  (* pb2 still carries the interval description because node 1's knowledge
     was not updated; but no *new* interval may exist. *)
  Alcotest.(check int) "only one interval was created" 1
    (dsm_counter c ~node:0 "intervals_created")

let test_release_waits_for_close () =
  (* Two fibers of node 0 release at the same time, the second while the
     first's close yields to charge for its encode: the second RELEASE
     must still carry the interval the first one closed. *)
  let c = make_cluster ~charge:Engine.delay 2 in
  let engine = Engine.create () in
  let first = ref None and second = ref None in
  let release_to_1 result () =
    result :=
      Some (Lrc.make_piggyback c.lrcs.(0) ~receiver:1 ~nontransitive:false)
  in
  Engine.spawn engine (fun () ->
      Shm.write_i64 c.shms.(0) (slot c ~page:0 0) 5;
      Engine.fork (release_to_1 second);
      release_to_1 first ());
  Engine.run engine;
  let required pb =
    match !pb with
    | Some pb -> Vc.get pb.Lrc.required_vc 0
    | None -> Alcotest.fail "release did not finish"
  in
  Alcotest.(check int) "first release covers the interval" 1 (required first);
  Alcotest.(check int) "second release covers it too" 1 (required second);
  Alcotest.(check int) "one interval created" 1
    (dsm_counter c ~node:0 "intervals_created")

(* Poll every microsecond of virtual time until [ready] holds. *)
let rec wait_until ready =
  if not (ready ()) then begin
    Engine.delay 1e-6;
    wait_until ready
  end

let test_close_during_flush_publishes_orphan () =
  (* A write notice for a page node 0 is writing makes its accept flush
     the page to an orphan diff and yield to charge for the encode.  A
     second fiber of node 0 releases in that window: the interval it
     closes names the page, and must publish the orphan with it. *)
  let c = make_cluster ~charge:Engine.delay 2 in
  let engine = Engine.create () in
  let seen = ref (-1) in
  Engine.spawn engine (fun () ->
      Shm.write_i64 c.shms.(1) (slot c ~page:0 0) 1;
      let from_1 =
        Lrc.make_piggyback c.lrcs.(1) ~receiver:0 ~nontransitive:false
      in
      Shm.write_i64 c.shms.(0) (slot c ~page:0 1) 2;
      Engine.fork (fun () ->
          wait_until (fun () -> page_state c ~node:0 ~page:0 = Page.Read_only);
          ignore (release c ~src:0 ~dst:1);
          seen := Shm.read_i64 c.shms.(1) (slot c ~page:0 1));
      Lrc.accept c.lrcs.(0) [ from_1 ]);
  Engine.run engine;
  Alcotest.(check int) "the released orphan reaches node 1" 2 !seen

let test_fault_during_invalidation_sees_missing () =
  (* Node 1's accept invalidates its valid copy of page 0, then yields
     to charge for the protection change.  The fault trap is free here,
     so a read in that window validates at once: it must find the
     missing interval and fetch it rather than validate the stale copy. *)
  let trap = Cpu_cost.default.Cpu_cost.fault_trap in
  let c =
    make_cluster ~charge:(fun dt -> if dt <> trap then Engine.delay dt) 2
  in
  let a = slot c ~page:0 0 in
  let engine = Engine.create () in
  let seen = ref (-1) in
  Engine.spawn engine (fun () ->
      Shm.write_i64 c.shms.(0) a 7;
      let pb = Lrc.make_piggyback c.lrcs.(0) ~receiver:1 ~nontransitive:false in
      Engine.fork (fun () ->
          wait_until (fun () -> page_state c ~node:1 ~page:0 = Page.Invalid);
          seen := Shm.read_i64 c.shms.(1) a);
      Lrc.accept c.lrcs.(1) [ pb ]);
  Engine.run engine;
  Alcotest.(check int) "the read in the window sees the write" 7 !seen

let test_many_interval_page_history_correct () =
  (* Long per-page histories exercise the whole-page fetch path; the final
     value must always win regardless of transfer mechanism. *)
  let c = make_cluster 3 in
  let a = slot c ~page:0 0 and b = slot c ~page:0 1 in
  for i = 1 to 12 do
    Shm.write_i64 c.shms.(0) a i;
    let pb = Lrc.make_piggyback c.lrcs.(0) ~receiver:1 ~nontransitive:false in
    Lrc.accept c.lrcs.(1) [ pb ]
  done;
  (* Node 1 interleaves a write of its own slot on the same page. *)
  Shm.write_i64 c.shms.(1) b 777;
  let _ = release c ~src:1 ~dst:2 in
  ignore (Shm.read_i64 c.shms.(1) a);
  Alcotest.(check int) "final value at reader" 12 (Shm.read_i64 c.shms.(1) a);
  Alcotest.(check int) "own slot preserved" 777 (Shm.read_i64 c.shms.(1) b);
  let _ = release c ~src:0 ~dst:2 in
  Alcotest.(check int) "third party sees final value" 12
    (Shm.read_i64 c.shms.(2) a);
  Alcotest.(check int) "third party sees node1 slot" 777
    (Shm.read_i64 c.shms.(2) b)

(* ------------------------------------------------------------------ *)
(* Update / hybrid coherence strategies (paper §4.3) *)

let test_update_strategy_keeps_pages_valid () =
  let c = make_cluster ~strategy:Lrc.Update 2 in
  let a = slot c ~page:0 0 in
  Shm.write_i64 c.shms.(0) a 42;
  let pb = Lrc.make_piggyback c.lrcs.(0) ~receiver:1 ~nontransitive:false in
  Alcotest.(check bool) "diffs travel with the release" true
    (pb.Lrc.attached_diffs <> []);
  Lrc.accept c.lrcs.(1) [ pb ];
  (* The data arrived eagerly: the page stays valid and the read faults
     neither for the page nor for diffs. *)
  Alcotest.(check bool) "page stays valid" true
    (page_state c ~node:1 ~page:0 <> Page.Invalid);
  Alcotest.(check int) "value" 42 (Shm.read_i64 c.shms.(1) a);
  Alcotest.(check int) "no read fault" 0
    (vm_counter c ~node:1 "read_faults");
  Alcotest.(check int) "no diff request" 0
    (dsm_counter c ~node:1 "diff_requests")

let test_invalidate_strategy_attaches_nothing () =
  let c = make_cluster 2 in
  let a = slot c ~page:0 0 in
  Shm.write_i64 c.shms.(0) a 1;
  let pb = Lrc.make_piggyback c.lrcs.(0) ~receiver:1 ~nontransitive:false in
  Alcotest.(check bool) "no eager data under invalidation" true
    (pb.Lrc.attached_diffs = [])

let test_hybrid_update_attaches_own_only () =
  let c = make_cluster ~strategy:Lrc.Hybrid_update 3 in
  let a = slot c ~page:0 0 and b = slot c ~page:1 0 in
  Shm.write_i64 c.shms.(0) a 10;
  let _ = release c ~src:0 ~dst:1 in
  Shm.write_i64 c.shms.(1) b 20;
  let pb = Lrc.make_piggyback c.lrcs.(1) ~receiver:2 ~nontransitive:false in
  (* The piggyback describes both nodes' intervals but ships data only for
     the sender's own. *)
  Alcotest.(check bool) "attachments only from the sender" true
    (List.for_all
       (fun (_, (id : Interval.id), _) -> id.Interval.creator = 1)
       pb.Lrc.attached_diffs);
  Lrc.accept c.lrcs.(2) [ pb ];
  Alcotest.(check bool) "sender's page valid" true
    (page_state c ~node:2 ~page:1 <> Page.Invalid);
  Alcotest.(check bool) "third-party page invalidated" true
    (page_state c ~node:2 ~page:0 = Page.Invalid);
  Alcotest.(check int) "third-party value on demand" 10
    (Shm.read_i64 c.shms.(2) a);
  Alcotest.(check int) "sender value eagerly" 20 (Shm.read_i64 c.shms.(2) b)

let test_update_onto_stale_base_caches () =
  let c = make_cluster ~strategy:Lrc.Update 3 in
  let a = slot c ~page:0 0 and a' = slot c ~page:0 1 in
  (* Node 0 writes page 0 and releases only to node 1. *)
  Shm.write_i64 c.shms.(0) a 5;
  let _ = release c ~src:0 ~dst:1 in
  (* Node 1 writes the same page and sends node 2 a non-transitive
     release: node 2 learns about node 0's interval only as a gap, so its
     copy is stale for it; node 1's eager diff cannot be applied in place
     and must be cached for the later validation. *)
  Shm.write_i64 c.shms.(1) a' 6;
  let pb = Lrc.make_piggyback c.lrcs.(1) ~receiver:2 ~nontransitive:true in
  Lrc.accept c.lrcs.(2) [ pb ];
  Alcotest.(check bool) "page invalid (gap)" true
    (page_state c ~node:2 ~page:0 = Page.Invalid);
  Alcotest.(check int) "both writes visible after validation" 5
    (Shm.read_i64 c.shms.(2) a);
  Alcotest.(check int) "second slot" 6 (Shm.read_i64 c.shms.(2) a');
  (* Only node 0's diff needed a remote fetch; node 1's came with the
     message. *)
  Alcotest.(check int) "one remote diff request" 1
    (dsm_counter c ~node:2 "diff_requests")

let test_update_strategy_lock_chain () =
  (* The counter chain from the invalidation tests must hold verbatim
     under the update strategy. *)
  let c = make_cluster ~strategy:Lrc.Update 4 in
  let a = slot c ~page:0 0 in
  Shm.write_i64 c.shms.(0) a 1;
  for next = 1 to 3 do
    let _ = release c ~src:(next - 1) ~dst:next in
    let v = Shm.read_i64 c.shms.(next) a in
    Shm.write_i64 c.shms.(next) a (v + 1)
  done;
  let _ = release c ~src:3 ~dst:0 in
  Alcotest.(check int) "counter" 4 (Shm.read_i64 c.shms.(0) a)

let test_held_diff_splits_merge_run () =
  (* Node 2 misses 0.1, 1.1 and 0.2 of one page, in that causal order,
     and holds only 1.1's diff (shipped eagerly).  0.1 and 0.2 are of one
     creator but not adjacent in the apply order, so they must not be
     fetched as one merged run: the merge would apply 0.2's write before
     1.1's and let 1.1 overwrite it. *)
  let c = make_cluster ~strategy:Lrc.Hybrid_update 3 in
  let x = slot c ~page:0 0 in
  Shm.write_i64 c.shms.(0) x 1;
  let _ = release c ~src:0 ~dst:1 in
  Shm.write_i64 c.shms.(1) x (Shm.read_i64 c.shms.(1) x + 1);
  let _ = release c ~src:1 ~dst:0 in
  (* Node 1 tells node 2 about 0.1 (no data) and its own 1.1 (eager). *)
  let _ = release c ~src:1 ~dst:2 in
  Shm.write_i64 c.shms.(0) x 3;
  (* A locally addressed release closes 0.2 and counts both of node 0's
     diffs as shipped to every peer, so the next release to node 2
     carries no data. *)
  ignore (Lrc.make_piggyback c.lrcs.(0) ~receiver:0 ~nontransitive:false);
  let pb = release c ~src:0 ~dst:2 in
  Alcotest.(check int) "no eager data for node 0's intervals" 0
    (List.length pb.Lrc.attached_diffs);
  Alcotest.(check int) "latest write wins" 3 (Shm.read_i64 c.shms.(2) x)

let test_aliased_diff_billed_once () =
  (* A physical diff listed under two ids crosses the wire once; the
     second entry costs its 8-byte header plus a 4-byte back-reference.
     Piggyback attachments and diff replies bill through the same rule. *)
  let c = make_cluster ~strategy:Lrc.Update 2 in
  Shm.write_i64 c.shms.(0) (slot c ~page:0 0) 7;
  let pb = Lrc.make_piggyback c.lrcs.(0) ~receiver:1 ~nontransitive:false in
  let page, id, d =
    match pb.Lrc.attached_diffs with
    | [ (page, id, [ d ]) ] -> (page, id, d)
    | _ -> Alcotest.fail "expected one attached diff"
  in
  let alias = { id with Interval.index = id.Interval.index + 1 } in
  let entries = [ (page, id, [ d ]); (page, alias, [ d ]) ] in
  let expected = 8 + Carlos_vm.Diff.size_bytes d + 8 + 4 in
  Alcotest.(check int) "piggyback diff_payload" expected
    (List.assoc Carlos_obs.Cost.Diff_payload
       (Lrc.piggyback_cost { pb with Lrc.attached_diffs = entries }));
  Alcotest.(check int) "diff reply bytes" expected
    (Lrc.diff_entries_bytes entries)

(* ------------------------------------------------------------------ *)
(* Batched fetching and the creator-side merged-diff cache *)

let test_vc_wire_size () =
  (* Interval indices and clock components are 32-bit on the wire; the
     old 2-bytes-per-entry accounting undercounted every message that
     carries a clock. *)
  Alcotest.(check int) "entry bytes" 4 Vc.entry_bytes;
  Alcotest.(check int) "4-node clock" 16 (Vc.size_bytes (Vc.zero ~nodes:4));
  Alcotest.(check int) "1-node clock" 4 (Vc.size_bytes (Vc.zero ~nodes:1))

(* Two released intervals of one creator touching the same page: the
   fault must fetch both in a single coalesced diff request. *)
let coalescing_scenario () =
  let c = make_cluster 3 in
  let a = slot c ~page:0 0 and b = slot c ~page:0 1 in
  Shm.write_i64 c.shms.(0) a 1;
  let _ = release c ~src:0 ~dst:1 in
  Shm.write_i64 c.shms.(0) b 2;
  let _ = release c ~src:0 ~dst:1 in
  let _ = release c ~src:0 ~dst:2 in
  (c, a, b)

let test_per_creator_coalescing () =
  let c, a, b = coalescing_scenario () in
  Alcotest.(check int) "no requests before the fault" 0
    (dsm_counter c ~node:1 "diff_requests");
  Alcotest.(check int) "first interval's write" 1 (Shm.read_i64 c.shms.(1) a);
  Alcotest.(check int) "second interval's write" 2 (Shm.read_i64 c.shms.(1) b);
  Alcotest.(check int) "both intervals in one request" 1
    (dsm_counter c ~node:1 "diff_requests")

let test_diff_cache_hit_on_repeat_fetch () =
  let c, a, b = coalescing_scenario () in
  ignore (Shm.read_i64 c.shms.(1) a);
  let misses = dsm_counter c ~node:0 "diff_cache_misses" in
  Alcotest.(check bool) "first fetch merges afresh" true (misses > 0);
  Alcotest.(check int) "nothing cached yet" 0
    (dsm_counter c ~node:0 "diff_cache_hits");
  (* Node 2 missing the same (page, creator, range) must be served from
     the memoized merge. *)
  Alcotest.(check int) "repeat fetcher reads a" 1 (Shm.read_i64 c.shms.(2) a);
  Alcotest.(check int) "repeat fetcher reads b" 2 (Shm.read_i64 c.shms.(2) b);
  Alcotest.(check bool) "repeat fetch hits the cache" true
    (dsm_counter c ~node:0 "diff_cache_hits" > 0);
  Alcotest.(check int) "no extra merge" misses
    (dsm_counter c ~node:0 "diff_cache_misses")

(* ------------------------------------------------------------------ *)
(* Cross-backend conformance: the same application, same seed, at 4
   nodes must produce identical application-level results on all three
   consistency models, with each model's auditor invariants clean. *)

module System = Carlos.System
module Backend = Carlos_dsm.Backend
module Audit = Carlos_audit.Audit
module Seq = Carlos_dsm.Seq_backend
module Grid = Carlos_apps.Grid
module Tsp = Carlos_apps.Tsp

let audited_run backend mk =
  let sys = System.create ~audit:true backend in
  let result = mk sys in
  let audit = Option.get (System.auditor sys) in
  Alcotest.(check int)
    (Carlos_dsm.Backend.kind_to_string backend.System.backend
    ^ " audit clean")
    0
    (Audit.violation_count audit);
  result

let test_conformance_grid () =
  let results =
    List.map
      (fun backend ->
        let cfg =
          { (Grid.config ~nodes:4 Grid.default_params) with System.backend }
        in
        audited_run cfg (fun sys ->
            let r = Grid.run sys Grid.Hybrid Grid.default_params in
            Alcotest.(check bool)
              (Backend.kind_to_string backend ^ " grid exact")
              true r.Grid.exact;
            r.Grid.checksum))
      Backend.all_kinds
  in
  match results with
  | lrc :: rest ->
    List.iter
      (fun checksum ->
        Alcotest.(check (float 0.0)) "identical checksum" lrc checksum)
      rest
  | [] -> Alcotest.fail "no backends"

let test_conformance_tsp () =
  let reference = Tsp.solve_reference Tsp.default_params in
  let results =
    List.map
      (fun backend ->
        let cfg = { (System.default_config ~nodes:4) with System.backend } in
        audited_run cfg (fun sys ->
            let r = Tsp.run sys Tsp.Lock Tsp.default_params in
            r.Tsp.best))
      Backend.all_kinds
  in
  List.iter
    (fun best -> Alcotest.(check int) "optimal tour" reference best)
    results

(* ------------------------------------------------------------------ *)
(* The sequencer, exercised through a direct-call cluster (no simulated
   network): total-order stamping and replica convergence, the origin and
   the sequencer included. *)

type seq_cluster = {
  sshms : Shm.t array;
  seqs : Seq.t array;
  slog : sent list ref;
}

let make_seq_cluster n =
  let sshms = Array.init n (fun _ -> Shm.create ~page_size:256 ~pages:8 ()) in
  let charge _ = () in
  (* Direct-call wiring: the sequencer's pushes apply synchronously at
     each replica before the RPC "reply" returns, which models the
     shared-FIFO-channel guarantee of the full system. *)
  let servers = ref [||] and slog = ref [] in
  let peer = loopback_peer servers slog in
  let seqs =
    Array.init n (fun me ->
        Seq.create ~nodes:n ~me ~sequencer:0
          ~page_table:(Shm.page_table sshms.(me))
          ~costs:Cpu_cost.default ~charge ~peer ())
  in
  servers := seqs;
  { sshms; seqs; slog }

let test_seq_flush_order () =
  let c = make_seq_cluster 3 in
  let stamped = ref [] in
  Seq.set_hooks c.seqs.(0)
    {
      Seq.no_hooks with
      on_stamped = (fun ~seq ~origin -> stamped := (seq, origin) :: !stamped);
    };
  let write node ~page ~offset v =
    Shm.write_i64 c.sshms.(node) (Shm.addr c.sshms.(node) ~page ~offset) v
  in
  let flush node =
    (Seq.make_piggyback c.seqs.(node) ~receiver:0 ~nontransitive:false)
      .Seq.upto
  in
  (* Node 1 flushes one page; node 2 two, which take stamps in page order;
     the sequencer's own flush is stamped locally.  Nodes 1 and 2 share
     page 0 at different offsets. *)
  write 1 ~page:0 ~offset:0 7;
  Alcotest.(check int) "node 1's horizon" 1 (flush 1);
  write 2 ~page:1 ~offset:0 3;
  write 2 ~page:0 ~offset:8 9;
  Alcotest.(check int) "node 2's horizon" 3 (flush 2);
  write 0 ~page:2 ~offset:16 5;
  Alcotest.(check int) "the sequencer's horizon" 4 (flush 0);
  Alcotest.(check (list (pair int int)))
    "one stamp per diff, in flush order"
    [ (1, 1); (2, 2); (3, 2); (4, 0) ]
    (List.rev !stamped);
  Array.iteri
    (fun node shm ->
      let read ~page ~offset = Shm.read_i64 shm (Shm.addr shm ~page ~offset) in
      let name what = Printf.sprintf "node %d %s" node what in
      Alcotest.(check int) (name "applied every stamp") 4
        (Seq.applied_seq c.seqs.(node));
      Alcotest.(check (list int)) (name "converged")
        [ 7; 9; 3; 5 ]
        [
          read ~page:0 ~offset:0;
          read ~page:0 ~offset:8;
          read ~page:1 ~offset:0;
          read ~page:2 ~offset:16;
        ])
    c.sshms

(* ------------------------------------------------------------------ *)
(* Wire sizes: one message of every kind each backend sends, through the
   recording loopback peer.  Each expectation is the message's size
   formula; a change to any of them fails here. *)

module Central = Carlos_dsm.Central_backend

let sent_t =
  let pp ppf m =
    Format.fprintf ppf "{dst %d; %s %d B; reply %s}" m.dst (Cost.name m.cost)
      m.bytes
      (match m.reply with
      | None -> "none"
      | Some (c, n) -> Printf.sprintf "%s %d B" (Cost.name c) n)
  in
  Alcotest.testable pp ( = )

let rpc_sent ~dst cost bytes reply_cost reply_bytes =
  { dst; cost; bytes; reply = Some (reply_cost, reply_bytes) }

let post_sent ~dst cost bytes = { dst; cost; bytes; reply = None }

let check_sent what log expected =
  Alcotest.(check (list sent_t)) what expected (take_sent log)

(* The page size of every test cluster. *)
let page_size = 256

(* The diff of one 8-byte write of [v] at [offset] onto a zero page. *)
let write_diff ~offset v =
  let twin = Bytes.make page_size '\000' in
  let current = Bytes.copy twin in
  Bytes.set_int64_le current offset (Int64.of_int v);
  Diff.create ~page:0 ~twin ~current

let test_lrc_wire_sizes () =
  let c = make_cluster 2 in
  (* A page reply is 8 + the page + the clock it covers. *)
  let page_reply = 8 + page_size + (Vc.entry_bytes * 2) in
  (* Diff fetch: 8 + per entry (4 + 8 per id); the reply is 8 + per entry
     (8 + its diffs). *)
  let a = slot c ~page:0 0 in
  Shm.write_i64 c.shms.(0) a 42;
  ignore (release c ~src:0 ~dst:1);
  ignore (Shm.read_i64 c.shms.(1) a);
  check_sent "diff fetch" c.log
    [
      rpc_sent ~dst:0 Cost.Diff_payload (8 + 4 + 8) Cost.Diff_payload
        (8 + 8 + Diff.size_bytes (write_diff ~offset:0 42));
    ];
  (* Whole-page fetch: four missing intervals make node 1 ask for the
     page. *)
  let b = slot c ~page:1 0 in
  for i = 1 to 4 do
    Shm.write_i64 c.shms.(0) b i;
    ignore (release c ~src:0 ~dst:1)
  done;
  ignore (Shm.read_i64 c.shms.(1) b);
  check_sent "whole-page fetch" c.log
    [ rpc_sent ~dst:0 Cost.Diff_payload 12 Cost.Diff_payload page_reply ];
  (* Base refetch: after a GC node 1 rebuilds its dropped copy of page 2
     from the keeper's base. *)
  let d = slot c ~page:2 0 in
  Shm.write_i64 c.shms.(0) d 11;
  ignore (release c ~src:0 ~dst:1);
  run_gc c;
  ignore (take_sent c.log);
  Alcotest.(check int) "base content" 11 (Shm.read_i64 c.shms.(1) d);
  check_sent "base refetch" c.log
    [ rpc_sent ~dst:0 Cost.Diff_payload 12 Cost.Diff_payload page_reply ]

let test_lrc_interval_fetch_size () =
  let c = make_cluster 3 in
  Shm.write_i64 c.shms.(0) (slot c ~page:0 0) 10;
  ignore (release c ~src:0 ~dst:1);
  Shm.write_i64 c.shms.(1) (slot c ~page:1 0) 20;
  let noted = ref [] in
  Lrc.set_hooks c.lrcs.(1)
    {
      Lrc.no_hooks with
      on_peer_note = (fun ~node:_ ~peer ~vc:_ -> noted := peer :: !noted);
    };
  (* Node 2 accepts a non-transitive release of node 1 naming node 0's
     interval, whose description it fetches from node 1. *)
  let pb = Lrc.make_piggyback c.lrcs.(1) ~receiver:2 ~nontransitive:true in
  ignore (take_sent c.log);
  Lrc.accept c.lrcs.(2) [ pb ];
  (* Request: 8 + a clock.  Reply: 8 + per interval (a clock + 4 + 4 per
     write notice); node 2 lacks both intervals, one write notice each. *)
  let interval = (Vc.entry_bytes * 3) + 4 + 4 in
  check_sent "interval fetch" c.log
    [
      rpc_sent ~dst:1 Cost.Vc_entries
        (8 + (Vc.entry_bytes * 3))
        Cost.Write_notices
        (8 + (2 * interval));
    ];
  Alcotest.(check (list int)) "the server learned the requester's clock"
    [ 2 ] !noted

let test_central_wire_sizes () =
  let shms = Array.init 2 (fun _ -> Shm.create ~page_size ~pages:8 ()) in
  let servers = ref [||] and log = ref [] in
  let peer = loopback_peer servers log in
  let cs =
    Array.init 2 (fun me ->
        Central.create ~nodes:2 ~me ~home:0
          ~page_table:(Shm.page_table shms.(me))
          ~costs:Cpu_cost.default ~charge:ignore ~peer ())
  in
  servers := cs;
  let a = Shm.addr shms.(0) ~page:0 ~offset:0 in
  (* Read fault: an acquire drops node 1's cached copies, so the read
     fetches the page and its version from home. *)
  Central.accept cs.(1)
    [ Central.make_piggyback cs.(0) ~receiver:1 ~nontransitive:false ];
  ignore (Shm.read_i64 shms.(1) a);
  check_sent "read fault" log
    [ rpc_sent ~dst:0 Cost.Diff_payload 12 Cost.Diff_payload (12 + page_size) ];
  (* Flush: 8 + the diffs, answered with 8 bytes. *)
  Shm.write_i64 shms.(1) a 42;
  ignore (Central.make_piggyback cs.(1) ~receiver:0 ~nontransitive:false);
  check_sent "flush" log
    [
      rpc_sent ~dst:0 Cost.Diff_payload
        (8 + Diff.size_bytes (write_diff ~offset:0 42))
        Cost.Diff_payload 8;
    ]

let test_seq_wire_sizes () =
  let c = make_seq_cluster 3 in
  (* A flush: 8 + the diffs, answered with the last stamp (12 bytes).
     The sequencer pushes the stamped diff to both replicas before it
     replies: 8 + per entry (16 + the diff). *)
  let diff = Diff.size_bytes (write_diff ~offset:0 42) in
  Shm.write_i64 c.sshms.(1) (Shm.addr c.sshms.(1) ~page:0 ~offset:0) 42;
  ignore (Seq.make_piggyback c.seqs.(1) ~receiver:0 ~nontransitive:false);
  check_sent "flush and its pushes" c.slog
    [
      post_sent ~dst:1 Cost.Diff_payload (8 + 16 + diff);
      post_sent ~dst:2 Cost.Diff_payload (8 + 16 + diff);
      rpc_sent ~dst:0 Cost.Diff_payload (8 + diff) Cost.Diff_payload 12;
    ]

(* ------------------------------------------------------------------ *)
(* LRC metadata: the causal order and the interval log *)

let interval ~nodes ~creator ~index =
  let vc = Vc.zero ~nodes in
  Vc.set vc creator index;
  Interval.make ~creator ~index ~vc ~write_notices:[]

(* The causal sort as it was before intervals cached their rank: a tuple
   key under polymorphic compare. *)
let oracle_causal_sort intervals =
  let key (i : Interval.t) =
    ( Vc.sum i.Interval.vc,
      i.Interval.id.Interval.creator,
      i.Interval.id.Interval.index )
  in
  List.sort (fun a b -> compare (key a) (key b)) intervals

(* One creator's row of a random log: intervals 1..top, of which the GC
   removed 1..gc, and the range (lo, hi] asked for, if [included].  Each
   interval's other clock components lie in 0..2, so that many intervals
   share a rank. *)
type range_row = {
  top : int;
  gc : int;
  lo : int;
  hi : int;
  included : bool;
  others : int array list; (* one clock per index 1..top *)
}

let gen_range_row ~nodes =
  QCheck.Gen.(
    int_range 0 12 >>= fun top ->
    int_range 0 top >>= fun gc ->
    int_range 0 top >>= fun lo ->
    int_range 0 top >>= fun hi ->
    bool >>= fun included ->
    list_repeat top (array_size (return nodes) (int_range 0 2))
    >|= fun others -> { top; gc; lo; hi; included; others })

let prop_causal_range_matches_oracle =
  let print rows =
    String.concat "; "
      (Array.to_list
         (Array.mapi
            (fun c r ->
              Printf.sprintf "%d: 1..%d gc %d (%d,%d]%s" c r.top r.gc r.lo r.hi
                (if r.included then "" else " excluded"))
            rows))
  in
  QCheck.Test.make ~name:"interval: causal_range matches the tuple-key sort"
    ~count:300
    (QCheck.make ~print
       QCheck.Gen.(int_range 1 4 >>= fun nodes ->
                   array_repeat nodes (gen_range_row ~nodes)))
    (fun rows ->
      let nodes = Array.length rows in
      let log = Interval.Log.create ~nodes in
      Array.iteri
        (fun creator r ->
          List.iteri
            (fun k others ->
              let index = k + 1 in
              let vc = Vc.zero ~nodes in
              Array.iteri
                (fun c v -> Vc.set vc c (if c = creator then index else v))
                others;
              Interval.Log.add log
                (Interval.make ~creator ~index ~vc ~write_notices:[]))
            r.others;
          for index = 1 to r.gc do
            Interval.Log.remove log ~creator ~index
          done)
        rows;
      let lo = Vc.zero ~nodes and hi = Vc.zero ~nodes in
      Array.iteri
        (fun c r ->
          Vc.set lo c r.lo;
          Vc.set hi c r.hi)
        rows;
      let creators c = rows.(c).included in
      (* The first id the range asks for that the GC removed. *)
      let gap =
        List.find_map
          (fun c ->
            let r = rows.(c) in
            if r.included && r.lo < r.gc && r.hi > r.lo then
              Some (c, r.lo + 1)
            else None)
          (List.init nodes Fun.id)
      in
      match (Interval.Log.causal_range log ~lo ~hi ~creators, gap) with
      | got, None ->
        let expected =
          Interval.Log.fold
            (fun (i : Interval.t) acc ->
              let c = i.Interval.id.Interval.creator
              and k = i.Interval.id.Interval.index in
              if creators c && Vc.get lo c < k && k <= Vc.get hi c then
                i :: acc
              else acc)
            log []
          |> oracle_causal_sort
        in
        let got = Array.to_list got in
        List.for_all
          (fun (i : Interval.t) -> i.Interval.rank = Vc.sum i.Interval.vc)
          got
        && List.length got = List.length expected
        && List.for_all2 ( == ) got expected
      | _, Some _ -> false
      | exception Interval.Log.Missing id -> (
        match gap with
        | Some (c, k) -> id.Interval.creator = c && id.Interval.index = k
        | None -> false))

type log_op =
  | Add of int * int
  | Remove of int * int
  | Remove_upto of int * int (* indices 1..k in ascending order, as the GC *)

let pp_log_op = function
  | Add (c, k) -> Printf.sprintf "add %d.%d" c k
  | Remove (c, k) -> Printf.sprintf "remove %d.%d" c k
  | Remove_upto (c, k) -> Printf.sprintf "remove %d.1-%d" c k

let prop_log_matches_model =
  let nodes = 3 and max_index = 40 in
  let gen_op =
    QCheck.Gen.(
      int_range 0 (nodes - 1) >>= fun c ->
      int_range 1 max_index >>= fun k ->
      frequency
        [
          (5, return (Add (c, k)));
          (2, return (Remove (c, k)));
          (1, return (Remove_upto (c, k)));
        ])
  in
  QCheck.Test.make ~name:"interval log matches a Hashtbl model" ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map pp_log_op ops))
       QCheck.Gen.(list_size (int_range 0 150) gen_op))
    (fun ops ->
      let log = Interval.Log.create ~nodes in
      let model = Hashtbl.create 64 in
      let remove c k =
        Interval.Log.remove log ~creator:c ~index:k;
        Hashtbl.remove model (c, k)
      in
      let agree () =
        Interval.Log.length log = Hashtbl.length model
        && (let ok = ref true in
            for c = 0 to nodes - 1 do
              for k = 0 to max_index + 1 do
                let found =
                  match Interval.Log.find log ~creator:c ~index:k with
                  | i -> Some i
                  | exception Not_found -> None
                in
                let expected = Hashtbl.find_opt model (c, k) in
                if
                  Interval.Log.mem log ~creator:c ~index:k
                  <> Option.is_some expected
                  ||
                  match (found, expected) with
                  | Some a, Some b -> a != b
                  | None, None -> false
                  | _ -> true
                then ok := false
              done
            done;
            !ok)
        &&
        let folded = List.rev (Interval.Log.fold List.cons log []) in
        let sorted =
          Hashtbl.fold (fun key i acc -> (key, i) :: acc) model []
          |> List.sort (fun (a, _) (b, _) -> compare a b)
          |> List.map snd
        in
        List.length folded = List.length sorted
        && List.for_all2 ( == ) folded sorted
      in
      List.for_all
        (fun op ->
          (match op with
          | Add (c, k) ->
            let i = interval ~nodes ~creator:c ~index:k in
            Interval.Log.add log i;
            Hashtbl.replace model (c, k) i
          | Remove (c, k) -> remove c k
          | Remove_upto (c, k) ->
            for j = 1 to k do
              remove c j
            done);
          agree ())
        ops)

(* Minor words allocated per call of [f], over [n] calls. *)
let words_per_call n f =
  let before = Gc.minor_words () in
  for _ = 1 to n do
    f ()
  done;
  (Gc.minor_words () -. before) /. float_of_int n

let test_metadata_allocation () =
  let nodes = 32 in
  let log = Interval.Log.create ~nodes in
  for c = 0 to nodes - 1 do
    for k = 1 to 20 do
      Interval.Log.add log (interval ~nodes ~creator:c ~index:k)
    done
  done;
  let a = Vc.zero ~nodes and b = Vc.zero ~nodes in
  for c = 0 to nodes - 1 do
    Vc.set a c (c + 1);
    Vc.set b c c
  done;
  let zero name f =
    let w = words_per_call 10_000 f in
    if w > 0.01 then Alcotest.failf "%s allocates %.2f words per call" name w
  in
  zero "Log.find" (fun () ->
      ignore
        (Sys.opaque_identity (Interval.Log.find log ~creator:7 ~index:13)));
  zero "Log.mem (miss)" (fun () ->
      ignore (Sys.opaque_identity (Interval.Log.mem log ~creator:7 ~index:99)));
  zero "Vc.dominates" (fun () ->
      ignore (Sys.opaque_identity (Vc.dominates a b)));
  zero "Vc.sum" (fun () -> ignore (Sys.opaque_identity (Vc.sum a)));
  (* The causal ordering allocates only its result: an array of exactly
     the range's intervals (a header word plus one per interval), and in
     list form three words per interval more, plus [Array.to_list]'s
     5-word closure.  Sorting in place allocates nothing. *)
  let lo = Vc.zero ~nodes and hi = Vc.zero ~nodes in
  for c = 0 to nodes - 1 do
    Vc.set lo c 13;
    Vc.set hi c 20
  done;
  let n = 7 * nodes in
  let range () = Interval.Log.causal_range log ~lo ~hi ~creators:(fun _ -> true) in
  let bound name w words =
    if w > float_of_int words then
      Alcotest.failf "%s allocates %.1f words, its result %d" name w words
  in
  bound "Log.causal_range"
    (words_per_call 100 (fun () -> ignore (Sys.opaque_identity (range ()))))
    (n + 1);
  bound "Log.causal_range as a list"
    (words_per_call 100 (fun () ->
         ignore (Sys.opaque_identity (Array.to_list (range ())))))
    (n + 1 + (3 * n) + 5);
  let sorted = range () in
  zero "Interval.sort_in_place" (fun () -> Interval.sort_in_place sorted)

let qcheck = Props.qcheck

let () =
  Props.run "dsm"
    [
      ( "lrc-basic",
        [
          loopback "propagation" test_basic_propagation;
          loopback "write notice invalidates" test_write_notice_invalidates;
          loopback "vc advances" test_vc_advances;
          loopback "no fault for own data" test_no_fault_for_own_data;
          loopback "release w/o writes"
            test_release_without_writes_carries_no_interval;
          loopback "empty diff" test_empty_diff_release;
        ] );
      ( "lrc-causality",
        [
          loopback "transitivity" test_transitivity;
          loopback "tailored piggyback" test_tailored_piggyback;
          loopback "full history to new peer"
            test_untold_peer_gets_full_history;
          loopback "NT triggers interval fetch"
            test_nontransitive_triggers_interval_fetch;
          loopback "barrier union has no gaps" test_barrier_union_has_no_gaps;
          loopback "lock handoff chain" test_lock_handoff_chain;
        ] );
      ( "lrc-multiwriter",
        [
          loopback "false sharing" test_multiple_writers_false_sharing;
          loopback "local mods preserved"
            test_concurrent_writer_preserves_local_mods;
          loopback "orphan diff path" test_orphan_diff_path;
        ] );
      ( "lrc-mechanisms",
        [
          loopback "whole-page fetch" test_whole_page_fetch_for_long_histories;
          loopback "metadata gc" test_metadata_gc;
          loopback "dropped page survives a later gc"
            test_dropped_page_survives_later_gc;
          loopback "determinism" test_determinism;
          loopback "serve excludes open writes"
            test_serve_page_excludes_open_writes;
          Alcotest.test_case "release waits for a concurrent close" `Quick
            test_release_waits_for_close;
          loopback "double close publishes once"
            test_concurrent_release_during_cpu_yield;
          Alcotest.test_case "close during a flush publishes the orphan"
            `Quick test_close_during_flush_publishes_orphan;
          Alcotest.test_case "fault during an invalidation sees it missing"
            `Quick test_fault_during_invalidation_sees_missing;
          loopback "long page history" test_many_interval_page_history_correct;
        ] );
      ( "lrc-strategies",
        [
          loopback "update keeps pages valid"
            test_update_strategy_keeps_pages_valid;
          loopback "invalidate attaches nothing"
            test_invalidate_strategy_attaches_nothing;
          loopback "hybrid attaches own only"
            test_hybrid_update_attaches_own_only;
          loopback "stale base caches eager diffs"
            test_update_onto_stale_base_caches;
          loopback "lock chain under update" test_update_strategy_lock_chain;
          loopback "held diff splits a merge run"
            test_held_diff_splits_merge_run;
          loopback "aliased diff billed once" test_aliased_diff_billed_once;
        ] );
      ( "batching",
        [
          Alcotest.test_case "vc wire size" `Quick test_vc_wire_size;
          loopback "per-creator coalescing" test_per_creator_coalescing;
          loopback "diff cache hit on repeat fetch"
            test_diff_cache_hit_on_repeat_fetch;
        ] );
      ( "conformance",
        [
          Alcotest.test_case "grid identical across backends" `Quick
            test_conformance_grid;
          Alcotest.test_case "tsp identical across backends" `Quick
            test_conformance_tsp;
        ] );
      ( "seq-order",
        [
          Alcotest.test_case "stamp order and convergence" `Quick
            test_seq_flush_order;
        ] );
      ( "wire-sizes",
        [
          loopback "lrc diff, page and base fetches" test_lrc_wire_sizes;
          loopback "lrc interval fetch" test_lrc_interval_fetch_size;
          loopback "central read fault and flush" test_central_wire_sizes;
          loopback "seq flush and pushes" test_seq_wire_sizes;
        ] );
      ( "lrc-properties",
        qcheck [ prop_lock_chain_counter; prop_false_sharing_slots ] );
      ( "lrc-metadata",
        Alcotest.test_case "lookups and sorts allocate nothing extra" `Quick
          test_metadata_allocation
        :: qcheck [ prop_causal_range_matches_oracle; prop_log_matches_model ] );
    ]
