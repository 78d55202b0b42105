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
module Resource = Carlos_sim.Resource
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

(* A relay builds the copy it forwards from its own log.  Node 1's second
   RELEASE to node 0 carries only its new interval, because node 1 knows
   node 0 logged the first.  Node 0 forwards it to node 2, which holds
   nothing: before node 0 has logged the first RELEASE its log lacks
   interval 1.1, which is a protocol violation, not a gap left for node 2
   to fetch; after, the copy carries both intervals.  Logging never
   moves node 0's clock. *)
let test_relay_copies_from_its_log () =
  let c = make_cluster 3 in
  let a = slot c ~page:0 0 in
  let to_relay () =
    Lrc.make_piggyback c.lrcs.(1) ~receiver:0 ~nontransitive:false
  in
  Shm.write_i64 c.shms.(1) a 1;
  let first = to_relay () in
  Lrc.note_peer_vc c.lrcs.(1) ~peer:0 first.Lrc.required_vc;
  Shm.write_i64 c.shms.(1) a 2;
  let second = to_relay () in
  let ids pb =
    List.map
      (fun (i : Interval.t) -> i.Interval.id.Interval.index)
      pb.Lrc.intervals
  in
  Alcotest.(check (list int)) "second carries only its interval" [ 2 ]
    (ids second);
  Lrc.log_relayed c.lrcs.(0) second;
  (match Lrc.trim_piggyback c.lrcs.(0) second ~receiver:2 with
  | _ -> Alcotest.fail "a copy built over a log gap"
  | exception Lrc.Protocol_violation _ -> ());
  Lrc.log_relayed c.lrcs.(0) first;
  let copy = Lrc.trim_piggyback c.lrcs.(0) second ~receiver:2 in
  Alcotest.(check (list int)) "copy carries both" [ 1; 2 ] (ids copy);
  Alcotest.(check int) "relay clock unmoved" 0 (Vc.get (Lrc.vc c.lrcs.(0)) 1);
  Lrc.accept c.lrcs.(2) [ copy ];
  Alcotest.(check int) "latest value" 2 (Shm.read_i64 c.shms.(2) a)

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

let test_gc_floor_skips_relogged_interval () =
  (* Nodes 1 and 2 both write page 1 before the first GC, whose election
     makes node 2 its keeper (2.1 sorts after 1.1).  A RELEASE node 0
     built for node 2 before that GC still carries 1.1, so accepting it
     afterwards re-logs 1.1 at node 2, below its floor.  Nobody writes
     page 1 before the second GC, so every node must keep node 2 as its
     keeper: were node 2 to elect 1.1's creator from the re-logged
     interval, it would discard the base that node 0's dropped copy is
     refetched from. *)
  let c = make_cluster 3 in
  let a = slot c ~page:1 0 and b = slot c ~page:1 1 in
  Shm.write_i64 c.shms.(1) a 11;
  ignore (release c ~src:1 ~dst:0);
  let stale = Lrc.make_piggyback c.lrcs.(0) ~receiver:2 ~nontransitive:false in
  Shm.write_i64 c.shms.(2) b 22;
  run_gc c;
  Alcotest.(check int) "node 2 logs nothing after the gc" 0
    (Lrc.metadata_pressure c.lrcs.(2));
  Lrc.accept c.lrcs.(2) [ stale ];
  Alcotest.(check int) "the stale release re-logs one interval" 32
    (Lrc.metadata_pressure c.lrcs.(2));
  Shm.write_i64 c.shms.(0) (slot c ~page:2 0) 33;
  ignore (release c ~src:0 ~dst:1);
  run_gc c;
  Alcotest.(check int) "the second gc discards the re-logged interval" 0
    (Lrc.metadata_pressure c.lrcs.(2));
  Alcotest.(check (pair int int)) "node 0 reads page 1 from node 2's base"
    (11, 22)
    (Shm.read_i64 c.shms.(0) a, Shm.read_i64 c.shms.(0) b);
  Alcotest.(check int) "one base fetched" 1
    (dsm_counter c ~node:0 "page_fetches")

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

let test_repeated_write_notice_recorded_once () =
  (* Two accepts of one RELEASE race: the first yields to charge for the
     write notice before its clock advances, so the second starts from
     the same clock and applies the same interval's notice again.  Node 1
     must record the missing id once, and fetch and apply its diff once. *)
  let c = make_cluster ~charge:Engine.delay 2 in
  let a = slot c ~page:0 0 in
  let engine = Engine.create () in
  let seen = ref (-1) in
  Engine.spawn engine (fun () ->
      Shm.write_i64 c.shms.(0) a 7;
      let pb = Lrc.make_piggyback c.lrcs.(0) ~receiver:1 ~nontransitive:false in
      let second = Resource.Ivar.create () in
      Engine.fork (fun () ->
          Lrc.accept c.lrcs.(1) [ pb ];
          Resource.Ivar.fill second ());
      Lrc.accept c.lrcs.(1) [ pb ];
      Resource.Ivar.read second;
      seen := Shm.read_i64 c.shms.(1) a);
  Engine.run engine;
  Alcotest.(check int) "the notice was applied twice" 2
    (dsm_counter c ~node:1 "write_notices_applied");
  Alcotest.(check int) "one diff applied" 1
    (dsm_counter c ~node:1 "diffs_applied");
  Alcotest.(check int) "one diff request" 1
    (dsm_counter c ~node:1 "diff_requests");
  Alcotest.(check int) "the read sees the write" 7 !seen

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

let test_update_accept_applies_attached_eagerly () =
  (* A barrier-style accept of two RELEASEs under [Update]: the first
     carries no interval and no diff, the second node 0's interval with
     its diff attached.  The attachment must still be applied in place,
     and cached so that node 1 can serve it. *)
  let c = make_cluster ~strategy:Lrc.Update 3 in
  let a = slot c ~page:0 0 in
  Shm.write_i64 c.shms.(0) a 42;
  let idle = Lrc.make_piggyback c.lrcs.(2) ~receiver:1 ~nontransitive:false in
  let pb = Lrc.make_piggyback c.lrcs.(0) ~receiver:1 ~nontransitive:false in
  Alcotest.(check bool) "only the second carries a diff" true
    (idle.Lrc.attached_diffs = [] && pb.Lrc.attached_diffs <> []);
  Lrc.accept c.lrcs.(1) [ idle; pb ];
  Alcotest.(check bool) "page stays valid" true
    (page_state c ~node:1 ~page:0 <> Page.Invalid);
  Alcotest.(check int) "the attached diff applied" 1
    (dsm_counter c ~node:1 "diffs_applied");
  Alcotest.(check int) "value" 42 (Shm.read_i64 c.shms.(1) a);
  Alcotest.(check int) "no read fault" 0 (vm_counter c ~node:1 "read_faults");
  (* Node 2 learns of the interval from node 1 alone, and node 1 ships
     the diff it cached along with it. *)
  let fwd = Lrc.make_piggyback c.lrcs.(1) ~receiver:2 ~nontransitive:false in
  Alcotest.(check bool) "node 1 forwards the cached diff" true
    (List.exists
       (fun (page, (id : Interval.id), _) ->
         page = 0 && id.Interval.creator = 0 && id.Interval.index = 1)
       fwd.Lrc.attached_diffs);
  Lrc.accept c.lrcs.(2) [ fwd ];
  Alcotest.(check int) "node 2 reads the value" 42
    (Shm.read_i64 c.shms.(2) a);
  Alcotest.(check int) "node 2 needed no diff request" 0
    (dsm_counter c ~node:2 "diff_requests")

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

let test_attachment_billed_entry_plus_diff () =
  (* An eagerly shipped diff is one entry of the piggyback: its 8-byte
     header plus the diff. *)
  let c = make_cluster ~strategy:Lrc.Update 2 in
  Shm.write_i64 c.shms.(0) (slot c ~page:0 0) 7;
  let pb = Lrc.make_piggyback c.lrcs.(0) ~receiver:1 ~nontransitive:false in
  let d =
    match pb.Lrc.attached_diffs with
    | [ (_, _, [ d ]) ] -> d
    | _ -> Alcotest.fail "expected one attached diff"
  in
  Alcotest.(check int) "piggyback diff_payload" (8 + Diff.size_bytes d)
    (List.assoc Cost.Diff_payload (Lrc.piggyback_cost pb))

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
        Seq.create ~nodes:n ~me
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

let test_lrc_merged_run_wire_bytes () =
  (* Node 1 fetches node 0's two intervals as one run: a request of one
     entry with two ids, answered by the merged diff under the first id
     and an empty entry for the second.  The reply is 8 + 8 per entry +
     the diff bytes fetched. *)
  let c, a, _ = coalescing_scenario () in
  ignore (take_sent c.log);
  ignore (Shm.read_i64 c.shms.(1) a);
  let fetched = dsm_counter c ~node:1 "diff_bytes_fetched" in
  Alcotest.(check int) "the merged diff crossed once"
    (Diff.size_bytes
       (Diff.merge [ write_diff ~offset:0 1; write_diff ~offset:8 2 ]))
    fetched;
  check_sent "one diff round trip" c.log
    [
      rpc_sent ~dst:0 Cost.Diff_payload
        (8 + 4 + (8 * 2))
        Cost.Diff_payload
        (8 + (8 * 2) + fetched);
    ]

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
        Central.create ~nodes:2 ~me
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
      (* The model: every interval added and not removed. *)
      let kept = ref [] in
      Array.iteri
        (fun creator r ->
          List.iteri
            (fun k others ->
              let index = k + 1 in
              let vc = Vc.zero ~nodes in
              Array.iteri
                (fun c v -> Vc.set vc c (if c = creator then index else v))
                others;
              let i = Interval.make ~creator ~index ~vc ~write_notices:[] in
              Interval.Log.add log i;
              if index > r.gc then kept := i :: !kept)
            r.others;
          Interval.Log.remove_upto log ~creator ~index:r.gc)
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
          List.filter
            (fun (i : Interval.t) ->
              let c = i.Interval.id.Interval.creator
              and k = i.Interval.id.Interval.index in
              creators c && Vc.get lo c < k && k <= Vc.get hi c)
            !kept
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
  | Remove_upto of int * int (* every index of the creator up to k *)
  | Iter_range of int * int * int (* the creator's indices in (lo, hi] *)

let pp_log_op = function
  | Add (c, k) -> Printf.sprintf "add %d.%d" c k
  | Remove_upto (c, k) -> Printf.sprintf "remove %d.1-%d" c k
  | Iter_range (c, lo, hi) -> Printf.sprintf "iter %d.(%d-%d]" c lo hi

let prop_log_matches_model =
  let nodes = 3 and max_index = 40 in
  let gen_op =
    QCheck.Gen.(
      int_range 0 (nodes - 1) >>= fun c ->
      int_range 1 max_index >>= fun k ->
      int_range 0 (max_index + 1) >>= fun lo ->
      int_range 0 (max_index + 1) >>= fun hi ->
      frequency
        [
          (5, return (Add (c, k)));
          (2, return (Remove_upto (c, k)));
          (2, return (Iter_range (c, lo, hi)));
        ])
  in
  QCheck.Test.make ~name:"interval log matches a Hashtbl model" ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map pp_log_op ops))
       QCheck.Gen.(list_size (int_range 0 150) gen_op))
    (fun ops ->
      let log = Interval.Log.create ~nodes in
      let model = Hashtbl.create 64 in
      let agree () =
        Interval.Log.length log = Hashtbl.length model
        &&
        let ok = ref true in
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
        !ok
      in
      List.for_all
        (fun op ->
          match op with
          | Add (c, k) ->
            let i = interval ~nodes ~creator:c ~index:k in
            Interval.Log.add log i;
            Hashtbl.replace model (c, k) i;
            agree ()
          | Remove_upto (c, k) ->
            Interval.Log.remove_upto log ~creator:c ~index:k;
            for j = 1 to k do
              Hashtbl.remove model (c, j)
            done;
            agree ()
          | Iter_range (c, lo, hi) ->
            let visited = ref [] in
            Interval.Log.iter_range log ~creator:c ~lo ~hi (fun i ->
                visited := i :: !visited);
            let expected =
              List.filter_map
                (fun k -> Hashtbl.find_opt model (c, k))
                (List.init (max 0 (hi - lo)) (fun j -> lo + 1 + j))
            in
            let visited = List.rev !visited in
            List.length visited = List.length expected
            && List.for_all2 ( == ) visited expected)
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
  (* The GC's walks: a creator's index range, and dropping a row prefix
     too short to release the array's front (re-added each time). *)
  let visited = ref 0 in
  let visit (_ : Interval.t) = incr visited in
  zero "Log.iter_range" (fun () ->
      Interval.Log.iter_range log ~creator:7 ~lo:3 ~hi:15 visit);
  Alcotest.(check int) "iter_range visits (3, 15]" (12 * 10_000) !visited;
  let prefix =
    Array.init 10 (fun k -> Interval.Log.find log ~creator:7 ~index:(k + 1))
  in
  zero "Log.remove_upto without compaction" (fun () ->
      Interval.Log.remove_upto log ~creator:7 ~index:10;
      for k = 0 to 9 do
        Interval.Log.add log prefix.(k)
      done);
  Alcotest.(check int) "prefix restored" (20 * nodes) (Interval.Log.length log);
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

(* The GC's diff discard drops every piece at or below the snapshot in
   its creator's entry, subtracts exactly their bytes, and leaves the
   pieces above it in their apply order. *)
let test_diff_store_discard_upto () =
  let module Store = Carlos_dsm.Diff_store in
  let nodes = 3 and pages = 4 in
  let store = Store.create ~nodes ~pages in
  let id creator index = { Interval.creator; index } in
  let pieces = ref [] in
  for creator = 0 to nodes - 1 do
    for index = 1 to 3 do
      for page = 0 to pages - 1 do
        (* Two pieces on page 1, written at different offsets. *)
        let count = if page = 1 then 2 else 1 in
        for k = 1 to count do
          let d = write_diff ~offset:(8 * k) ((100 * creator) + index) in
          Store.add store ~page (id creator index) d;
          pieces := (page, id creator index, d) :: !pieces
        done
      done
    done
  done;
  let snapshot = Vc.zero ~nodes in
  Vc.set snapshot 0 2;
  Vc.set snapshot 2 3;
  Store.discard_upto store snapshot;
  let kept (_, (i : Interval.id), _) =
    i.Interval.index > Vc.get snapshot i.Interval.creator
  in
  let survivors = List.filter kept (List.rev !pieces) in
  Alcotest.(check int) "bytes of the survivors"
    (List.fold_left (fun acc (_, _, d) -> acc + Diff.size_bytes d) 0 survivors)
    (Store.bytes_stored store);
  List.iter
    (fun ((page, i, _) as piece) ->
      let expected =
        if kept piece then
          Some
            (List.filter_map
               (fun (p, j, d) -> if p = page && j = i then Some d else None)
               survivors)
        else None
      in
      if Store.find store ~page i <> expected then
        Alcotest.failf "page %d of interval %d.%d after the discard" page
          i.Interval.creator i.Interval.index)
    (List.rev !pieces)

(* ------------------------------------------------------------------ *)
(* LRC per-page state *)

(* Which missing pages ride along in a fault's batch.  Node 0 writes the
   pages of [written] (among 0..5) and pages 6 and 7 in one interval;
   node 1 accepts it.  Before that, a GC dropped node 1's stale copy of
   page 7.  Then fibers of node 1 fault on page 6 (its fetch stays in
   flight), on page 7 and on the pages of [accessed], and each stops at
   its fault trap or in its fetch.  Node 1 then faults on [first]: its
   batch applies [first], then, in ascending order, exactly the other
   accessed pages that miss an interval — not page 6, whose fetch owns
   it, nor page 7, which must be rebuilt from its keeper. *)
let ride_along_case ~written ~accessed ~first =
  let trap = Cpu_cost.default.Cpu_cost.fault_trap in
  (* Which charges stop the fiber that makes them for a second. *)
  let stop = ref (fun _ -> false) in
  let c =
    make_cluster ~charge:(fun dt -> if !stop dt then Engine.delay 1.0) 2
  in
  let write page v = Shm.write_i64 c.shms.(0) (slot c ~page 0) v in
  let read page = ignore (Shm.read_i64 c.shms.(1) (slot c ~page 0)) in
  write 7 1;
  ignore (release c ~src:0 ~dst:1);
  run_gc c;
  List.iter (fun page -> write page 2) (6 :: 7 :: written);
  ignore (release c ~src:0 ~dst:1);
  (* Page 6's fetch stops in the server's charge, holding its gate. *)
  stop := (fun dt -> dt <> trap);
  Engine.fork (fun () -> read 6);
  Engine.delay 0.1;
  stop := (fun dt -> dt = trap);
  List.iter (fun page -> Engine.fork (fun () -> read page)) (7 :: accessed);
  Engine.delay 0.1;
  stop := (fun _ -> false);
  let applied = ref [] in
  Lrc.set_hooks c.lrcs.(1)
    {
      Lrc.no_hooks with
      on_page_interval =
        (fun ~node:_ ~page ~creator:_ ~index:_ ->
          match !applied with
          | last :: _ when last = page -> ()
          | _ -> applied := page :: !applied);
    };
  read first;
  Lrc.set_hooks c.lrcs.(1) Lrc.no_hooks;
  let batch = List.rev !applied in
  (* Every stopped fiber finishes, and every page reads node 0's value. *)
  Engine.delay 2.0;
  List.iter
    (fun page ->
      if Shm.read_i64 c.shms.(1) (slot c ~page 0) <> 2 then
        QCheck.Test.fail_reportf "page %d: stale after the faults" page)
    (6 :: 7 :: written);
  batch

let gen_ride_along =
  QCheck.Gen.(
    let pages =
      map (List.filter (fun p -> p >= 0)) (list_repeat 6 (int_range (-1) 5))
    in
    pages >>= fun written ->
    let written = List.sort_uniq Int.compare (0 :: written) in
    pages >>= fun accessed ->
    oneofl written >|= fun first ->
    (written, List.sort_uniq Int.compare accessed, first))

let prop_ride_along_batch =
  QCheck.Test.make ~name:"lrc: a fault's batch is the accessed missing pages"
    ~count:60
    (QCheck.make
       ~print:(fun (w, a, f) ->
         let l ps = String.concat "," (List.map string_of_int ps) in
         Printf.sprintf "written [%s], accessed [%s], first %d" (l w) (l a) f)
       gen_ride_along)
    (fun (written, accessed, first) ->
      let batch =
        in_engine (fun () -> ride_along_case ~written ~accessed ~first)
      in
      let expected =
        first
        :: List.filter
             (fun p -> p <> first && List.mem p written)
             accessed
      in
      if batch <> expected then
        QCheck.Test.fail_reportf "batch [%s], expected [%s]"
          (String.concat "," (List.map string_of_int batch))
          (String.concat "," (List.map string_of_int expected));
      true)

(* Node 1's per-page state through invalidations, validations, GC drops
   and refetches, against a model kept in hash tables.  Node 0 is the
   main writer: each [Write] is one interval of node 0 that writes slot 0
   of the listed pages, released to node 1.  A [Race] is a [Write] whose
   release node 1 accepts twice at once, so every notice arrives twice.
   A [Read] at node 1 validates the page, from diffs, a whole-page copy
   (more than three missing intervals) or, for a page a GC dropped, its
   keeper's base and the logged intervals above it.  [Gc] runs a whole
   GC: every page node 1 misses is dropped, to be rebuilt from node 0's
   base.  A [Straddle] brings node 1's copy of the page up to date,
   then has node 2, once it has acquired from node 0, write slot 1 of
   the page and release to node 1; node 1 faults on the page, and while
   its fetch of node 2's diff is in flight node 0 acquires from node 2,
   writes slot 0 and releases to node 1.  The fetch keeps node 0's
   fresh id missing and the page invalid, and the fault's second round
   fetches it.  Node 1's notice marks are checked too: node 0's is the
   newest id of the page's missing list, or none; node 2's, recorded at
   each straddle, outlives every drop of a list that has no id of
   node 2. *)
type page_op =
  | Write of int list
  | Race of int list
  | Read of int
  | Gc
  | Straddle of int

let show_pages ps = String.concat "," (List.map string_of_int ps)

let show_page_op = function
  | Write ps -> Printf.sprintf "write [%s]" (show_pages ps)
  | Race ps -> Printf.sprintf "race [%s]" (show_pages ps)
  | Read p -> Printf.sprintf "read %d" p
  | Gc -> "gc"
  | Straddle p -> Printf.sprintf "straddle %d" p

let model_pages = 4

let gen_page_op =
  QCheck.Gen.(
    let page = int_bound (model_pages - 1) in
    let pages =
      map (List.sort_uniq Int.compare) (list_size (int_range 1 3) page)
    in
    frequency
      [
        (4, map (fun ps -> Write ps) pages);
        (1, map (fun ps -> Race ps) pages);
        (3, map (fun p -> Read p) page);
        (1, return Gc);
        (1, map (fun p -> Straddle p) page);
      ])

let prop_page_state_model =
  QCheck.Test.make ~name:"lrc: per-page state matches a hash-table model"
    ~count:150
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_page_op ops))
       QCheck.Gen.(list_size (int_range 1 30) gen_page_op))
    (fun ops ->
      in_engine @@ fun () ->
      (* Which charges stop the fiber that makes them for a second. *)
      let stop = ref (fun _ -> false) in
      let c =
        make_cluster ~charge:(fun dt -> if !stop dt then Engine.delay 1.0) 3
      in
      let node1 = c.lrcs.(1) in
      (* The model.  Node 0's and node 2's interval counts; per node-0
         interval, the pages it wrote; per page at node 1, the creator-0
         component of its coverage, its missing indices (newest first),
         whether a GC dropped it and whether it has a live fault; per
         page, the coverage of node 0's base, node 2's last write to it
         and node 1's mark for node 2; the pages written since the last
         GC and the last GC's snapshot. *)
      let k = ref 0 and j = ref 0 and gc_floor = ref 0 in
      let wrote = Hashtbl.create 16 in
      let covers = Hashtbl.create 8 and missing = Hashtbl.create 8 in
      let dropped = Hashtbl.create 8 and accessed = Hashtbl.create 8 in
      let base = Hashtbl.create 8 and epoch = Hashtbl.create 8 in
      let last2 = Hashtbl.create 8 and mark2 = Hashtbl.create 8 in
      let get tbl p = Option.value ~default:0 (Hashtbl.find_opt tbl p) in
      let missed p = Option.value ~default:[] (Hashtbl.find_opt missing p) in
      let raise_cover p i =
        Hashtbl.replace covers p (Int.max (get covers p) i)
      in
      (* A batch page: a whole-page copy of node 0's, which covers its
         clock, when more than three intervals are needed, else their
         diffs. *)
      let validate p =
        let needed = List.filter (fun i -> i > get covers p) (missed p) in
        if List.length needed > 3 then raise_cover p !k
        else List.iter (raise_cover p) needed;
        Hashtbl.remove missing p
      in
      (* The base install, then every logged interval above it that wrote
         the page. *)
      let refetch p =
        let b = Hashtbl.find base p in
        Hashtbl.replace covers p b;
        for i = Int.max b !gc_floor + 1 to !k do
          if List.mem p (Hashtbl.find wrote i) then raise_cover p i
        done;
        Hashtbl.remove missing p;
        Hashtbl.remove dropped p
      in
      (* Node 0's next interval: it writes slot 0 of [ps]. *)
      let write0 ps =
        incr k;
        Hashtbl.replace wrote !k ps;
        List.iter
          (fun p ->
            Shm.write_i64 c.shms.(0) (slot c ~page:p 0) !k;
            Hashtbl.replace epoch p ())
          ps
      in
      (* Node 1 learns of node 0's last interval. *)
      let noticed ps =
        List.iter
          (fun p ->
            if missed p = [] && not (Hashtbl.mem dropped p) then
              Hashtbl.remove accessed p;
            Hashtbl.replace missing p (!k :: missed p))
          ps
      in
      let rec apply = function
        | Write ps ->
          write0 ps;
          ignore (release c ~src:0 ~dst:1);
          noticed ps
        | Race ps ->
          write0 ps;
          let pb =
            Lrc.make_piggyback c.lrcs.(0) ~receiver:1 ~nontransitive:false
          in
          (* The first accept stops at its first notice's charge, before
             its clock moves; the second applies every notice; then the
             first applies them all again. *)
          let first = Resource.Ivar.create () in
          stop := ( = ) Cpu_cost.default.Cpu_cost.write_notice_apply;
          Engine.fork (fun () ->
              Lrc.accept node1 [ pb ];
              Resource.Ivar.fill first ());
          Engine.delay 0.1;
          stop := (fun _ -> false);
          Lrc.accept node1 [ pb ];
          Resource.Ivar.read first;
          noticed ps
        | Read p ->
          let value = Shm.read_i64 c.shms.(1) (slot c ~page:p 0) in
          let last = ref 0 in
          Hashtbl.iter
            (fun i ps -> if List.mem p ps then last := Int.max !last i)
            wrote;
          if value <> !last then
            QCheck.Test.fail_reportf "page %d reads %d, expected %d" p value
              !last;
          let value2 = Shm.read_i64 c.shms.(1) (slot c ~page:p 1) in
          if value2 <> get last2 p then
            QCheck.Test.fail_reportf "page %d slot 1 reads %d, expected %d" p
              value2 (get last2 p);
          if Hashtbl.mem dropped p then begin
            Hashtbl.replace accessed p ();
            refetch p
          end
          else if missed p <> [] then begin
            let riders =
              List.filter
                (fun q ->
                  q <> p && missed q <> [] && Hashtbl.mem accessed q
                  && not (Hashtbl.mem dropped q))
                (List.init model_pages Fun.id)
            in
            Hashtbl.replace accessed p ();
            List.iter validate (p :: riders)
          end
        | Gc ->
          run_gc c;
          Hashtbl.iter (fun p () -> Hashtbl.replace base p !k) epoch;
          Hashtbl.reset epoch;
          Hashtbl.iter
            (fun p _ ->
              Hashtbl.remove covers p;
              Hashtbl.replace dropped p ())
            missing;
          Hashtbl.reset missing;
          gc_floor := !k
        | Straddle p ->
          apply (Read p);
          incr j;
          ignore (release c ~src:0 ~dst:2);
          Shm.write_i64 c.shms.(2) (slot c ~page:p 1) !j;
          ignore (release c ~src:2 ~dst:1);
          (* Node 1's fault stops in node 2's serving of its request. *)
          stop := ( = ) Cpu_cost.default.Cpu_cost.diff_request_fixed;
          Engine.fork (fun () ->
              ignore (Shm.read_i64 c.shms.(1) (slot c ~page:p 0)));
          Engine.delay 0.1;
          stop := (fun _ -> false);
          ignore (release c ~src:2 ~dst:0);
          write0 [ p ];
          ignore (release c ~src:0 ~dst:1);
          Engine.delay 2.0;
          Hashtbl.replace last2 p !j;
          Hashtbl.replace mark2 p !j;
          raise_cover p !k;
          Hashtbl.remove missing p;
          Hashtbl.replace accessed p ()
      in
      List.iter
        (fun op ->
          apply op;
          for p = 0 to model_pages - 1 do
            let vc = Lrc.page_content_vc node1 p in
            if Vc.get vc 0 <> get covers p || Vc.get vc 1 <> 0 then
              QCheck.Test.fail_reportf "after %s: page %d covers %s, model %d"
                (show_page_op op) p
                (Format.asprintf "%a" Vc.pp vc)
                (get covers p);
            let ids =
              List.map
                (fun (id : Interval.id) ->
                  if id.Interval.creator <> 0 then
                    QCheck.Test.fail_reportf "page %d misses a node-%d id" p
                      id.Interval.creator;
                  id.Interval.index)
                (Lrc.missing node1 p)
            in
            if ids <> missed p then
              QCheck.Test.fail_reportf
                "after %s: page %d misses [%s], model [%s]"
                (show_page_op op) p (show_pages ids) (show_pages (missed p));
            let want = if Hashtbl.mem dropped p then Some 0 else None in
            if Lrc.dropped node1 p <> want then
              QCheck.Test.fail_reportf "after %s: page %d dropped mark differs"
                (show_page_op op) p;
            let newest = match missed p with [] -> 0 | i :: _ -> i in
            List.iter
              (fun (creator, want) ->
                let mark = Lrc.notice_mark node1 ~page:p ~creator in
                if mark <> want then
                  QCheck.Test.fail_reportf
                    "after %s: page %d's mark for node %d is %d, model %d"
                    (show_page_op op) p creator mark want)
              [ (0, newest); (1, 0); (2, get mark2 p) ]
          done)
        ops;
      true)

(* The GC's keeper election against the table it replaced: per page, in
   a [Hashtbl], the causally latest interval of the epoch that wrote it.
   Four nodes run random epochs: each step, one node writes its own slot
   of some pages and releases to another; each GC elects on every node,
   whose table must equal the reference's, and whose kept pages must be
   those of the epoch's winners that it created, then completes.
   The reference reads the intervals the nodes closed, as their hooks
   report them. *)
type keeper_op = Step of int * int list * int | Keeper_gc

let show_keeper_op = function
  | Step (writer, ps, reader) ->
    Printf.sprintf "%d writes [%s] -> %d" writer
      (String.concat "," (List.map string_of_int ps))
      reader
  | Keeper_gc -> "gc"

let gen_keeper_op ~nodes ~pages =
  QCheck.Gen.(
    frequency
      [
        ( 6,
          int_bound (nodes - 1) >>= fun writer ->
          list_size (int_range 0 3) (int_bound (pages - 1)) >>= fun ps ->
          int_bound (nodes - 2) >|= fun r ->
          let reader = (writer + 1 + r) mod nodes in
          Step (writer, List.sort_uniq Int.compare ps, reader) );
        (1, return Keeper_gc);
      ])

let prop_elect_keepers_reference =
  let nodes = 4 and pages = 8 in
  QCheck.Test.make ~name:"lrc: keeper election matches a Hashtbl reference"
    ~count:100
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_keeper_op ops))
       QCheck.Gen.(list_size (int_range 1 25) (gen_keeper_op ~nodes ~pages)))
    (fun ops ->
      in_engine @@ fun () ->
      let c = make_cluster nodes in
      let closed = Hashtbl.create 32 in
      let hooks =
        {
          Lrc.no_hooks with
          on_interval_closed =
            (fun ~creator ~index ~vc ~pages ->
              Hashtbl.replace closed (creator, index)
                (Interval.make ~creator ~index ~vc:(Vc.copy vc)
                   ~write_notices:pages));
        }
      in
      Array.iter (fun l -> Lrc.set_hooks l hooks) c.lrcs;
      let table = Array.make pages (-1) and floor = Vc.zero ~nodes in
      let gc () =
        let arrivals =
          List.init (nodes - 1) (fun i ->
              Lrc.make_piggyback c.lrcs.(i + 1) ~receiver:0 ~nontransitive:true)
        in
        Lrc.accept c.lrcs.(0) arrivals;
        let snapshot = Vc.copy (Lrc.vc c.lrcs.(0)) in
        for i = 1 to nodes - 1 do
          ignore (release c ~src:0 ~dst:i)
        done;
        let latest = Hashtbl.create 8 in
        for creator = 0 to nodes - 1 do
          for index = Vc.get floor creator + 1 to Vc.get snapshot creator do
            let i = Hashtbl.find closed (creator, index) in
            List.iter
              (fun page ->
                match Hashtbl.find_opt latest page with
                | Some best when Interval.causal_compare best i > 0 -> ()
                | _ -> Hashtbl.replace latest page i)
              i.Interval.write_notices
          done
        done;
        Hashtbl.iter
          (fun page (i : Interval.t) ->
            table.(page) <- i.Interval.id.Interval.creator)
          latest;
        Array.iteri
          (fun me l ->
            let mine = Lrc.elect_keepers l snapshot in
            let want =
              List.filter
                (fun p ->
                  match Hashtbl.find_opt latest p with
                  | Some (i : Interval.t) -> i.Interval.id.Interval.creator = me
                  | None -> false)
                (List.init pages Fun.id)
            in
            if mine <> want then
              QCheck.Test.fail_reportf "node %d keeps [%s], reference [%s]" me
                (String.concat "," (List.map string_of_int mine))
                (String.concat "," (List.map string_of_int want));
            for p = 0 to pages - 1 do
              if Lrc.keeper l p <> table.(p) then
                QCheck.Test.fail_reportf
                  "node %d: page %d's keeper is %d, reference %d" me p
                  (Lrc.keeper l p) table.(p)
            done)
          c.lrcs;
        Array.iter (fun l -> Lrc.gc_keep l snapshot) c.lrcs;
        Array.iter (fun l -> Lrc.gc_drop l snapshot) c.lrcs;
        Array.iter (fun l -> Lrc.discard_before l snapshot) c.lrcs;
        Vc.join_in_place floor snapshot
      in
      List.iter
        (function
          | Step (writer, ps, reader) ->
            List.iter
              (fun page ->
                Shm.write_i64 c.shms.(writer) (slot c ~page writer) 1)
              ps;
            ignore (release c ~src:writer ~dst:reader)
          | Keeper_gc -> gc ())
        ops;
      gc ();
      true)

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
          loopback "relay copies from its log" test_relay_copies_from_its_log;
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
          loopback "gc floor skips a re-logged interval"
            test_gc_floor_skips_relogged_interval;
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
          Alcotest.test_case "repeated write notice recorded once" `Quick
            test_repeated_write_notice_recorded_once;
          loopback "long page history" test_many_interval_page_history_correct;
        ] );
      ( "lrc-strategies",
        [
          loopback "update keeps pages valid"
            test_update_strategy_keeps_pages_valid;
          loopback "update accept applies attached diffs"
            test_update_accept_applies_attached_eagerly;
          loopback "invalidate attaches nothing"
            test_invalidate_strategy_attaches_nothing;
          loopback "hybrid attaches own only"
            test_hybrid_update_attaches_own_only;
          loopback "stale base caches eager diffs"
            test_update_onto_stale_base_caches;
          loopback "lock chain under update" test_update_strategy_lock_chain;
          loopback "held diff splits a merge run"
            test_held_diff_splits_merge_run;
          loopback "attachment billed entry plus diff"
            test_attachment_billed_entry_plus_diff;
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
          loopback "lrc merged run" test_lrc_merged_run_wire_bytes;
          loopback "lrc interval fetch" test_lrc_interval_fetch_size;
          loopback "central read fault and flush" test_central_wire_sizes;
          loopback "seq flush and pushes" test_seq_wire_sizes;
        ] );
      ( "lrc-properties",
        qcheck [ prop_lock_chain_counter; prop_false_sharing_slots ] );
      ( "lrc-metadata",
        Alcotest.test_case "lookups and sorts allocate nothing extra" `Quick
          test_metadata_allocation
        :: Alcotest.test_case "diff store discards up to a snapshot" `Quick
             test_diff_store_discard_upto
        :: qcheck [ prop_causal_range_matches_oracle; prop_log_matches_model ] );
      ( "lrc-page-state",
        qcheck
          [
            prop_ride_along_batch;
            prop_page_state_model;
            prop_elect_keepers_reference;
          ] );
    ]
