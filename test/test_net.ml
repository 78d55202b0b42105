(* Tests for the simulated network stack: shared medium, datagram service,
   sliding-window reliable delivery. *)

module Engine = Carlos_sim.Engine
module Rng = Carlos_sim.Rng
module Medium = Carlos_net.Medium
module Datagram = Carlos_net.Datagram
module Sliding_window = Carlos_net.Sliding_window
module Obs = Carlos_obs.Obs

let check_float = Alcotest.(check (float 1e-9))

(* 10 Mbit/s in bytes per second, as in the paper's Ethernet. *)
let ethernet_bw = 1_250_000.0

let make_medium ?(nodes = 4) ?(latency = 1e-4) ?(bandwidth = ethernet_bw) eng =
  Medium.create eng ~nodes ~latency ~bandwidth

(* The network's counters and the wire-busy gauge live in the registry,
   under the global node; read them by key. *)
let medium_counter medium name =
  Counters.counter (Medium.obs medium) ~layer:Obs.Net name

let dg_counter dg name = Counters.counter (Datagram.obs dg) ~layer:Obs.Net name

let sw_counter sw name =
  Counters.counter (Sliding_window.obs sw) ~layer:Obs.Net name

let wire_busy medium =
  Counters.gauge (Medium.obs medium) ~layer:Obs.Net "medium.wire_busy"

(* ------------------------------------------------------------------ *)
(* Medium *)

let test_medium_point_to_point_latency () =
  let eng = Engine.create () in
  let medium = make_medium eng in
  let arrival = ref (-1.0) in
  Medium.set_handler medium ~node:1 (fun ~src ~size:_ _payload ->
      Alcotest.(check int) "src" 0 src;
      arrival := Engine.now eng);
  Engine.spawn eng (fun () ->
      Medium.send medium ~src:0 ~dst:1 ~size:1250 "hello");
  Engine.run eng;
  (* 1250 bytes at 1.25 MB/s = 1 ms transmission + 0.1 ms latency. *)
  check_float "arrival time" 0.0011 !arrival

let test_medium_contention_serializes () =
  let eng = Engine.create () in
  let medium = make_medium eng in
  let arrivals = ref [] in
  Medium.set_handler medium ~node:3 (fun ~src ~size:_ _payload ->
      arrivals := (src, Engine.now eng) :: !arrivals);
  Engine.spawn eng (fun () ->
      Medium.send medium ~src:0 ~dst:3 ~size:1250 ();
      Medium.send medium ~src:1 ~dst:3 ~size:1250 ());
  Engine.run eng;
  (match List.rev !arrivals with
  | [ (0, t0); (1, t1) ] ->
    check_float "first frame" 0.0011 t0;
    (* Second frame waits for the wire: 2 ms transmission + latency. *)
    check_float "second frame" 0.0021 t1
  | _ -> Alcotest.fail "expected two arrivals");
  check_float "wire busy" 0.002 (wire_busy medium)

let test_medium_stats () =
  let eng = Engine.create () in
  let medium = make_medium eng in
  Medium.set_handler medium ~node:1 (fun ~src:_ ~size:_ _ -> ());
  Engine.spawn eng (fun () ->
      Medium.send medium ~src:0 ~dst:1 ~size:100 ();
      Medium.send medium ~src:0 ~dst:1 ~size:200 ());
  Engine.run eng;
  Alcotest.(check int) "frames" 2 (medium_counter medium "medium.frames");
  Alcotest.(check int) "bytes" 300 (medium_counter medium "medium.bytes");
  let elapsed = 1.0 in
  check_float "utilization" (300.0 /. ethernet_bw)
    (wire_busy medium /. elapsed);
  (* A phase is measured by reading the keys before and after it; nothing
     resets the cumulative counters. *)
  let frames0 = medium_counter medium "medium.frames"
  and bytes0 = medium_counter medium "medium.bytes" in
  Engine.spawn eng (fun () -> Medium.send medium ~src:0 ~dst:1 ~size:50 ());
  Engine.run eng;
  Alcotest.(check int) "phase frames" 1
    (medium_counter medium "medium.frames" - frames0);
  Alcotest.(check int) "phase bytes" 50
    (medium_counter medium "medium.bytes" - bytes0);
  Alcotest.(check int) "cumulative frames" 3
    (medium_counter medium "medium.frames")

let test_medium_pair_fifo () =
  (* Frames between one (src, dst) pair never reorder. *)
  let eng = Engine.create () in
  let medium = make_medium eng in
  let got = ref [] in
  Medium.set_handler medium ~node:2 (fun ~src:_ ~size:_ i ->
      got := i :: !got);
  Engine.spawn eng (fun () ->
      for i = 1 to 20 do
        Medium.send medium ~src:0 ~dst:2 ~size:(100 + i) i
      done);
  Engine.run eng;
  Alcotest.(check (list int)) "in order" (List.init 20 (fun i -> i + 1))
    (List.rev !got)

let test_medium_fifo_serializes () =
  (* 1000 B/s and no latency: a 1000-byte frame holds the wire for 1 s. *)
  let eng = Engine.create () in
  let medium = make_medium ~latency:0.0 ~bandwidth:1000.0 eng in
  let arrivals = ref [] in
  Medium.set_handler medium ~node:3 (fun ~src ~size:_ () ->
      arrivals := (src, Engine.now eng) :: !arrivals);
  for src = 0 to 2 do
    Engine.spawn eng (fun () -> Medium.send medium ~src ~dst:3 ~size:1000 ())
  done;
  Engine.run eng;
  (* Three 1 s frames finish at 1, 2, 3 in send order. *)
  Alcotest.(check (list (pair int (float 1e-9))))
    "serialized in fifo order"
    [ (0, 1.0); (1, 2.0); (2, 3.0) ]
    (List.rev !arrivals);
  check_float "busy time" 3.0 (wire_busy medium)

let queue_delay medium =
  match
    Obs.find
      (Obs.snapshot (Medium.obs medium))
      ~node:Obs.global_node ~layer:Obs.Net "medium.queue_delay"
  with
  | Some (Obs.Hist_v h) -> h
  | _ -> Alcotest.fail "medium.queue_delay missing"

let test_medium_fifo_reports_wait () =
  let eng = Engine.create () in
  let medium = make_medium ~latency:0.0 ~bandwidth:1000.0 eng in
  Medium.set_handler medium ~node:3 (fun ~src:_ ~size:_ () -> ());
  for src = 0 to 2 do
    Engine.spawn eng (fun () -> Medium.send medium ~src ~dst:3 ~size:2000 ())
  done;
  Engine.run eng;
  let h = queue_delay medium in
  Alcotest.(check int) "one sample per frame" 3 h.Obs.Hist.count;
  check_float "waits 0 + 2 + 4" 6.0 h.Obs.Hist.sum;
  check_float "first waits nothing" 0.0 h.Obs.Hist.min;
  check_float "last waits two frames" 4.0 h.Obs.Hist.max

(* Reference model: one fiber per frame contending for a FIFO wire
   resource.  [Medium] must reproduce it event for event: same deliveries
   at the same times, same queueing delays, busy time and backlog. *)
module Fiber_medium = struct
  type wire = {
    mutable held : bool;
    waiters : (unit -> unit) Queue.t;
    mutable busy : float;
    mutable acquired_at : float;
  }

  let acquire w =
    if not w.held then begin
      w.held <- true;
      w.acquired_at <- Engine.time ()
    end
    else begin
      Engine.suspend (fun resume -> Queue.add resume w.waiters);
      (* Ownership was handed to us by [release]. *)
      w.acquired_at <- Engine.time ()
    end

  let release w =
    w.busy <- w.busy +. (Engine.time () -. w.acquired_at);
    w.acquired_at <- Engine.time ();
    if Queue.is_empty w.waiters then w.held <- false
    else (Queue.pop w.waiters) ()

  let use w dt =
    let requested = Engine.time () in
    acquire w;
    let waited = Engine.time () -. requested in
    Engine.delay dt;
    release w;
    waited

  type 'a t = {
    engine : Engine.t;
    latency : float;
    bandwidth : float;
    wire : wire;
    mutable backlog : int;
    handlers : (src:int -> size:int -> 'a -> unit) option array;
    queue_delay : Obs.Hist.t;
  }

  let create engine ~nodes ~latency ~bandwidth =
    {
      engine;
      latency;
      bandwidth;
      wire =
        { held = false; waiters = Queue.create (); busy = 0.0;
          acquired_at = 0.0 };
      backlog = 0;
      handlers = Array.make nodes None;
      queue_delay = Obs.Hist.create ();
    }

  let set_handler t ~node h = t.handlers.(node) <- Some h

  let send t ~src ~dst ~size payload =
    t.backlog <- t.backlog + size;
    Engine.spawn t.engine (fun () ->
        let waited = use t.wire (float_of_int size /. t.bandwidth) in
        t.backlog <- t.backlog - size;
        Obs.Hist.observe t.queue_delay waited;
        Engine.delay t.latency;
        match t.handlers.(dst) with
        | None -> ()
        | Some handler -> handler ~src ~size payload)
end

(* One sender: a list of (gap before the send, dst, size). *)
type wire_program = (int * int * int) list list

(* Runs [program] on 4 nodes, each sender a fiber; a delivered frame whose
   index is even triggers a 64-byte reply sent from the receive upcall.
   Returns the log of sends and deliveries (with the backlog read at each),
   the queue-delay histogram, the wire busy time and the event count. *)
let run_wire_program ~reference (program : wire_program) =
  let eng = Engine.create () in
  let nodes = 4 and latency = 1e-4 in
  let send, set_handler, backlog, stats =
    if reference then begin
      let m = Fiber_medium.create eng ~nodes ~latency ~bandwidth:ethernet_bw in
      ( Fiber_medium.send m,
        Fiber_medium.set_handler m,
        (fun () -> m.Fiber_medium.backlog),
        fun () ->
          (Obs.Hist.snap m.Fiber_medium.queue_delay, m.Fiber_medium.wire.busy) )
    end
    else begin
      let m = make_medium ~nodes ~latency eng in
      ( Medium.send m,
        Medium.set_handler m,
        (fun () -> Medium.backlog m),
        fun () -> (queue_delay m, wire_busy m) )
    end
  in
  let log = ref [] in
  for node = 0 to nodes - 1 do
    set_handler ~node (fun ~src ~size (sender, i) ->
        log := (`Deliver (node, src, size, sender, i), Engine.now eng, backlog ())
               :: !log;
        if i >= 0 && i mod 2 = 0 then
          send ~src:node ~dst:src ~size:64 (sender, -1))
  done;
  List.iteri
    (fun sender ops ->
      let src = sender mod nodes in
      Engine.spawn eng (fun () ->
          List.iteri
            (fun i (gap, dst, size) ->
              Engine.delay (5e-4 *. float_of_int gap);
              log := (`Send (sender, i), Engine.time (), backlog ()) :: !log;
              send ~src ~dst ~size (sender, i))
            ops))
    program;
  Engine.run eng;
  let hist, busy = stats () in
  (List.rev !log, hist, busy, Engine.events_executed eng)

let gen_wire_program =
  let open QCheck.Gen in
  let send =
    triple (int_bound 3) (int_bound 3)
      (oneof [ oneofl [ 64; 1250; 1500 ]; int_range 1 4000 ])
  in
  list_size (int_range 1 4) (list_size (int_bound 8) send)

let prop_medium_matches_fiber_model =
  QCheck.Test.make
    ~name:"medium: callback chain matches the fiber-per-frame wire" ~count:200
    (QCheck.make
       ~print:
         QCheck.Print.(list (list (triple int int int)))
       gen_wire_program)
    (fun program ->
      run_wire_program ~reference:false program
      = run_wire_program ~reference:true program)

let test_medium_queued_frame_allocation () =
  (* Words per frame when every frame but the first waits for the wire:
     the frame record and one closure per step of its callback chain. *)
  let frames = 1000 in
  let eng = Engine.create () in
  let medium = make_medium eng in
  Medium.set_handler medium ~node:1 (fun ~src:_ ~size:_ () -> ());
  let send_all () =
    for _ = 1 to frames do
      Medium.send medium ~src:0 ~dst:1 ~size:100 ()
    done
  in
  (* Warm up: grow the event heap and the wait queue to size. *)
  Engine.spawn eng send_all;
  Engine.run eng;
  Engine.spawn eng send_all;
  let before = Gc.minor_words () in
  Engine.run eng;
  let w = (Gc.minor_words () -. before) /. float_of_int frames in
  (* Measured: 62.0 words (155 for the fiber-per-frame medium). *)
  if w > 62.5 then Alcotest.failf "a queued frame allocates %.2f words" w

(* ------------------------------------------------------------------ *)
(* Datagram *)

let test_datagram_adds_headers () =
  let eng = Engine.create () in
  let medium = make_medium eng in
  let dg = Datagram.create medium () in
  let seen_size = ref 0 in
  Datagram.set_handler dg ~node:1 (fun ~src:_ ~size _ -> seen_size := size);
  Engine.spawn eng (fun () ->
      Datagram.send dg ~src:0 ~dst:1 ~payload_bytes:100 ());
  Engine.run eng;
  Alcotest.(check int) "handler sees payload size" 100 !seen_size;
  Alcotest.(check int) "wire sees headers"
    (100 + Datagram.header_bytes)
    (medium_counter medium "medium.bytes")

let test_datagram_loss () =
  let eng = Engine.create () in
  let medium = make_medium eng in
  let rng = Rng.create ~seed:11 in
  let dg = Datagram.create medium ~loss:0.5 ~rng () in
  let received = ref 0 in
  Datagram.set_handler dg ~node:1 (fun ~src:_ ~size:_ _ -> incr received);
  let total = 1000 in
  Engine.spawn eng (fun () ->
      for _ = 1 to total do
        Datagram.send dg ~src:0 ~dst:1 ~payload_bytes:10 ()
      done);
  Engine.run eng;
  Alcotest.(check int) "sent counted" total (dg_counter dg "datagram.sent");
  Alcotest.(check int) "received + dropped = sent" total
    (!received + dg_counter dg "datagram.dropped");
  let dropped = dg_counter dg "datagram.dropped" in
  if dropped < 300 || dropped > 700 then Alcotest.fail "loss far from 50%"

let test_datagram_loss_requires_rng () =
  let eng = Engine.create () in
  let medium = make_medium eng in
  Alcotest.check_raises "rng required"
    (Invalid_argument "Datagram.create: loss requires an rng") (fun () ->
      ignore (Datagram.create medium ~loss:0.1 ()))

(* ------------------------------------------------------------------ *)
(* Sliding window *)

let make_sw_dg ?(loss = 0.0) ?(seed = 1) ?(window = 8) ?(rto = 0.05)
    ?(ack_every = 1) ?(ack_delay = 0.0) ?rto_margin eng =
  let medium = make_medium eng in
  let rng = Rng.create ~seed in
  let dg =
    if loss > 0.0 then Datagram.create medium ~loss ~rng ()
    else Datagram.create medium ()
  in
  let sw =
    Sliding_window.create ~ack_every ~ack_delay ?rto_margin eng dg ~window
      ~rto
  in
  (sw, dg)

let make_sw ?loss ?seed ?window ?rto ?ack_every ?ack_delay ?rto_margin eng =
  fst
    (make_sw_dg ?loss ?seed ?window ?rto ?ack_every ?ack_delay ?rto_margin eng)

let test_sw_basic_delivery () =
  let eng = Engine.create () in
  let sw = make_sw eng in
  let got = ref [] in
  Sliding_window.set_handler sw ~node:1 (fun ~src ~size v ->
      got := (src, size, v) :: !got);
  Engine.spawn eng (fun () ->
      Sliding_window.send sw ~src:0 ~dst:1 ~payload_bytes:64 "a";
      Sliding_window.send sw ~src:0 ~dst:1 ~payload_bytes:128 "b");
  Engine.run eng;
  Alcotest.(check (list (triple int int string)))
    "both delivered in order"
    [ (0, 64, "a"); (0, 128, "b") ]
    (List.rev !got);
  Alcotest.(check int) "no retransmissions" 0
    (sw_counter sw "sw.retransmits")

let test_sw_window_limits_inflight () =
  let eng = Engine.create () in
  (* Window of 2: the 10 sends must still all arrive, in order. *)
  let sw = make_sw ~window:2 eng in
  let got = ref [] in
  Sliding_window.set_handler sw ~node:1 (fun ~src:_ ~size:_ v ->
      got := v :: !got);
  Engine.spawn eng (fun () ->
      for i = 1 to 10 do
        Sliding_window.send sw ~src:0 ~dst:1 ~payload_bytes:32 i
      done);
  Engine.run eng;
  Alcotest.(check (list int)) "all delivered in order"
    (List.init 10 (fun i -> i + 1))
    (List.rev !got)

let run_loss_scenario ~loss ~seed ~count () =
  let eng = Engine.create () in
  let sw = make_sw ~loss ~seed ~window:4 ~rto:0.02 eng in
  let got = ref [] in
  Sliding_window.set_handler sw ~node:2 (fun ~src:_ ~size:_ v ->
      got := v :: !got);
  Engine.spawn eng (fun () ->
      for i = 1 to count do
        Sliding_window.send sw ~src:0 ~dst:2 ~payload_bytes:100 i
      done);
  Engine.run eng;
  List.rev !got

let test_sw_recovers_from_loss () =
  let delivered = run_loss_scenario ~loss:0.2 ~seed:5 ~count:50 () in
  Alcotest.(check (list int)) "exactly once, in order"
    (List.init 50 (fun i -> i + 1))
    delivered

let prop_sw_exactly_once_in_order =
  QCheck.Test.make
    ~name:"sliding window: exactly-once in-order under loss (adaptive rto)"
    ~count:30
    QCheck.(pair (int_range 1 1000) (int_range 1 60))
    (fun (seed, count) ->
      let delivered = run_loss_scenario ~loss:0.3 ~seed ~count () in
      delivered = List.init count (fun i -> i + 1))

let test_sw_bidirectional () =
  let eng = Engine.create () in
  let sw = make_sw ~loss:0.15 ~seed:9 eng in
  let got0 = ref [] and got1 = ref [] in
  Sliding_window.set_handler sw ~node:0 (fun ~src:_ ~size:_ v ->
      got0 := v :: !got0);
  Sliding_window.set_handler sw ~node:1 (fun ~src:_ ~size:_ v ->
      got1 := v :: !got1);
  Engine.spawn eng (fun () ->
      for i = 1 to 20 do
        Sliding_window.send sw ~src:0 ~dst:1 ~payload_bytes:40 i;
        Sliding_window.send sw ~src:1 ~dst:0 ~payload_bytes:40 (-i)
      done);
  Engine.run eng;
  Alcotest.(check (list int)) "0 -> 1" (List.init 20 (fun i -> i + 1))
    (List.rev !got1);
  Alcotest.(check (list int)) "1 -> 0" (List.init 20 (fun i -> -(i + 1)))
    (List.rev !got0)

let test_sw_independent_pairs () =
  (* Loss on one connection must not delay another pair's messages
     indefinitely; each pair has its own sequence space. *)
  let eng = Engine.create () in
  let sw = make_sw ~loss:0.0 eng in
  let got = ref [] in
  Sliding_window.set_handler sw ~node:3 (fun ~src ~size:_ v ->
      got := (src, v) :: !got);
  Engine.spawn eng (fun () ->
      Sliding_window.send sw ~src:0 ~dst:3 ~payload_bytes:10 "a0";
      Sliding_window.send sw ~src:1 ~dst:3 ~payload_bytes:10 "b0";
      Sliding_window.send sw ~src:0 ~dst:3 ~payload_bytes:10 "a1");
  Engine.run eng;
  let from src =
    List.filter_map (fun (s, v) -> if s = src then Some v else None)
      (List.rev !got)
  in
  Alcotest.(check (list string)) "from 0" [ "a0"; "a1" ] (from 0);
  Alcotest.(check (list string)) "from 1" [ "b0" ] (from 1)

let test_sw_stats () =
  let eng = Engine.create () in
  let sw = make_sw eng in
  Sliding_window.set_handler sw ~node:1 (fun ~src:_ ~size:_ () -> ());
  Engine.spawn eng (fun () ->
      Sliding_window.send sw ~src:0 ~dst:1 ~payload_bytes:10 ();
      Sliding_window.send sw ~src:0 ~dst:1 ~payload_bytes:10 ());
  Engine.run eng;
  Alcotest.(check int) "sent" 2 (sw_counter sw "sw.sent");
  Alcotest.(check int) "delivered" 2 (sw_counter sw "sw.delivered");
  Alcotest.(check bool) "acks flowed" true (sw_counter sw "sw.acks" > 0);
  let sent0 = sw_counter sw "sw.sent" in
  Engine.spawn eng (fun () ->
      Sliding_window.send sw ~src:0 ~dst:1 ~payload_bytes:10 ());
  Engine.run eng;
  Alcotest.(check int) "phase sent" 1 (sw_counter sw "sw.sent" - sent0);
  Alcotest.(check int) "cumulative sent" 3 (sw_counter sw "sw.sent")

(* ------------------------------------------------------------------ *)
(* Delayed cumulative acks *)

let test_sw_delayed_acks_coalesce () =
  let eng = Engine.create () in
  let sw = make_sw ~ack_every:4 ~ack_delay:0.005 eng in
  let got = ref [] in
  Sliding_window.set_handler sw ~node:1 (fun ~src:_ ~size:_ v ->
      got := v :: !got);
  Engine.spawn eng (fun () ->
      for i = 1 to 12 do
        Sliding_window.send sw ~src:0 ~dst:1 ~payload_bytes:32 i
      done);
  Engine.run eng;
  Alcotest.(check (list int)) "all delivered in order"
    (List.init 12 (fun i -> i + 1))
    (List.rev !got);
  Alcotest.(check bool) "fewer acks than frames" true
    (sw_counter sw "sw.acks" < 12);
  Alcotest.(check int) "every skipped ack is counted as coalesced" 12
    (sw_counter sw "sw.acks" + sw_counter sw "sw.acks_coalesced");
  Alcotest.(check int) "no retransmissions" 0
    (sw_counter sw "sw.retransmits")

let test_sw_ack_delay_flushes_partial_batch () =
  (* A lone frame never reaches the ack_every threshold; the ack-delay
     timer must flush the owed ack before the sender's RTO fires. *)
  let eng = Engine.create () in
  let sw = make_sw ~ack_every:4 ~ack_delay:0.005 ~rto:0.05 eng in
  let got = ref 0 in
  Sliding_window.set_handler sw ~node:1 (fun ~src:_ ~size:_ () -> incr got);
  Engine.spawn eng (fun () ->
      Sliding_window.send sw ~src:0 ~dst:1 ~payload_bytes:32 ());
  Engine.run eng;
  Alcotest.(check int) "delivered" 1 !got;
  Alcotest.(check int) "exactly one ack" 1 (sw_counter sw "sw.acks");
  Alcotest.(check int) "timer never fired a retransmission" 0
    (sw_counter sw "sw.retransmits")

let test_sw_ack_delay_validation () =
  let eng = Engine.create () in
  Alcotest.check_raises "threshold needs a timer"
    (Invalid_argument "Sliding_window.create: ack_every > 1 needs ack_delay > 0")
    (fun () -> ignore (make_sw ~ack_every:4 eng));
  Alcotest.check_raises "delay must undercut rto"
    (Invalid_argument "Sliding_window.create: ack_delay must stay below rto")
    (fun () -> ignore (make_sw ~ack_every:4 ~ack_delay:0.1 ~rto:0.05 eng))

let run_delayed_ack_loss_scenario ~loss ~seed ~count =
  let eng = Engine.create () in
  let sw =
    make_sw ~loss ~seed ~window:4 ~rto:0.02 ~ack_every:4 ~ack_delay:0.004 eng
  in
  let got = ref [] in
  Sliding_window.set_handler sw ~node:2 (fun ~src:_ ~size:_ v ->
      got := v :: !got);
  Engine.spawn eng (fun () ->
      for i = 1 to count do
        Sliding_window.send sw ~src:0 ~dst:2 ~payload_bytes:100 i
      done);
  Engine.run eng;
  List.rev !got

let prop_sw_delayed_acks_exactly_once_in_order =
  QCheck.Test.make
    ~name:"sliding window: delayed acks keep exactly-once in-order under loss"
    ~count:30
    QCheck.(pair (int_range 1 1000) (int_range 1 60))
    (fun (seed, count) ->
      (* Engine.run returning (the scenario quiescing) with every message
         delivered exactly once, in order, is the whole contract: no ack
         left owed forever, no duplicate delivery from a retransmission. *)
      let delivered = run_delayed_ack_loss_scenario ~loss:0.3 ~seed ~count in
      delivered = List.init count (fun i -> i + 1))

(* ------------------------------------------------------------------ *)
(* Adaptive ARQ *)

let test_sw_big_frame_not_retransmitted () =
  (* A 500 KB frame needs 0.4 s of wire time at 1.25 MB/s — far beyond
     the 0.05 s base rto, which a fixed timeout would fire at several
     times over.  The serialization floor must wait for it. *)
  let eng = Engine.create () in
  let sw = make_sw ~rto:0.05 eng in
  Sliding_window.set_handler sw ~node:1 (fun ~src:_ ~size:_ () -> ());
  Engine.spawn eng (fun () ->
      Sliding_window.send sw ~src:0 ~dst:1 ~payload_bytes:500_000 ());
  Engine.run eng;
  Alcotest.(check int) "delivered" 1 (sw_counter sw "sw.delivered");
  Alcotest.(check int) "serialization time is not a timeout" 0
    (sw_counter sw "sw.retransmits");
  Alcotest.(check int) "no duplicates reached the receiver" 0
    (sw_counter sw "sw.spurious_retransmits")

let test_sw_carrier_sense_defers_for_cross_traffic () =
  (* The serialization floor only covers this connection's own in-flight
     bytes; a 250 KB burst from another node pair holds the shared wire
     for 0.2 s, far beyond the 5 ms rto of the small 0->1 frame queued
     behind it.  Carrier sense must defer the expired timer past the
     backlog instead of retransmitting into the queue. *)
  let eng = Engine.create () in
  let sw = make_sw ~rto:0.005 eng in
  Sliding_window.set_handler sw ~node:1 (fun ~src:_ ~size:_ () -> ());
  Sliding_window.set_handler sw ~node:3 (fun ~src:_ ~size:_ () -> ());
  Engine.spawn eng (fun () ->
      Sliding_window.send sw ~src:2 ~dst:3 ~payload_bytes:250_000 ();
      Sliding_window.send sw ~src:0 ~dst:1 ~payload_bytes:100 ());
  Engine.run eng;
  Alcotest.(check int) "both delivered" 2 (sw_counter sw "sw.delivered");
  Alcotest.(check int) "no retransmission into the backlog" 0
    (sw_counter sw "sw.retransmits");
  Alcotest.(check bool) "the expired timer was deferred" true
    (sw_counter sw "sw.rto_deferrals" > 0)

let test_sw_fast_retransmit () =
  (* Drop exactly the second data frame; the four frames behind it each
     trigger an immediate duplicate ack, and the third duplicate must
     resend the gap well before the (deliberately huge) 5 s rto. *)
  let eng = Engine.create () in
  let sw, dg = make_sw_dg ~rto:5.0 ~window:8 eng in
  let got = ref [] in
  Sliding_window.set_handler sw ~node:1 (fun ~src:_ ~size:_ v ->
      got := v :: !got);
  Engine.spawn eng (fun () ->
      (* The six sends all hit the datagram service synchronously, so
         relative send index 1 is exactly the seq-1 data frame. *)
      Datagram.inject_drops dg [ 1 ];
      for i = 1 to 6 do
        Sliding_window.send sw ~src:0 ~dst:1 ~payload_bytes:100 i
      done);
  Engine.run eng;
  Alcotest.(check (list int)) "all delivered in order"
    (List.init 6 (fun i -> i + 1))
    (List.rev !got);
  Alcotest.(check int) "one fast retransmit" 1
    (sw_counter sw "sw.fast_retransmits");
  Alcotest.(check int) "the rto timer never fired" 0
    (sw_counter sw "sw.rto_timeouts");
  Alcotest.(check int) "no other retransmissions" 1
    (sw_counter sw "sw.retransmits")

let test_sw_backoff_persists_across_retransmitted_acks () =
  (* Phase 1 loses the ack of frame 1 twice, so the only ack that ever
     arrives acknowledges a frame that was retransmitted — under Karn's
     rule that says nothing about the wire having recovered, and backoff
     must survive it (it reached 4x).  Phase 2 then sends a 25 KB frame
     whose ack legitimately takes ~0.02 s, above the 0.01 s base rto but
     below the persisted 0.04 s, so the sender must wait and retransmit
     nothing.  A sender that reset backoff on that ack would time out
     spuriously.  [rto_margin = 0] disables the serialization floor so
     only backoff persistence is under test. *)
  let eng = Engine.create () in
  let sw, dg = make_sw_dg ~rto:0.01 ~rto_margin:0.0 eng in
  Sliding_window.set_handler sw ~node:1 (fun ~src:_ ~size:_ () -> ());
  Engine.spawn eng (fun () ->
      (* Relative datagram indices: 0 = frame 1, 1 = its ack (drop),
         2 = first retransmitted copy, 3 = its re-ack (drop),
         4 = second copy, 5 = its re-ack (delivered). *)
      Datagram.inject_drops dg [ 1; 3 ];
      Sliding_window.send sw ~src:0 ~dst:1 ~payload_bytes:100 ());
  Engine.at eng ~time:1.0 (fun () ->
      Sliding_window.send sw ~src:0 ~dst:1 ~payload_bytes:25_000 ());
  Engine.run eng;
  Alcotest.(check int) "both delivered" 2 (sw_counter sw "sw.delivered");
  Alcotest.(check int) "phase-1 recovery only" 2
    (sw_counter sw "sw.retransmits");
  Alcotest.(check int)
    "karn: no rtt sample was ever taken from a retransmitted frame" 1
    (sw_counter sw "sw.rto_samples")

let test_sw_rtt_estimator_converges () =
  (* A steady request stream on a quiet wire: the estimator must collect
     samples and never fire a retransmission (acks return in ~0.3 ms,
     three orders below the 0.1 s base rto). *)
  let eng = Engine.create () in
  let sw = make_sw ~rto:0.1 eng in
  Sliding_window.set_handler sw ~node:1 (fun ~src:_ ~size:_ () -> ());
  for i = 0 to 19 do
    Engine.at eng
      ~time:(0.01 *. float_of_int i)
      (fun () -> Sliding_window.send sw ~src:0 ~dst:1 ~payload_bytes:200 ())
  done;
  Engine.run eng;
  Alcotest.(check int) "all delivered" 20
    (sw_counter sw "sw.delivered");
  Alcotest.(check int) "a sample per fresh ack" 20
    (sw_counter sw "sw.rto_samples");
  Alcotest.(check int) "no retransmissions" 0
    (sw_counter sw "sw.retransmits")

(* ------------------------------------------------------------------ *)

let qcheck = Props.qcheck

let () =
  Props.run "net"
    [
      ( "medium",
        [
          Alcotest.test_case "latency + transmission" `Quick
            test_medium_point_to_point_latency;
          Alcotest.test_case "contention serializes" `Quick
            test_medium_contention_serializes;
          Alcotest.test_case "stats" `Quick test_medium_stats;
          Alcotest.test_case "per-pair fifo" `Quick test_medium_pair_fifo;
          Alcotest.test_case "fifo serializes" `Quick
            test_medium_fifo_serializes;
          Alcotest.test_case "fifo reports wait" `Quick
            test_medium_fifo_reports_wait;
          Alcotest.test_case "queued frame allocation" `Quick
            test_medium_queued_frame_allocation;
        ]
        @ qcheck [ prop_medium_matches_fiber_model ] );
      ( "datagram",
        [
          Alcotest.test_case "headers" `Quick test_datagram_adds_headers;
          Alcotest.test_case "loss" `Quick test_datagram_loss;
          Alcotest.test_case "loss requires rng" `Quick
            test_datagram_loss_requires_rng;
        ] );
      ( "sliding-window",
        [
          Alcotest.test_case "basic delivery" `Quick test_sw_basic_delivery;
          Alcotest.test_case "window limit" `Quick
            test_sw_window_limits_inflight;
          Alcotest.test_case "recovers from loss" `Quick
            test_sw_recovers_from_loss;
          Alcotest.test_case "bidirectional under loss" `Quick
            test_sw_bidirectional;
          Alcotest.test_case "independent pairs" `Quick
            test_sw_independent_pairs;
          Alcotest.test_case "stats" `Quick test_sw_stats;
          Alcotest.test_case "delayed acks coalesce" `Quick
            test_sw_delayed_acks_coalesce;
          Alcotest.test_case "ack delay flushes partial batch" `Quick
            test_sw_ack_delay_flushes_partial_batch;
          Alcotest.test_case "ack delay validation" `Quick
            test_sw_ack_delay_validation;
        ]
        @ qcheck
            [
              prop_sw_exactly_once_in_order;
              prop_sw_delayed_acks_exactly_once_in_order;
            ] );
      ( "adaptive-arq",
        [
          Alcotest.test_case "serialization floor beats fixed rto" `Quick
            test_sw_big_frame_not_retransmitted;
          Alcotest.test_case "carrier sense defers for cross traffic" `Quick
            test_sw_carrier_sense_defers_for_cross_traffic;
          Alcotest.test_case "dup-ack fast retransmit" `Quick
            test_sw_fast_retransmit;
          Alcotest.test_case "backoff persists across retransmitted acks"
            `Quick test_sw_backoff_persists_across_retransmitted_acks;
          Alcotest.test_case "rtt estimator converges" `Quick
            test_sw_rtt_estimator_converges;
        ] );
    ]
