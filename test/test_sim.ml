(* Tests for the simulation kernel: event heap, RNG, engine and fibers,
   virtual-time resources. *)

module Heap = Carlos_sim.Heap
module Rng = Carlos_sim.Rng
module Engine = Carlos_sim.Engine
module Resource = Carlos_sim.Resource

let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Heap *)

(* Insert without keeping the slot. *)
let add h ~time ~seq v = ignore (Heap.add h ~time ~seq v : int)

let test_heap_order () =
  let h = Heap.create ~dummy:"" () in
  add h ~time:3.0 ~seq:0 "c";
  add h ~time:1.0 ~seq:1 "a";
  add h ~time:2.0 ~seq:2 "b";
  let popped = ref [] in
  while not (Heap.is_empty h) do
    popped := Heap.pop h :: !popped
  done;
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ]
    (List.rev !popped)

let test_heap_tie_break () =
  let h = Heap.create ~dummy:"" () in
  add h ~time:1.0 ~seq:5 "later";
  add h ~time:1.0 ~seq:2 "earlier";
  check_float "min time" 1.0 (Heap.min_time h);
  Alcotest.(check string) "lower seq first" "earlier" (Heap.pop h);
  Alcotest.(check int) "one left" 1 (Heap.size h)

let prop_heap_sorted =
  QCheck.Test.make ~name:"heap pops keys in nondecreasing order" ~count:200
    QCheck.(list (pair (float_bound_exclusive 1000.0) small_nat))
    (fun pairs ->
      let h = Heap.create ~dummy:(-1) () in
      List.iteri (fun i (time, _) -> add h ~time ~seq:i i) pairs;
      let rec drain last =
        if Heap.is_empty h then true
        else begin
          let time = Heap.min_time h in
          ignore (Heap.pop h);
          time >= last && drain time
        end
      in
      drain neg_infinity)

let prop_heap_lexicographic =
  (* Force time ties (times drawn from a 4-value set) so the [seq]
     tie-break of the flat 4-ary layout is exercised, via the
     allocation-free [min_time]/[pop] path. *)
  QCheck.Test.make ~name:"heap pops (time, seq) lexicographically" ~count:200
    QCheck.(list (int_bound 3))
    (fun times ->
      let h = Heap.create ~dummy:(-1) () in
      List.iteri
        (fun i t -> add h ~time:(float_of_int t) ~seq:i i)
        times;
      let rec drain last_t last_s =
        if Heap.is_empty h then true
        else begin
          let t = Heap.min_time h in
          let s = Heap.pop h in
          (t > last_t || (t = last_t && s > last_s)) && drain t s
        end
      in
      drain neg_infinity (-1))

let test_heap_releases_popped_values () =
  (* A popped entry must be collectable immediately: the event heap holds
     thunk closures (with captured continuations), and a vacated slot that
     still references the moved last entry would pin them for the life of
     the engine. *)
  let h = Heap.create ~dummy:(ref (-1)) () in
  let collected = ref 0 in
  let n = 8 in
  for i = 0 to n - 1 do
    let v = ref i in
    Gc.finalise (fun _ -> incr collected) v;
    add h ~time:(float_of_int i) ~seq:i v
  done;
  for _ = 1 to n do
    ignore (Heap.pop h)
  done;
  Gc.full_major ();
  Gc.full_major ();
  Alcotest.(check int) "all popped values collected" n !collected;
  Alcotest.(check int) "heap empty" 0 (Heap.size h)

let test_heap_remove_by_slot () =
  let h = Heap.create ~dummy:"" () in
  let slots =
    List.init 6 (fun i ->
        Heap.add h ~time:(float_of_int i) ~seq:i (string_of_int i))
  in
  let slot i = List.nth slots i in
  Alcotest.(check bool) "live" true (Heap.live h ~slot:(slot 2) ~seq:2);
  Alcotest.(check bool) "wrong seq is not live" false
    (Heap.live h ~slot:(slot 2) ~seq:3);
  Alcotest.(check bool) "remove" true (Heap.remove h ~slot:(slot 2) ~seq:2);
  Alcotest.(check bool) "remove twice" false
    (Heap.remove h ~slot:(slot 2) ~seq:2);
  Alcotest.(check bool) "remove the root" true
    (Heap.remove h ~slot:(slot 0) ~seq:0);
  Alcotest.(check bool) "out-of-range slots are not live" false
    (Heap.live h ~slot:(-1) ~seq:0 || Heap.live h ~slot:1000 ~seq:0);
  (* The freed slot goes to the next entry; the old key does not match. *)
  let reused = Heap.add h ~time:9.0 ~seq:9 "9" in
  Alcotest.(check int) "the last freed slot is reused" (slot 0) reused;
  Alcotest.(check bool) "reused slot, old key" false
    (Heap.live h ~slot:reused ~seq:0);
  let popped = ref [] in
  while not (Heap.is_empty h) do
    popped := Heap.pop h :: !popped
  done;
  Alcotest.(check (list string)) "the rest in order" [ "1"; "3"; "4"; "5"; "9" ]
    (List.rev !popped)

(* After removals by slot (each tried twice), the pops come out in
   (time, seq) order, and exactly the entries not removed come out. *)
let prop_heap_remove =
  QCheck.Test.make ~name:"heap removal keeps (time, seq) order" ~count:200
    QCheck.(list (pair (int_bound 3) (int_bound 4)))
    (fun entries ->
      let h = Heap.create ~dummy:(-1) () in
      let slots =
        Array.of_list
          (List.mapi
             (fun i (t, _) -> Heap.add h ~time:(float_of_int t) ~seq:i i)
             entries)
      in
      (* Remove each entry whose action is 0, once or twice. *)
      let removed =
        List.concat
          (List.mapi
             (fun i (_, act) ->
               if act = 0 then begin
                 assert (Heap.remove h ~slot:slots.(i) ~seq:i);
                 assert (not (Heap.remove h ~slot:slots.(i) ~seq:i));
                 [ i ]
               end
               else [])
             entries)
      in
      let rec drain last_t last_s acc =
        if Heap.is_empty h then Some (List.rev acc)
        else begin
          let t = Heap.min_time h and s = Heap.min_seq h in
          let v = Heap.pop h in
          if v = s && (t > last_t || (t = last_t && s > last_s)) then
            drain t s (v :: acc)
          else None
        end
      in
      let time = Array.of_list (List.map fst entries) in
      let expected =
        List.init (Array.length time) Fun.id
        |> List.filter (fun i -> not (List.mem i removed))
        |> List.stable_sort (fun a b -> compare time.(a) time.(b))
      in
      drain neg_infinity (-1) [] = Some expected)

let test_heap_steady_state_allocation () =
  (* Once the arrays have grown, adding, popping and removing entries is
     plain array work: no minor word. *)
  let h = Heap.create ~dummy:0 () in
  (* Boxed once here, so passing a time allocates nothing either. *)
  let times = Array.init 7 (fun i -> (float_of_int i, ())) in
  let cycle () =
    for i = 0 to 999 do
      let time, () = times.(i mod 7) in
      let slot = Heap.add h ~time ~seq:i i in
      if i mod 3 = 0 then ignore (Heap.remove h ~slot ~seq:i : bool)
    done;
    while not (Heap.is_empty h) do
      ignore (Heap.pop h : int)
    done
  in
  cycle ();
  let before = Gc.minor_words () in
  cycle ();
  let words = Gc.minor_words () -. before in
  if words > 0.0 then Alcotest.failf "1,000 pushes allocate %.0f words" words

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:42 and b = Rng.create ~seed:42 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Rng.bits a) (Rng.bits b)
  done

let test_rng_split_independent () =
  let a = Rng.create ~seed:42 in
  let child = Rng.split a in
  let x = Rng.bits child and y = Rng.bits a in
  Alcotest.(check bool) "split diverges" true (x <> y)

let test_rng_int_bounds () =
  let r = Rng.create ~seed:7 in
  for _ = 1 to 1000 do
    let v = Rng.int r 10 in
    if v < 0 || v >= 10 then Alcotest.fail "out of bounds"
  done

let test_rng_float_bounds () =
  let r = Rng.create ~seed:7 in
  for _ = 1 to 1000 do
    let v = Rng.float r in
    if v < 0.0 || v >= 1.0 then Alcotest.fail "out of bounds"
  done

(* The SplitMix64 sequence is part of every simulated number: app
   inputs, loss draws and seeds all come from it.  Per seed: three
   [bits], three [int _ 1_000_000], two [float], two [bits] of a child
   [split] off after them, and one more [bits] of the parent. *)
let rng_golden =
  [
    ( 0,
      [ 4073552104164651883; 1990071630548588925; 121904254867886419 ],
      [ 135611; 523686; 790522 ],
      [ 0x1.6414d5f0fa298p-3; 0x1.8b082675922d5p-1 ],
      [ 263702261118949405; 3026915673569965055 ],
      4390466628494765097 );
    ( 1,
      [ 3457603482011350492; 1717361541646166673; 2021227762714211881 ],
      [ 418251; 720878; 335897 ],
      [ 0x1.d2b5309350688p-2; 0x1.7cd0f89b24754p-3 ],
      [ 2018788608106143258; 633099031017978664 ],
      4068567495939744465 );
    ( 42,
      [ 2749113066540076570; 739554815828047797; 767374426118319285 ],
      [ 321091; 398889; 964528 ],
      [ 0x1.1e0b12d313f7cp-2; 0x1.392025051c93p-3 ],
      [ 2416486505231433345; 1647309511063721826 ],
      1124334894917578461 );
    ( -7,
      [ 2947294188056790688; 630266396141297162; 3940839512467280529 ],
      [ 287522; 482545; 779899 ],
      [ 0x1.c41db5aae594p-4; 0x1.16ecaef0c7724p-2 ],
      [ 2505882052119689752; 3455578159597793694 ],
      4241217190085272631 );
    ( 1_000_003,
      [ 4051493159438739003; 2638757568539283329; 1686197507589589490 ],
      [ 158778; 301926; 587957 ],
      [ 0x1.5055c4de35b9ap-2; 0x1.c7b5357f415edp-1 ],
      [ 629031548316538361; 1424931050353921614 ],
      2078332220157622894 );
  ]

let test_rng_golden () =
  List.iter
    (fun (seed, bits, ints, floats, child, parent) ->
      let r = Rng.create ~seed in
      let name what = Printf.sprintf "seed %d: %s" seed what in
      let bits' = List.init 3 (fun _ -> Rng.bits r) in
      let ints' = List.init 3 (fun _ -> Rng.int r 1_000_000) in
      let floats' = List.init 2 (fun _ -> Rng.float r) in
      let c = Rng.split r in
      let child' = List.init 2 (fun _ -> Rng.bits c) in
      Alcotest.(check (list int)) (name "bits") bits bits';
      Alcotest.(check (list int)) (name "int") ints ints';
      Alcotest.(check (list (float 0.0))) (name "float") floats floats';
      Alcotest.(check (list int)) (name "split child") child child';
      Alcotest.(check int) (name "parent after split") parent (Rng.bits r))
    rng_golden

(* Once created, a generator draws without allocating: the 64-bit state
   is read and written unboxed. *)
let test_rng_draws_allocate_nothing () =
  let r = Rng.create ~seed:3 in
  let n = 10_000 in
  let per_draw f =
    let before = Gc.minor_words () in
    for _ = 1 to n do
      f ()
    done;
    (Gc.minor_words () -. before) /. float_of_int n
  in
  List.iter
    (fun (name, f) ->
      let w = per_draw f in
      if w > 0.01 then Alcotest.failf "%s allocates %.2f words per draw" name w)
    [
      ("bits", fun () -> ignore (Sys.opaque_identity (Rng.bits r)));
      ("int", fun () -> ignore (Sys.opaque_identity (Rng.int r 97)));
      ("flip", fun () -> ignore (Sys.opaque_identity (Rng.flip r ~p:0.5)));
    ]

(* ------------------------------------------------------------------ *)
(* Engine *)

let test_engine_delay_advances_clock () =
  let eng = Engine.create () in
  let seen = ref [] in
  Engine.spawn eng (fun () ->
      Engine.delay 1.5;
      seen := (Engine.time (), "a") :: !seen;
      Engine.delay 0.5;
      seen := (Engine.time (), "b") :: !seen);
  Engine.run eng;
  (match List.rev !seen with
  | [ (t1, "a"); (t2, "b") ] ->
    check_float "first" 1.5 t1;
    check_float "second" 2.0 t2
  | _ -> Alcotest.fail "wrong events");
  check_float "final clock" 2.0 (Engine.now eng)

let test_engine_interleaving_deterministic () =
  let run_once () =
    let eng = Engine.create () in
    let order = Buffer.create 16 in
    let worker name dt reps =
      Engine.spawn eng (fun () ->
          for _ = 1 to reps do
            Engine.delay dt;
            Buffer.add_string order name
          done)
    in
    worker "a" 1.0 4;
    worker "b" 0.7 5;
    Engine.run eng;
    Buffer.contents order
  in
  Alcotest.(check string) "same schedule" (run_once ()) (run_once ())

let test_engine_simultaneous_fifo () =
  let eng = Engine.create () in
  let order = ref [] in
  for i = 0 to 4 do
    Engine.spawn eng (fun () ->
        Engine.delay 1.0;
        order := i :: !order)
  done;
  Engine.run eng;
  Alcotest.(check (list int)) "spawn order preserved at ties" [ 0; 1; 2; 3; 4 ]
    (List.rev !order)

let test_engine_fork () =
  let eng = Engine.create () in
  let result = ref 0 in
  Engine.spawn eng (fun () ->
      Engine.fork (fun () ->
          Engine.delay 2.0;
          result := !result + 10);
      Engine.delay 1.0;
      result := !result + 1);
  Engine.run eng;
  Alcotest.(check int) "both ran" 11 !result;
  check_float "clock at last event" 2.0 (Engine.now eng)

let test_engine_fiber_exception_propagates () =
  let eng = Engine.create () in
  Engine.spawn eng (fun () ->
      Engine.delay 1.0;
      failwith "boom");
  Alcotest.check_raises "propagates" (Failure "boom") (fun () ->
      Engine.run eng)

let test_engine_multiple_failures_all_surface () =
  (* Two fibers failing at the same virtual instant must both surface:
     the engine drains the instant before raising, so the second failure
     is recorded instead of dying with the queue. *)
  let eng = Engine.create () in
  Engine.spawn eng (fun () ->
      Engine.delay 1.0;
      failwith "first");
  Engine.spawn eng (fun () ->
      Engine.delay 1.0;
      failwith "second");
  (match Engine.run eng with
  | () -> Alcotest.fail "expected failures"
  | exception Engine.Multiple_failures [ Failure a; Failure b ] ->
    Alcotest.(check string) "primary first" "first" a;
    Alcotest.(check string) "secondary kept" "second" b
  | exception e -> raise e);
  Alcotest.(check int) "failures listed" 2 (List.length (Engine.failures eng))

let test_engine_no_inline_delay_after_failure () =
  (* Once a fiber has failed, the run stops at the next later instant, so
     a delay taken after the failure must not run on inline. *)
  let eng = Engine.create () in
  let ran_on = ref false in
  Engine.spawn eng (fun () -> failwith "boom");
  Engine.spawn eng (fun () ->
      Engine.delay 1.0;
      ran_on := true);
  Alcotest.check_raises "failure surfaces" (Failure "boom") (fun () ->
      Engine.run eng);
  Alcotest.(check bool) "delayed fiber never resumed" false !ran_on;
  check_float "clock stays at the failure" 0.0 (Engine.now eng)

let test_engine_wait_wake () =
  let eng = Engine.create () in
  let q = Engine.waiters () in
  let got = ref (-1.0) in
  Engine.spawn eng (fun () ->
      Engine.wait q;
      got := Engine.time ());
  Engine.spawn eng (fun () ->
      Engine.delay 3.0;
      if Engine.has_waiters q then Engine.wake_one q
      else Alcotest.fail "not parked");
  Engine.run eng;
  check_float "woken at waker's time" 3.0 !got

let test_engine_wake_one_empty_raises () =
  let eng = Engine.create () in
  let q = Engine.waiters () in
  Engine.spawn eng (fun () ->
      Alcotest.check_raises "nobody waits"
        (Invalid_argument "Engine.wake_one: no fiber waits") (fun () ->
          Engine.wake_one q));
  Engine.run eng;
  Alcotest.check_raises "no engine"
    (Invalid_argument "Engine.wake_one: not inside a running engine")
    (fun () -> Engine.wake_one q)

let test_engine_wait_outside_fiber_fails () =
  (* Outside any engine, and in a callback, no handler catches the wait:
     it fails as an unhandled effect and parks nothing. *)
  let q = Engine.waiters () in
  let unhandled () =
    match Engine.wait q with
    | () -> false
    | exception Effect.Unhandled _ -> true
  in
  Alcotest.(check bool) "outside an engine" true (unhandled ());
  let eng = Engine.create () in
  let in_callback = ref false in
  Engine.at eng ~time:1.0
    (Engine.callback (fun () -> in_callback := unhandled ()));
  Engine.run eng;
  Alcotest.(check bool) "in a callback" true !in_callback;
  Alcotest.(check bool) "nothing parked" false (Engine.has_waiters q)

let test_engine_at_callback () =
  let eng = Engine.create () in
  let fired = ref (-1.0) in
  Engine.at eng ~time:4.2 (Engine.callback (fun () -> fired := Engine.now eng));
  Engine.run eng;
  check_float "callback time" 4.2 !fired

let test_engine_delay_in_callback_raises () =
  (* A callback is not a fiber: [delay] there must fail as it always did,
     even with an empty queue, where a fiber's delay would run inline. *)
  let eng = Engine.create () in
  let raised = ref false in
  Engine.at eng ~time:1.0
    (Engine.callback (fun () ->
         match Engine.delay 0.5 with
         | () -> ()
         | exception Effect.Unhandled _ -> raised := true));
  Engine.run eng;
  Alcotest.(check bool) "delay in a callback raises" true !raised;
  check_float "clock untouched" 1.0 (Engine.now eng)

let test_engine_callback_exception_unbinds () =
  (* A callback's exception is not recorded like a fiber's: it leaves
     [run] at once, and the engine is no longer bound afterwards. *)
  let eng = Engine.create () in
  Engine.at eng ~time:1.0 (Engine.callback (fun () -> failwith "callback"));
  Alcotest.check_raises "propagates" (Failure "callback") (fun () ->
      Engine.run eng);
  Alcotest.check_raises "no engine bound after the run"
    (Invalid_argument "Engine.delay: not inside a running engine") (fun () ->
      Engine.delay 1.0)

(* Reference model of the engine's schedule: every delay and every wake-up
   is an event in a (time, seq)-ordered queue, and a sequence number is
   drawn whenever an event is scheduled.  A program is one list of
   operations per fiber; [run_model] returns the log of completed
   operations (fiber, op index, virtual time) and the number of events. *)
type op = Sleep of float | Wait of int | Fill of int

let ivars = 3

let run_model program =
  let queue = ref [] and seq = ref 0 and now = ref 0.0 in
  let push time ev =
    queue := ((time, !seq), ev) :: !queue;
    incr seq
  in
  let full = Array.make ivars false and waiters = Array.make ivars [] in
  let log = ref [] and events = ref 0 in
  let rec step fiber ops pc =
    match ops with
    | [] -> ()
    | op :: rest -> (
      let continue () =
        log := (fiber, pc, !now) :: !log;
        step fiber rest (pc + 1)
      in
      match op with
      | Sleep dt -> push (!now +. dt) (fiber, rest, pc)
      | Wait k ->
        if full.(k) then continue ()
        else waiters.(k) <- (fiber, rest, pc) :: waiters.(k)
      | Fill k ->
        if not full.(k) then begin
          full.(k) <- true;
          List.iter (fun w -> push !now w) (List.rev waiters.(k));
          waiters.(k) <- []
        end;
        continue ())
  in
  List.iteri (fun fiber ops -> push 0.0 (fiber, ops, -1)) program;
  let rec loop () =
    match List.sort (fun (a, _) (b, _) -> compare a b) !queue with
    | [] -> ()
    | ((time, _), (fiber, rest, pc)) :: later ->
      queue := later;
      now := time;
      incr events;
      (* The event completes the operation at [pc] (a sleep or a wait),
         or starts the fiber when [pc] is -1. *)
      if pc >= 0 then log := (fiber, pc, !now) :: !log;
      step fiber rest (pc + 1);
      loop ()
  in
  loop ();
  (List.rev !log, !events)

let run_engine program =
  let eng = Engine.create () in
  let cells = Array.init ivars (fun _ -> Resource.Ivar.create ()) in
  let log = ref [] in
  List.iteri
    (fun fiber ops ->
      Engine.spawn eng (fun () ->
          List.iteri
            (fun pc op ->
              (match op with
              | Sleep dt -> Engine.delay dt
              | Wait k -> Resource.Ivar.read cells.(k)
              | Fill k ->
                if not (Resource.Ivar.is_filled cells.(k)) then
                  Resource.Ivar.fill cells.(k) ());
              log := (fiber, pc, Engine.time ()) :: !log)
            ops))
    program;
  Engine.run eng;
  (List.rev !log, Engine.events_executed eng)

let gen_program =
  let open QCheck.Gen in
  let op =
    frequency
      [
        (* Few distinct lengths, so wake-ups tie with each other. *)
        (5, map (fun i -> Sleep (0.25 *. float_of_int i)) (int_bound 4));
        (2, map (fun k -> Wait k) (int_bound (ivars - 1)));
        (2, map (fun k -> Fill k) (int_bound (ivars - 1)));
      ]
  in
  list_size (int_range 1 5) (list_size (int_bound 8) op)

let print_program program =
  let op = function
    | Sleep dt -> Printf.sprintf "sleep %g" dt
    | Wait k -> Printf.sprintf "wait %d" k
    | Fill k -> Printf.sprintf "fill %d" k
  in
  String.concat " | "
    (List.map (fun ops -> String.concat "; " (List.map op ops)) program)

let prop_engine_matches_model =
  QCheck.Test.make ~name:"engine runs programs in (time, seq) model order"
    ~count:300
    (QCheck.make ~print:print_program gen_program)
    (fun program -> run_engine program = run_model program)

(* Minor words allocated per iteration of [f] inside one running fiber. *)
let fiber_words_per_call n f =
  let eng = Engine.create () in
  let words = ref nan in
  Engine.spawn eng (fun () ->
      f ();
      let before = Gc.minor_words () in
      for _ = 1 to n do
        f ()
      done;
      words := (Gc.minor_words () -. before) /. float_of_int n);
  Engine.run eng;
  !words

let test_engine_inline_delay_allocation () =
  (* With nothing else queued every delay runs inline and allocates
     nothing: the clock is stored unboxed. *)
  let w = fiber_words_per_call 10_000 (fun () -> Engine.delay 1e-3) in
  if w > 0.01 then Alcotest.failf "inline delay allocates %.2f words" w

(* Two fibers delaying in lockstep: each wake-up finds the other fiber's
   event queued at or before it, so every delay suspends through the
   effect handler.  Words per delay, over [n] delays of each fiber. *)
let queued_delay_words n =
  let eng = Engine.create () in
  let words = ref nan in
  Engine.spawn eng (fun () ->
      for _ = 0 to n do
        Engine.delay 1e-3
      done);
  Engine.spawn eng (fun () ->
      Engine.delay 1e-3;
      let before = Gc.minor_words () in
      for _ = 1 to n do
        Engine.delay 1e-3
      done;
      words := (Gc.minor_words () -. before) /. float_of_int (2 * n));
  Engine.run eng;
  !words

let test_engine_queued_delay_allocation () =
  (* Measured at 4 words per suspending delay in the release profile: the
     effect carries no payload, every fiber shares one handler, and the
     only allocation is the continuation's resume event.  Without
     cross-module inlining (the dev profile) the times the engine hands
     to [Heap] are boxed, and it measures 10. *)
  let bound = if Build_profile.name = "release" then 4.01 else 10.01 in
  let w = queued_delay_words 10_000 in
  if w > bound then Alcotest.failf "a suspending delay allocates %.2f words" w

(* Words per round trip between two fibers over two mailboxes: two sends
   and two receives, each of which finds its mailbox empty and parks. *)
let mailbox_round_trip_words n =
  let eng = Engine.create () in
  let ping = Resource.Mailbox.create () and pong = Resource.Mailbox.create () in
  let words = ref nan in
  Engine.spawn eng (fun () ->
      for _ = 0 to n do
        Resource.Mailbox.send pong (Resource.Mailbox.recv ping)
      done);
  Engine.spawn eng (fun () ->
      let trip () =
        Resource.Mailbox.send ping 1;
        ignore (Resource.Mailbox.recv pong : int)
      in
      trip ();
      let before = Gc.minor_words () in
      for _ = 1 to n do
        trip ()
      done;
      words := (Gc.minor_words () -. before) /. float_of_int n);
  Engine.run eng;
  !words

let test_mailbox_round_trip_allocation () =
  (* Measured at 14 words: a queue cell per message and a resume event
     per parked receive. *)
  let w = mailbox_round_trip_words 10_000 in
  if w > 14.01 then Alcotest.failf "a mailbox round trip allocates %.2f words" w

(* Words per ivar that a fiber creates and reads before it is filled, by
   a prebuilt callback, which itself allocates nothing.  The clock stays
   at 0, so the fill is scheduled at a literal 0.0: a float passed across
   modules would be boxed in a build without cross-module inlining. *)
let ivar_words n =
  let eng = Engine.create () in
  let cell = ref (Resource.Ivar.create ()) in
  let fill = Engine.callback (fun () -> Resource.Ivar.fill !cell 1) in
  let words = ref nan in
  let once () =
    let iv = Resource.Ivar.create () in
    cell := iv;
    Engine.at eng ~time:0.0 fill;
    ignore (Resource.Ivar.read iv : int)
  in
  Engine.spawn eng (fun () ->
      once ();
      let before = Gc.minor_words () in
      for _ = 1 to n do
        once ()
      done;
      words := (Gc.minor_words () -. before) /. float_of_int n);
  Engine.run eng;
  !words

let test_ivar_allocation () =
  (* Measured at 12 words: the ivar and its waiter queue, the resume
     event of the parked read, and the filled state. *)
  let w = ivar_words 10_000 in
  if w > 12.01 then
    Alcotest.failf "an ivar create, read and fill allocates %.2f words" w

(* A prebuilt callback that reschedules itself [n] times allocates
   nothing: its event is reused, the time reaches the heap unboxed and
   the clock is written in place.  Reading [Engine.now] and the heap root
   allocates nothing either. *)
let test_engine_prebuilt_callback_allocation () =
  let eng = Engine.create () in
  let n = 10_000 in
  let left = ref n in
  let cb = ref (Engine.callback ignore) in
  cb :=
    Engine.callback (fun () ->
        decr left;
        if !left > 0 then
          Engine.at eng ~time:(Engine.now eng +. 0.5) !cb);
  let run () =
    left := n;
    Engine.at eng ~time:(Engine.now eng +. 1.0) !cb;
    Engine.run eng
  in
  run ();
  let before = Gc.minor_words () in
  run ();
  let words = Gc.minor_words () -. before in
  (* [Engine.run] builds its loop's closures once per run.  Without
     cross-module inlining (the dev profile) each rescheduling boxes its
     time, and the run measures 80,017 words. *)
  let bound = if Build_profile.name = "release" then 30.0 else 80_017.0 in
  if words > bound then
    Alcotest.failf "%d prebuilt callbacks allocate %.0f words" n words;
  let h = Heap.create ~dummy:"" () in
  add h ~time:2.0 ~seq:0 "a";
  let sink = ref 0.0 in
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    sink := !sink +. Engine.now eng +. Heap.min_time h
  done;
  let words = Gc.minor_words () -. before in
  (* The dev profile boxes both floats returned across modules: 4,000
     words. *)
  let bound = if Build_profile.name = "release" then 0.0 else 4000.0 in
  if words > bound then
    Alcotest.failf "reading the clock and the heap root allocates %.0f words"
      words;
  ignore (Sys.opaque_identity !sink)

(* ------------------------------------------------------------------ *)
(* Cancellable timers and the queue counts *)

let test_timer_cancelled_never_runs () =
  let eng = Engine.create () in
  let fired = ref [] in
  let note name () = fired := (name, Engine.now eng) :: !fired in
  let t1 = Engine.timer eng ~time:1.0 (Engine.callback (note "cancelled")) in
  let t2 = Engine.timer eng ~time:2.0 (Engine.callback (note "kept")) in
  Engine.at eng ~time:0.5
    (Engine.callback (fun () ->
         Alcotest.(check bool) "pending before the cancel" true
           (Engine.pending eng t1);
         Engine.cancel eng t1;
         Engine.cancel eng t1;
         Alcotest.(check bool) "not pending after it" false
           (Engine.pending eng t1)));
  Engine.at eng ~time:3.0
    (Engine.callback (fun () ->
         Alcotest.(check bool) "a fired timer is not pending" false
           (Engine.pending eng t2);
         Engine.cancel eng t2;
         Engine.cancel eng Engine.no_timer));
  Engine.run eng;
  Alcotest.(check (list (pair string (float 1e-9)))) "only the kept timer ran"
    [ ("kept", 2.0) ] !fired;
  Alcotest.(check int) "the cancelled timer is not an event" 3
    (Engine.events_executed eng);
  Alcotest.(check int) "one timer cancelled" 1 (Engine.timers_cancelled eng)

(* Arms a timer whose closure holds a finalised cell, so the cell is
   unreachable from the caller once it returns. *)
let arm_watched eng collected =
  let cell = ref 0 in
  Gc.finalise (fun _ -> incr collected) cell;
  Engine.timer eng ~time:1.0 (Engine.callback (fun () -> incr cell))

let test_timer_cancel_releases_closure () =
  let eng = Engine.create () in
  let collected = ref 0 in
  let h = arm_watched eng collected in
  Engine.cancel eng h;
  Gc.full_major ();
  Gc.full_major ();
  Alcotest.(check int) "the cancelled closure was collected" 1 !collected;
  Engine.run eng;
  Alcotest.(check int) "nothing ran" 0 (Engine.events_executed eng)

let test_engine_queue_counts () =
  (* A fixed program: two fibers, two timers and a callback chain.  The
     two fiber starts, the fork, the callback at time 0 and its at-now
     successor come from the lane; the first timer cancels the second. *)
  let eng = Engine.create () in
  Engine.spawn eng (fun () ->
      Engine.fork (fun () -> Engine.delay 1.0);
      Engine.delay 0.5;
      Engine.delay 2.0);
  Engine.spawn eng (fun () -> Engine.delay 0.25);
  let doomed = Engine.timer eng ~time:0.75 (Engine.callback (fun () -> ())) in
  ignore
    (Engine.timer eng ~time:0.25
       (Engine.callback (fun () -> Engine.cancel eng doomed)));
  Engine.at eng ~time:0.0
    (Engine.callback (fun () ->
         Engine.at eng ~time:(Engine.now eng) (Engine.callback ignore)));
  Engine.run eng;
  (* Events: 2 spawns, the fork, 4 delays, 1 timer, 2 callbacks. *)
  Alcotest.(check int) "events executed" 10 (Engine.events_executed eng);
  Alcotest.(check int) "from the at-now lane" 5 (Engine.events_from_lane eng);
  Alcotest.(check int) "timers cancelled" 1 (Engine.timers_cancelled eng);
  (* Five queued before the run; the first fiber forks and then delays
     behind the queued lane. *)
  Alcotest.(check int) "peak queue" 6 (Engine.peak_queue eng)

let test_timer_in_the_past_rejected () =
  let eng = Engine.create () in
  Engine.at eng ~time:1.0
    (Engine.callback (fun () ->
         Alcotest.check_raises "timer before now"
           (Invalid_argument "Engine.schedule: time 0.5 is before now 1")
           (fun () ->
             ignore (Engine.timer eng ~time:0.5 (Engine.callback ignore)))));
  Engine.run eng

(* A random queue program: numbered bodies, each a list of operations,
   run either as a callback or as a fiber.  A body schedules only
   higher-numbered bodies, so every program ends.  Timer and park cells
   are shared by all bodies. *)
type qop =
  | Q_at of float * int (* callback body at now + dt *)
  | Q_timer of float * int * int (* timer into cell, running a body *)
  | Q_cancel of int (* cancel the timer in a cell *)
  | Q_delay of float (* fibers only *)
  | Q_fork of int (* a fiber forks, a callback spawns *)
  | Q_park of int (* fibers only: wait on a cell's queue *)
  | Q_wake of int (* resume the fiber parked in a cell, if any *)

let q_cells = 2

type qlog = Q_cb of int | Q_fiber of int | Q_resumed of int * int

(* The reference: one (time, seq)-sorted list, a sequence number drawn at
   every scheduling (a delay's included, a cancelled timer's kept), and
   a cancel that deletes by number.  Returns the log with times, the
   events run and the timers cancelled. *)
let run_queue_model bodies =
  let queue = ref [] and seq = ref 0 and now = ref 0.0 in
  let push time ev =
    let key = (time, !seq) in
    incr seq;
    let rec ins = function
      | (k, _) :: _ as l when compare key k < 0 -> (key, ev) :: l
      | x :: rest -> x :: ins rest
      | [] -> [ (key, ev) ]
    in
    queue := ins !queue;
    snd key
  in
  let timers = Array.make q_cells (-1) and parked = Array.make q_cells None in
  let log = ref [] and events = ref 0 and cancelled = ref 0 in
  let common ~fiber = function
    | Q_at (dt, b) -> ignore (push (!now +. dt) (`Cb b))
    | Q_timer (dt, b, c) -> timers.(c) <- push (!now +. dt) (`Cb b)
    | Q_cancel c ->
      if List.exists (fun ((_, s), _) -> s = timers.(c)) !queue then begin
        queue := List.filter (fun ((_, s), _) -> s <> timers.(c)) !queue;
        incr cancelled
      end
    | Q_fork b -> ignore (push !now (`Fiber b))
    | Q_wake c -> (
      match parked.(c) with
      | Some k ->
        parked.(c) <- None;
        ignore (push !now (`Resume k))
      | None -> ())
    | Q_delay _ | Q_park _ -> assert (not fiber)
  in
  let rec fiber b pc = function
    | [] -> ()
    | Q_delay dt :: rest -> ignore (push (!now +. dt) (`Resume (b, pc, rest)))
    | Q_park c :: rest when parked.(c) = None ->
      parked.(c) <- Some (b, pc, rest)
    | Q_park _ :: rest -> fiber b (pc + 1) rest
    | op :: rest ->
      common ~fiber:true op;
      fiber b (pc + 1) rest
  in
  let callback b =
    List.iter
      (function Q_delay _ | Q_park _ -> () | op -> common ~fiber:false op)
      bodies.(b)
  in
  ignore (push 0.0 (`Fiber 0));
  ignore (push 0.0 (`Cb 1));
  let rec loop () =
    match !queue with
    | [] -> ()
    | ((time, _), ev) :: rest ->
      queue := rest;
      now := time;
      incr events;
      (match ev with
      | `Cb b ->
        log := (Q_cb b, time) :: !log;
        callback b
      | `Fiber b ->
        log := (Q_fiber b, time) :: !log;
        fiber b 0 bodies.(b)
      | `Resume (b, pc, rest) ->
        log := (Q_resumed (b, pc), time) :: !log;
        fiber b (pc + 1) rest);
      loop ()
  in
  loop ();
  (List.rev !log, !events, !cancelled)

let run_queue_engine bodies =
  let eng = Engine.create () in
  let timers = Array.make q_cells Engine.no_timer in
  let parked = Array.init q_cells (fun _ -> Engine.waiters ()) in
  let log = ref [] in
  let note entry = log := (entry, Engine.now eng) :: !log in
  let rec common ~fiber = function
    | Q_at (dt, b) ->
      Engine.at eng ~time:(Engine.now eng +. dt)
        (Engine.callback (fun () -> callback b))
    | Q_timer (dt, b, c) ->
      timers.(c) <-
        Engine.timer eng ~time:(Engine.now eng +. dt)
          (Engine.callback (fun () -> callback b))
    | Q_cancel c -> Engine.cancel eng timers.(c)
    | Q_fork b ->
      if fiber then Engine.fork (fun () -> run_fiber b)
      else Engine.spawn eng (fun () -> run_fiber b)
    | Q_wake c -> if Engine.has_waiters parked.(c) then Engine.wake_one parked.(c)
    | Q_delay _ | Q_park _ -> ()
  and callback b =
    note (Q_cb b);
    List.iter (common ~fiber:false) bodies.(b)
  and run_fiber b =
    note (Q_fiber b);
    List.iteri
      (fun pc op ->
        match op with
        | Q_delay dt ->
          Engine.delay dt;
          note (Q_resumed (b, pc))
        | Q_park c when not (Engine.has_waiters parked.(c)) ->
          Engine.wait parked.(c);
          note (Q_resumed (b, pc))
        | Q_park _ -> ()
        | op -> common ~fiber:true op)
      bodies.(b)
  in
  Engine.spawn eng (fun () -> run_fiber 0);
  Engine.at eng ~time:0.0 (Engine.callback (fun () -> callback 1));
  Engine.run eng;
  (List.rev !log, Engine.events_executed eng, Engine.timers_cancelled eng)

let gen_queue_program =
  let open QCheck.Gen in
  let dt = map (fun i -> 0.25 *. float_of_int i) (int_bound 2) in
  let cell = int_bound (q_cells - 1) in
  let body ~bodies b =
    let later =
      if b + 1 < bodies then [ int_range (b + 1) (bodies - 1) ] else []
    in
    let sched =
      List.concat_map
        (fun target ->
          [
            (2, map2 (fun dt b -> Q_at (dt, b)) dt target);
            (3, map3 (fun dt b c -> Q_timer (dt, b, c)) dt target cell);
            (1, map (fun b -> Q_fork b) target);
          ])
        later
    in
    list_size (int_bound 4)
      (frequency
         (sched
         @ [
             (3, map (fun c -> Q_cancel c) cell);
             (3, map (fun d -> Q_delay d) dt);
             (1, map (fun c -> Q_park c) cell);
             (2, map (fun c -> Q_wake c) cell);
           ]))
  in
  int_range 2 6 >>= fun bodies ->
  flatten_l (List.init bodies (body ~bodies)) >|= Array.of_list

let print_queue_program bodies =
  let op = function
    | Q_at (dt, b) -> Printf.sprintf "at +%g b%d" dt b
    | Q_timer (dt, b, c) -> Printf.sprintf "timer%d +%g b%d" c dt b
    | Q_cancel c -> Printf.sprintf "cancel%d" c
    | Q_delay dt -> Printf.sprintf "delay %g" dt
    | Q_fork b -> Printf.sprintf "fork b%d" b
    | Q_park c -> Printf.sprintf "park%d" c
    | Q_wake c -> Printf.sprintf "wake%d" c
  in
  String.concat " | "
    (Array.to_list
       (Array.mapi
          (fun b ops ->
            Printf.sprintf "b%d: %s" b (String.concat "; " (List.map op ops)))
          bodies))

let prop_queue_matches_sorted_reference =
  QCheck.Test.make
    ~name:"queue runs programs in (time, seq) reference order" ~count:300
    (QCheck.make ~print:print_queue_program gen_queue_program)
    (fun bodies -> run_queue_engine bodies = run_queue_model bodies)

(* ------------------------------------------------------------------ *)
(* Resources *)

let in_engine f =
  let eng = Engine.create () in
  Engine.spawn eng f;
  Engine.run eng;
  eng

let test_ivar_blocks_until_filled () =
  let iv = Resource.Ivar.create () in
  let got = ref None in
  let eng = Engine.create () in
  Engine.spawn eng (fun () ->
      let v = Resource.Ivar.read iv in
      got := Some (v, Engine.time ()));
  Engine.spawn eng (fun () ->
      Engine.delay 2.0;
      Resource.Ivar.fill iv 99);
  Engine.run eng;
  match !got with
  | Some (99, t) -> check_float "read at fill time" 2.0 t
  | _ -> Alcotest.fail "read failed"

let test_ivar_read_after_fill_immediate () =
  let iv = Resource.Ivar.create () in
  Resource.Ivar.fill iv "x";
  let _ = in_engine (fun () ->
      Alcotest.(check string) "immediate" "x" (Resource.Ivar.read iv)) in
  ()

let test_ivar_double_fill_rejected () =
  let iv = Resource.Ivar.create () in
  Resource.Ivar.fill iv 1;
  Alcotest.check_raises "double fill"
    (Invalid_argument "Ivar.fill: already filled") (fun () ->
      Resource.Ivar.fill iv 2)

let test_mailbox_fifo () =
  let mb = Resource.Mailbox.create () in
  let got = ref [] in
  let eng = Engine.create () in
  Engine.spawn eng (fun () ->
      for _ = 1 to 3 do
        got := Resource.Mailbox.recv mb :: !got
      done);
  Engine.spawn eng (fun () ->
      Engine.delay 1.0;
      Resource.Mailbox.send mb "first";
      Resource.Mailbox.send mb "second";
      Engine.delay 1.0;
      Resource.Mailbox.send mb "third");
  Engine.run eng;
  Alcotest.(check (list string)) "fifo" [ "first"; "second"; "third" ]
    (List.rev !got)

(* Three waiters, past the waiter queue's inline slot, wake in the order
   they parked; a waiter that parks again while the others still wait
   queues behind them. *)
let test_mailbox_wake_order () =
  let mb = Resource.Mailbox.create () in
  let got = ref [] in
  let eng = Engine.create () in
  for r = 0 to 2 do
    Engine.spawn eng (fun () ->
        let rounds = if r = 0 then 2 else 1 in
        for _ = 1 to rounds do
          let m = Resource.Mailbox.recv mb in
          got := (r, m) :: !got
        done)
  done;
  Engine.spawn eng (fun () ->
      Engine.delay 1.0;
      Resource.Mailbox.send mb "a";
      Engine.delay 1.0;
      Resource.Mailbox.send mb "b";
      Resource.Mailbox.send mb "c";
      Resource.Mailbox.send mb "d");
  Engine.run eng;
  Alcotest.(check (list (pair int string)))
    "oldest receiver first"
    [ (0, "a"); (1, "b"); (2, "c"); (0, "d") ]
    (List.rev !got)

let test_ivar_wake_order () =
  let iv = Resource.Ivar.create () in
  let woken = ref [] in
  let eng = Engine.create () in
  for r = 0 to 2 do
    Engine.spawn eng (fun () ->
        let v = Resource.Ivar.read iv in
        woken := (r, v) :: !woken)
  done;
  Engine.spawn eng (fun () ->
      Engine.delay 1.0;
      Resource.Ivar.fill iv 7);
  Engine.run eng;
  Alcotest.(check (list (pair int int)))
    "every reader, oldest first"
    [ (0, 7); (1, 7); (2, 7) ]
    (List.rev !woken)

let test_semaphore_wake_order () =
  let sem = Resource.Semaphore.create 0 in
  let woken = ref [] in
  let eng = Engine.create () in
  for r = 0 to 2 do
    Engine.spawn eng (fun () ->
        Resource.Semaphore.wait sem;
        woken := (r, Engine.time ()) :: !woken)
  done;
  Engine.spawn eng (fun () ->
      for _ = 1 to 3 do
        Engine.delay 1.0;
        Resource.Semaphore.signal sem
      done);
  Engine.run eng;
  Alcotest.(check (list (pair int (float 1e-9))))
    "one waiter per signal, oldest first"
    [ (0, 1.0); (1, 2.0); (2, 3.0) ]
    (List.rev !woken);
  Alcotest.(check int) "no count left" 0 (Resource.Semaphore.value sem)

let test_semaphore_counting () =
  let eng = Engine.create () in
  let sem = Resource.Semaphore.create 2 in
  let finish_times = ref [] in
  for _ = 0 to 3 do
    Engine.spawn eng (fun () ->
        Resource.Semaphore.wait sem;
        Engine.delay 1.0;
        Resource.Semaphore.signal sem;
        finish_times := Engine.time () :: !finish_times)
  done;
  Engine.run eng;
  Alcotest.(check (list (float 1e-9))) "two at a time" [ 1.0; 1.0; 2.0; 2.0 ]
    (List.sort compare !finish_times)

(* ------------------------------------------------------------------ *)
(* Profiler *)

module Profile = Carlos_obs.Profile

let test_profile_disabled_records_nothing () =
  (* Regression for the hot-path guards: with the profiler off, a full
     engine run (spawns, delays, suspend/resume via ivars) must record
     zero samples in every category. *)
  Profile.reset ();
  Profile.set_enabled false;
  let eng = Engine.create () in
  let iv = Resource.Ivar.create () in
  Engine.spawn eng (fun () ->
      Engine.delay 1.0;
      Resource.Ivar.fill iv 42);
  Engine.spawn eng (fun () ->
      ignore (Resource.Ivar.read iv);
      Engine.delay 0.5);
  Engine.run eng;
  List.iter
    (fun s ->
      Alcotest.(check int)
        (s.Profile.category ^ " count") 0 s.Profile.count;
      check_float (s.Profile.category ^ " seconds") 0.0 s.Profile.seconds)
    (Profile.snapshot ())

let test_profile_disabled_probe_allocation () =
  (* The zero-cost-when-off guarantee: a disabled start/stop probe pair
     reads a flag and branches, so 1,000 pairs allocate no minor word. *)
  Profile.reset ();
  Profile.set_enabled false;
  let probes () =
    for _ = 1 to 1000 do
      Profile.enter Profile.event;
      Profile.leave Profile.event
    done
  in
  probes ();
  let before = Gc.minor_words () in
  probes ();
  let words = Gc.minor_words () -. before in
  if words > 0.0 then
    Alcotest.failf "1,000 disabled probes allocate %.0f words" words

let test_profile_enabled_records_run () =
  Profile.reset ();
  Profile.set_enabled true;
  let eng = Engine.create () in
  (* The reader parks on the ivar until the second fiber fills it, so the
     run has a real resume (a lone delay would run inline). *)
  let iv = Resource.Ivar.create () in
  Engine.spawn eng (fun () -> ignore (Resource.Ivar.read iv));
  Engine.spawn eng (fun () ->
      Engine.delay 1.0;
      Resource.Ivar.fill iv ());
  Engine.run eng;
  Profile.set_enabled false;
  let count span =
    let s =
      List.find
        (fun s -> s.Profile.category = Profile.name span)
        (Profile.snapshot ())
    in
    s.Profile.count
  in
  Alcotest.(check int) "one run" 1 (count Profile.run);
  Alcotest.(check bool) "events recorded" true (count Profile.event > 0);
  Alcotest.(check bool) "resumes recorded" true
    (count Profile.fiber_resume > 0);
  Profile.reset ()

(* Two spans of other layers, one of them open across a suspension. *)
let net_span = Profile.span Carlos_obs.Obs.Net "test.net"

let app_span = Profile.span Carlos_obs.Obs.App "test.app"

(* A program whose fibers allocate, enter spans and suspend inside them:
   one parks on an ivar inside [app_span], the other delays inside
   [net_span] and fills the ivar. *)
let span_program () =
  let eng = Engine.create () in
  let iv = Resource.Ivar.create () in
  let sink = ref [] in
  Engine.spawn eng (fun () ->
      Profile.enter app_span;
      sink := List.init 50 Fun.id :: !sink;
      ignore (Resource.Ivar.read iv);
      sink := List.init 30 Fun.id :: !sink;
      Profile.leave app_span);
  Engine.spawn eng (fun () ->
      for _ = 1 to 3 do
        Profile.enter net_span;
        sink := List.init 20 Fun.id :: !sink;
        Engine.delay 1.0;
        Profile.leave net_span
      done;
      Resource.Ivar.fill iv ());
  eng

let test_profile_layers_sum_to_run () =
  (* The same program, off and then on: the words the profiled run
     charges to its spans are the words the run allocates unprofiled,
     and the layers' exclusive numbers sum to [run]'s inclusive ones. *)
  Profile.reset ();
  Profile.set_enabled false;
  Engine.run (span_program ());
  let eng = span_program () in
  let w0 = Gc.minor_words () in
  Engine.run eng;
  let off_words = Gc.minor_words () -. w0 in
  Profile.set_enabled true;
  Engine.run (span_program ());
  Profile.set_enabled false;
  let run =
    List.find
      (fun s -> s.Profile.span_name = Profile.name Profile.run)
      (Profile.stats ())
  in
  let layers = Profile.layers () in
  let secs = List.fold_left (fun a (_, s, _) -> a +. s) 0.0 layers in
  let words = List.fold_left (fun a (_, _, w) -> a +. w) 0.0 layers in
  check_float "run words = unprofiled words" off_words run.Profile.incl_words;
  check_float "layer words sum to run" run.Profile.incl_words words;
  Alcotest.(check (float 1e-6)) "layer seconds sum to run" run.Profile.incl_s
    secs;
  let layer_words l =
    List.fold_left (fun a (l', _, w) -> if l' = l then a +. w else a) 0.0 layers
  in
  Alcotest.(check bool) "app words charged" true
    (layer_words Carlos_obs.Obs.App >= 80.0 *. 3.0);
  Alcotest.(check bool) "net words charged" true
    (layer_words Carlos_obs.Obs.Net >= 60.0 *. 3.0);
  Profile.reset ()

let qcheck = Props.qcheck

let () =
  Props.run "sim"
    [
      ( "heap",
        [
          Alcotest.test_case "pop order" `Quick test_heap_order;
          Alcotest.test_case "tie break by seq" `Quick test_heap_tie_break;
          Alcotest.test_case "popped values released to gc" `Quick
            test_heap_releases_popped_values;
          Alcotest.test_case "remove by slot" `Quick test_heap_remove_by_slot;
          Alcotest.test_case "steady-state push/pop allocates nothing" `Quick
            test_heap_steady_state_allocation;
        ]
        @ qcheck [ prop_heap_sorted; prop_heap_lexicographic; prop_heap_remove ]
      );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "split independent" `Quick
            test_rng_split_independent;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
          Alcotest.test_case "golden sequence" `Quick test_rng_golden;
          Alcotest.test_case "draws allocate nothing" `Quick
            test_rng_draws_allocate_nothing;
        ] );
      ( "engine",
        [
          Alcotest.test_case "delay advances clock" `Quick
            test_engine_delay_advances_clock;
          Alcotest.test_case "deterministic interleaving" `Quick
            test_engine_interleaving_deterministic;
          Alcotest.test_case "ties are fifo" `Quick
            test_engine_simultaneous_fifo;
          Alcotest.test_case "fork" `Quick test_engine_fork;
          Alcotest.test_case "fiber exception propagates" `Quick
            test_engine_fiber_exception_propagates;
          Alcotest.test_case "multiple failures all surface" `Quick
            test_engine_multiple_failures_all_surface;
          Alcotest.test_case "no inline delay after a failure" `Quick
            test_engine_no_inline_delay_after_failure;
          Alcotest.test_case "suspend/resume" `Quick
            test_engine_wait_wake;
          Alcotest.test_case "wake_one on an empty queue raises" `Quick
            test_engine_wake_one_empty_raises;
          Alcotest.test_case "wait outside a fiber fails" `Quick
            test_engine_wait_outside_fiber_fails;
          Alcotest.test_case "at callback" `Quick test_engine_at_callback;
          Alcotest.test_case "delay in a callback raises" `Quick
            test_engine_delay_in_callback_raises;
          Alcotest.test_case "callback exception unbinds the engine" `Quick
            test_engine_callback_exception_unbinds;
          Alcotest.test_case "inline delay allocation" `Quick
            test_engine_inline_delay_allocation;
          Alcotest.test_case "queued delay allocation" `Quick
            test_engine_queued_delay_allocation;
          Alcotest.test_case "mailbox round trip allocation" `Quick
            test_mailbox_round_trip_allocation;
          Alcotest.test_case "ivar create, read and fill allocation" `Quick
            test_ivar_allocation;
          Alcotest.test_case "prebuilt callback allocation" `Quick
            test_engine_prebuilt_callback_allocation;
        ]
        @ qcheck [ prop_engine_matches_model ] );
      ( "queue",
        [
          Alcotest.test_case "a cancelled timer never runs" `Quick
            test_timer_cancelled_never_runs;
          Alcotest.test_case "cancel releases the closure" `Quick
            test_timer_cancel_releases_closure;
          Alcotest.test_case "timer in the past rejected" `Quick
            test_timer_in_the_past_rejected;
          Alcotest.test_case "queue counts of a fixed program" `Quick
            test_engine_queue_counts;
        ]
        @ qcheck [ prop_queue_matches_sorted_reference ] );
      ( "profile",
        [
          Alcotest.test_case "disabled run records zero samples" `Quick
            test_profile_disabled_records_nothing;
          Alcotest.test_case "disabled probes allocate nothing" `Quick
            test_profile_disabled_probe_allocation;
          Alcotest.test_case "enabled run records samples" `Quick
            test_profile_enabled_records_run;
          Alcotest.test_case "layers sum to run" `Quick
            test_profile_layers_sum_to_run;
        ] );
      ( "resource",
        [
          Alcotest.test_case "ivar blocks until filled" `Quick
            test_ivar_blocks_until_filled;
          Alcotest.test_case "ivar immediate read" `Quick
            test_ivar_read_after_fill_immediate;
          Alcotest.test_case "ivar double fill" `Quick
            test_ivar_double_fill_rejected;
          Alcotest.test_case "mailbox fifo" `Quick test_mailbox_fifo;
          Alcotest.test_case "mailbox wakes three receivers in order" `Quick
            test_mailbox_wake_order;
          Alcotest.test_case "ivar wakes three readers in order" `Quick
            test_ivar_wake_order;
          Alcotest.test_case "semaphore wakes three waiters in order" `Quick
            test_semaphore_wake_order;
          Alcotest.test_case "semaphore counting" `Quick
            test_semaphore_counting;
        ] );
    ]
