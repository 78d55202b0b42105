(* Tests for the simulation kernel: event heap, RNG, engine and fibers,
   virtual-time resources. *)

module Heap = Carlos_sim.Heap
module Rng = Carlos_sim.Rng
module Engine = Carlos_sim.Engine
module Resource = Carlos_sim.Resource

let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Heap *)

let test_heap_order () =
  let h = Heap.create ~dummy:"" () in
  Heap.add h ~time:3.0 ~seq:0 "c";
  Heap.add h ~time:1.0 ~seq:1 "a";
  Heap.add h ~time:2.0 ~seq:2 "b";
  let popped = ref [] in
  while not (Heap.is_empty h) do
    popped := Heap.pop h :: !popped
  done;
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ]
    (List.rev !popped)

let test_heap_tie_break () =
  let h = Heap.create ~dummy:"" () in
  Heap.add h ~time:1.0 ~seq:5 "later";
  Heap.add h ~time:1.0 ~seq:2 "earlier";
  check_float "min time" 1.0 (Heap.min_time h);
  Alcotest.(check string) "lower seq first" "earlier" (Heap.pop h);
  Alcotest.(check int) "one left" 1 (Heap.size h)

let prop_heap_sorted =
  QCheck.Test.make ~name:"heap pops keys in nondecreasing order" ~count:200
    QCheck.(list (pair (float_bound_exclusive 1000.0) small_nat))
    (fun pairs ->
      let h = Heap.create ~dummy:(-1) () in
      List.iteri (fun i (time, _) -> Heap.add h ~time ~seq:i i) pairs;
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
        (fun i t -> Heap.add h ~time:(float_of_int t) ~seq:i i)
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
    Heap.add h ~time:(float_of_int i) ~seq:i v
  done;
  for _ = 1 to n do
    ignore (Heap.pop h)
  done;
  Gc.full_major ();
  Gc.full_major ();
  Alcotest.(check int) "all popped values collected" n !collected;
  Alcotest.(check int) "heap empty" 0 (Heap.size h)

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

let test_engine_suspend_resume () =
  let eng = Engine.create () in
  let resume_cell = ref None in
  let got = ref (-1.0) in
  Engine.spawn eng (fun () ->
      Engine.suspend (fun resume -> resume_cell := Some resume);
      got := Engine.time ());
  Engine.spawn eng (fun () ->
      Engine.delay 3.0;
      match !resume_cell with
      | Some resume -> resume ()
      | None -> Alcotest.fail "not parked");
  Engine.run eng;
  check_float "woken at waker's time" 3.0 !got

let test_engine_at_callback () =
  let eng = Engine.create () in
  let fired = ref (-1.0) in
  Engine.at eng ~time:4.2 (fun () -> fired := Engine.now eng);
  Engine.run eng;
  check_float "callback time" 4.2 !fired

let test_engine_delay_in_callback_raises () =
  (* A callback is not a fiber: [delay] there must fail as it always did,
     even with an empty queue, where a fiber's delay would run inline. *)
  let eng = Engine.create () in
  let raised = ref false in
  Engine.at eng ~time:1.0 (fun () ->
      match Engine.delay 0.5 with
      | () -> ()
      | exception Effect.Unhandled _ -> raised := true);
  Engine.run eng;
  Alcotest.(check bool) "delay in a callback raises" true !raised;
  check_float "clock untouched" 1.0 (Engine.now eng)

let test_engine_callback_exception_unbinds () =
  (* A callback's exception is not recorded like a fiber's: it leaves
     [run] at once, and the engine is no longer bound afterwards. *)
  let eng = Engine.create () in
  Engine.at eng ~time:1.0 (fun () -> failwith "callback");
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
  (* With nothing else queued every delay runs inline: the only
     allocation is the boxed clock. *)
  let w = fiber_words_per_call 10_000 (fun () -> Engine.delay 1e-3) in
  if w > 2.01 then Alcotest.failf "inline delay allocates %.2f words" w

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
  (* Measured at 10 words per suspending delay: the effect carries no
     payload and each fiber builds its handler once. *)
  let w = queued_delay_words 10_000 in
  if w > 10.01 then Alcotest.failf "a suspending delay allocates %.2f words" w

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
      let t0 = Profile.start () in
      Profile.stop Profile.Event t0
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
  let count cat =
    let s =
      List.find
        (fun s -> s.Profile.category = Profile.name cat)
        (Profile.snapshot ())
    in
    s.Profile.count
  in
  Alcotest.(check int) "one run" 1 (count Profile.Run);
  Alcotest.(check bool) "events recorded" true (count Profile.Event > 0);
  Alcotest.(check bool) "resumes recorded" true
    (count Profile.Fiber_resume > 0);
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
        ]
        @ qcheck [ prop_heap_sorted; prop_heap_lexicographic ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "split independent" `Quick
            test_rng_split_independent;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
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
            test_engine_suspend_resume;
          Alcotest.test_case "at callback" `Quick test_engine_at_callback;
          Alcotest.test_case "delay in a callback raises" `Quick
            test_engine_delay_in_callback_raises;
          Alcotest.test_case "callback exception unbinds the engine" `Quick
            test_engine_callback_exception_unbinds;
          Alcotest.test_case "inline delay allocation" `Quick
            test_engine_inline_delay_allocation;
          Alcotest.test_case "queued delay allocation" `Quick
            test_engine_queued_delay_allocation;
        ]
        @ qcheck [ prop_engine_matches_model ] );
      ( "profile",
        [
          Alcotest.test_case "disabled run records zero samples" `Quick
            test_profile_disabled_records_nothing;
          Alcotest.test_case "disabled probes allocate nothing" `Quick
            test_profile_disabled_probe_allocation;
          Alcotest.test_case "enabled run records samples" `Quick
            test_profile_enabled_records_run;
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
          Alcotest.test_case "semaphore counting" `Quick
            test_semaphore_counting;
        ] );
    ]
