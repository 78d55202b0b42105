module Profile = Carlos_obs.Profile

(* Queue payloads are a small variant instead of uniform [unit -> unit]
   thunks: resuming a parked fiber or starting a forked one schedules the
   continuation/body directly, so the steady state allocates no wrapper
   closure per event.  [Ev_none] fills vacated heap slots and lane cells —
   it never reaches [exec]. *)
type event =
  | Ev_none
  | Ev_thunk of (unit -> unit)
  | Ev_fiber of (unit -> unit)
  | Ev_resume of (unit, unit) Effect.Deep.continuation

(* A prebuilt [Ev_thunk]: scheduling it again allocates nothing. *)
type callback = event

(* The fibers parked on one resource, oldest first, each as the
   [Ev_resume] that wakes it.  The oldest waits in [first] ([Ev_none]
   when nobody does); later ones queue in [overflow], which starts as the
   shared empty [no_overflow] and gets a queue of its own only when a
   second fiber parks, so a resource with one waiter at a time allocates
   no queue cell.  [first] is empty only when [overflow] is. *)
type waiters = { mutable first : event; mutable overflow : event Queue.t }

let no_overflow : event Queue.t = Queue.create ()

(* The engine's floats live unboxed in [floats], so writing one is a
   plain store where a float field of this mixed record would box:
   - the virtual clock;
   - the [~time] of the event being scheduled: [at] and [timer] are
     inlined into their callers and store it here, so it reaches the
     queue without being boxed;
   - the [dt] of the [Delay] being performed, stored by [delay] and read
     at once by the fiber's handler. *)
let clock_i = 0

let time_i = 1

let dt_i = 2

type t = {
  floats : float array;
  queue : event Heap.t;
  (* The at-now lane: a FIFO ring of the events scheduled at the clock
     itself, each with the sequence number it drew.  Every entry is due
     at the clock (the clock only moves once the lane is empty), and they
     drew their numbers in order, so the lane needs no sift.  [lane]'s
     length is a power of two. *)
  mutable lane : event array;
  mutable lane_seqs : int array;
  mutable lane_head : int;
  mutable lane_len : int;
  mutable next_seq : int;
  mutable executed : int;
  mutable from_lane : int;
  mutable cancelled : int;
  mutable peak : int;
  mutable failure : exn option;
  (* Failures of fibers that died after [failure] was already recorded
     (newest first).  Surfaced by [run] as [Multiple_failures]. *)
  mutable secondary : exn list;
  (* Whether the event being executed is a fiber slice ([Ev_fiber] or
     [Ev_resume]) rather than an [Ev_thunk] callback. *)
  mutable in_fiber : bool;
  (* [Profile.enabled ()] as read when [run] started: the engine's probes
     test this field. *)
  mutable profiling : bool;
  (* While profiling, the profiler's stack depth at the start of the
     running fiber slice: the spans above it are the fiber's own, parked
     when it suspends. *)
  mutable slice_base : int;
  (* The payloads of the [Fork] and [Wait] being performed, stored by
     [fork] and [wait] and taken at once by the handler, so that no
     effect carries a payload and every fiber shares one handler. *)
  mutable fork_body : unit -> unit;
  mutable waiting : waiters;
  (* The effect handler of every fiber of this engine, built once. *)
  mutable handler : (unit, unit) Effect.Deep.handler;
}

exception Multiple_failures of exn list

type _ Effect.t +=
  | Delay : unit Effect.t
  | Time : unit Effect.t
  | Fork : unit Effect.t
  | Wait : unit Effect.t

(* The engine currently executing; used only to give fiber-level operations
   ([delay], [time], ...) an implicit engine argument.  Domain-local so
   independent simulations may run concurrently in separate domains (the
   parallel bench harness) without seeing each other's engine. *)
let current_key : t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let[@inline] clock t = Array.unsafe_get t.floats clock_i

let[@inline] set_clock t time = Array.unsafe_set t.floats clock_i time

let failures t =
  match t.failure with
  | None -> []
  | Some e -> e :: List.rev t.secondary

let[@inline] now t = clock t

let events_executed t = t.executed

let events_from_lane t = t.from_lane

let timers_cancelled t = t.cancelled

let peak_queue t = t.peak

let grow_lane t =
  let cap = Array.length t.lane in
  let lane = Array.make (2 * cap) Ev_none in
  let seqs = Array.make (2 * cap) 0 in
  for k = 0 to t.lane_len - 1 do
    let i = (t.lane_head + k) land (cap - 1) in
    lane.(k) <- t.lane.(i);
    seqs.(k) <- t.lane_seqs.(i)
  done;
  t.lane <- lane;
  t.lane_seqs <- seqs;
  t.lane_head <- 0

let lane_push t ~seq ev =
  if t.lane_len = Array.length t.lane then grow_lane t;
  let i = (t.lane_head + t.lane_len) land (Array.length t.lane - 1) in
  Array.unsafe_set t.lane i ev;
  Array.unsafe_set t.lane_seqs i seq;
  t.lane_len <- t.lane_len + 1

let lane_pop t =
  let i = t.lane_head in
  let ev = Array.unsafe_get t.lane i in
  Array.unsafe_set t.lane i Ev_none;
  t.lane_head <- (i + 1) land (Array.length t.lane - 1);
  t.lane_len <- t.lane_len - 1;
  t.from_lane <- t.from_lane + 1;
  ev

let note_length t =
  let n = Heap.size t.queue + t.lane_len in
  if n > t.peak then t.peak <- n

(* A timer handle packs the sequence number the timer drew above its
   heap slot: the slot finds the entry, the number tells it from a later
   entry that reuses the slot.  [-1] ([no_timer]) is never live. *)
type timer = int

let slot_bits = 24

let slot_mask = (1 lsl slot_bits) - 1

let no_timer = -1

(* Queue [ev] at [time] under the next sequence number.  An event due now
   joins the lane, unless it is a timer: only in the heap can a timer be
   found again to cancel.  Returns the handle of a heap entry, or
   [no_timer] for a lane entry.  Inlined into [schedule], so [time]
   reaches the heap's unboxed key array without being boxed. *)
let[@inline] push t ~time ~timer ev =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let h =
    if time = clock t && not timer then begin
      lane_push t ~seq ev;
      no_timer
    end
    else begin
      let slot = Heap.add t.queue ~time ~seq ev in
      if slot > slot_mask then failwith "Engine: too many queued events";
      (seq lsl slot_bits) lor slot
    end
  in
  note_length t;
  h

(* Reads the time itself: passing it would box [schedule]'s [time]. *)
let[@inline never] in_the_past t =
  invalid_arg
    (Printf.sprintf "Engine.schedule: time %g is before now %g"
       t.floats.(time_i) (clock t))

(* Schedule [ev] at the time stored in [floats.(time_i)]. *)
let schedule t ~timer ev =
  let time = Array.unsafe_get t.floats time_i in
  if time < clock t then in_the_past t;
  if t.profiling then begin
    Profile.enter Profile.heap_push;
    let h = push t ~time ~timer ev in
    Profile.leave Profile.heap_push;
    h
  end
  else push t ~time ~timer ev

let[@inline] schedule_at t ~time ~timer ev =
  Array.unsafe_set t.floats time_i time;
  schedule t ~timer ev

let[@inline] schedule_ev t ~time ev =
  ignore (schedule_at t ~time ~timer:false ev : timer)

let callback f = Ev_thunk f

let[@inline] at t ~time cb = schedule_ev t ~time cb

let[@inline] timer t ~time cb = schedule_at t ~time ~timer:true cb

let pending t h =
  h >= 0 && Heap.live t.queue ~slot:(h land slot_mask) ~seq:(h lsr slot_bits)

let cancel t h =
  let slot = h land slot_mask and seq = h lsr slot_bits in
  if h >= 0 && Heap.remove t.queue ~slot ~seq then
    t.cancelled <- t.cancelled + 1

let no_body () = ()

let waiters () = { first = Ev_none; overflow = no_overflow }

let no_waiters = waiters ()

let has_waiters q = match q.first with Ev_none -> false | _ -> true

let park q ev =
  match q.first with
  | Ev_none -> q.first <- ev
  | _ ->
    if q.overflow == no_overflow then q.overflow <- Queue.create ();
    Queue.add ev q.overflow

(* The effect handler that implements the blocking operations, shared by
   every fiber of [eng]: each effect's payload waits in [eng], so the
   handler allocates nothing per effect but the work it schedules.
   Continuations are always resumed via the event queue so that fibers
   only ever run from the engine loop. *)
let make_handler eng =
  let open Effect.Deep in
  let on_delay =
    Some
      (fun (k : (unit, unit) continuation) ->
        let dt = eng.floats.(dt_i) in
        if dt < 0.0 then
          discontinue k (Invalid_argument "Engine.delay: negative")
        else schedule_ev eng ~time:(clock eng +. dt) (Ev_resume k))
  in
  let on_time = Some (fun (k : (unit, unit) continuation) -> continue k ()) in
  let on_fork =
    Some
      (fun (k : (unit, unit) continuation) ->
        let body = eng.fork_body in
        eng.fork_body <- no_body;
        schedule_ev eng ~time:(clock eng) (Ev_fiber body);
        continue k ())
  in
  (* The resume event is built here, young, and only the waiter queue
     holds it. *)
  let on_wait =
    Some
      (fun (k : (unit, unit) continuation) ->
        let q = eng.waiting in
        eng.waiting <- no_waiters;
        park q (Ev_resume k))
  in
  {
    retc = (fun () -> ());
    exnc =
      (fun e ->
        match eng.failure with
        | None -> eng.failure <- Some e
        | Some _ -> eng.secondary <- e :: eng.secondary);
    effc =
      (fun (type a) (eff : a Effect.t) : ((a, unit) continuation -> unit) option ->
        match eff with
        | Delay -> on_delay
        | Time -> on_time
        | Fork -> on_fork
        | Wait -> on_wait
        | _ -> None);
  }

let create () =
  let t =
    { floats = Array.make 3 0.0; queue = Heap.create ~dummy:Ev_none ();
      lane = Array.make 16 Ev_none; lane_seqs = Array.make 16 0;
      lane_head = 0; lane_len = 0; next_seq = 0; executed = 0; from_lane = 0;
      cancelled = 0; peak = 0; failure = None; secondary = [];
      in_fiber = false; profiling = false; slice_base = 0;
      fork_body = no_body; waiting = no_waiters;
      handler = Effect.Deep.{ retc = ignore; exnc = raise; effc = (fun _ -> None) } }
  in
  t.handler <- make_handler t;
  t

let start_fiber eng f =
  if eng.profiling then Profile.tick Profile.fiber_spawn;
  Effect.Deep.match_with f () eng.handler

let exec eng = function
  | Ev_none -> ()
  | Ev_thunk f ->
    eng.in_fiber <- false;
    f ()
  | Ev_fiber f ->
    eng.in_fiber <- true;
    if eng.profiling then begin
      let d = Profile.depth () in
      eng.slice_base <- d;
      start_fiber eng f;
      Profile.cut d
    end
    else start_fiber eng f
  | Ev_resume k ->
    eng.in_fiber <- true;
    if eng.profiling then begin
      Profile.enter Profile.fiber_resume;
      let d = Profile.depth () in
      eng.slice_base <- d;
      Effect.Deep.continue k ();
      Profile.cut d;
      Profile.leave Profile.fiber_resume
    end
    else Effect.Deep.continue k ()

let spawn t f = schedule_ev t ~time:(clock t) (Ev_fiber f)

(* The next event in (time, seq) order, taken off the queue.  Every lane
   entry is due now, so with the lane non-empty the heap root goes first
   only if it is due now too and drew a lower sequence number.  With the
   lane empty the root is next, and the clock moves to its time. *)
let next_event t =
  if t.lane_len > 0 then
    if
      Heap.min_time t.queue <= clock t
      && Heap.min_seq t.queue < Array.unsafe_get t.lane_seqs t.lane_head
    then Heap.pop t.queue
    else lane_pop t
  else begin
    set_clock t (Heap.min_time t.queue);
    Heap.pop t.queue
  end

let run t =
  t.profiling <- Profile.enabled ();
  let d0 = Profile.depth () in
  if t.profiling then Profile.enter Profile.run;
  let saved = Domain.DLS.get current_key in
  Domain.DLS.set current_key (Some t);
  let finish () =
    Domain.DLS.set current_key saved;
    if t.profiling then Profile.cut d0
  in
  (* After a failure, keep draining events already due at the current
     virtual instant: fibers that failed simultaneously get to record
     their exceptions instead of being silently dropped with the queue.
     The first strictly-later timestamp (or an empty queue) stops the
     run.  [Heap.min_time] is [infinity] on an empty queue, so the
     comparison is allocation-free either way. *)
  let overdue () = t.lane_len > 0 || Heap.min_time t.queue <= clock t in
  let rec loop () =
    match t.failure with
    | Some e when not (overdue ()) -> (
      match t.secondary with
      | [] -> raise e
      | rest -> raise (Multiple_failures (e :: List.rev rest)))
    | _ ->
      if t.lane_len > 0 || not (Heap.is_empty t.queue) then begin
        let ev =
          if t.profiling then begin
            Profile.enter Profile.heap_pop;
            let ev = next_event t in
            Profile.leave Profile.heap_pop;
            ev
          end
          else next_event t
        in
        t.executed <- t.executed + 1;
        (* An event returns when its fiber suspends (the effect handler
           captures the continuation), so this span is the exact host
           time of one event — no virtual-time inclusion. *)
        if t.profiling then begin
          Profile.enter Profile.event;
          exec t ev;
          Profile.leave Profile.event
        end
        else exec t ev;
        loop ()
      end
  in
  (* A raising callback escapes the loop directly (fiber failures are
     recorded instead); either way the engine binding is restored. *)
  match loop () with
  | () -> finish ()
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    finish ();
    Printexc.raise_with_backtrace e bt

(* The engine of the calling fiber, for the operations below.  Outside
   any engine the effect they perform is unhandled, as inside a
   callback. *)
let current () = Domain.DLS.get current_key

(* A fiber that suspends takes its open profiler spans along. *)
let[@inline never] perform_profiled eng eff =
  let parked = Profile.park eng.slice_base in
  Effect.perform eff;
  Profile.unpark parked

let[@inline] perform_in eng eff =
  if eng.profiling then perform_profiled eng eff else Effect.perform eff

(* A fiber whose wake-up would be the next event anyway runs on without
   a round trip through the queue: the clock advances, the event counts as
   executed, and the sequence number the resume would have taken is still
   drawn, so every later event keeps its (time, seq) key.  Only with the
   at-now lane empty (its events are due now, before any wake-up) and
   strictly before [Heap.min_time]: an event already queued at the wake
   time has a lower sequence number and runs first.  After a recorded
   failure the loop stops at the next later instant instead of resuming
   the fiber, so that case, callbacks and negative [dt] take the effect
   path. *)
let delay dt =
  match current () with
  | None -> invalid_arg "Engine.delay: not inside a running engine"
  | Some eng ->
    let wake = clock eng +. dt in
    let inline =
      eng.in_fiber && dt >= 0.0 && eng.lane_len = 0
      && wake < Heap.min_time eng.queue
      && match eng.failure with None -> true | Some _ -> false
    in
    if inline then begin
      eng.next_seq <- eng.next_seq + 1;
      set_clock eng wake;
      eng.executed <- eng.executed + 1
    end
    else begin
      eng.floats.(dt_i) <- dt;
      perform_in eng Delay
    end

let time () =
  match current () with
  | None -> Effect.perform Time; 0.0
  | Some eng ->
    Effect.perform Time;
    clock eng

let fork f =
  match current () with
  | None -> Effect.perform Fork
  | Some eng ->
    eng.fork_body <- f;
    Effect.perform Fork

let wait q =
  match current () with
  | None -> Effect.perform Wait
  | Some eng ->
    eng.waiting <- q;
    perform_in eng Wait

(* The oldest waiter's resume is queued at now, drawing its sequence
   number here, as the wake-up's own event would. *)
let wake_one q =
  match current () with
  | None -> invalid_arg "Engine.wake_one: not inside a running engine"
  | Some eng -> (
    match q.first with
    | Ev_none -> invalid_arg "Engine.wake_one: no fiber waits"
    | ev ->
      q.first <-
        (if Queue.is_empty q.overflow then Ev_none else Queue.pop q.overflow);
      schedule_ev eng ~time:(clock eng) ev)
