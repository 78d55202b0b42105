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

type t = {
  mutable clock : float;
  queue : event Heap.t;
  (* The at-now lane: a FIFO ring of the events scheduled at [clock]
     itself, each with the sequence number it drew.  Every entry is due
     at [clock] (the clock only moves once the lane is empty), and they
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
     test this field instead of reading the domain-local profiler flag. *)
  mutable profiling : bool;
  (* The [dt] of the [Delay] being performed: [delay] stores it and the
     fiber's handler reads it at once.  A one-cell float array holds it
     unboxed, so the effect carries no payload to allocate. *)
  delay_dt : float array;
}

exception Multiple_failures of exn list

type _ Effect.t +=
  | Delay : unit Effect.t
  | Time : float Effect.t
  | Fork : (unit -> unit) -> unit Effect.t
  | Suspend : ((unit -> unit) -> unit) -> unit Effect.t

(* The engine currently executing; used only to give fiber-level operations
   ([delay], [time], ...) an implicit engine argument.  Domain-local so
   independent simulations may run concurrently in separate domains (the
   parallel bench harness) without seeing each other's engine. *)
let current_key : t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let create () =
  { clock = 0.0; queue = Heap.create ~dummy:Ev_none ();
    lane = Array.make 16 Ev_none; lane_seqs = Array.make 16 0; lane_head = 0;
    lane_len = 0; next_seq = 0; executed = 0; from_lane = 0; cancelled = 0;
    peak = 0; failure = None; secondary = []; in_fiber = false;
    profiling = false; delay_dt = [| 0.0 |] }

let failures t =
  match t.failure with
  | None -> []
  | Some e -> e :: List.rev t.secondary

let now t = t.clock

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
   [no_timer] for a lane entry. *)
let push t ~time ~timer ev =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let h =
    if time = t.clock && not timer then begin
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

let schedule t ~time ~timer ev =
  if time < t.clock then
    invalid_arg
      (Printf.sprintf "Engine.schedule: time %g is before now %g" time t.clock);
  if t.profiling then begin
    let p0 = Profile.start () in
    let h = push t ~time ~timer ev in
    Profile.stop Profile.Heap_push p0;
    h
  end
  else push t ~time ~timer ev

let schedule_ev t ~time ev = ignore (schedule t ~time ~timer:false ev : timer)

let at t ~time f = schedule_ev t ~time (Ev_thunk f)

let timer t ~time f = schedule t ~time ~timer:true (Ev_thunk f)

let pending t h =
  h >= 0 && Heap.live t.queue ~slot:(h land slot_mask) ~seq:(h lsr slot_bits)

let cancel t h =
  let slot = h land slot_mask and seq = h lsr slot_bits in
  if h >= 0 && Heap.remove t.queue ~slot ~seq then
    t.cancelled <- t.cancelled + 1

(* Runs [f] as a fiber body under the effect handler that implements the
   blocking operations.  Continuations are always resumed via the event
   queue so that fibers only ever run from the engine loop. *)
let rec start_fiber eng f =
  let open Effect.Deep in
  if eng.profiling then Profile.tick Profile.Fiber_spawn;
  (* Built once per fiber, so a suspending [delay] allocates no handler. *)
  let on_delay =
    Some
      (fun (k : (unit, unit) continuation) ->
        let dt = eng.delay_dt.(0) in
        if dt < 0.0 then
          discontinue k (Invalid_argument "Engine.delay: negative")
        else schedule_ev eng ~time:(eng.clock +. dt) (Ev_resume k))
  in
  match_with f ()
    {
      retc = (fun () -> ());
      exnc =
        (fun e ->
          match eng.failure with
          | None -> eng.failure <- Some e
          | Some _ -> eng.secondary <- e :: eng.secondary);
      effc =
        (fun (type a) (eff : a Effect.t) :
             ((a, unit) continuation -> unit) option ->
          match eff with
          | Delay -> on_delay
          | Time -> Some (fun k -> continue k eng.clock)
          | Fork g ->
            Some
              (fun k ->
                schedule_ev eng ~time:eng.clock (Ev_fiber g);
                continue k ())
          | Suspend register ->
            Some
              (fun k ->
                let resumed = ref false in
                let resume () =
                  if !resumed then
                    invalid_arg "Engine.suspend: resume invoked twice";
                  resumed := true;
                  schedule_ev eng ~time:eng.clock (Ev_resume k)
                in
                register resume)
          | _ -> None);
    }

and exec eng = function
  | Ev_none -> ()
  | Ev_thunk f ->
    eng.in_fiber <- false;
    f ()
  | Ev_fiber f ->
    eng.in_fiber <- true;
    start_fiber eng f
  | Ev_resume k ->
    eng.in_fiber <- true;
    if eng.profiling then begin
      let p0 = Profile.start () in
      Effect.Deep.continue k ();
      Profile.stop Profile.Fiber_resume p0
    end
    else Effect.Deep.continue k ()

let spawn t f = schedule_ev t ~time:t.clock (Ev_fiber f)

(* The next event in (time, seq) order, taken off the queue.  Every lane
   entry is due now, so with the lane non-empty the heap root goes first
   only if it is due now too and drew a lower sequence number.  With the
   lane empty the root is next, and the clock moves to its time. *)
let next_event t =
  if t.lane_len > 0 then
    if
      Heap.min_time t.queue <= t.clock
      && Heap.min_seq t.queue < Array.unsafe_get t.lane_seqs t.lane_head
    then Heap.pop t.queue
    else lane_pop t
  else begin
    t.clock <- Heap.min_time t.queue;
    Heap.pop t.queue
  end

let run t =
  let saved = Domain.DLS.get current_key in
  Domain.DLS.set current_key (Some t);
  t.profiling <- Profile.enabled ();
  let run0 = Profile.start () in
  let finish () =
    if t.profiling then Profile.stop Profile.Run run0;
    Domain.DLS.set current_key saved
  in
  (* After a failure, keep draining events already due at the current
     virtual instant: fibers that failed simultaneously get to record
     their exceptions instead of being silently dropped with the queue.
     The first strictly-later timestamp (or an empty queue) stops the
     run.  [Heap.min_time] is [infinity] on an empty queue, so the
     comparison is allocation-free either way. *)
  let overdue () = t.lane_len > 0 || Heap.min_time t.queue <= t.clock in
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
            let p0 = Profile.start () in
            let ev = next_event t in
            Profile.stop Profile.Heap_pop p0;
            ev
          end
          else next_event t
        in
        t.executed <- t.executed + 1;
        (* An event returns when its fiber suspends (the effect handler
           captures the continuation), so this span is the exact host
           time of one event — no virtual-time inclusion. *)
        if t.profiling then begin
          let e0 = Profile.start () in
          exec t ev;
          Profile.stop Profile.Event e0
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
  match Domain.DLS.get current_key with
  | None -> invalid_arg "Engine.delay: not inside a running engine"
  | Some eng ->
    let wake = eng.clock +. dt in
    let inline =
      eng.in_fiber && dt >= 0.0 && eng.lane_len = 0
      && wake < Heap.min_time eng.queue
      && match eng.failure with None -> true | Some _ -> false
    in
    if inline then begin
      eng.next_seq <- eng.next_seq + 1;
      eng.clock <- wake;
      eng.executed <- eng.executed + 1
    end
    else begin
      eng.delay_dt.(0) <- dt;
      Effect.perform Delay
    end

let time () = Effect.perform Time

let fork f = Effect.perform (Fork f)

let suspend register = Effect.perform (Suspend register)
