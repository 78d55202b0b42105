module Profile = Carlos_obs.Profile

(* Queue payloads are a small variant instead of uniform [unit -> unit]
   thunks: resuming a parked fiber or starting a forked one schedules the
   continuation/body directly, so the steady state allocates no wrapper
   closure per event.  [Ev_none] is the heap's dummy filler for vacated
   slots — it never reaches [exec]. *)
type event =
  | Ev_none
  | Ev_thunk of (unit -> unit)
  | Ev_fiber of (unit -> unit)
  | Ev_resume of (unit, unit) Effect.Deep.continuation

type t = {
  mutable clock : float;
  queue : event Heap.t;
  mutable next_seq : int;
  mutable executed : int;
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
  { clock = 0.0; queue = Heap.create ~dummy:Ev_none (); next_seq = 0;
    executed = 0; failure = None; secondary = []; in_fiber = false;
    profiling = false; delay_dt = [| 0.0 |] }

let failures t =
  match t.failure with
  | None -> []
  | Some e -> e :: List.rev t.secondary

let now t = t.clock

let events_executed t = t.executed

let schedule_ev t ~time ev =
  if time < t.clock then
    invalid_arg
      (Printf.sprintf "Engine.schedule: time %g is before now %g" time t.clock);
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  if t.profiling then begin
    let p0 = Profile.start () in
    Heap.add t.queue ~time ~seq ev;
    Profile.stop Profile.Heap_push p0
  end
  else Heap.add t.queue ~time ~seq ev

let schedule t ~time thunk = schedule_ev t ~time (Ev_thunk thunk)

let at t ~time f = schedule t ~time f

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
  let overdue () = Heap.min_time t.queue <= t.clock in
  let rec loop () =
    match t.failure with
    | Some e when not (overdue ()) -> (
      match t.secondary with
      | [] -> raise e
      | rest -> raise (Multiple_failures (e :: List.rev rest)))
    | _ ->
      if not (Heap.is_empty t.queue) then begin
        let time = Heap.min_time t.queue in
        let ev =
          if t.profiling then begin
            let p0 = Profile.start () in
            let ev = Heap.pop t.queue in
            Profile.stop Profile.Heap_pop p0;
            ev
          end
          else Heap.pop t.queue
        in
        t.clock <- time;
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
   a round trip through the heap: the clock advances, the event counts as
   executed, and the sequence number the resume would have taken is still
   drawn, so every later event keeps its (time, seq) key.  Strictly
   before [Heap.min_time]: an event already queued at the wake time has
   a lower sequence number and runs first.  After a recorded failure the
   loop stops at the next later instant instead of resuming the fiber, so
   that case, callbacks and negative [dt] take the effect path. *)
let delay dt =
  match Domain.DLS.get current_key with
  | None -> invalid_arg "Engine.delay: not inside a running engine"
  | Some eng ->
    let wake = eng.clock +. dt in
    let inline =
      eng.in_fiber && dt >= 0.0 && wake < Heap.min_time eng.queue
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
