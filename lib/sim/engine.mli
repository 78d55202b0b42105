(** Deterministic discrete-event simulation engine with cooperative fibers.

    The engine owns a virtual clock and an event queue.  Code running inside
    the engine is organized as {e fibers}: lightweight cooperative threads
    implemented with OCaml effect handlers, so that protocol and application
    code can be written in direct style ([delay], blocking receives, RPCs)
    while the engine interleaves them deterministically in virtual time.

    Ties between simultaneous events are broken by a global sequence number,
    so a given program always produces the same schedule. *)

type t

(** Raised by {!run} when more than one fiber failed before the engine
    noticed: the primary (first) failure heads the list, later ones follow
    in the order they were recorded. *)
exception Multiple_failures of exn list

val create : unit -> t

(** Current virtual time, in seconds. *)
val now : t -> float

(** {1 Queue counts}

    Deterministic for a given program, and read without allocating. *)

(** Events executed so far, inline delays included; a cancelled timer is
    not one. *)
val events_executed : t -> int

(** Of those, the events taken from the at-now lane: the ones scheduled
    at the then-current virtual time (other than timers), which skip the
    heap. *)
val events_from_lane : t -> int

(** Timers cancelled before they fired. *)
val timers_cancelled : t -> int

(** The most events ever queued at once, heap and lane together. *)
val peak_queue : t -> int

(** [spawn t f] schedules fiber [f] to start at the current virtual time. *)
val spawn : t -> (unit -> unit) -> unit

(** [at t ~time f] runs callback [f] (not a fiber; it must not block) at
    virtual time [time].  [time] must not be in the past.  A callback that
    raises stops {!run} at once with that exception. *)
val at : t -> time:float -> (unit -> unit) -> unit

(** {1 Cancellable timers} *)

(** A handle on one timer.  It is an immediate value, so keeping it in a
    mutable field costs no write barrier. *)
type timer [@@immediate]

(** A handle that is never {!pending}; cancelling it does nothing. *)
val no_timer : timer

(** [timer t ~time f] is {!at} that can be cancelled: it schedules callback
    [f] at [time], drawing its sequence number now, and returns its
    handle. *)
val timer : t -> time:float -> (unit -> unit) -> timer

(** [cancel t h] unschedules [h] in O(log n) if it has not fired yet: it
    never runs, does not count in {!events_executed}, and its closure is
    released at once.  Every other event keeps its (time, seq) key, since
    the cancelled timer keeps the number it drew.  Cancelling a timer that
    fired or was cancelled already does nothing. *)
val cancel : t -> timer -> unit

(** [pending t h]: [h] is scheduled and has neither fired nor been
    cancelled. *)
val pending : t -> timer -> bool

(** Run until the event queue drains.  If exactly one fiber raised, that
    exception is re-raised here after the queue stops; if several fibers
    raised, {!Multiple_failures} carries all of them (primary first) so no
    failure is silently dropped.  Reads {!Carlos_obs.Profile.enabled} once,
    at the start. *)
val run : t -> unit

(** Every fiber failure recorded so far, primary first ([[]] if none).
    Useful after [run] raised to inspect secondary failures. *)
val failures : t -> exn list

(** {1 Operations available inside a fiber} *)

(** Advance this fiber's virtual time by [dt] seconds (dt >= 0).

    When nothing is queued at the current time and the wake-up time lies
    strictly before every queued event, the resume would be the next
    event, so the fiber carries on at once: the clock advances and the
    event counts in {!events_executed}, with no fiber switch.  The schedule is the same either way.  Raises when
    called from an {!at} callback. *)
val delay : float -> unit

(** Virtual time as seen from inside a fiber. *)
val time : unit -> float

(** Start a sibling fiber from inside a fiber. *)
val fork : (unit -> unit) -> unit

(** [suspend register] parks the calling fiber.  [register] receives a
    [resume] thunk that, when invoked (from any other fiber or callback),
    reschedules the parked fiber at the then-current virtual time.  Invoking
    [resume] more than once is an error. *)
val suspend : ((unit -> unit) -> unit) -> unit
