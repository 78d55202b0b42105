(** Host-time (wall-clock) profiler for the engine hot path.

    Measures real seconds with [Unix.gettimeofday] around the simulator's
    hottest operations — event execution, heap ops, fiber spawn/resume,
    ivar wakeups, vm fault handling — the baseline the engine overhaul
    (the flat event heap and callback-chained frames) was measured
    against.

    The profile is domain-local mutable state, disabled by default (one
    branch per engine probe, one domain-local read and one branch per
    other probe when off), so concurrent
    simulations in separate domains never race on the accumulators.
    Because wall-clock numbers are nondeterministic
    they are never written into the {!Obs} metrics registry; drivers
    export them as a separate [--profile] section ({!pp}, {!pp_jsonl})
    and optionally as Chrome trace slices on the [host-profile]
    pseudo-process ({!to_obs}).

    Categories nest: [Event] encloses the fiber work it runs, and
    [Vm_fault] spans are {e inclusive} of virtual-time suspension (the
    effect handler captures the timing frame inside the continuation), so
    summing categories double-counts — compare each against [Run]. *)

type category =
  | Run  (** one whole [Engine.run] *)
  | Event  (** one scheduled thunk (encloses fiber work it triggers) *)
  | Heap_push  (** [Engine.schedule] heap insertion *)
  | Heap_pop  (** event-queue pop in the run loop *)
  | Fiber_spawn  (** first slice of a new fiber *)
  | Fiber_resume  (** continuation resume after Delay/Suspend *)
  | Ivar_wakeup  (** waking all waiters of a filled ivar *)
  | Vm_fault  (** fault handler, inclusive of suspension *)

val all : category list

val name : category -> string

(** The engine reads the flag once per [Engine.run], so a toggle takes
    effect at the next [Engine.run]; the resource and vm probes read it on
    every call. *)
val set_enabled : bool -> unit

val enabled : unit -> bool

(** Zero all counts and times. *)
val reset : unit -> unit

(** [start ()] returns a wall-clock timestamp when enabled, [0.] when
    disabled.  Pair with {!stop}. *)
val start : unit -> float

(** [stop cat t0] adds one observation of [now - t0] seconds to [cat]
    (no-op when disabled). *)
val stop : category -> float -> unit

(** Count-only probe (no timing). *)
val tick : category -> unit

type sample = { category : string; count : int; seconds : float }

val snapshot : unit -> sample list

(** Human-readable table (only categories with nonzero counts). *)
val pp : Format.formatter -> unit -> unit

(** One JSON line per category with ["type":"profile"], appended to
    [--metrics-json] output after the deterministic metrics lines. *)
val pp_jsonl : Format.formatter -> unit -> unit

(** Mirror the aggregate profile into [obs]'s trace buffer as Complete
    slices on the [host-profile] pseudo-process (requires tracing to be
    enabled on [obs]). *)
val to_obs : Obs.t -> unit
