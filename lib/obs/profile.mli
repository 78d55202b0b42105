(** Host-time and allocation profiler: a span stack tagged by layer.

    A span is a named probe point of one layer (sim, net, vm, dsm,
    carlos, app), registered once with {!span}.  Code brackets the work
    it names with [enter s] and [leave s]; the profiler keeps a stack of
    open spans and, at every boundary, charges the wall-clock seconds
    ([Unix.gettimeofday]) and the minor-heap words ([Gc.minor_words],
    exact) since the previous boundary to the span on top.  So each span
    gets its {e exclusive} self time and words, and, since every
    boundary charges exactly one span, the layers' self numbers sum to
    the [run] span's: the layer table accounts for all of [Engine.run].
    Each span also keeps a count and its {e inclusive} seconds (enter to
    leave), which {!snapshot} reports.

    Only work inside [Engine.run] is measured: outside a [run] span,
    [enter] and [leave] do nothing.  A fiber that suspends with spans
    open takes them along: the engine parks them ({!park}) before the
    fiber suspends and puts them back ({!unpark}) when it resumes, so
    the time other events run in between is charged to those events,
    while a parked span's inclusive seconds still cover the suspension
    (a [vm_fault] waiting for a fetch, say).  The profiler's own
    allocation (parking, growing its stack) is charged to no span.

    The profile is off by default.  Off, a probe tests one global flag
    and allocates nothing; the engine reads the flag once per
    [Engine.run].  The accumulators are domain-local, so concurrent
    simulations in separate domains never race on them.  Host numbers
    are nondeterministic, so they never enter the {!Obs} registry:
    drivers export them as a separate [--profile] section ({!pp},
    {!pp_jsonl}) and optionally as Chrome trace slices on the
    [host-profile] pseudo-process ({!to_obs}). *)

type span

(** [span layer name] registers a probe point.  Call it once per call
    site, at module initialisation. *)
val span : Obs.layer -> string -> span

val name : span -> string

(** {1 The engine's probes} *)

val run : span (** one whole [Engine.run] *)

val event : span (** one queued event *)

val heap_push : span (** queue insertion *)

val heap_pop : span (** taking the next event off the queue *)

val fiber_spawn : span (** count only: the first slice of a new fiber *)

val fiber_resume : span (** a continuation resumed after Delay/Suspend *)

val ivar_wakeup : span (** waking the waiters of a filled ivar *)

val vm_fault : span (** a page fault, inclusive of its suspensions *)

(** {1 Probes} *)

(** Takes effect for probes at once and for the engine's at the next
    [Engine.run]; it affects every domain, each profiling its own runs. *)
val set_enabled : bool -> unit

val enabled : unit -> bool

(** Zero this domain's counts, times and words. *)
val reset : unit -> unit

val enter : span -> unit

(** [leave s] closes [s], which must be the span on top; otherwise (an
    enter outside [run], say) it does nothing. *)
val leave : span -> unit

(** Count one occurrence of [s] without timing it. *)
val tick : span -> unit

(** {1 Fibers} *)

(** The number of open spans (0 when off). *)
val depth : unit -> int

(** [cut d] closes every span above depth [d], as a finished fiber
    slice leaves the engine with the spans it never closed. *)
val cut : int -> unit

type parked

(** [park d] takes the spans above depth [d] off the stack, to be put
    back by {!unpark}. *)
val park : int -> parked

val unpark : parked -> unit

(** {1 Readout} *)

type sample = { category : string; count : int; seconds : float }

(** Every span's count and inclusive seconds, in registration order. *)
val snapshot : unit -> sample list

type stat = {
  span_name : string;
  span_layer : Obs.layer;
  calls : int;
  incl_s : float;
  incl_words : float;
  self_s : float;
  self_words : float;
}

(** Every span's inclusive and exclusive seconds and minor words, in
    registration order. *)
val stats : unit -> stat list

(** Per layer, the sums of its spans' exclusive seconds and words, in
    layer order. *)
val layers : unit -> (Obs.layer * float * float) list

(** The layer table (exclusive host seconds and minor words per layer,
    with [run] for comparison), then each span with a nonzero count. *)
val pp : Format.formatter -> unit -> unit

(** One JSON line with ["type":"profile"] per span and per layer,
    appended to [--metrics-json] output after the deterministic metrics
    lines. *)
val pp_jsonl : Format.formatter -> unit -> unit

(** Mirror the aggregate profile into [obs]'s trace buffer as Complete
    slices on the [host-profile] pseudo-process (requires tracing to be
    enabled on [obs]). *)
val to_obs : Obs.t -> unit
