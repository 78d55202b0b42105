(** Typed observability layer: one metrics registry and one trace buffer
    for the whole simulated cluster.

    Every layer of the system (sim, net, vm, dsm, carlos, apps) registers
    its instruments here instead of keeping private mutable counters, so
    that the paper's entire evaluation — Figure 2's execution breakdown,
    the message/volume/utilisation columns of Tables 1–3, the §5.4
    annotation-cost study — derives from a single, uniformly exported set
    of numbers.

    Instruments are keyed by [node × layer × name].  Four kinds exist:

    - {e counters}: monotone integer event counts;
    - {e gauges}: float accumulators (virtual-time totals, stored bytes);
    - {e histograms}: virtual-time / size distributions with power-of-two
      buckets;
    - {e series}: (virtual-time, value) samples of one quantity.

    The registry is the only way to read a counter: no layer exports a
    typed copy of its instruments, and nothing is ever reset.  Read one by
    key, with {!counter_value} (0 for a key nobody registered) or {!find}
    on a {!snapshot} (which tells an unregistered key apart); to measure a
    phase, read the key before and after it.  {!snapshot} and {!bindings}
    serve the exporters.

    The registry also owns the typed event/span trace (off by default, one
    branch per event when disabled) with a Chrome [trace_event] JSON
    exporter.  All exports are deterministically ordered: two identical
    simulation runs emit byte-identical dumps. *)

(** {1 Keys} *)

type layer = Sim | Net | Vm | Dsm | Carlos | App

(** ["sim"], ["net"], ... *)
val layer_name : layer -> string

(** Pseudo-node for cluster-wide instruments (the shared wire, the
    datagram service): no single node owns them. *)
val global_node : int

(** Pseudo-node (-2) under which {!Profile.to_obs} records host-time
    slices; named "host-profile" in the Chrome trace. *)
val profile_node : int

type key = { node : int; layer : layer; name : string }

(** {1 Histograms} *)

module Hist : sig
  (** Mutable histogram: count, sum, min, max plus power-of-two buckets
      (bucket [i] counts observations with exponent [i - 40], covering
      roughly 1e-12 .. 1e7 — enough for virtual-time durations in seconds
      and object sizes in bytes). *)

  type t

  val create : unit -> t

  (** Allocates nothing, the float argument included (it is inlined). *)
  val observe : t -> float -> unit

  (** The bucket [observe] counts [v] in: [e + 40], clamped to
      [\[0, 63\]], where [v = m * 2^e] with [0.5 <= m < 1] as
      [Float.frexp] gives it; [0] for [v <= 0.]. *)
  val bucket_of : float -> int

  (** Immutable summary.  [min]/[max] are [infinity]/[neg_infinity] when
      [count = 0]. *)
  type snap = {
    count : int;
    sum : float;
    min : float;
    max : float;
    buckets : int array;
  }

  val snap : t -> snap

  val empty : snap

  (** Pointwise sum.  Commutative, and associative whenever the sums are
      exactly representable (e.g. integer-valued observations). *)
  val merge : snap -> snap -> snap

  val mean : snap -> float

  (** [percentile s p] estimates the [p]-th percentile ([0. <= p <= 100.])
      by linear interpolation inside the power-of-two bucket holding the
      rank [p/100 * count], with the bucket's bounds clamped to the
      observed [\[min, max\]] — so a single-valued histogram answers
      exactly, [percentile s 0. = s.min] and [percentile s 100. = s.max].

      Degenerate snaps have one defined answer: if [count <= 0] (the empty
      histogram) the result is [0.] for {e every} [p] — never the
      [infinity] / [neg_infinity] sentinels stored as the empty extrema.
      A NaN [p] returns NaN. *)
  val percentile : snap -> float -> float
end

(** {1 Registry} *)

type t

(** [create ()] builds an empty registry.  The clock (used to timestamp
    span/trace events) defaults to a constant [0.0]; pass the simulation
    engine's clock as [clock]. *)
val create : ?clock:(unit -> float) -> unit -> t

val now : t -> float

(** {1 Instruments}

    Registration is idempotent: asking twice for the same key returns the
    same instrument.  Asking for an existing key with a different kind
    raises [Invalid_argument]. *)

type counter

type gauge

(** Explicit (virtual-time, value) sample list, append-only.  Used for
    quantities whose trajectory over virtual time matters (e.g. backend
    metadata pressure), not just their final value. *)
type series

val counter : t -> node:int -> layer:layer -> string -> counter

val gauge : t -> node:int -> layer:layer -> string -> gauge

val histogram : t -> node:int -> layer:layer -> string -> Hist.t

val series : t -> node:int -> layer:layer -> string -> series

val inc : counter -> unit

val add : counter -> int -> unit

val value : counter -> int

val add_gauge : gauge -> float -> unit

val gauge_value : gauge -> float

(** [series_observe s ~ts v] appends one sample.  Timestamps are expected
    (but not required) to be monotone; samples keep insertion order. *)
val series_observe : series -> ts:float -> float -> unit

(** {1 Queries} *)

(** Current value of a counter registered under the key, or 0. *)
val counter_value : t -> node:int -> layer:layer -> string -> int

(** Sum of one named counter over every node (layer-wide totals, e.g. all
    messages sent by any node). *)
val sum_counters : t -> layer:layer -> string -> int

val sum_gauges : t -> layer:layer -> string -> float

(** {1 Snapshots} *)

type value_v =
  | Counter_v of int
  | Gauge_v of float
  | Hist_v of Hist.snap
  | Series_v of (float * float) array
      (** (virtual-time, value) samples in insertion order *)

(** An immutable, deterministically ordered copy of every instrument. *)
type snapshot

val snapshot : t -> snapshot

val find : snapshot -> node:int -> layer:layer -> string -> value_v option

val bindings : snapshot -> (key * value_v) list

(** {1 Tracing} *)

type arg = Str of string | Int of int | F of float

type phase =
  | Instant
  | Complete of float  (** duration in virtual seconds *)
  | Flow_start of int  (** begin of causality arrow; payload is the flow id *)
  | Flow_step of int  (** intermediate hop of an existing flow *)
  | Flow_finish of int  (** end of causality arrow (binds to the enclosing slice) *)

type event = {
  ts : float;
  node : int;
  layer : layer;
  name : string;
  phase : phase;
  args : (string * arg) list;
}

val set_tracing : t -> bool -> unit

val tracing : t -> bool

(** Fresh flow (trace) id, unique within the registry, monotonically
    increasing from 1.  Allocated unconditionally (also when tracing is
    off) so that ids are stable whether or not a trace is captured. *)
val next_flow_id : t -> int

(** Record an instant event at the clock's current time.  One branch when
    tracing is disabled. *)
val event : ?args:(string * arg) list -> t -> node:int -> layer:layer -> string -> unit

(** Record a complete (begin/end) event spanning [duration] starting at
    [ts]. *)
val complete_at :
  ?args:(string * arg) list ->
  t -> ts:float -> duration:float -> node:int -> layer:layer -> string -> unit

(** Record a flow event (a causality arrow endpoint) at the clock's
    current time.  Chrome/Perfetto bind each flow event to the smallest
    duration slice enclosing its timestamp on the same [node × layer]
    lane, so record these inside a {!span} or {!complete_at} slice.  All
    events of one flow share the id (from {!next_flow_id}); give them the
    same [name] so the arrow is labelled consistently. *)
val flow_start :
  ?args:(string * arg) list ->
  t -> id:int -> node:int -> layer:layer -> string -> unit

val flow_step :
  ?args:(string * arg) list ->
  t -> id:int -> node:int -> layer:layer -> string -> unit

val flow_finish :
  ?args:(string * arg) list ->
  t -> id:int -> node:int -> layer:layer -> string -> unit

(** [span t ~node ~layer name f] runs [f ()]; when tracing, a complete
    event covering [f]'s virtual-time extent is recorded (also when [f]
    raises).  The clock must be wired for the extent to be meaningful. *)
val span :
  ?args:(string * arg) list ->
  t -> node:int -> layer:layer -> string -> (unit -> 'a) -> 'a

(** Recorded events, oldest first (insertion order; a span is inserted at
    its end time). *)
val events : t -> event list

(** {1 Exporters}

    All exporters print in a deterministic order (events in insertion
    order, metrics in (node, layer, name) order) with fixed float formatting,
    so identical runs produce byte-identical output. *)

(** Chrome [trace_event] JSON (the "JSON Object Format"): open the file in
    [chrome://tracing] or [https://ui.perfetto.dev].  Nodes become
    processes, layers become threads; timestamps are microseconds of
    virtual time. *)
val pp_chrome_trace : Format.formatter -> t -> unit

(** One JSON object per instrument per line. *)
val pp_metrics_jsonl : Format.formatter -> snapshot -> unit

(** Human-readable metrics table. *)
val pp_metrics : Format.formatter -> snapshot -> unit
