(** Structured view of a BENCH_PR*.json snapshot, plus the comparison
    and curve-fitting logic behind [bench_diff] and the scaling report.

    A snapshot is an object with a ["runs"] array (the 4-node gate
    matrix) and optionally a ["scaling"] array (the node-count sweep);
    both hold rows of the same shape.  A row is identified by the
    5-tuple (app, variant, backend, config, nodes); every other numeric
    field — including the nested ["components"] object, flattened to
    [components.<name>] — becomes a named metric. *)

type key = {
  app : string;
  variant : string;
  backend : string;
  config : string;
  nodes : int;
}

type row = {
  key : key;
  ok : bool;
  metrics : (string * float) list;  (** sorted by metric name *)
}

val pp_key : Format.formatter -> key -> unit

val load : string -> row list
(** All rows of the snapshot file: ["runs"] then ["scaling"]. *)

val metric : row -> string -> float option

val selected : (string * string) list -> row -> bool
(** [selected only row] — [row] matches every [ATTR = VALUE] pair of
    [only] (see {!compare}'s [only]). *)

(** {1 Comparison} *)

type delta = {
  d_key : key;
  d_metric : string;
  d_old : float;
  d_new : float;
  d_pct : float;
      (** (new - old) / old * 100; [infinity] when old = 0 and new > 0 *)
}

type comparison = {
  compared : int;  (** rows present in both snapshots *)
  regressions : delta list;  (** increases beyond tolerance *)
  improvements : delta list;  (** decreases beyond tolerance *)
  missing : key list;  (** selected rows of OLD absent from NEW *)
  added : key list;  (** selected rows of NEW absent from OLD *)
}

(** [compare ~fields ~tolerance_pct ~only old new] matches rows by key
    and compares each named field.  [only] filters both sides first:
    every (attr, value) pair must match the key, where attr is one of
    "app", "variant", "backend", "config", "nodes".  A field missing
    from one side of a matched row counts as a regression (reported
    with the other side's value and [nan] for the missing one).
    Increases within [tolerance_pct] percent are ignored; decreases
    beyond it are improvements, never failures. *)
val compare :
  fields:string list ->
  tolerance_pct:float ->
  only:(string * string) list ->
  row list ->
  row list ->
  comparison

val pp_delta : Format.formatter -> delta -> unit

(** {1 Curve fitting} *)

(** [fit_exponent points] is the least-squares slope of [log y] against
    [log x] — the growth exponent b of the model [y = a * x^b] — over
    the points with [x > 0] and [y > 0].  [None] when fewer than two
    distinct [x] survive. *)
val fit_exponent : (float * float) list -> float option
