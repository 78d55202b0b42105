(** The application catalogue and row rendering shared by the drivers
    ([carlos_run], [bench/main.exe]).  The catalogue states once, per
    application, the configuration it runs on, the variant names it
    accepts, how its result is checked and what its summary line says;
    rows render in the format of the paper's Tables 1-3 (time, speedup,
    message count, average message size, network utilization). *)

type row = {
  label : string;
  nodes : int;
  time : float;
  speedup : float;
  messages : int;
  avg_bytes : float;
  utilization : float;
  gc_runs : int;
  ok : bool; (* application-level correctness check *)
}

(** ["App/variant@backend"] — the one labelling convention for
    backend-qualified rows (driver output, bench matrix). *)
val backend_label : string -> Carlos_dsm.Backend.kind -> string

(** [row ~label ~nodes ~base ~ok report] — [base] is the matching one-node
    time used for the speedup column. *)
val row :
  label:string ->
  nodes:int ->
  base:float ->
  ok:bool ->
  Carlos.System.report ->
  row

val pp_header : Format.formatter -> unit -> unit

val pp_row : Format.formatter -> row -> unit

(** Render the paper's Figure 2: per-node average execution breakdown
    (User / Unix / CarlOS / Idle) for a set of labelled runs. *)
val pp_breakdown :
  Format.formatter -> (string * Carlos.System.report) list -> unit

(** {1 The application catalogue} *)

(** One run of a variant: its report, whether the application-level
    check passed, and the one-line result summary (["TSP: best tour
    ..."]). *)
type outcome = { report : Carlos.System.report; ok : bool; summary : string }

type variant = {
  names : string list;
      (** CLI names, canonical first, then aliases (["hybrid"; "hybrid-1"]) *)
  label : string; (** display label, the application's [variant_name] *)
  run : Carlos.System.t -> outcome; (** run on a fresh system *)
}

type app = {
  name : string; (** CLI and bench-row name, ["tsp"] *)
  prefix : string; (** row-label prefix, ["TSP"] *)
  doc : string; (** one-line description for [carlos_run]'s help *)
  config : nodes:int -> Carlos.System.config;
      (** the configuration the application runs on *)
  variants : variant list;
}

(** ["Prefix/label"], e.g. ["QS/hybrid-1"]. *)
val label : app -> variant -> string

(** The variant [name] selects (canonical name or alias); [Error] names
    the accepted ones. *)
val find_variant : app -> string -> (variant, string) result

(** Catalogue entries; [params] defaults to the application's
    [default_params].  Building an entry runs nothing: TSP's sequential
    reference tour is computed on the entry's first run, once. *)
val tsp : ?params:Tsp.params -> unit -> app

val qsort : ?params:Qsort.params -> unit -> app

val water : ?params:Water.params -> unit -> app

val grid : ?params:Grid.params -> unit -> app

(** [tsp; qsort; water; grid] at their default parameters. *)
val apps : app list
