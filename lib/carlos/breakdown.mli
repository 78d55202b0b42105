(** Per-node execution-time breakdown, as in the paper's Figure 2.

    Every virtual second of CPU consumed on a node is attributed to one of
    three buckets; idle time is what remains of wall-clock time:

    - [User]: application computation;
    - [Unix]: operating-system costs (system calls, protocol stack);
    - [Carlos]: CarlOS message handling and shared-memory consistency
      machinery.

    The buckets count CPU {e demand}; contention for the node CPU shows up
    as idle time, exactly as it would under a profiler.

    The three totals live in the observability registry as the [Carlos]
    layer gauges [time.user], [time.unix] and [time.carlos]; this module
    is a typed handle over them.  Nothing resets them: a phase is the
    difference of two reads. *)

type bucket = User | Unix | Carlos

type t

(** [create ?obs ?node ()] registers the three gauges in [obs] (a fresh
    private registry by default) for [node]
    (default {!Carlos_obs.Obs.global_node}). *)
val create : ?obs:Carlos_obs.Obs.t -> ?node:int -> unit -> t

val add : t -> bucket -> float -> unit

val user : t -> float

val unix : t -> float

val carlos : t -> float

(** [idle t ~wall] is [wall] minus the three buckets (never negative). *)
val idle : t -> wall:float -> float
