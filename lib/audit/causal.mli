(** Offline critical-path analysis of a captured trace.

    Consumes the event stream of an {!Carlos_obs.Obs} registry recorded by
    an instrumented run ([Node] emits ["send"]/["deliver"]/["accept"]
    events carrying the message trace id) and derives the {b critical
    path}: a backward walk through the causal DAG from the last event of
    the run — at each step, the latest delivery on the current node is
    matched to its send (same trace id) and the walk jumps to the sender
    — splitting the end-to-end span into per-node local compute and wire
    transit, with hop counts per annotation.

    Per-primitive waits are not derived here: the registry records them
    on every run as the [lock.wait:<name>], [barrier.skew:<name>],
    [wq.wait:<name>] and [sem.wait:<name>] histograms, exported by
    [--metrics] and [--metrics-json].  Lock hand-offs stay in the trace
    as ["lock.handoff"] events with their [to] argument. *)

module Obs = Carlos_obs.Obs

type hop = {
  hop_id : int;  (** message trace id *)
  hop_annot : string;
  hop_src : int;
  hop_dst : int;
  hop_send_ts : float;
  hop_deliver_ts : float;
}

type critical_path = {
  cp_start : float;
  cp_end : float;
  cp_hops : hop list;  (** in causal (forward) order *)
  cp_local : (int * float) list;  (** per node, compute time on the path *)
  cp_wire : float;  (** total transit time on the path *)
  cp_annot_hops : (string * int) list;  (** hop count per annotation *)
}

val analyse : Obs.t -> critical_path option
(** [None] when the trace has no deliveries. *)

val pp : Format.formatter -> critical_path option -> unit
