(** Cluster bring-up and experiment harness.

    A [System.t] is one simulated CarlOS cluster: the virtual-time engine,
    the shared Ethernet segment with the UDP-like datagram service and the
    sliding-window reliable transport, one {!Node.t} per workstation with
    its view of the coherent region ({!Carlos_vm.Shm}, the only simulated
    address space) and its consistency backend (which sends its own
    messages through the node), an allocator for the coherent region, and
    the global garbage collector for consistency metadata (paper §5.2
    footnote 5).

    Typical use:
    {[
      let sys = System.create (System.default_config ~nodes:4) in
      let counter = System.alloc sys 8 in
      let report = System.run sys (fun node -> ...app code...) in
      Format.printf "%.1fs" report.wall
    ]} *)

type config = {
  nodes : int;
  page_size : int;
      (* bytes; a power of two of at most 65,536, the reach of a diff's
         two-byte run descriptors *)
  coherent_pages : int;
  latency : float; (* seconds, wire propagation + interrupt *)
  bandwidth : float; (* bytes per second (10 Mbit/s Ethernet = 1.25e6) *)
  window : int; (* sliding-window size *)
  rto : float; (* retransmission timeout, seconds *)
  loss : float; (* datagram loss probability *)
  costs : Carlos_dsm.Cpu_cost.t;
  backend : Carlos_dsm.Backend.kind;
      (* consistency model: Lrc (the paper's protocol), Central
         (one-home-node sequential consistency) or Seq (sequencer-stamped
         total order) *)
  strategy : Carlos_dsm.Lrc_backend.strategy;
      (* LRC only — coherence strategy: invalidate (paper's measured
         configuration), update, or hybrid (paper §4.3) *)
  seed : int;
  gc_threshold : int option;
      (* consistency-metadata bytes per node that trigger a global GC;
         None disables GC *)
}

(** Paper-like defaults: 4 KB pages, 10 Mbit/s shared Ethernet, 100 us
    latency, no loss, default cost table, GC at 512 KB of metadata.  The
    transport always delays acks (4 frames / 5 ms) and adapts its
    retransmission timeout; the LRC backend always batches fetches and
    caches merged diffs. *)
val default_config : nodes:int -> config

type node_report = {
  node : int;
  user : float;
  unix : float;
  carlos : float;
  idle : float;
  msgs_sent : int;
  bytes_sent : int;
}

type report = {
  wall : float; (* start of run to last application exit *)
  per_node : node_report array;
  messages : int; (* CarlOS messages sent, forwards included *)
  message_bytes : int; (* their wire bytes (headers + piggybacks) *)
  avg_message_bytes : float;
  net_utilization : float; (* fraction of the raw 10 Mbit/s, as in Tables 1-3 *)
  gc_runs : int; (* global metadata GCs *)
  diff_requests : int; (* blocking data round trips, see Backend.data_fetches *)
}

type t

(** [create ?audit cfg] — with [~audit:true], an online consistency
    auditor ({!Carlos_audit.Audit}) observes the whole cluster: every
    node reports sends/accepts/dispositions and the LRC engines fire its
    shadow-state hooks.  Retrieve it with {!auditor}. *)
val create : ?audit:bool -> config -> t

val config : t -> config

val engine : t -> Carlos_sim.Engine.t

val node : t -> int -> Node.t

val node_count : t -> int

(** The cluster-wide observability registry: every instrument of every
    layer (network, VM, consistency protocol, message layer) and the typed
    event trace.  Snapshot/diff it to measure a phase; export it with the
    [Obs] Chrome-trace/JSONL printers. *)
val obs : t -> Carlos_obs.Obs.t

(** The online consistency auditor, when the system was created with
    [~audit:true]. *)
val auditor : t -> Carlos_audit.Audit.t option

(** Record typed events into {!obs} (off by default). *)
val set_tracing : t -> bool -> unit

(** {1 Shared-memory setup} *)

(** Allocate in the coherent shared region (setup-time, deterministic). *)
val alloc : t -> ?align:int -> int -> int

(** Write the same value into every node's copy of coherent memory without
    taking faults — for input data every node would load from disk. *)
val preload_i64 : t -> int -> int -> unit

(** {1 Running} *)

exception Stalled of string

(** [run t app] spawns [app node] on every node, runs the cluster to
    quiescence and reports.  Raises {!Stalled} if some application fiber
    never finished (protocol deadlock). *)
val run : t -> (Node.t -> unit) -> report
