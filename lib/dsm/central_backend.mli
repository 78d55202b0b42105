(** Centralized-coordinator strongly-consistent store.

    The contrast backend at the opposite end of the consistency spectrum
    from {!Lrc_backend}: one {e home} node holds the authoritative copy of
    every coherent page and serializes all updates (the CA design of
    SNIPPETS.md Snippet 1, where node 0 receives every read and write).
    Pages are never replicated writable — a node's local writes are
    private twins until the next synchronization point, when they are
    flushed to the home node as diffs over one blocking RPC.

    Protocol, per node:

    - {b write fault}: twin the page ({!Writeback.write_fault}); the
      written ([Read_write]) pages are the only local state a node
      accumulates;
    - {b release} ({!make_piggyback}): flush every written page's diff
      to the home node; the piggyback itself is just an origin marker —
      all ordering lives at home.  Flushes run one at a time per node
      ({!Writeback.exclusively}), so a release waits until home has
      applied a flush another fiber of this node still has in flight;
    - {b acquire} ({!accept}): flush own written pages (a barrier manager
      reaches this point without ever sending a release), then invalidate
      {e every} locally cached page, so every post-acquire read refetches
      the home node's current copy;
    - {b read fault}: fetch the whole page from home (with its version,
      for the auditor's freshness invariant) and install it.

    For data-race-free programs this yields sequential consistency: all
    writes are serialized by home-application order, and no stale copy
    survives an acquire.  The price is exactly what the paper's design
    avoids — every synchronization invalidates wholesale and every working
    -set page costs a full-page round trip to one hot node. *)

type t

exception Protocol_violation of string

(** Consistency information on a RELEASE/RELEASE_NT: only the origin —
    the data already reached home before the message was sent. *)
type piggyback = { origin : int }

(** [create ~nodes ~me ~page_table ~costs ~charge ~peer ()] — node 0 is
    the coordinator, the home node.  Installs the fault handlers on
    [page_table].  Every node but home sends its page fetches and flushes
    to home through [peer]; home never uses it. *)
val create :
  ?obs:Carlos_obs.Obs.t ->
  nodes:int ->
  me:int ->
  page_table:Carlos_vm.Page_table.t ->
  costs:Cpu_cost.t ->
  charge:(float -> unit) ->
  peer:t Backend_intf.peer ->
  unit ->
  t

(** {1 Audit hooks} *)

type hooks = {
  on_flush_applied : home:int -> origin:int -> page:int -> version:int -> unit;
      (** the home node applied one flushed diff of [origin] to [page],
          raising it to [version] *)
  on_page_fetched : node:int -> page:int -> version:int -> unit;
      (** [node] installed home's copy of [page] at [version] *)
}

val no_hooks : hooks

val set_hooks : t -> hooks -> unit

(** {1 Backend interface} (see {!Backend_intf.S}) *)

val vc : t -> Vc.t

val make_piggyback : t -> receiver:int -> nontransitive:bool -> piggyback

(** Does nothing: the piggyback carries no history to keep. *)
val log_relayed : t -> piggyback -> unit

(** Returns the piggyback unchanged: it carries no per-receiver
    history. *)
val trim_piggyback : t -> piggyback -> receiver:int -> piggyback

val accept : t -> ?local:piggyback list -> piggyback list -> unit

val piggyback_cost : piggyback -> (Carlos_obs.Cost.component * int) list

val request_vc : t -> Vc.t option

val note_peer_vc : t -> peer:int -> Vc.t -> unit

val metadata_pressure : t -> int

val data_fetches : t -> int
