(** Online consistency auditor.

    One [Audit.t] observes a whole simulated cluster through synchronous
    hooks fired by the message layer ({!on_send}, {!on_forward},
    {!on_store}, {!on_accept}) and by the LRC engine ({!lrc_hooks}).  It
    maintains shadow state — last observed vector clock per node, a mirror
    of each node's peer knowledge, the global interval registry, which
    write notices each node has processed, and per-page application
    history — and checks the paper's invariants as the run unfolds:

    - {b vc-monotonic}: a node's vector clock never goes backwards
      (observed at every send, accept and disposition);
    - {b acquire-dominance}: after accepting a RELEASE, the receiver's
      clock dominates the piggybacked [required_vc] — the sender's clock
      at send time, i.e. the paper's visibility guarantee (§2.1);
    - {b release-nt-required-vc}: the same rule for RELEASE_NT, whose
      gap-detection path (fetching interval descriptions the
      non-transitive piggyback omitted) must still reach [required_vc];
    - {b request-tailoring}: a RELEASE piggyback carries {e exactly} the
      intervals the receiver is not known to hold — no gaps below
      [required_vc], nothing the receiver already holds (the precise
      tailoring a REQUEST's piggybacked timestamp enables, §4.3).  What
      a node knows another holds includes the required clock of each
      enqueue it sent to that node as a work-queue relay, and a RELEASE
      a node addresses to itself carries no intervals;
    - {b forward-tailoring}: the same rule for a RELEASE a relay
      forwards to another node: the copy carries exactly the intervals
      above what the relay knows the destination to hold (from its
      REQUEST clock), up to [required_vc].  A relay logs what each
      RELEASE it relays carries, so it holds that whole range;
    - {b release-nt-foreign-interval}: a non-transitive piggyback only
      carries intervals created by its origin;
    - {b request-vc-stale}: a REQUEST carries the sender's current clock;
    - {b write-notice-lost}: every interval an accept newly covered had
      all its write notices processed at the accepting node;
    - {b page-causal-order}: writes (diffs / installs) are applied to
      each page in causal order — never an interval that some
      already-applied interval causally follows;
    - {b gc-discard-dominated}: every interval the metadata GC discards
      has a clock its snapshot dominates.  The discard drops each
      creator's intervals at or below the snapshot's entry for it, which
      is exact only while the coordinator's clock is causally closed;
    - {b relay-consistent}: a node declared a pure relay for a message
      (the work-queue manager, §2.2) accepted it — "never becomes
      consistent" violated.

    Violations are recorded (with the offending message's trace id when
    one exists) and also emitted as [audit.violation] trace events and
    counted in the [audit.violations] counter of the registry. *)

module Obs = Carlos_obs.Obs
module Vc = Carlos_dsm.Vc

(** Mirror of [Carlos.Annotation.t]; duplicated here so lib/audit sits
    below lib/carlos in the dependency order. *)
type annotation = Release | Release_nt | Request | None_

type violation = {
  check : string;  (** short invariant name, e.g. ["vc-monotonic"] *)
  node : int;  (** node the violation was detected on *)
  time : float;  (** virtual time of detection *)
  trace_id : int option;  (** offending message, when one is implicated *)
  detail : string;
}

type t

(** [create ~obs ~nodes ()] — violations are timestamped by [obs]'s clock
    and mirrored into it as events/counters. *)
val create : ?obs:Obs.t -> nodes:int -> unit -> t

val violations : t -> violation list
(** Oldest first. *)

val violation_count : t -> int

(** Multi-line report: a summary line, then one line per violation.
    Prints ["audit: ok (0 violations)"] when clean. *)
val pp_report : Format.formatter -> t -> unit

(** End-of-run wire-byte conservation check: records a
    ["cost-conservation"] violation unless the {!Carlos_obs.Cost}
    component counters sum exactly to
    [medium.bytes + datagram.dropped_bytes].  Called by [System.run]
    after the engine drains. *)
val check_conservation : t -> unit

(** {1 Message-layer hooks (called by [Carlos.Node])} *)

(** First transmission of a message (not forwarding hops).  [vc] is the
    sender's live clock; [required_vc]/[nontransitive]/[intervals] come
    from the RELEASE piggyback ([intervals] as [(creator, index)] pairs),
    [sender_vc] from a REQUEST. *)
val on_send :
  t ->
  trace_id:int ->
  src:int ->
  dst:int ->
  annotation:annotation ->
  vc:Vc.t ->
  required_vc:Vc.t option ->
  nontransitive:bool ->
  intervals:(int * int) list ->
  sender_vc:Vc.t option ->
  unit

(** One message of a batch accept.  [vc_before]/[vc_after] bracket the
    whole batch's consistency actions. *)
type accepted = {
  acc_trace_id : int;
  acc_annotation : annotation;
  acc_origin : int;
  acc_required_vc : Vc.t option;
}

val on_accept :
  t -> node:int -> vc_before:Vc.t -> vc_after:Vc.t -> accepted list -> unit

(** A store or forward observes the node's clock [vc] (vc-monotonic);
    a forward also fulfils the node's relay obligation for the message.
    For an LRC RELEASE from [origin] forwarded to [dst] <> [node],
    [required_vc] is [Some] of its required clock, and [intervals] are
    the [(creator, index)] ids the forwarded copy carries
    (forward-tailoring). *)
val on_forward :
  t ->
  trace_id:int ->
  node:int ->
  dst:int ->
  vc:Vc.t ->
  origin:int ->
  required_vc:Vc.t option ->
  nontransitive:bool ->
  intervals:(int * int) list ->
  unit

val on_store : t -> trace_id:int -> node:int -> vc:Vc.t -> unit

(** Declare that [node] must act as a pure relay for message [trace_id]:
    accepting it there is a violation (the work-queue manager's
    never-becomes-consistent property). *)
val expect_relay : t -> trace_id:int -> node:int -> unit

(** {1 LRC hooks}

    The hook record to install with [Lrc.set_hooks] on every node's
    engine (shared: the callbacks carry the node id). *)
val lrc_hooks : t -> Carlos_dsm.Lrc_backend.hooks

(** {1 Central-backend hooks}

    Model-specific invariants for {!Carlos_dsm.Central_backend}:

    - {b central-single-home}: exactly one node ever applies flushes;
    - {b central-version-gap}: the home version of each page advances by
      exactly one per applied flush, and no node fetches a version the
      home never reached;
    - {b central-fetch-stale}: the version a node fetches for a page
      never goes backwards. *)
val central_hooks : t -> Carlos_dsm.Central_backend.hooks

(** {1 Seq-backend hooks}

    Model-specific invariants for {!Carlos_dsm.Seq_backend}:

    - {b seq-stamp-contiguous}: the sequencer issues stamps 1, 2, 3, …
      with no gap or repeat;
    - {b seq-apply-order}: every node applies stamps in exactly that
      order, and never a stamp the sequencer did not issue;
    - {b seq-acquire-coverage}: an acquire only completes once the local
      applied stamp covers the accepted horizon;
    - {b seq-release-horizon}: a node builds a RELEASE only once every
      diff it handed to the sequencer has been stamped, and its horizon
      covers those stamps. *)
val seq_hooks : t -> Carlos_dsm.Seq_backend.hooks
