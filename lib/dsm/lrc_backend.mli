(** Lazy release consistency engine (TreadMarks-style, paper §4.2).

    One [Lrc.t] runs on each node.  It owns the node's vector timestamp,
    interval log, write-notice bookkeeping and diff store, and it installs
    itself as the fault handler of the node's page table.  It is a pure
    protocol state machine: all communication goes through the peer
    channel given at creation, and all processing time is charged through
    the [charge] callback, so the engine itself is easy to test in
    isolation.  The engine defines its own requests (diff, interval, page
    and base fetches) and their wire sizes.  Its parts, each owning its
    own state, are {!Lrc_serve}, {!Lrc_fetch}, {!Lrc_close} and {!Lrc_gc}.

    Key protocol choices, matching the paper:
    - multiple-writer protocol with twins and run-length-encoded diffs;
    - write-notice application invalidates by default, with the paper's
      update and hybrid strategies available (see {!strategy});
    - intervals are closed when a RELEASE message is sent.  (TreadMarks
      also opens a new interval at each acquire; closing lazily at the next
      release publishes the same writes at the same release events and is
      indistinguishable for data-race-free programs, while creating fewer
      intervals.);
    - diffs are encoded eagerly when an interval closes (and the page
      re-protected), rather than on first request as in TreadMarks.  Eager
      encoding keeps write notices precise: a diff published under an
      interval id contains exactly that interval's writes, never stale
      bytes republished under a newer id. *)

type t

exception Protocol_violation of string

(** Coherence strategy (paper §4.3: "If an invalidation-based consistency
    strategy is used, the interval descriptions contain only write
    notices.  If an update or hybrid strategy is used, the message also
    will contain a set of diffs.  Thus far, we have used only the
    invalidation strategy in CarlOS." — this implementation provides all
    three):

    - [Invalidate]: write notices invalidate pages; diffs move on demand.
    - [Update]: RELEASE piggybacks also carry the diffs of every interval
      they describe (when the sender holds them); pages to which a
      complete set of diffs can be applied remain valid.
    - [Hybrid_update]: diffs are attached only for intervals created at
      the sending node; third-party intervals invalidate as usual. *)
type strategy = Invalidate | Update | Hybrid_update

(** Consistency information appended to a RELEASE/RELEASE_NT message, or
    returned by an interval fetch. *)
type piggyback = {
  origin : int; (* node that built the piggyback *)
  required_vc : Vc.t;
      (* minimum timestamp the acceptor must reach (paper §4.3) *)
  intervals : Interval.t list; (* interval descriptions, causally sorted *)
  nontransitive : bool; (* built for a RELEASE_NT message *)
  attached_diffs : (int * Interval.id * Carlos_vm.Diff.t list) list;
      (* update/hybrid strategies: eager data, same shape as a diff
         reply *)
}

(** Per requested id, the diff pieces to apply in list order.  One physical
    diff may be aliased under several ids when a single flush covered
    several intervals, and a server may answer a multi-id request entry
    with one merged diff under the entry's lowest id and empty lists for
    the rest. *)
type diff_reply = (int * Interval.id * Carlos_vm.Diff.t list) list

(** [create ?obs ~nodes ~me ~page_table ~costs ~charge] — [charge dt] must
    consume [dt] seconds of this node's CPU and account it to the
    consistency-overhead bucket; [peer] reaches the other nodes' engines.
    Protocol accounting registers in [obs]
    (a fresh private registry by default) under the [Dsm]/[Vm] layers for
    node [me]; [accept] and [make_piggyback] additionally record
    [lrc.accept]/[lrc.release] spans when tracing is enabled.

    A fault's round trips are coalesced: all missing intervals — of the
    faulting page and of any other missing page this node has faulted on
    before — are gathered with one diff request per creator, and requests
    to distinct creators are issued from parallel fibers, so a fault must
    be taken inside an engine fiber. *)
val create :
  ?obs:Carlos_obs.Obs.t ->
  nodes:int ->
  me:int ->
  page_table:Carlos_vm.Page_table.t ->
  costs:Cpu_cost.t ->
  charge:(float -> unit) ->
  peer:t Backend_intf.peer ->
  ?strategy:strategy ->
  unit ->
  t

(** {1 Audit hooks}

    Synchronous callbacks into an external observer (lib/audit's online
    consistency auditor), fired at the protocol's state transitions.  All
    default to no-ops; installing hooks must not change protocol
    behaviour.  [node] is always the node the transition happened on. *)

type hooks = {
  on_interval_closed :
    creator:int -> index:int -> vc:Vc.t -> pages:int list -> unit;
      (** a new interval was closed at its creator (before any charge) *)
  on_write_notice : node:int -> page:int -> creator:int -> index:int -> unit;
      (** one write notice of interval [(creator, index)] was processed at
          [node] during an accept *)
  on_page_interval : node:int -> page:int -> creator:int -> index:int -> unit;
      (** [node]'s copy of [page] now reflects interval [(creator, index)] *)
  on_page_content : node:int -> page:int -> vc:Vc.t -> unit;
      (** [node] installed a whole-page copy of [page] covering [vc] *)
  on_peer_note : node:int -> peer:int -> vc:Vc.t -> unit;
      (** [node] learned that [peer] has reached at least [vc] *)
}

val no_hooks : hooks

val set_hooks : t -> hooks -> unit

(** {1 Fault injection (negative tests only)}

    [inject_fault t (Some f)] arms a one-shot protocol corruption,
    consumed at the next triggering point: [Skip_write_notice] silently
    drops the processing of one write notice during the next accept;
    [Corrupt_vc_merge] decrements one non-local component of the vector
    clock after the next accept's join.  Used to prove the auditor
    catches real violations; never armed in production code. *)

type fault = Skip_write_notice | Corrupt_vc_merge

val inject_fault : t -> fault option -> unit

(** The node's current vector timestamp (live value; do not mutate). *)
val vc : t -> Vc.t

(** A copy of the clock, piggybacked on every outgoing REQUEST. *)
val request_vc : t -> Vc.t option

(** {1 Peer knowledge} *)

(** Record that [peer] is known to have reached at least [vc] (from a
    REQUEST piggyback or a served fetch), so future RELEASEs to it can be
    precisely tailored. *)
val note_peer_vc : t -> peer:int -> Vc.t -> unit

(** {1 Release / acquire} *)

(** Build the consistency information for a RELEASE ([nontransitive:false])
    or RELEASE_NT ([nontransitive:true]) message to [receiver].  Closes the
    current interval if it modified any pages.  A non-transitive piggyback
    carries only intervals created locally. *)
val make_piggyback : t -> receiver:int -> nontransitive:bool -> piggyback

(** Perform the acquire side for one or more accepted messages (several
    when a barrier manager accepts all stored arrivals at once, so that the
    union of non-transitive contributions is complete).  Missing interval
    descriptions are fetched from the piggyback origins; write notices are
    applied (invalidating pages); the vector clock advances to cover every
    [required_vc].  May block. *)
val accept : t -> piggyback list -> unit

(** Wire bytes of the consistency information by component (vector
    clocks / write notices / attached diffs); the wire size is their
    sum. *)
val piggyback_cost : piggyback -> (Carlos_obs.Cost.component * int) list

(** Wire bytes of diff entries, as attached to a piggyback or carried by
    a {!diff_reply}: 8 per entry plus each physical diff once, each later
    reference to an already-billed diff costing a 4-byte
    back-reference. *)
val diff_entries_bytes : diff_reply -> int

(** {1 Garbage collection support (paper §5.2 footnote)} *)

(** Rough bytes of consistency metadata held (stored diffs + interval
    log). *)
val metadata_pressure : t -> int

(** The global GC's rendezvous runs these steps on every node, in order,
    each step finishing on all nodes before the next starts.  [snapshot]
    is the coordinator's clock once it has accepted every node's
    contribution; each node has reached it before {!gc_keep}.

    [gc_keep t snapshot] elects, for each page written by an interval of
    this epoch (at or below [snapshot], above the last snapshot), a keeper:
    the creator of the causally latest such interval.  Every node computes
    the same table.  The keeper validates the page and keeps its content
    as the page's immutable base copy.  Blocking. *)
val gc_keep : t -> Vc.t -> unit

(** [gc_drop t snapshot] drops every copy that still misses history at or
    below [snapshot], after waiting for the fetches in flight here.  A
    later fault on a dropped page installs the keeper's base (through
    [fetch_base]) and applies the logged intervals above it.  Blocking. *)
val gc_drop : t -> Vc.t -> unit

(** Discard interval records and diffs dominated by [snapshot], and the
    base copies of pages another node now keeps.  Only safe after
    {!gc_drop} has run on every node. *)
val discard_before : t -> Vc.t -> unit

(** {1 Statistics} *)

(** Blocking data round trips so far: diff, interval and page requests.
    Every other protocol counter is read from the observability registry
    by key (layer [Dsm], or [Vm] for [twins], [diffs_created] and
    [diff.bytes]). *)
val data_fetches : t -> int
