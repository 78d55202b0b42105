(** The DSM backend signature: what a memory-consistency model must
    provide to plug into the CarlOS message layer.

    One backend instance runs per node.  A backend owns the node's
    consistency metadata and installs itself as the fault handler of the
    node's page table at creation time (fault handling); the message layer
    drives it only through the annotation hooks:

    - {b release}: {!S.make_piggyback} builds the consistency information
      appended to an outgoing RELEASE / RELEASE_NT message (for LRC the
      closed interval descriptions; for the centralized store a flush
      marker; for the sequencer store a global-order horizon), and
      {!S.piggyback_cost} bills its wire bytes;
    - {b acquire / barrier participation}: {!S.accept} performs the
      consistency actions of one or more accepted messages at once — the
      batch form is how a barrier manager accepts the union of stored
      arrivals;
    - {b request}: {!S.request_vc} is the clock piggybacked on a REQUEST
      and {!S.note_peer_vc} records it at the receiver;
    - {b report}: {!S.metadata_pressure} is sampled at safe points (and
      triggers the LRC-only metadata GC, which calls {!Lrc_backend}
      directly) and {!S.data_fetches} feeds the run report.

    The three implementations are {!Lrc_backend} (lazy release
    consistency, the paper's protocol), {!Central_backend} (one home node
    serializes everything — strongly consistent, maximally chatty) and
    {!Seq_backend} (a sequencer stamps every write into one total order
    and replicas apply pushes in stamp order).  {!Backend} packs them
    behind one dispatch type.

    A backend reaches the other nodes' backends only through its {!peer},
    so each backend defines its own requests — their server function, cost
    class and wire size — next to the code that serves them. *)

(** A backend's channel to the same backend on the other nodes.  The
    function passed to either field runs on the destination node's
    backend, at interrupt level, and must not block.

    - [rpc ~dst ~cost ~reply_cost ~request_bytes ~reply_bytes serve] is a
      blocking request-reply exchange: a [request_bytes] request billed to
      [cost], answered by [serve], whose result travels back as a
      [reply_bytes]-byte reply billed to [reply_cost].
    - [post ~dst ~cost ~payload_bytes serve] is a one-way message with no
      reply. *)
type 'b peer = {
  rpc :
    'r.
    dst:int ->
    cost:Carlos_obs.Cost.component ->
    reply_cost:Carlos_obs.Cost.component ->
    request_bytes:int ->
    reply_bytes:('r -> int) ->
    ('b -> 'r) ->
    'r;
  post :
    dst:int ->
    cost:Carlos_obs.Cost.component ->
    payload_bytes:int ->
    ('b -> unit) ->
    unit;
}

module type S = sig
  type t

  (** Model-specific consistency information carried by a RELEASE or
      RELEASE_NT message. *)
  type piggyback

  (** The node's vector timestamp.  Models that do not use vector time
      return a constant zero clock (the auditor's clock invariants then
      hold trivially). *)
  val vc : t -> Vc.t

  (** {b Release hook.}  Build the consistency information for a RELEASE
      ([nontransitive:false]) or RELEASE_NT ([nontransitive:true]) to
      [receiver].  Publishes the node's writes as the model requires
      (closing an interval, flushing to the home node, routing diffs
      through the sequencer); may block on the wire. *)
  val make_piggyback : t -> receiver:int -> nontransitive:bool -> piggyback

  (** {b Acquire hook / barrier participation.}  Perform the acquire side
      for a batch of accepted messages (several when a barrier manager
      accepts all stored arrivals at once).  On return the node is
      consistent with every sender as the model defines it.  May block. *)
  val accept : t -> piggyback list -> unit

  (** Wire bytes of the consistency information, split by cost-taxonomy
      component (see {!Carlos_obs.Cost}); the wire size is the sum of the
      parts. *)
  val piggyback_cost : piggyback -> (Carlos_obs.Cost.component * int) list

  (** The clock to piggyback on an outgoing REQUEST message, or [None]
      when the model has no use for peer timestamps (the message then
      stays small and the receive path skips the clock charge). *)
  val request_vc : t -> Vc.t option

  (** Record knowledge about a peer gained outside accept (REQUEST
      piggybacks, served fetches).  No-op for models without tailoring. *)
  val note_peer_vc : t -> peer:int -> Vc.t -> unit

  (** {1 Report} *)

  (** Rough bytes of consistency metadata held.  Models with no lazy
      metadata return 0 and are never collected. *)
  val metadata_pressure : t -> int

  (** Blocking data round trips so far, the one model-independent number
      the run report reads (every other counter is read from the
      observability registry by key): LRC diff, interval and page
      requests, central flush and page RPCs, sequencer write RPCs. *)
  val data_fetches : t -> int
end
