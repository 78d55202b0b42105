(** Sequencer-based totally-ordered store.

    The middle point of the consistency spectrum: one {e sequencer} node
    (conventionally 0) stamps every write batch with a global sequence
    number and pushes the stamped diffs to every replica, which applies
    them strictly in stamp order (the sequencer/total-order designs of
    SNIPPETS.md Snippets 2–3).  Every node holds a full, never-invalidated
    copy of the coherent region; there are no page fetches at all.

    Protocol, per node:

    - {b write fault}: twin the page ({!Writeback.write_fault}), exactly
      as in {!Central_backend}; the written ([Read_write]) pages are the
      node's dirty set;
    - {b release} ({!make_piggyback}): encode the written pages' diffs
      and send them to the sequencer over one blocking RPC; the sequencer
      stamps each diff, applies it to its own frames, and {e pushes} the
      stamped diff to every other node.  The piggyback carries the origin
      and an [upto] horizon — the highest stamp this node's causal past
      depends on.  Flushes run one at a time per node
      ({!Writeback.exclusively}), so a release waits for a flush another
      fiber of this node still has in flight, and its horizon covers the
      stamps that flush receives;
    - {b acquire} ({!accept}): flush own written pages (a barrier manager
      reaches its fall without sending a release), then block until the
      local applied stamp reaches the maximum [upto] of the accepted
      piggybacks;
    - {b push}: applied at interrupt level in arrival
      order.  Per-pair FIFO delivery from the single sequencer source
      makes arrival order equal stamp order, which the replica enforces
      (stamps must be contiguous).  A replica skips the payload of its
      own diffs — its frames already hold those values, and newer
      unreleased local writes must not be reverted — but still advances
      its applied stamp.

    Because the sequencer's RPC reply and its pushes to the origin share
    one FIFO channel, a node returning from a flush has already applied
    every stamp it produced. *)

type t

exception Protocol_violation of string

(** Consistency information on a RELEASE/RELEASE_NT: the sender's causal
    horizon in the global order. *)
type piggyback = { origin : int; upto : int }

(** [create ~nodes ~me ~page_table ~costs ~charge ~peer ()] installs
    the fault handlers on [page_table]; node 0 is the sequencer.  Every other node sends
    its write batches to the sequencer through [peer]; the sequencer
    pushes stamped diffs to every replica through its own [peer], one
    post per replica, which the replica must receive in send order. *)
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

(** Highest stamp applied locally. *)
val applied_seq : t -> int

(** {1 Audit hooks} *)

type hooks = {
  on_stamped : seq:int -> origin:int -> unit;
      (** the sequencer assigned stamp [seq] to a diff of [origin] *)
  on_applied : node:int -> seq:int -> origin:int -> unit;
      (** [node] applied (or skipped, for its own diffs) stamp [seq] *)
  on_acquire : node:int -> upto:int -> applied:int -> unit;
      (** [node] completed an acquire needing [upto] with [applied]
          stamps already applied locally *)
  on_handed : node:int -> diffs:int -> unit;
      (** [node] handed [diffs] diffs to the sequencer, which stamps
          each once *)
  on_release : node:int -> upto:int -> unit;
      (** [node] built a RELEASE carrying horizon [upto] *)
}

val no_hooks : hooks

val set_hooks : t -> hooks -> unit

(** {1 Backend interface} (see {!Backend_intf.S}) *)

val vc : t -> Vc.t

val make_piggyback : t -> receiver:int -> nontransitive:bool -> piggyback

val accept : t -> piggyback list -> unit

val piggyback_cost : piggyback -> (Carlos_obs.Cost.component * int) list

val request_vc : t -> Vc.t option

val note_peer_vc : t -> peer:int -> Vc.t -> unit

val metadata_pressure : t -> int

val data_fetches : t -> int
