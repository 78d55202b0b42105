(** Backend dispatch: the three consistency models behind one value type.

    Each model satisfies {!Backend_intf.S} (checked by signature
    constraints in the implementation); this module packs an instance of
    any of them into one [t] so the message layer ({!Carlos.Node},
    {!Carlos.System}) is model-independent.  Piggybacks are tagged with
    their model: mixing models inside one cluster is a configuration
    error and {!accept} rejects a piggyback of a foreign model. *)

(** Which consistency model a cluster runs. *)
type kind =
  | Lrc  (** lazy release consistency — the paper's protocol *)
  | Central  (** centralized-coordinator sequentially-consistent store *)
  | Seq  (** sequencer-stamped totally-ordered store *)

val kind_of_string : string -> (kind, string) result

val kind_to_string : kind -> string

val all_kinds : kind list

type t =
  | Lrc_b of Lrc_backend.t
  | Central_b of Central_backend.t
  | Seq_b of Seq_backend.t

type piggyback =
  | Lrc_pb of Lrc_backend.piggyback
  | Central_pb of Central_backend.piggyback
  | Seq_pb of Seq_backend.piggyback

val vc : t -> Vc.t

val make_piggyback : t -> receiver:int -> nontransitive:bool -> piggyback

(** [local] as in {!Backend_intf.S.accept}.  Raises [Invalid_argument]
    on a piggyback of a different model than the backend. *)
val accept : t -> ?local:piggyback list -> piggyback list -> unit

(** See {!Backend_intf.S.log_relayed}.  Raises [Invalid_argument] on a
    piggyback of a different model than the backend. *)
val log_relayed : t -> piggyback -> unit

(** See {!Backend_intf.S.trim_piggyback}.  Raises [Invalid_argument] on
    a piggyback of a different model than the backend. *)
val trim_piggyback : t -> piggyback -> receiver:int -> piggyback

val piggyback_cost : piggyback -> (Carlos_obs.Cost.component * int) list

val request_vc : t -> Vc.t option

val note_peer_vc : t -> peer:int -> Vc.t -> unit

val metadata_pressure : t -> int

val data_fetches : t -> int
