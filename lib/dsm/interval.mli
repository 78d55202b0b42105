(** Intervals and write notices (paper §4.2).

    The execution history of each node is divided into an indexed sequence
    of intervals whose endpoints occur at release and acquire events.  Each
    interval is summarized by a list of write notices, one for each page
    modified in it. *)

(** Globally unique interval identifier: [index] is the creator's [index]th
    interval (the creator's vector-clock component at creation). *)
type id = { creator : int; index : int }

type t = private {
  id : id;
  vc : Vc.t; (* creator's vector timestamp at creation *)
  rank : int; (* [Vc.sum vc], the interval's causal rank *)
  write_notices : int list; (* pages modified during the interval *)
}

val make : creator:int -> index:int -> vc:Vc.t -> write_notices:int list -> t

(** A placeholder that is no interval: it writes no page and sorts
    below every interval ({!causal_compare}).  Compare with [==]. *)
val none : t

(** Wire size of an interval description: the vector timestamp plus a 4-byte
    id and 4 bytes per write notice. *)
val size_bytes : t -> int

(** The total order every causal ordering uses: a linear extension of
    causal order, ascending [rank], ties broken by creator then index. *)
val causal_compare : t -> t -> int

(** Sort an array into the causal order ({!causal_compare}) in place,
    allocating nothing.  Not stable: intervals with distinct ids never
    compare equal. *)
val sort_in_place : t array -> unit

val pp : Format.formatter -> t -> unit

(** One creator's entries by interval index: the layout of every piece of
    per-interval state an LRC node keeps, its intervals ({!Log}) and their
    diffs ({!Diff_store}), which the metadata GC drops together.  Indices
    are contiguous per creator, so a row is a dense array over the indices
    it holds: a lookup is two array reads and allocates nothing.  A slot
    with no entry holds [E.empty], compared with [==]. *)
module Row (E : sig
  type t

  val empty : t
end) : sig
  type t

  val create : unit -> t

  (** Number of non-empty slots. *)
  val count : t -> int

  (** The entry at an index, or [E.empty]. *)
  val get : t -> int -> E.t

  (** [set r index x] stores [x] (not [E.empty]) at [index], growing the
      array by doubling at either end. *)
  val set : t -> int -> E.t -> unit

  (** [drop_upto r index f acc] empties every slot at or below [index],
      folding [f] over the entries it removes, from [acc].  It allocates
      only when it releases the vacated front of the array. *)
  val drop_upto : t -> int -> ('a -> E.t -> 'a) -> 'a -> 'a

  (** [iter_range r ~lo ~hi f] applies [f] to every entry at an index [k]
      with [lo < k <= hi], by ascending [k]. *)
  val iter_range : t -> lo:int -> hi:int -> (E.t -> unit) -> unit
end

(** Interval descriptions known to one node, indexed by id: a {!Row} per
    creator, with {!none} in its empty slots. *)
module Log : sig
  type interval := t

  type t

  (** An empty log for creators [0 .. nodes - 1]. *)
  val create : nodes:int -> t

  (** @raise Not_found if the interval is not in the log. *)
  val find : t -> creator:int -> index:int -> interval

  val mem : t -> creator:int -> index:int -> bool

  (** Add an interval under its id, replacing any interval with that id. *)
  val add : t -> interval -> unit

  (** [remove_upto t ~creator ~index] removes every interval of [creator]
      at or below [index].  It reads no interval, and allocates only when
      it releases the vacated front of the creator's array. *)
  val remove_upto : t -> creator:int -> index:int -> unit

  (** [iter_range t ~creator ~lo ~hi f] applies [f] to every logged
      interval [(creator, k)] with [lo < k <= hi], by ascending [k]. *)
  val iter_range :
    t -> creator:int -> lo:int -> hi:int -> (interval -> unit) -> unit

  (** Number of intervals in the log. *)
  val length : t -> int

  exception Missing of id

  (** [causal_range t ~lo ~hi ~creators] is every interval [(c, k)] with
      [creators c] and [Vc.get lo c < k <= Vc.get hi c], in the causal
      order ({!causal_compare}).  It allocates only the result: an array
      of exactly that many intervals, sorted in place.
      @raise Missing with the first absent id, by creator then index. *)
  val causal_range :
    t -> lo:Vc.t -> hi:Vc.t -> creators:(int -> bool) -> interval array
end
