(** Vector timestamps.

    The memory-consistency state of each node is summarized by a vector
    timestamp, each element of which is the index of the most recently seen
    interval from the corresponding node (paper §4.2). *)

type t

val zero : nodes:int -> t

val copy : t -> t

val get : t -> int -> int

val set : t -> int -> int -> unit

(** Increment own component and return the new value. *)
val tick : t -> me:int -> int

(** Componentwise maximum, returned as a fresh vector. *)
val join : t -> t -> t

(** Update [t] in place to the join of [t] and [other]. *)
val join_in_place : t -> t -> unit

(** [dominates a b] iff every component of [a] is [>=] the corresponding
    component of [b]. *)
val dominates : t -> t -> bool

val equal : t -> t -> bool

(** Sum of components — a linear extension of the dominance partial order,
    used to apply causally ordered diffs in a safe total order. *)
val sum : t -> int

(** Wire bytes per component.  Components are interval indices, which are
    unbounded ints in long runs; two bytes (the paper's historical choice)
    silently under-accounts, so the cost model spends four. *)
val entry_bytes : int

(** Wire size: [entry_bytes] per node. *)
val size_bytes : t -> int

val pp : Format.formatter -> t -> unit
