(** Deterministic splittable pseudo-random generator (SplitMix64).

    The simulator never touches [Random]; every source of randomness is an
    explicit [Rng.t] seeded from the experiment configuration so that runs
    are reproducible bit-for-bit. *)

type t

val create : seed:int -> t

(** Independent child stream; deterministic function of the parent state. *)
val split : t -> t

(** Uniform in [\[0, 2^62)]. *)
val bits : t -> int

(** [int t bound] is uniform in [\[0, bound)]. [bound] must be positive. *)
val int : t -> int -> int

(** Uniform in [\[0.0, 1.0)]. *)
val float : t -> float

(** Bernoulli draw with probability [p]. *)
val flip : t -> p:float -> bool
