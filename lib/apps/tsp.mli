(** The Traveling Salesman Problem application (paper §5.1).

    Branch-and-bound search for the shortest tour through [cities] cities.
    Node 0 expands the search tree to [prefix_depth] and publishes one
    descriptor per live prefix; workers take prefixes and solve them by
    depth-first branch-and-bound, sharing the global best bound.

    Variants:
    - [Lock]: the work pool is a shared stack in coherent memory protected
      by a lock; the bound is updated under a second lock (the original
      "strictly shared memory" program).
    - [Hybrid]: the work pool is the centralized message queue (dequeue
      [REQUEST] / reply [RELEASE]); a better bound is posted to the master
      in a [REQUEST], the master writes it to shared memory and replies
      with a [RELEASE] (coherent shared memory still distributes the
      bound and the tour descriptors).
    - [Hybrid_all_release]: the hybrid with every queue/bound message
      marked [RELEASE] (the §5.4 ablation). *)

type variant = Lock | Hybrid | Hybrid_all_release

val variant_name : variant -> string

type params = {
  cities : int;
  seed : int;
  prefix_depth : int; (* descriptors fix at most this many cities *)
  expand_frac : float;
      (* prefixes are split further only while shorter than this fraction
         of the initial bound (adaptive task grain) *)
  visit_cost : float; (* virtual seconds per search-tree node *)
  bound_check_period : int; (* re-read the global bound every k visits *)
}

(** 19 cities, as in the paper. *)
val default_params : params

type result = {
  best : int; (* tour length found (scaled integer distance) *)
  visited : int; (* search-tree nodes expanded, all nodes *)
  report : Carlos.System.report;
}

(** Sequential reference solution (no simulator), for verification. *)
val solve_reference : params -> int

(** Run on a fresh system.  The result's [best] must equal
    [solve_reference params]. *)
val run : Carlos.System.t -> variant -> params -> result
