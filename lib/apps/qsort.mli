(** The Quicksort application (paper §5.2).

    Sorts an array of 256K integers living in coherent shared memory.
    Workers take subarray descriptors from a shared pool; a subarray larger
    than the threshold is partitioned, the smaller half is pushed back to
    the pool and the larger half kept; subarrays at or below the threshold
    are sorted locally (the paper uses Bubblesort — we run a fast native
    sort over the same shared-memory accesses and charge Bubblesort's
    quadratic cost in virtual time).  When everything is sorted, a barrier
    collects the sorted subarrays at node 0.

    Variants (paper Table 2):
    - [Lock]: shared work stack in coherent memory under a lock.
    - [Hybrid1]: non-migrating work queue at a manager that also sorts;
      enqueues are stored RELEASE messages forwarded to dequeuers.
    - [Hybrid2]: all queue messages marked RELEASE.
    - [Hybrid_nf]: the forwarding mechanism disabled (the manager accepts
      enqueues); the paper reports performance "nearly identical" to
      Hybrid-2. *)

type variant = Lock | Hybrid1 | Hybrid2 | Hybrid_nf

val variant_name : variant -> string

type params = {
  elements : int; (* 256 * 1024 in the paper *)
  threshold : int; (* 1K: below this, sort locally *)
  seed : int;
  compare_cost : float; (* virtual seconds per comparison/move *)
  partition_cost : float; (* virtual seconds per element partitioned *)
}

val default_params : params

type result = {
  sorted : bool; (* verified by node 0 after the final barrier *)
  leaves : int; (* locally sorted subarrays *)
  report : Carlos.System.report;
}

val run : Carlos.System.t -> variant -> params -> result

(** [sort_ints a n] sorts [a.(0 .. n - 1)] ascending in place: the
    host-side sort of each leaf.  Once its per-domain scratch has grown
    to [n] it allocates nothing.  Raises [Invalid_argument] unless
    [0 <= n <= Array.length a]. *)
val sort_ints : int array -> int -> unit

(** Empties the calling domain's sort scratch (see {!Carlos_vm.Diff.reset_scratch}). *)
val reset_scratch : unit -> unit

(** A system configuration sized for this application (coherent region
    large enough for the array). *)
val config : ?nodes:int -> params -> Carlos.System.config
