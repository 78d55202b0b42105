(** One node's view of the CarlOS address space, with typed accessors.

    Every access to the coherent region consults the node's page table and
    takes simulated protection faults, which is where the consistency
    protocol hooks in.  Multi-byte accessors require natural alignment so
    that no access straddles a page boundary.

    The non-coherent shared region is backed by a single byte array shared
    by every node view: address mappings are consistent but no coherency is
    maintained — exactly the paper's §4.1 middle region.

    The private segment is allocated on its first access; until then a
    view holds no private memory. *)

type t

(** [create ?obs ?node ?twin_pool ~region ~noncoherent ()] builds a node
    view.  [noncoherent] is the backing store shared between all views of
    one cluster, and so is [twin_pool] (a fresh private pool by default);
    [obs]/[node] locate the page table's fault counters in the
    observability registry. *)
val create :
  ?obs:Carlos_obs.Obs.t ->
  ?node:int ->
  ?twin_pool:Page.twin_pool ->
  region:Region.t ->
  noncoherent:Bytes.t ->
  unit ->
  t

val page_table : t -> Page_table.t

(** {1 Byte accessors} *)

val read_u8 : t -> int -> int

val write_u8 : t -> int -> int -> unit

(** {1 32-bit integers} (4-byte aligned; values must fit in int32) *)

val read_i32 : t -> int -> int

val write_i32 : t -> int -> int -> unit

(** {1 64-bit integers} (8-byte aligned) *)

val read_i64 : t -> int -> int

val write_i64 : t -> int -> int -> unit

(** {1 Floats} (8-byte aligned IEEE doubles) *)

(** [read_f64_into t addr dst i] stores the double at [addr] in
    [dst.(i)].  A float returned across the module boundary would be
    boxed, one allocation per read; this stores it unboxed. *)
val read_f64_into : t -> int -> float array -> int -> unit

val write_f64 : t -> int -> float -> unit

(** {1 Bulk access} (must not cross a page boundary in the coherent
    region) *)

val write_bytes : t -> int -> Bytes.t -> unit
