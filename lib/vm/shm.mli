(** The coherent shared region (paper §4.1) as one node sees it, with
    typed accessors.  It is the whole address space: node-local data,
    threads and rendezvous state are OCaml values, not simulated memory.

    The region starts at the fixed address {!base} so that a pointer
    stored in shared memory means the same thing on every node, and is
    divided into pages.  Every access consults the node's page table and
    takes simulated protection faults, which is where the consistency
    protocol hooks in.  An address outside the region raises
    [Invalid_argument] (a segmentation violation).  Multi-byte accessors
    require natural alignment so that no access straddles a page
    boundary. *)

type t

(** Address of the region's first byte. *)
val base : int

(** [create ?obs ?node ?twin_pool ~page_size ~pages ()] builds a node
    view of a [pages]-page region.  [page_size] must be a positive power
    of two of at most 65,536 bytes ({!Diff.max_page_size}): a diff
    describes each run with two-byte descriptors.  [twin_pool] is shared
    between all views of one cluster (a fresh private pool by default);
    [obs]/[node] locate the page table's fault counters in the
    observability registry. *)
val create :
  ?obs:Carlos_obs.Obs.t ->
  ?node:int ->
  ?twin_pool:Page.twin_pool ->
  page_size:int ->
  pages:int ->
  unit ->
  t

val page_table : t -> Page_table.t

(** Address of byte [offset] of page [page]. *)
val addr : t -> page:int -> offset:int -> int

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

(** {1 Bulk access} (a span must not cross a page boundary) *)

(** Write [src] at an address without taking faults, into the live data
    and, when the page is write-enabled, its twin (see {!Page.patch}):
    input data every node would load from disk.  Raises
    [Invalid_argument] if the span crosses a page boundary. *)
val patch_bytes : t -> int -> Bytes.t -> unit
