(** Address-space layout (paper §4.1).

    Applications see three disjoint regions:
    - a {e private} region, per node, used for node-local data;
    - a {e non-coherent shared} region: one mapping shared by all nodes
      (single address map, no consistency maintenance) — used for thread
      control blocks, message rendezvous structures, and the like;
    - a {e coherent shared} region kept consistent by the message-driven
      coherency mechanism, divided into pages.

    Addresses are plain integers; the layout places each region at a fixed
    base so that a pointer stored in shared memory means the same thing on
    every node. *)

type t

type location =
  | Private of int (* offset within the private region *)
  | Noncoherent of int (* offset within the non-coherent shared region *)
  | Coherent of { page : int; offset : int }

(** [create ~page_size ~private_bytes ~noncoherent_bytes ~coherent_pages] *)
val create :
  ?page_size:int ->
  private_bytes:int ->
  noncoherent_bytes:int ->
  coherent_pages:int ->
  unit ->
  t

val page_size : t -> int

val coherent_pages : t -> int

val private_bytes : t -> int

val noncoherent_bytes : t -> int

(** Base addresses of the three regions. *)
val private_base : t -> int

val noncoherent_base : t -> int

val coherent_base : t -> int

(** Classify an address.  Raises [Invalid_argument] for an address outside
    every region (a "segmentation violation"). *)
val locate : t -> int -> location

(** Address of the first byte of coherent page [page]. *)
val coherent_addr : t -> page:int -> offset:int -> int
