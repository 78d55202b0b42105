(** LRC piggyback construction and the keep/drop/discard metadata GC.

    Owns the GC's keeper table (the same on every node) and, for the
    update and hybrid strategies, what was already shipped eagerly to
    each peer.

    Yields, and what each holds across the yield:
    - [piggyback_for] closes the open interval first ({!Lrc_close}),
      which yields; it reads the peer clocks and builds the piggyback
      after that, without yielding;
    - [trim_for] charges its copy first, which yields; it reads the
      receiver's noted clock and the log and builds the copy after that,
      without yielding;
    - [gc_keep] fetches and validates the pages this node keeps
      ({!Lrc_fetch}); each base is stored right after its page is
      valid, without a yield in between;
    - [gc_drop] waits until no fetch is in flight, then drops without
      yielding.
    [discard_before] does not yield. *)

open Lrc_core

(** The consistency information for a RELEASE ([nontransitive:false]) or
    RELEASE_NT to [receiver]; see {!Lrc_backend.make_piggyback}. *)
val piggyback_for : t -> receiver:int -> nontransitive:bool -> piggyback

(** See {!Lrc_backend.trim_piggyback}. *)
val trim_for : t -> piggyback -> receiver:int -> piggyback

(** See {!Lrc_backend.elect_keepers}. *)
val elect_keepers : t -> Vc.t -> int list

(** See {!Lrc_backend.gc_keep}. *)
val gc_keep : t -> Vc.t -> unit

(** See {!Lrc_backend.gc_drop}. *)
val gc_drop : t -> Vc.t -> unit

(** See {!Lrc_backend.discard_before}. *)
val discard_before : t -> Vc.t -> unit
