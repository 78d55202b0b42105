(** The LRC serve side: answering diff, interval, page and base requests,
    and the requests that reach those answers through the peer channel.

    Owns the merged-diff cache and the base copies this node keeps for
    the metadata GC.  A server runs at interrupt level on the node that
    holds the data; a request function runs on the asking node.

    Yields: every request function blocks for its round trip, and the
    server may charge for its work.  Answering a diff request charges
    before it reads the diff store and again after each merge, before
    the merge enters the cache; a reset of the cache in that window
    loses only the memo.  [keep_base] and [discard] do not yield. *)

open Lrc_core

(** {1 Requests} *)

(** [fetch_diffs t ~dst request]: the diffs [request] names, from their
    creator [dst].  A multi-id entry may come back as one merged diff
    under its lowest id and empty lists for the rest. *)
val fetch_diffs : t -> dst:int -> diff_request -> diff_reply

(** [fetch_intervals t ~dst ~have]: every interval description [dst]
    logged above [have].  [dst] notes [have] as this node's clock. *)
val fetch_intervals : t -> dst:int -> have:Vc.t -> Interval.t list

(** [fetch_page t ~dst ~page]: [dst]'s clean copy of [page] with the
    clock it covers, or [None] when [dst]'s own copy is invalid. *)
val fetch_page : t -> dst:int -> page:int -> page_reply option

(** [fetch_base t ~dst ~page]: the base copy the keeper [dst] holds. *)
val fetch_base : t -> dst:int -> page:int -> page_reply

(** Wire bytes of diff entries: 8 per entry plus each physical diff
    once, each later reference to an already-billed diff costing a
    4-byte back-reference. *)
val diff_entries_bytes : diff_reply -> int

(** {1 Base copies} *)

(** Store [page]'s clean content as its base, with the coverage a served
    page would claim. *)
val keep_base : t -> int -> unit

(** Drop every merged-diff encoding, and every base whose page
    [keeps] rejects. *)
val discard : t -> keeps:(int -> bool) -> unit
