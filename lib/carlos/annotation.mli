(** Memory-consistency annotations carried by every CarlOS user-level
    message (paper §2.1).

    - [Release]: synchronizing.  Sending is a release event; accepting is
      the matching acquire.  Everything visible at the sender before the
      send becomes visible at the receiver when it accepts.
    - [Release_nt]: non-transitive release; carries only consistency
      information about intervals created at the sending node.  Intended
      for global-barrier arrivals, where the manager merges all
      contributions.
    - [Request]: non-synchronizing, but piggybacks the sender's vector
      timestamp so that the RELEASE sent in response can be tailored
      precisely.
    - [None_]: non-synchronizing; does not interact with the consistency
      machinery at all. *)

type t = Release | Release_nt | Request | None_

val to_string : t -> string
