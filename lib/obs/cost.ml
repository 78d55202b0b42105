(* Wire-byte taxonomy: every byte that crosses the simulated wire is
   attributed to exactly one protocol component, so per-component O(n)
   growth curves can be measured directly (scaling report, DESIGN.md §11).

   Conservation invariant (checked by the auditor and by bench gate rows):

     sum over components = medium.bytes + datagram.dropped_bytes

   Attribution happens at three layers:
   - lib/carlos/node.ml bills each message part by part — the active
     message header ([Am_header]), the sender VC ([Vc_entries]), the
     piggyback (split by [Backend_intf.S.piggyback_cost]) and the payload
     (the sender's declared [component], [App_payload] by default) — and
     the message's wire size is the sum of those parts;
   - lib/net/sliding_window.ml bills ack frames to [Ack] and head-of-line
     retransmissions to [Retransmit];
   - lib/net/datagram.ml bills the per-frame Eth+IP+UDP header (42 bytes,
     dropped frames included) to [Frame_header] and accumulates the full
     size of dropped frames in the datagram.dropped_bytes counter so the
     equation stays exact under loss. *)

type component =
  | Vc_entries
  | Write_notices
  | Diff_payload
  | Ack
  | Lock_proto
  | Barrier_proto
  | Gc_proto
  | App_payload
  | Am_header
  | Frame_header
  | Retransmit

let all =
  [
    Vc_entries; Write_notices; Diff_payload; Ack; Lock_proto; Barrier_proto;
    Gc_proto; App_payload; Am_header; Frame_header; Retransmit;
  ]

let count = List.length all

let index = function
  | Vc_entries -> 0
  | Write_notices -> 1
  | Diff_payload -> 2
  | Ack -> 3
  | Lock_proto -> 4
  | Barrier_proto -> 5
  | Gc_proto -> 6
  | App_payload -> 7
  | Am_header -> 8
  | Frame_header -> 9
  | Retransmit -> 10

let name = function
  | Vc_entries -> "vc_entries"
  | Write_notices -> "write_notices"
  | Diff_payload -> "diff_payload"
  | Ack -> "ack"
  | Lock_proto -> "lock_proto"
  | Barrier_proto -> "barrier_proto"
  | Gc_proto -> "gc_proto"
  | App_payload -> "app_payload"
  | Am_header -> "am_header"
  | Frame_header -> "frame_header"
  | Retransmit -> "retransmit"

let counter_name c = "cost." ^ name c

type t = { counters : Obs.counter array }

(* Registration is idempotent (Obs registry semantics), so each layer that
   attributes bytes creates its own handle over the same counters. *)
let create obs =
  {
    counters =
      Array.of_list
        (List.map
           (fun c ->
             Obs.counter obs ~node:Obs.global_node ~layer:Obs.Net
               (counter_name c))
           all);
  }

let add t c n = if n <> 0 then Obs.add t.counters.(index c) n

let read obs c =
  Obs.counter_value obs ~node:Obs.global_node ~layer:Obs.Net (counter_name c)

let total obs = List.fold_left (fun acc c -> acc + read obs c) 0 all

let breakdown obs = List.map (fun c -> (c, read obs c)) all

(* Both sides of the conservation equation, from the registry. *)
let wire_total obs =
  Obs.counter_value obs ~node:Obs.global_node ~layer:Obs.Net "medium.bytes"
  + Obs.counter_value obs ~node:Obs.global_node ~layer:Obs.Net
      "datagram.dropped_bytes"

let conserved obs = total obs = wire_total obs
