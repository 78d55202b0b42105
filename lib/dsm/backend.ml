type kind = Lrc | Central | Seq

let kind_of_string = function
  | "lrc" -> Ok Lrc
  | "central" -> Ok Central
  | "seq" -> Ok Seq
  | s -> Error (Printf.sprintf "unknown backend %S (expected lrc|central|seq)" s)

let kind_to_string = function Lrc -> "lrc" | Central -> "central" | Seq -> "seq"

let all_kinds = [ Lrc; Central; Seq ]

(* Conformance checks: each model must satisfy the backend signature. *)
module _ : Backend_intf.S = Lrc_backend
module _ : Backend_intf.S = Central_backend
module _ : Backend_intf.S = Seq_backend

type t =
  | Lrc_b of Lrc_backend.t
  | Central_b of Central_backend.t
  | Seq_b of Seq_backend.t

type piggyback =
  | Lrc_pb of Lrc_backend.piggyback
  | Central_pb of Central_backend.piggyback
  | Seq_pb of Seq_backend.piggyback

let vc = function
  | Lrc_b b -> Lrc_backend.vc b
  | Central_b b -> Central_backend.vc b
  | Seq_b b -> Seq_backend.vc b

let make_piggyback t ~receiver ~nontransitive =
  match t with
  | Lrc_b b -> Lrc_pb (Lrc_backend.make_piggyback b ~receiver ~nontransitive)
  | Central_b b ->
    Central_pb (Central_backend.make_piggyback b ~receiver ~nontransitive)
  | Seq_b b -> Seq_pb (Seq_backend.make_piggyback b ~receiver ~nontransitive)

let wrong_model () =
  invalid_arg "Backend.accept: piggyback from a different consistency model"

let accept t pbs =
  match t with
  | Lrc_b b ->
    Lrc_backend.accept b
      (List.map (function Lrc_pb pb -> pb | _ -> wrong_model ()) pbs)
  | Central_b b ->
    Central_backend.accept b
      (List.map (function Central_pb pb -> pb | _ -> wrong_model ()) pbs)
  | Seq_b b ->
    Seq_backend.accept b
      (List.map (function Seq_pb pb -> pb | _ -> wrong_model ()) pbs)

let piggyback_cost = function
  | Lrc_pb pb -> Lrc_backend.piggyback_cost pb
  | Central_pb pb -> Central_backend.piggyback_cost pb
  | Seq_pb pb -> Seq_backend.piggyback_cost pb

let request_vc = function
  | Lrc_b b -> Lrc_backend.request_vc b
  | Central_b b -> Central_backend.request_vc b
  | Seq_b b -> Seq_backend.request_vc b

let note_peer_vc t ~peer vc =
  match t with
  | Lrc_b b -> Lrc_backend.note_peer_vc b ~peer vc
  | Central_b b -> Central_backend.note_peer_vc b ~peer vc
  | Seq_b b -> Seq_backend.note_peer_vc b ~peer vc

let metadata_pressure = function
  | Lrc_b b -> Lrc_backend.metadata_pressure b
  | Central_b b -> Central_backend.metadata_pressure b
  | Seq_b b -> Seq_backend.metadata_pressure b

let data_fetches = function
  | Lrc_b b -> Lrc_backend.data_fetches b
  | Central_b b -> Central_backend.data_fetches b
  | Seq_b b -> Seq_backend.data_fetches b
