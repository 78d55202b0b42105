(* An LRC node's diffs by page and interval id.  See diff_store.mli. *)

module Diff = Carlos_vm.Diff
module Itbl = Hashtbl.Make (Int)

type t = {
  nodes : int;
  pages : int;
  diffs : Diff.t list Itbl.t; (* newest first *)
  mutable bytes : int;
}

let create ~nodes ~pages = { nodes; pages; diffs = Itbl.create 256; bytes = 0 }

let key t ~page (id : Interval.id) =
  (((id.Interval.index * t.nodes) + id.Interval.creator) * t.pages) + page

let add t ~page id diff =
  let key = key t ~page id in
  let existing = Option.value ~default:[] (Itbl.find_opt t.diffs key) in
  Itbl.replace t.diffs key (diff :: existing);
  t.bytes <- t.bytes + Diff.size_bytes diff

let find t ~page id =
  match Itbl.find t.diffs (key t ~page id) with
  | ds -> Some (List.rev ds)
  | exception Not_found -> None

let discard_upto t snapshot =
  Itbl.filter_map_inplace
    (fun key ds ->
      let creator = key / t.pages mod t.nodes
      and index = key / (t.pages * t.nodes) in
      if index > Vc.get snapshot creator then Some ds
      else begin
        List.iter (fun d -> t.bytes <- t.bytes - Diff.size_bytes d) ds;
        None
      end)
    t.diffs

let bytes_stored t = t.bytes
