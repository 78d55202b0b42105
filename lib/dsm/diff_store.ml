(* An LRC node's diffs by interval id and page.  See diff_store.mli. *)

module Diff = Carlos_vm.Diff

(* One page's pieces under one id, newest first. *)
type entry = { page : int; mutable pieces : Diff.t list }

(* Returned by a lookup for a page without pieces, so it allocates no
   option; it also marks an unused cell below. *)
let no_entry = { page = -1; pieces = [] }

(* One id's entries, an open-addressed table by page: [cells] has a
   power-of-two length, at most half of it in use, each unused cell holds
   [no_entry], and a page probes upward (wrapping) from its hash, so a
   lookup does not walk every page of a large interval.  [empty_slot],
   shared by every id without pieces, is never written. *)
type slot = { mutable used : int; mutable cells : entry array }

let empty_slot = { used = 0; cells = [| no_entry |] }

(* The cell holding [page]'s entry, or the unused cell that ends its
   probe.  A Fibonacci hash spreads pages written at a power-of-two
   stride. *)
let rec probe_from cells mask page i =
  let e = Array.unsafe_get cells i in
  if e == no_entry || e.page = page then i
  else probe_from cells mask page ((i + 1) land mask)

let probe cells page =
  let mask = Array.length cells - 1 in
  probe_from cells mask page (((page * 0x1E3779B97F4A7C15) lsr 29) land mask)

(* One row per creator, [empty_slot] in the slots of indices without
   pieces. *)
module Row = Interval.Row (struct
  type t = slot

  let empty = empty_slot
end)

type t = { rows : Row.t array; mutable bytes : int }

let create ~nodes =
  { rows = Array.init nodes (fun _ -> Row.create ()); bytes = 0 }

let entry_of page slot =
  let cells = slot.cells in
  Array.unsafe_get cells (probe cells page)

let lookup t ~page (id : Interval.id) =
  entry_of page (Row.get t.rows.(id.Interval.creator) id.Interval.index)

let find t ~page id =
  let e = lookup t ~page id in
  if e == no_entry then None else Some (List.rev e.pieces)

let mem t ~page id = lookup t ~page id != no_entry

(* The entry of [page] under [id], made if there is none. *)
let entry t ~page (id : Interval.id) =
  let r = t.rows.(id.Interval.creator) and index = id.Interval.index in
  let slot = Row.get r index in
  let found = entry_of page slot in
  if found != no_entry then found
  else begin
    let slot =
      if slot != empty_slot then slot
      else begin
        let fresh = { used = 0; cells = Array.make 2 no_entry } in
        Row.set r index fresh;
        fresh
      end
    in
    let len = Array.length slot.cells in
    if 2 * (slot.used + 1) > len then begin
      let cells = Array.make (2 * len) no_entry in
      for i = 0 to len - 1 do
        let e = slot.cells.(i) in
        if e != no_entry then cells.(probe cells e.page) <- e
      done;
      slot.cells <- cells
    end;
    let e = { page; pieces = [] } in
    slot.cells.(probe slot.cells page) <- e;
    slot.used <- slot.used + 1;
    e
  end

let rec pieces_bytes acc = function
  | [] -> acc
  | d :: ds -> pieces_bytes (acc + Diff.size_bytes d) ds

let add t ~page id diff =
  let e = entry t ~page id in
  e.pieces <- diff :: e.pieces;
  t.bytes <- t.bytes + Diff.size_bytes diff

let slot_bytes slot =
  Array.fold_left (fun acc e -> pieces_bytes acc e.pieces) 0 slot.cells

let discard_upto t ~creator ~index =
  t.bytes <-
    Row.drop_upto t.rows.(creator) index
      (fun bytes slot -> bytes - slot_bytes slot)
      t.bytes

let bytes_stored t = t.bytes
