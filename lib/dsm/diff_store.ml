(* An LRC node's diffs by interval id and page.  See diff_store.mli. *)

module Diff = Carlos_vm.Diff

(* One page's pieces under one id, newest first. *)
type entry = { page : int; mutable pieces : Diff.t list }

(* One creator's intervals, laid out as [Interval.Log]'s rows: index [k]
   lives in [slots.(k - base)], the entries of the pages it has pieces
   for ([[]] when none), and every slot below offset [lo] is empty, so
   discarding a prefix releases the front without scanning it again. *)
type row = {
  mutable base : int;
  mutable lo : int;
  mutable slots : entry list array;
  mutable count : int; (* non-empty slots *)
}

type t = { rows : row array; mutable bytes : int }

let create ~nodes =
  {
    rows = Array.init nodes (fun _ -> { base = 0; lo = 0; slots = [||]; count = 0 });
    bytes = 0;
  }

let slot_of r index =
  let k = index - r.base in
  if k < 0 || k >= Array.length r.slots then [] else Array.unsafe_get r.slots k

let rec entry_of page = function
  | [] -> None
  | e :: rest -> if e.page = page then Some e else entry_of page rest

let find t ~page (id : Interval.id) =
  match
    entry_of page (slot_of t.rows.(id.Interval.creator) id.Interval.index)
  with
  | Some e -> Some (List.rev e.pieces)
  | None -> None

let mem t ~page (id : Interval.id) =
  match
    entry_of page (slot_of t.rows.(id.Interval.creator) id.Interval.index)
  with
  | Some _ -> true
  | None -> false

(* Make room for [index] in row [r], doubling on overflow. *)
let reserve r index =
  let len = Array.length r.slots in
  if r.count = 0 then begin
    r.slots <- Array.make 8 [];
    r.base <- index;
    r.lo <- 0
  end
  else if index < r.base then begin
    let top = r.base + len in
    let slots = Array.make (Int.max (2 * len) (top - index)) [] in
    let base = top - Array.length slots in
    Array.blit r.slots 0 slots (r.base - base) len;
    r.lo <- r.lo + (r.base - base);
    r.base <- base;
    r.slots <- slots
  end
  else if index >= r.base + len then begin
    let slots = Array.make (Int.max (2 * len) (index - r.base + 1)) [] in
    Array.blit r.slots 0 slots 0 len;
    r.slots <- slots
  end

(* The entry of [page] under [id], made if there is none. *)
let entry t ~page (id : Interval.id) =
  let r = t.rows.(id.Interval.creator) in
  let index = id.Interval.index in
  match entry_of page (slot_of r index) with
  | Some e -> e
  | None ->
    reserve r index;
    let k = index - r.base in
    let slot = r.slots.(k) in
    (match slot with [] -> r.count <- r.count + 1 | _ :: _ -> ());
    if k < r.lo then r.lo <- k;
    let e = { page; pieces = [] } in
    r.slots.(k) <- e :: slot;
    e

let rec pieces_bytes acc = function
  | [] -> acc
  | d :: ds -> pieces_bytes (acc + Diff.size_bytes d) ds

let add t ~page id diff =
  let e = entry t ~page id in
  e.pieces <- diff :: e.pieces;
  t.bytes <- t.bytes + Diff.size_bytes diff

let replace t ~page id ds =
  let e = entry t ~page id in
  t.bytes <- t.bytes - pieces_bytes 0 e.pieces + pieces_bytes 0 ds;
  e.pieces <- List.rev ds

let rec slot_bytes acc = function
  | [] -> acc
  | e :: rest -> slot_bytes (pieces_bytes acc e.pieces) rest

(* Empty the slots of [r] up to [index]. *)
let discard_row t r index =
  let len = Array.length r.slots in
  let stop = Int.min len (index - r.base + 1) in
  for k = r.lo to stop - 1 do
    match r.slots.(k) with
    | [] -> ()
    | slot ->
      t.bytes <- t.bytes - slot_bytes 0 slot;
      r.slots.(k) <- [];
      r.count <- r.count - 1
  done;
  if r.count = 0 then begin
    r.slots <- [||];
    r.lo <- 0
  end
  else if stop > r.lo then begin
    r.lo <- stop;
    while match r.slots.(r.lo) with [] -> true | _ :: _ -> false do
      r.lo <- r.lo + 1
    done;
    (* Release the vacated front once it is most of the array: the copy
       costs no more than the prefix it drops. *)
    if 2 * r.lo > len then begin
      r.slots <- Array.sub r.slots r.lo (len - r.lo);
      r.base <- r.base + r.lo;
      r.lo <- 0
    end
  end

let discard_upto t snapshot =
  Array.iteri (fun c r -> discard_row t r (Vc.get snapshot c)) t.rows

let bytes_stored t = t.bytes
