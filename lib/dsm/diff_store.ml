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

(* One creator's intervals, laid out as [Interval.Log]'s rows: index [k]
   lives in [slots.(k - base)] ([empty_slot] when it has no pieces), and
   every slot below offset [lo] is empty, so discarding a prefix
   releases the front without scanning it again. *)
type row = {
  mutable base : int;
  mutable lo : int;
  mutable slots : slot array;
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
  if k < 0 || k >= Array.length r.slots then empty_slot
  else Array.unsafe_get r.slots k

let entry_of page slot =
  let cells = slot.cells in
  Array.unsafe_get cells (probe cells page)

let find t ~page (id : Interval.id) =
  let e =
    entry_of page (slot_of t.rows.(id.Interval.creator) id.Interval.index)
  in
  if e == no_entry then None else Some (List.rev e.pieces)

let mem t ~page (id : Interval.id) =
  entry_of page (slot_of t.rows.(id.Interval.creator) id.Interval.index)
  != no_entry

(* Make room for [index] in row [r], doubling on overflow. *)
let reserve r index =
  let len = Array.length r.slots in
  if r.count = 0 then begin
    r.slots <- Array.make 8 empty_slot;
    r.base <- index;
    r.lo <- 0
  end
  else if index < r.base then begin
    let top = r.base + len in
    let slots = Array.make (Int.max (2 * len) (top - index)) empty_slot in
    let base = top - Array.length slots in
    Array.blit r.slots 0 slots (r.base - base) len;
    r.lo <- r.lo + (r.base - base);
    r.base <- base;
    r.slots <- slots
  end
  else if index >= r.base + len then begin
    let slots =
      Array.make (Int.max (2 * len) (index - r.base + 1)) empty_slot
    in
    Array.blit r.slots 0 slots 0 len;
    r.slots <- slots
  end

(* The entry of [page] under [id], made if there is none. *)
let entry t ~page (id : Interval.id) =
  let r = t.rows.(id.Interval.creator) in
  let index = id.Interval.index in
  let found = entry_of page (slot_of r index) in
  if found != no_entry then found
  else begin
    reserve r index;
    let k = index - r.base in
    let slot = r.slots.(k) in
    if k < r.lo then r.lo <- k;
    let slot =
      if slot.used > 0 then slot
      else begin
        r.count <- r.count + 1;
        let fresh = { used = 0; cells = Array.make 2 no_entry } in
        r.slots.(k) <- fresh;
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

let replace t ~page id ds =
  let e = entry t ~page id in
  t.bytes <- t.bytes - pieces_bytes 0 e.pieces + pieces_bytes 0 ds;
  e.pieces <- List.rev ds

let slot_bytes slot =
  Array.fold_left (fun acc e -> pieces_bytes acc e.pieces) 0 slot.cells

(* Empty the slots of [r] up to [index]. *)
let discard_row t r index =
  let len = Array.length r.slots in
  let stop = Int.min len (index - r.base + 1) in
  for k = r.lo to stop - 1 do
    let slot = r.slots.(k) in
    if slot.used > 0 then begin
      t.bytes <- t.bytes - slot_bytes slot;
      r.slots.(k) <- empty_slot;
      r.count <- r.count - 1
    end
  done;
  if r.count = 0 then begin
    r.slots <- [||];
    r.lo <- 0
  end
  else if stop > r.lo then begin
    r.lo <- stop;
    while r.slots.(r.lo).used = 0 do
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
