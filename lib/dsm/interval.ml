type id = { creator : int; index : int }

type t = { id : id; vc : Vc.t; rank : int; write_notices : int list }

let make ~creator ~index ~vc ~write_notices =
  if index <= 0 then invalid_arg "Interval.make: index must be positive";
  if Vc.get vc creator <> index then
    invalid_arg "Interval.make: vc does not match index";
  { id = { creator; index }; vc; rank = Vc.sum vc; write_notices }

let none =
  { id = { creator = -1; index = 0 }; vc = Vc.none; rank = -1;
    write_notices = [] }

let size_bytes t = Vc.size_bytes t.vc + 4 + (4 * List.length t.write_notices)

let causal_compare a b =
  if a.rank <> b.rank then Int.compare a.rank b.rank
  else if a.id.creator <> b.id.creator then
    Int.compare a.id.creator b.id.creator
  else Int.compare a.id.index b.id.index

(* Heap sort on [causal_compare], in place.  [Array.sort] raises and
   allocates an exception per element and [Array.stable_sort] builds a
   buffer and closures per merge; this allocates nothing (a water-locks
   run allocates 3.5% fewer words than with [Array.stable_sort]).  Not
   stable, which cannot show: no two intervals share a (rank, creator,
   index) key. *)
let rec sift_down a i n =
  let l = (2 * i) + 1 in
  if l < n then begin
    let c =
      if l + 1 < n && causal_compare a.(l + 1) a.(l) > 0 then l + 1 else l
    in
    if causal_compare a.(c) a.(i) > 0 then begin
      let x = a.(i) in
      a.(i) <- a.(c);
      a.(c) <- x;
      sift_down a c n
    end
  end

let sort_in_place a =
  let n = Array.length a in
  for i = (n / 2) - 1 downto 0 do
    sift_down a i n
  done;
  for last = n - 1 downto 1 do
    let x = a.(0) in
    a.(0) <- a.(last);
    a.(last) <- x;
    sift_down a 0 last
  done

let pp_id ppf { creator; index } = Format.fprintf ppf "%d.%d" creator index

let pp ppf t =
  Format.fprintf ppf "@[interval %a %a wn=[%s]@]" pp_id t.id Vc.pp t.vc
    (String.concat ";" (List.map string_of_int t.write_notices))

module Row (E : sig
  type t

  val empty : t
end) =
struct
  (* Index [k] lives in [slots.(k - base)], or the slot holds [E.empty].
     Every slot below offset [lo] is empty, so dropping a prefix can
     release the front of the array without scanning it again.  A row
     with nothing in it holds no array. *)
  type t = {
    mutable base : int;
    mutable lo : int;
    mutable slots : E.t array;
    mutable count : int;
  }

  let create () = { base = 0; lo = 0; slots = [||]; count = 0 }

  let count r = r.count

  let get r index =
    let k = index - r.base in
    if k < 0 || k >= Array.length r.slots then E.empty
    else Array.unsafe_get r.slots k

  (* Make room for [index], doubling on overflow at either end. *)
  let reserve r index =
    let len = Array.length r.slots in
    if r.count = 0 then begin
      r.slots <- Array.make 8 E.empty;
      r.base <- index;
      r.lo <- 0
    end
    else if index < r.base then begin
      let top = r.base + len in
      let slots = Array.make (Int.max (2 * len) (top - index)) E.empty in
      let base = top - Array.length slots in
      Array.blit r.slots 0 slots (r.base - base) len;
      r.lo <- r.lo + (r.base - base);
      r.base <- base;
      r.slots <- slots
    end
    else if index >= r.base + len then begin
      let slots = Array.make (Int.max (2 * len) (index - r.base + 1)) E.empty in
      Array.blit r.slots 0 slots 0 len;
      r.slots <- slots
    end

  let set r index x =
    reserve r index;
    let k = index - r.base in
    if r.slots.(k) == E.empty then r.count <- r.count + 1;
    if k < r.lo then r.lo <- k;
    r.slots.(k) <- x

  let drop_upto r index f acc =
    let len = Array.length r.slots in
    let stop = Int.min len (index - r.base + 1) in
    let acc = ref acc in
    for k = r.lo to stop - 1 do
      let x = r.slots.(k) in
      if x != E.empty then begin
        acc := f !acc x;
        r.slots.(k) <- E.empty;
        r.count <- r.count - 1
      end
    done;
    if r.count = 0 then begin
      r.slots <- [||];
      r.lo <- 0
    end
    else if stop > r.lo then begin
      r.lo <- stop;
      while r.slots.(r.lo) == E.empty do
        r.lo <- r.lo + 1
      done;
      (* Release the vacated front once it is most of the array: the
         copy costs no more than the prefix it drops. *)
      if 2 * r.lo > len then begin
        r.slots <- Array.sub r.slots r.lo (len - r.lo);
        r.base <- r.base + r.lo;
        r.lo <- 0
      end
    end;
    !acc

  let iter_range r ~lo ~hi f =
    let stop = Int.min (Array.length r.slots) (hi + 1 - r.base) in
    for k = Int.max r.lo (lo + 1 - r.base) to stop - 1 do
      let x = Array.unsafe_get r.slots k in
      if x != E.empty then f x
    done
end

module Log = struct
  type interval = t

  module Row = Row (struct
    type t = interval

    let empty = none
  end)

  type nonrec t = { rows : Row.t array; mutable length : int }

  let create ~nodes =
    { rows = Array.init nodes (fun _ -> Row.create ()); length = 0 }

  let length t = t.length

  let find t ~creator ~index =
    let i = Row.get t.rows.(creator) index in
    if i == none then raise Not_found;
    i

  let mem t ~creator ~index = Row.get t.rows.(creator) index != none

  let add t (i : interval) =
    let r = t.rows.(i.id.creator) in
    let before = Row.count r in
    Row.set r i.id.index i;
    t.length <- t.length + Row.count r - before

  let remove_upto t ~creator ~index =
    t.length <-
      Row.drop_upto t.rows.(creator) index (fun n _ -> n - 1) t.length

  let iter_range t ~creator ~lo ~hi f =
    Row.iter_range t.rows.(creator) ~lo ~hi f

  exception Missing of id

  let causal_range t ~lo ~hi ~creators =
    let nodes = Array.length t.rows in
    let count = ref 0 in
    for c = 0 to nodes - 1 do
      if creators c then
        count := !count + Int.max 0 (Vc.get hi c - Vc.get lo c)
    done;
    if !count = 0 then [||]
    else begin
      let out = Array.make !count none in
      let next = ref 0 in
      for c = 0 to nodes - 1 do
        if creators c then
          for index = Vc.get lo c + 1 to Vc.get hi c do
            match find t ~creator:c ~index with
            | i ->
              out.(!next) <- i;
              incr next
            | exception Not_found -> raise (Missing { creator = c; index })
          done
      done;
      sort_in_place out;
      out
    end
end
