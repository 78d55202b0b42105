type id = { creator : int; index : int }

type t = { id : id; vc : Vc.t; rank : int; write_notices : int list }

let make ~creator ~index ~vc ~write_notices =
  if index <= 0 then invalid_arg "Interval.make: index must be positive";
  if Vc.get vc creator <> index then
    invalid_arg "Interval.make: vc does not match index";
  { id = { creator; index }; vc; rank = Vc.sum vc; write_notices }

let size_bytes t = Vc.size_bytes t.vc + 4 + (4 * List.length t.write_notices)

let same_id (a : id) (b : id) = a.creator = b.creator && a.index = b.index

let rec mem_id id = function
  | [] -> false
  | x :: rest -> same_id x id || mem_id id rest

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

module Log = struct
  type interval = t

  (* One creator's intervals.  Index [k] lives in [slots.(k - base)], or
     the slot holds [vacant].  Every slot below offset [lo] is vacant, so
     removing a prefix (the metadata GC) can release the front of the
     array without scanning it again. *)
  type row = {
    mutable base : int;
    mutable lo : int;
    mutable slots : interval array;
    mutable count : int;
  }

  type nonrec t = { rows : row array; mutable length : int }

  (* Compared by physical equality only; never returned. *)
  let vacant =
    {
      id = { creator = -1; index = 0 };
      vc = Vc.zero ~nodes:1;
      rank = 0;
      write_notices = [];
    }

  let create ~nodes =
    {
      rows =
        Array.init nodes (fun _ ->
            { base = 0; lo = 0; slots = [||]; count = 0 });
      length = 0;
    }

  let length t = t.length

  let find t ~creator ~index =
    let r = t.rows.(creator) in
    let k = index - r.base in
    if k < 0 || k >= Array.length r.slots then raise Not_found;
    let i = Array.unsafe_get r.slots k in
    if i == vacant then raise Not_found;
    i

  let mem t ~creator ~index =
    match find t ~creator ~index with
    | _ -> true
    | exception Not_found -> false

  (* Make room for [index] in a non-empty row, doubling on overflow. *)
  let reserve r index =
    let len = Array.length r.slots in
    if index < r.base then begin
      let top = r.base + len in
      let slots = Array.make (max (2 * len) (top - index)) vacant in
      let base = top - Array.length slots in
      Array.blit r.slots 0 slots (r.base - base) len;
      r.lo <- r.lo + (r.base - base);
      r.base <- base;
      r.slots <- slots
    end
    else if index >= r.base + len then begin
      let slots = Array.make (max (2 * len) (index - r.base + 1)) vacant in
      Array.blit r.slots 0 slots 0 len;
      r.slots <- slots
    end

  let add t (i : interval) =
    let r = t.rows.(i.id.creator) in
    let index = i.id.index in
    if r.count = 0 then begin
      r.slots <- Array.make 8 vacant;
      r.base <- index;
      r.lo <- 0
    end
    else reserve r index;
    let k = index - r.base in
    if r.slots.(k) == vacant then begin
      r.count <- r.count + 1;
      t.length <- t.length + 1
    end;
    if k < r.lo then r.lo <- k;
    r.slots.(k) <- i

  let remove t ~creator ~index =
    let r = t.rows.(creator) in
    let k = index - r.base in
    if k >= 0 && k < Array.length r.slots && r.slots.(k) != vacant then begin
      r.slots.(k) <- vacant;
      r.count <- r.count - 1;
      t.length <- t.length - 1;
      let len = Array.length r.slots in
      if r.count = 0 then begin
        r.slots <- [||];
        r.lo <- 0
      end
      else if k = r.lo then begin
        while r.slots.(r.lo) == vacant do
          r.lo <- r.lo + 1
        done;
        (* Release the vacated front once it is most of the array: the
           copy costs no more than the removals that emptied it. *)
        if 2 * r.lo > len then begin
          r.slots <- Array.sub r.slots r.lo (len - r.lo);
          r.base <- r.base + r.lo;
          r.lo <- 0
        end
      end
    end

  exception Missing of id

  let causal_range t ~lo ~hi ~creators =
    let nodes = Array.length t.rows in
    let count = ref 0 in
    for c = 0 to nodes - 1 do
      if creators c then count := !count + max 0 (Vc.get hi c - Vc.get lo c)
    done;
    if !count = 0 then [||]
    else begin
      let out = Array.make !count vacant in
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

  let fold f t acc =
    let acc = ref acc in
    Array.iter
      (fun r ->
        for k = r.lo to Array.length r.slots - 1 do
          let i = r.slots.(k) in
          if i != vacant then acc := f i !acc
        done)
      t.rows;
    !acc
end
