(* Sorted free list of (addr, size) blocks, first-fit with coalescing. *)
type t = {
  base : int;
  size : int;
  mutable free_list : (int * int) list;
  mutable live : int;
}

let create ~base ~size =
  if size <= 0 then invalid_arg "Alloc.create: size";
  { base; size; free_list = [ (base, size) ]; live = 0 }

let align_up addr align = (addr + align - 1) / align * align

let alloc t ?(align = 8) n =
  if n <= 0 then invalid_arg "Alloc.alloc: size must be positive";
  if align <= 0 || align land (align - 1) <> 0 then
    invalid_arg "Alloc.alloc: alignment must be a positive power of two";
  (* First fit: find a free block that can hold an aligned sub-block of n
     bytes; split off the leading pad and the trailing remainder. *)
  let rec find before = function
    | [] -> raise Out_of_memory
    | (addr, size) :: rest ->
      let start = align_up addr align in
      let pad = start - addr in
      if pad + n <= size then begin
        let pieces =
          (if pad > 0 then [ (addr, pad) ] else [])
          @
          if size - pad - n > 0 then [ (start + n, size - pad - n) ] else []
        in
        t.free_list <- List.rev_append before (pieces @ rest);
        t.live <- t.live + n;
        start
      end
      else find ((addr, size) :: before) rest
  in
  find [] t.free_list

let free t ~addr ~size =
  if size <= 0 then invalid_arg "Alloc.free: size";
  if addr < t.base || addr + size > t.base + t.size then
    invalid_arg "Alloc.free: block outside region";
  (* Insert in address order, then coalesce neighbours. *)
  let rec insert = function
    | [] -> [ (addr, size) ]
    | (a, s) :: rest when addr < a -> (addr, size) :: (a, s) :: rest
    | block :: rest -> block :: insert rest
  in
  let rec coalesce = function
    | (a1, s1) :: (a2, s2) :: rest when a1 + s1 = a2 ->
      coalesce ((a1, s1 + s2) :: rest)
    | (a1, s1) :: (a2, _) :: _ when a1 + s1 > a2 ->
      invalid_arg "Alloc.free: overlapping free (double free?)"
    | block :: rest -> block :: coalesce rest
    | [] -> []
  in
  t.free_list <- coalesce (insert t.free_list);
  t.live <- t.live - size

let live_bytes t = t.live
