(* Sorted free list of (addr, size) blocks, first fit.  Blocks are never
   returned: the list holds the unallocated tail and the alignment padding
   that earlier aligned blocks left behind. *)
type t = { mutable free_list : (int * int) list }

let create ~base ~size =
  if size <= 0 then invalid_arg "Alloc.create: size";
  { free_list = [ (base, size) ] }

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
        start
      end
      else find ((addr, size) :: before) rest
  in
  find [] t.free_list
