(* Flat 4-ary min-heap over parallel arrays.

   The event queue is the innermost data structure of the engine, so the
   layout is chosen for the mutator and the GC, not for elegance:

   - [times] is a plain [float array], which OCaml stores unboxed, so key
     comparisons never chase a pointer or allocate; [seqs] carries the
     deterministic tie-break; [values] carries the payload.  The previous
     representation boxed every entry as [Some {time; seq; value}] — two
     blocks plus a boxed float per event.
   - 4-ary rather than binary: half the tree depth for the same size, so
     fewer cache lines touched per sift; the wider child scan stays inside
     one or two lines of the parallel arrays.
   - Sifts move a hole instead of swapping, writing each slot once.

   Slots at or beyond [len] in [values] hold [dummy] so that popped
   entries — and the closures/continuations they capture — are released
   to the GC as soon as they leave the heap (the PR 8 leak fix, preserved
   here). *)

type 'a t = {
  mutable times : float array;
  mutable seqs : int array;
  mutable values : 'a array;
  mutable len : int;
  dummy : 'a;
}

let create ~dummy () =
  { times = [||]; seqs = [||]; values = [||]; len = 0; dummy }

let size h = h.len

let is_empty h = h.len = 0

let grow h =
  let cap = Array.length h.times in
  let cap' = if cap = 0 then 16 else cap * 2 in
  let times' = Array.make cap' 0.0 in
  let seqs' = Array.make cap' 0 in
  let values' = Array.make cap' h.dummy in
  Array.blit h.times 0 times' 0 h.len;
  Array.blit h.seqs 0 seqs' 0 h.len;
  Array.blit h.values 0 values' 0 h.len;
  h.times <- times';
  h.seqs <- seqs';
  h.values <- values'

let add h ~time ~seq value =
  if h.len = Array.length h.times then grow h;
  (* Sift the hole up from the new last slot. *)
  let i = ref h.len in
  h.len <- h.len + 1;
  let moving = ref true in
  while !moving && !i > 0 do
    let p = (!i - 1) / 4 in
    let pt = Array.unsafe_get h.times p in
    if time < pt || (time = pt && seq < Array.unsafe_get h.seqs p) then begin
      Array.unsafe_set h.times !i pt;
      Array.unsafe_set h.seqs !i (Array.unsafe_get h.seqs p);
      Array.unsafe_set h.values !i (Array.unsafe_get h.values p);
      i := p
    end
    else moving := false
  done;
  Array.unsafe_set h.times !i time;
  Array.unsafe_set h.seqs !i seq;
  Array.unsafe_set h.values !i value

let min_time h = if h.len = 0 then infinity else Array.unsafe_get h.times 0

let pop h =
  if h.len = 0 then invalid_arg "Heap.pop: empty";
  let v0 = Array.unsafe_get h.values 0 in
  let last = h.len - 1 in
  h.len <- last;
  if last = 0 then Array.unsafe_set h.values 0 h.dummy
  else begin
    (* Re-insert the former last entry by sifting a hole down from the
       root; the vacated slot is cleared so the value can be collected. *)
    let time = Array.unsafe_get h.times last in
    let seq = Array.unsafe_get h.seqs last in
    let value = Array.unsafe_get h.values last in
    Array.unsafe_set h.values last h.dummy;
    let i = ref 0 in
    let moving = ref true in
    while !moving do
      let c0 = (4 * !i) + 1 in
      if c0 >= last then moving := false
      else begin
        let m = ref c0 in
        let hi = if c0 + 3 < last - 1 then c0 + 3 else last - 1 in
        for c = c0 + 1 to hi do
          let ct = Array.unsafe_get h.times c in
          let mt = Array.unsafe_get h.times !m in
          if
            ct < mt
            || ct = mt && Array.unsafe_get h.seqs c < Array.unsafe_get h.seqs !m
          then m := c
        done;
        let mt = Array.unsafe_get h.times !m in
        if mt < time || (mt = time && Array.unsafe_get h.seqs !m < seq) then begin
          Array.unsafe_set h.times !i mt;
          Array.unsafe_set h.seqs !i (Array.unsafe_get h.seqs !m);
          Array.unsafe_set h.values !i (Array.unsafe_get h.values !m);
          i := !m
        end
        else moving := false
      end
    done;
    Array.unsafe_set h.times !i time;
    Array.unsafe_set h.seqs !i seq;
    Array.unsafe_set h.values !i value
  end;
  v0
