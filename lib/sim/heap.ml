(* Flat 4-ary min-heap of slot ids over parallel unboxed arrays, with the
   payloads in a slot table beside it.

   The event queue is the innermost data structure of the engine, so the
   layout is chosen for the mutator and the GC, not for elegance:

   - Sifts move only unboxed data.  By heap position, [times] (a plain
     [float array], stored unboxed), [seqs] (the deterministic tie-break)
     and [slots] (the payload's slot id); by slot id, [pos] (the entry's
     position, or -1 while the slot is free).  A write into any of them
     is a plain store, never a [caml_modify] write barrier.
   - Payloads stay put in [values], indexed by slot: storing an entry and
     clearing it are the only two writes into a boxed array per entry.
   - Free slots form a stack in [free]: with [cap] slots and [len]
     entries, [free.(0 .. cap - len - 1)] are the free ones, the top last.
     The most recently freed slot is reused first.
   - [pos] makes an entry removable by slot id in O(log n), which is what
     a cancelled timer needs.
   - 4-ary rather than binary: half the tree depth for the same size, so
     fewer cache lines touched per sift; the wider child scan stays inside
     one or two lines of the parallel arrays.
   - Sifts move a hole instead of swapping, writing each position once.

   A vacated slot of [values] holds [dummy], so popped and removed entries
   (and the closures/continuations they capture) are released to the GC
   as soon as they leave the heap. *)

type 'a t = {
  mutable times : float array;
  mutable seqs : int array;
  mutable slots : int array;
  mutable pos : int array;
  mutable values : 'a array;
  mutable free : int array;
  mutable len : int;
  dummy : 'a;
}

let create ~dummy () =
  { times = [||]; seqs = [||]; slots = [||]; pos = [||]; values = [||];
    free = [||]; len = 0; dummy }

let[@inline] size h = h.len

let[@inline] is_empty h = h.len = 0

let grow h =
  let cap = Array.length h.times in
  let cap' = if cap = 0 then 16 else cap * 2 in
  let extend a fill =
    let a' = Array.make cap' fill in
    Array.blit a 0 a' 0 cap;
    a'
  in
  h.times <- extend h.times 0.0;
  h.seqs <- extend h.seqs 0;
  h.slots <- extend h.slots 0;
  h.pos <- extend h.pos (-1);
  h.values <- extend h.values h.dummy;
  (* The heap is full, so every free slot is new: hand out the lowest
     first. *)
  h.free <- Array.init cap' (fun i -> cap' - 1 - i)

(* Sift the entry at position [i0] up to its place. *)
let sift_up h i0 =
  let times = h.times and seqs = h.seqs and slots = h.slots and pos = h.pos in
  let time = Array.unsafe_get times i0 in
  let seq = Array.unsafe_get seqs i0 in
  let slot = Array.unsafe_get slots i0 in
  let i = ref i0 in
  let moving = ref true in
  while !moving && !i > 0 do
    let p = (!i - 1) / 4 in
    let pt = Array.unsafe_get times p in
    if time < pt || (time = pt && seq < Array.unsafe_get seqs p) then begin
      let ps = Array.unsafe_get slots p in
      Array.unsafe_set times !i pt;
      Array.unsafe_set seqs !i (Array.unsafe_get seqs p);
      Array.unsafe_set slots !i ps;
      Array.unsafe_set pos ps !i;
      i := p
    end
    else moving := false
  done;
  Array.unsafe_set times !i time;
  Array.unsafe_set seqs !i seq;
  Array.unsafe_set slots !i slot;
  Array.unsafe_set pos slot !i

(* Sift the entry at position [i0] down to its place among [h.len]. *)
let sift_down h i0 =
  let times = h.times and seqs = h.seqs and slots = h.slots and pos = h.pos in
  let len = h.len in
  let time = Array.unsafe_get times i0 in
  let seq = Array.unsafe_get seqs i0 in
  let slot = Array.unsafe_get slots i0 in
  let i = ref i0 in
  let moving = ref true in
  while !moving do
    let c0 = (4 * !i) + 1 in
    if c0 >= len then moving := false
    else begin
      let m = ref c0 in
      let hi = if c0 + 3 < len - 1 then c0 + 3 else len - 1 in
      for c = c0 + 1 to hi do
        let ct = Array.unsafe_get times c in
        let mt = Array.unsafe_get times !m in
        if
          ct < mt
          || ct = mt && Array.unsafe_get seqs c < Array.unsafe_get seqs !m
        then m := c
      done;
      let mt = Array.unsafe_get times !m in
      if mt < time || (mt = time && Array.unsafe_get seqs !m < seq) then begin
        let ms = Array.unsafe_get slots !m in
        Array.unsafe_set times !i mt;
        Array.unsafe_set seqs !i (Array.unsafe_get seqs !m);
        Array.unsafe_set slots !i ms;
        Array.unsafe_set pos ms !i;
        i := !m
      end
      else moving := false
    end
  done;
  Array.unsafe_set times !i time;
  Array.unsafe_set seqs !i seq;
  Array.unsafe_set slots !i slot;
  Array.unsafe_set pos slot !i

(* Inlined, so that [time] reaches [times] unboxed: a float argument of
   a call is boxed. *)
let[@inline] add h ~time ~seq value =
  if h.len = Array.length h.times then grow h;
  let i = h.len in
  let slot = Array.unsafe_get h.free (Array.length h.times - i - 1) in
  h.len <- i + 1;
  Array.unsafe_set h.values slot value;
  Array.unsafe_set h.times i time;
  Array.unsafe_set h.seqs i seq;
  Array.unsafe_set h.slots i slot;
  sift_up h i;
  slot

(* Inlined readers: [min_time] would box its result.  Its [infinity] is
   a literal: [Stdlib.infinity] is a boxed global, and a branch yielding
   it would box the other branch's float too. *)
let[@inline] min_time h =
  if h.len = 0 then 0x1p1024 else Array.unsafe_get h.times 0

let[@inline] min_seq h = if h.len = 0 then max_int else Array.unsafe_get h.seqs 0

(* Take the entry at position [i] out: release its slot, move the last
   entry into the hole and sift it to its place.  Returns the payload. *)
let take h i =
  let slot = Array.unsafe_get h.slots i in
  let v = Array.unsafe_get h.values slot in
  Array.unsafe_set h.values slot h.dummy;
  Array.unsafe_set h.pos slot (-1);
  let last = h.len - 1 in
  h.len <- last;
  Array.unsafe_set h.free (Array.length h.times - last - 1) slot;
  if i < last then begin
    let time = Array.unsafe_get h.times last in
    let seq = Array.unsafe_get h.seqs last in
    Array.unsafe_set h.times i time;
    Array.unsafe_set h.seqs i seq;
    Array.unsafe_set h.slots i (Array.unsafe_get h.slots last);
    (* The moved entry may belong above the hole (a removal deep in the
       tree) or below it. *)
    let p = (i - 1) / 4 in
    if
      i > 0
      &&
      let pt = Array.unsafe_get h.times p in
      time < pt || (time = pt && seq < Array.unsafe_get h.seqs p)
    then sift_up h i
    else sift_down h i
  end;
  v

let pop h =
  if h.len = 0 then invalid_arg "Heap.pop: empty";
  take h 0

let[@inline] live h ~slot ~seq =
  slot >= 0
  && slot < Array.length h.pos
  &&
  let i = Array.unsafe_get h.pos slot in
  i >= 0 && Array.unsafe_get h.seqs i = seq

let remove h ~slot ~seq =
  if live h ~slot ~seq then begin
    ignore (take h (Array.unsafe_get h.pos slot));
    true
  end
  else false
