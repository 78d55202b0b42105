type state = Invalid | Read_only | Read_write

(* Twin buffers are page-sized, i.e. larger than the 256-word
   young-allocation limit, so each fresh twin goes straight to the major
   heap.  Dropped twins are recycled through a free list that the pages
   of one simulation share, so a run's allocation depends on that run
   alone.  A twin never escapes this module ([Diff.create] copies runs
   out of it), so reuse is safe.  The list is capped so a burst of
   releases cannot pin unbounded memory.

   The pool also holds the simulation's zero frames, one per page size.
   A fresh page reads through its size's zero frame and gets a frame of
   its own only when a function below is about to write to it, so a page
   no node touches costs no frame (the OS's zero-fill-on-demand).  A
   page is unmaterialized exactly when its data is one of these frames
   ([List.memq]), so a zero frame is never replaced: a page still
   pointing at a replaced frame would skip materialization and write
   into memory every fresh page reads. *)
type twin_pool = {
  mutable free : Bytes.t list;
  mutable n : int;
  mutable zero_frames : Bytes.t list;
}

let max_pooled_twins = 128

let create_twin_pool () = { free = []; n = 0; zero_frames = [] }

let zero_frame pool size =
  match List.find_opt (fun b -> Bytes.length b = size) pool.zero_frames with
  | Some b -> b
  | None ->
    let b = Bytes.make size '\000' in
    pool.zero_frames <- b :: pool.zero_frames;
    b

let twin_alloc pool size =
  match pool.free with
  | b :: rest when Bytes.length b = size ->
    pool.free <- rest;
    pool.n <- pool.n - 1;
    b
  | _ -> Bytes.create size

let twin_release pool b =
  if pool.n < max_pooled_twins then begin
    pool.free <- b :: pool.free;
    pool.n <- pool.n + 1
  end

(* Invariant: a [Read_write] page owns its data ([make_twin]
   materializes it), so the writes {!Shm} makes to a writable page's
   data never reach a zero frame.  Every frame a page holds is [size]
   bytes long — the zero frame of its size, its own frame, and an
   installed copy, whose length [install] checks — so {!Shm} may load
   and store inside a page without a bounds check. *)
type t = {
  mutable data : Bytes.t;
  mutable state : state;
  mutable twin : Bytes.t option;
  twin_pool : twin_pool;
}

let create ~twin_pool ~size =
  if size <= 0 then invalid_arg "Page.create: size";
  {
    data = zero_frame twin_pool size;
    state = Read_only;
    twin = None;
    twin_pool;
  }

let state t = t.state

let data t = t.data

(* The page's own frame, allocated (zero-filled, like the frame it
   replaces) the first time a write is about to reach it. *)
let own t =
  if List.memq t.data t.twin_pool.zero_frames then
    t.data <- Bytes.make (Bytes.length t.data) '\000';
  t.data

let clean_snapshot t =
  match (t.state, t.twin) with
  | Read_write, Some twin -> Bytes.copy twin
  | Read_write, None -> assert false
  | (Read_only | Invalid), _ -> Bytes.copy t.data

let make_twin t =
  match t.state with
  | Read_only ->
    let data = own t in
    let len = Bytes.length data in
    let twin = twin_alloc t.twin_pool len in
    Bytes.blit data 0 twin 0 len;
    t.twin <- Some twin;
    t.state <- Read_write
  | Invalid -> invalid_arg "Page.make_twin: page is invalid"
  | Read_write -> invalid_arg "Page.make_twin: twin already exists"

let encode_diff t ~page_index =
  match (t.state, t.twin) with
  | Read_write, Some twin ->
    let diff = Diff.create ~page:page_index ~twin ~current:t.data in
    t.twin <- None;
    t.state <- Read_only;
    twin_release t.twin_pool twin;
    diff
  | Read_write, None -> assert false
  | (Invalid | Read_only), _ ->
    invalid_arg "Page.encode_diff: page not in write mode"

let invalidate t =
  match t.state with
  | Read_write -> invalid_arg "Page.invalidate: encode the diff first"
  | Invalid | Read_only -> t.state <- Invalid

let apply_diff t diff = Diff.apply diff (own t)

let apply_diff_to_twin t diff =
  Diff.apply diff (own t);
  match (t.state, t.twin) with
  | Read_write, Some twin -> Diff.apply diff twin
  | _ -> ()

let patch t ~offset src =
  let len = Bytes.length src in
  if offset < 0 || offset + len > Bytes.length t.data then
    invalid_arg "Page.patch: out of range";
  Bytes.blit src 0 (own t) offset len;
  match (t.state, t.twin) with
  | Read_write, Some twin -> Bytes.blit src 0 twin offset len
  | _ -> ()

let install t bytes =
  if Bytes.length bytes <> Bytes.length t.data then
    invalid_arg "Page.install: size mismatch";
  Bytes.blit bytes 0 (own t) 0 (Bytes.length bytes);
  (match t.twin with
  | Some twin ->
    t.twin <- None;
    twin_release t.twin_pool twin
  | None -> ());
  t.state <- Read_only

let validate t =
  match t.state with
  | Invalid -> t.state <- Read_only
  | Read_only | Read_write -> invalid_arg "Page.validate: page not invalid"
