type state = Invalid | Read_only | Read_write

(* Twin buffers are page-sized, i.e. larger than the 256-word
   young-allocation limit, so each fresh twin goes straight to the major
   heap.  Dropped twins are recycled through a free list that the pages
   of one simulation share, so a run's allocation depends on that run
   alone.  A twin never escapes this module ([Diff.create] copies runs
   out of it), so reuse is safe.  The list is capped so a burst of
   releases cannot pin unbounded memory. *)
type twin_pool = { mutable free : Bytes.t list; mutable n : int }

let max_pooled_twins = 128

let create_twin_pool () = { free = []; n = 0 }

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

type t = {
  data : Bytes.t;
  mutable state : state;
  mutable twin : Bytes.t option;
  twin_pool : twin_pool;
}

let create ~twin_pool ~size =
  if size <= 0 then invalid_arg "Page.create: size";
  { data = Bytes.make size '\000'; state = Read_only; twin = None; twin_pool }

let state t = t.state

let data t = t.data

let clean_snapshot t =
  match (t.state, t.twin) with
  | Read_write, Some twin -> Bytes.copy twin
  | Read_write, None -> assert false
  | (Read_only | Invalid), _ -> Bytes.copy t.data

let make_twin t =
  match t.state with
  | Read_only ->
    let len = Bytes.length t.data in
    let twin = twin_alloc t.twin_pool len in
    Bytes.blit t.data 0 twin 0 len;
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

let apply_diff t diff = Diff.apply diff t.data

let apply_diff_to_twin t diff =
  Diff.apply diff t.data;
  match (t.state, t.twin) with
  | Read_write, Some twin -> Diff.apply diff twin
  | _ -> ()

let patch t ~offset src =
  let len = Bytes.length src in
  if offset < 0 || offset + len > Bytes.length t.data then
    invalid_arg "Page.patch: out of range";
  Bytes.blit src 0 t.data offset len;
  match (t.state, t.twin) with
  | Read_write, Some twin -> Bytes.blit src 0 twin offset len
  | _ -> ()

let install t bytes =
  if Bytes.length bytes <> Bytes.length t.data then
    invalid_arg "Page.install: size mismatch";
  Bytes.blit bytes 0 t.data 0 (Bytes.length bytes);
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
