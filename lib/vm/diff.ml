(* Wire encoding: [buf] holds, for each run in offset order, a
   little-endian u16 page offset, a u16 [length - 1] and the run bytes.
   A diff is two heap blocks however many runs it holds, and its run
   descriptors sit in a byte buffer the GC does not scan: [create] counts
   the runs, then fills an exactly-sized buffer.  Runs are maximal,
   non-empty and disjoint. *)
type t = { page : int; runs : int; buf : Bytes.t }

let header_bytes = 8

let run_descriptor_bytes = 4

(* A u16 holds any offset into the page and, stored as [length - 1], any
   run length up to a whole page. *)
let max_page_size = 0x1_0000

(* Descriptors are read and written without bounds checks: [create]
   sizes [buf] exactly and the type is abstract, so every descriptor
   position is in bounds by construction.  The checked stdlib accessors
   cost about a tenth of [create]-then-[apply] on a 1,024-run page. *)
external unsafe_get16 : Bytes.t -> int -> int = "%caml_bytes_get16u"

external unsafe_set16 : Bytes.t -> int -> int -> unit = "%caml_bytes_set16u"

external swap16 : int -> int = "%bswap16"

let[@inline] get_u16_le buf pos =
  if Sys.big_endian then swap16 (unsafe_get16 buf pos)
  else unsafe_get16 buf pos

let[@inline] set_u16_le buf pos v =
  unsafe_set16 buf pos (if Sys.big_endian then swap16 v else v)

let[@inline] run_offset buf pos = get_u16_le buf pos

let[@inline] run_length buf pos = get_u16_le buf (pos + 2) + 1

external unsafe_get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

let[@inline] same a b i = Bytes.unsafe_get a i = Bytes.unsafe_get b i

(* First offset [>= i] where [a] and [b] differ, or [len].  Equal
   stretches are skipped a word at a time on 8-aligned offsets: most of a
   page is unchanged, and [create] scans it twice.  [=] at type [int64]
   compiles to an unboxed compare, so the word loop allocates nothing. *)
let next_change a b len i =
  let i = ref i in
  while !i < len && !i land 7 <> 0 && same a b !i do
    incr i
  done;
  if !i land 7 = 0 then begin
    while !i + 8 <= len && unsafe_get64 a !i = unsafe_get64 b !i do
      i := !i + 8
    done;
    while !i < len && same a b !i do
      incr i
    done
  end;
  !i

(* End of the run of differing bytes starting at [i]. *)
let run_end a b len i =
  let i = ref i in
  while !i < len && not (same a b !i) do
    incr i
  done;
  !i

let create ~page ~twin ~current =
  let len = Bytes.length twin in
  if Bytes.length current <> len then
    invalid_arg "Diff.create: twin and current differ in length";
  if len > max_page_size then invalid_arg "Diff.create: page too large";
  let runs = ref 0 and changed = ref 0 in
  let i = ref (next_change twin current len 0) in
  while !i < len do
    let stop = run_end twin current len !i in
    incr runs;
    changed := !changed + (stop - !i);
    i := next_change twin current len stop
  done;
  if !runs = 0 then { page; runs = 0; buf = Bytes.empty }
  else begin
    let buf = Bytes.create ((run_descriptor_bytes * !runs) + !changed) in
    let pos = ref 0 in
    let i = ref (next_change twin current len 0) in
    while !i < len do
      let stop = run_end twin current len !i in
      let n = stop - !i in
      set_u16_le buf !pos !i;
      set_u16_le buf (!pos + 2) (n - 1);
      Bytes.unsafe_blit current !i buf (!pos + run_descriptor_bytes) n;
      pos := !pos + run_descriptor_bytes + n;
      i := next_change twin current len stop
    done;
    { page; runs = !runs; buf }
  end

let page t = t.page

let run_count t = t.runs

let is_empty t = t.runs = 0

let apply t target =
  let len = Bytes.length target and buf = t.buf in
  let pos = ref 0 in
  for _ = 1 to t.runs do
    let offset = run_offset buf !pos and n = run_length buf !pos in
    if offset + n > len then invalid_arg "Diff.apply: run out of bounds";
    Bytes.unsafe_blit buf (!pos + run_descriptor_bytes) target offset n;
    pos := !pos + run_descriptor_bytes + n
  done

(* [f offset length] on each run, in offset order. *)
let iter_runs f t =
  let pos = ref 0 in
  for _ = 1 to t.runs do
    let n = run_length t.buf !pos in
    f (run_offset t.buf !pos) n;
    pos := !pos + run_descriptor_bytes + n
  done

(* One past the last byte the diff touches. *)
let extent t =
  let last = ref 0 in
  iter_runs (fun offset n -> last := offset + n) t;
  !last

let merge = function
  | [] -> invalid_arg "Diff.merge: empty"
  | [ d ] -> d
  | first :: _ as ds ->
    List.iter
      (fun d ->
        if d.page <> first.page then invalid_arg "Diff.merge: pages differ")
      ds;
    (* Replay the diffs in order into a scratch [current] covering the
       touched extent, so later runs overwrite earlier ones exactly as
       sequential [apply] would.  The scratch [twin] then gets the
       complement of every touched byte and equals [current] elsewhere,
       so [create] re-extracts precisely the touched bytes as maximal
       runs. *)
    let extent = List.fold_left (fun acc d -> max acc (extent d)) 0 ds in
    let current = Bytes.make extent '\000' in
    let twin = Bytes.make extent '\000' in
    List.iter (fun d -> apply d current) ds;
    List.iter
      (iter_runs (fun offset n ->
           for i = offset to offset + n - 1 do
             Bytes.unsafe_set twin i
               (Char.unsafe_chr
                  (Char.code (Bytes.unsafe_get current i) lxor 0xff))
           done))
      ds;
    create ~page:first.page ~twin ~current

let changed_bytes t = Bytes.length t.buf - (run_descriptor_bytes * t.runs)

let size_bytes t = header_bytes + Bytes.length t.buf

let pp ppf t =
  Format.fprintf ppf "@[<h>diff(page %d:" t.page;
  iter_runs
    (fun offset n -> Format.fprintf ppf " [%d..%d)" offset (offset + n))
    t;
  Format.fprintf ppf ")@]"
