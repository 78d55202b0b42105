(* Flat encoding: one [spans] word per run, packing the run's page offset
   (high bits) and length (low bits), and the run bytes back to back in
   [data], in offset order.  A diff is three heap blocks however many
   runs it holds: [create] counts the runs, then fills exactly-sized
   arrays.  Runs are maximal, non-empty and disjoint. *)
type t = { page : int; spans : int array; data : Bytes.t }

let header_bytes = 8

let run_descriptor_bytes = 4

let len_bits = 31

let len_mask = (1 lsl len_bits) - 1

let[@inline] span_offset s = s lsr len_bits

let[@inline] span_len s = s land len_mask

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
  if len > len_mask then invalid_arg "Diff.create: page too large";
  let runs = ref 0 and changed = ref 0 in
  let i = ref (next_change twin current len 0) in
  while !i < len do
    let stop = run_end twin current len !i in
    incr runs;
    changed := !changed + (stop - !i);
    i := next_change twin current len stop
  done;
  if !runs = 0 then { page; spans = [||]; data = Bytes.empty }
  else begin
    let spans = Array.make !runs 0 and data = Bytes.create !changed in
    let k = ref 0 and pos = ref 0 in
    let i = ref (next_change twin current len 0) in
    while !i < len do
      let stop = run_end twin current len !i in
      let n = stop - !i in
      Array.unsafe_set spans !k ((!i lsl len_bits) lor n);
      Bytes.unsafe_blit current !i data !pos n;
      incr k;
      pos := !pos + n;
      i := next_change twin current len stop
    done;
    { page; spans; data }
  end

let page t = t.page

let run_count t = Array.length t.spans

let is_empty t = Array.length t.spans = 0

let apply t target =
  let len = Bytes.length target in
  let pos = ref 0 in
  for k = 0 to Array.length t.spans - 1 do
    let s = Array.unsafe_get t.spans k in
    let offset = span_offset s and n = span_len s in
    if offset + n > len then invalid_arg "Diff.apply: run out of bounds";
    Bytes.unsafe_blit t.data !pos target offset n;
    pos := !pos + n
  done

(* One past the last byte the diff touches. *)
let extent t =
  match Array.length t.spans with
  | 0 -> 0
  | n ->
    let s = Array.unsafe_get t.spans (n - 1) in
    span_offset s + span_len s

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
      (fun d ->
        Array.iter
          (fun s ->
            for i = span_offset s to span_offset s + span_len s - 1 do
              Bytes.unsafe_set twin i
                (Char.unsafe_chr
                   (Char.code (Bytes.unsafe_get current i) lxor 0xff))
            done)
          d.spans)
      ds;
    create ~page:first.page ~twin ~current

let changed_bytes t = Bytes.length t.data

let size_bytes t =
  header_bytes
  + (run_descriptor_bytes * Array.length t.spans)
  + Bytes.length t.data

let pp ppf t =
  Format.fprintf ppf "@[<h>diff(page %d:" t.page;
  Array.iter
    (fun s ->
      Format.fprintf ppf " [%d..%d)" (span_offset s)
        (span_offset s + span_len s))
    t.spans;
  Format.fprintf ppf ")@]"
