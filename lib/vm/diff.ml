(* Wire encoding: [buf] holds, for each run in offset order, a
   little-endian u16 page offset, a u16 [length - 1] and the run bytes.
   A diff is two heap blocks however many runs it holds, and its run
   descriptors sit in a byte buffer the GC does not scan.  [create]
   compares the page with its twin eight bytes at a time, encodes the
   runs in one pass into a per-domain scratch buffer, and copies the
   encoding into an exactly-sized [buf].  [merge] replays its diffs into
   a per-domain page image and touched-byte mask and feeds them to the
   same encoder, so it too allocates only its result.  Runs are maximal,
   non-empty and disjoint. *)
type t = { page : int; runs : int; buf : Bytes.t }

let header_bytes = 8

let run_descriptor_bytes = 4

(* A u16 holds any offset into the page and, stored as [length - 1], any
   run length up to a whole page. *)
let max_page_size = 0x1_0000

(* Descriptors are read and written without bounds checks: the encoder
   writes into a scratch buffer at least [max_encoded] long, [buf] is
   an exact copy and the type is abstract, so every descriptor position
   is in bounds by construction.  The checked stdlib accessors
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

external swap64 : int64 -> int64 = "%bswap_int64"

(* The little-endian word of [buf] at [i], bits [8k .. 8k+7] holding byte
   [i + k].  Local [int64] arithmetic compiles unboxed, so the kernels
   below allocate nothing per word. *)
let[@inline] get_word buf i =
  if Sys.big_endian then swap64 (unsafe_get64 buf i) else unsafe_get64 buf i

(* Bit [k] set when byte [k] of [x] is nonzero.  Adding [0x7f] to a
   byte's low seven bits carries into its top bit unless they are zero.
   The shift and the multiply then move top bit [8k + 7] to bit
   [56 + k]; every other partial product lands on a distinct bit below
   56 or falls off the end, so nothing carries into the top byte. *)
let[@inline] nonzero_bytes x =
  let low7 = 0x7f7f_7f7f_7f7f_7f7fL in
  let tops =
    Int64.logand
      (Int64.logor (Int64.add (Int64.logand x low7) low7) x)
      0x8080_8080_8080_8080L
  in
  Int64.to_int
    (Int64.shift_right_logical
       (Int64.mul (Int64.shift_right_logical tops 7) 0x0102_0408_1020_4080L)
       56)

(* An encoding of a [len]-byte page never exceeds this: [r] runs of
   [c] bytes in all take [4r + c] bytes, runs are non-empty and an
   unchanged byte separates two of them, so [r <= c] and
   [c + r - 1 <= len], whence [4r + c <= 5 (len + 1) / 2]. *)
let max_encoded len = 5 * (len + 1) / 2

(* Each domain encodes into its own scratch buffer ([bench/main.exe -j]
   runs simulations on several domains), grown to the largest page seen. *)
let scratch_key = Domain.DLS.new_key (fun () -> Bytes.empty)

let scratch len =
  let need = max_encoded len in
  let s = Domain.DLS.get scratch_key in
  if Bytes.length s >= need then s
  else begin
    let s = Bytes.create need in
    Domain.DLS.set scratch_key s;
    s
  end

(* Writes the run of [data] from [start] up to [stop] at [pos] of [out]
   and returns the position after it. *)
let emit out pos data start stop =
  let n = stop - start in
  set_u16_le out pos start;
  set_u16_le out (pos + 2) (n - 1);
  Bytes.unsafe_blit data start out (pos + run_descriptor_bytes) n;
  pos + run_descriptor_bytes + n

(* The index of the set bit of [b], a power of two below 256: the
   multiply by the de Bruijn sequence [0x17] leaves a distinct 3-bit
   pattern in bits 5-7 for each, and [lowest_bit_index] inverts it. *)
let lowest_bit_index = "\000\001\002\004\007\003\006\005"

let[@inline] bit_index b =
  Char.code (String.unsafe_get lowest_bit_index (((b * 0x17) lsr 5) land 7))

(* A word whose nonzero bytes are those of the aligned word at [i] that
   are in a run, and whether byte [i] is in a run; see [encode]. *)
let[@inline] word_changes ~against_twin marks twin i =
  let w = get_word marks i in
  if against_twin then Int64.logxor w (get_word twin i) else w

let[@inline] byte_changed ~against_twin marks twin i =
  let c = Bytes.unsafe_get marks i in
  if against_twin then c <> Bytes.unsafe_get twin i else c <> '\000'

(* The run encoder [create] and [merge] share.  It encodes the runs of
   [data] where [marks] differs from [twin] ([against_twin]) or, for
   [merge], where [marks] is nonzero ([twin] unused).  Whole aligned
   words are compared at once: an equal word closes the open run and
   starts a tight skip over the equal words after it; any other word
   visits only its run edges, the bytes where being in a run flips.
   The tail past the last whole word goes byte by byte.  [start] is the
   open run's first offset, or [-1].  Only the first [len] bytes of
   [data], [marks] and [twin] are read.  Inlined into both callers, so
   [against_twin] is a constant in each. *)
let[@inline] encode ~page ~against_twin ~len ~marks ~twin data =
  let out = scratch len in
  let pos = ref 0 and runs = ref 0 and start = ref (-1) in
  let words_end = len land lnot 7 in
  let i = ref 0 in
  while !i < words_end do
    let x = word_changes ~against_twin marks twin !i in
    if x = 0L then begin
      if !start >= 0 then begin
        pos := emit out !pos data !start !i;
        incr runs;
        start := -1
      end;
      let j = ref (!i + 8) in
      while !j < words_end && word_changes ~against_twin marks twin !j = 0L do
        j := !j + 8
      done;
      i := !j
    end
    else begin
      (* Bit [k] of [edges]: byte [!i + k] is in a run and the byte
         before it is not, or the reverse. *)
      let m = nonzero_bytes x in
      let edges =
        ref ((m lxor ((m lsl 1) lor Bool.to_int (!start >= 0))) land 0xff)
      in
      while !edges <> 0 do
        let k = bit_index (!edges land - !edges) in
        edges := !edges land (!edges - 1);
        if !start < 0 then start := !i + k
        else begin
          pos := emit out !pos data !start (!i + k);
          incr runs;
          start := -1
        end
      done;
      i := !i + 8
    end
  done;
  for j = words_end to len - 1 do
    if byte_changed ~against_twin marks twin j then begin
      if !start < 0 then start := j
    end
    else if !start >= 0 then begin
      pos := emit out !pos data !start j;
      incr runs;
      start := -1
    end
  done;
  if !start >= 0 then begin
    pos := emit out !pos data !start len;
    incr runs
  end;
  if !runs = 0 then { page; runs = 0; buf = Bytes.empty }
  else { page; runs = !runs; buf = Bytes.sub out 0 !pos }

module Profile = Carlos_obs.Profile

let create_span = Profile.span Carlos_obs.Obs.Vm "diff.create"

let apply_span = Profile.span Carlos_obs.Obs.Vm "diff.apply"

let merge_span = Profile.span Carlos_obs.Obs.Vm "diff.merge"

let create ~page ~twin ~current =
  let len = Bytes.length twin in
  if Bytes.length current <> len then
    invalid_arg "Diff.create: twin and current differ in length";
  if len > max_page_size then invalid_arg "Diff.create: page too large";
  Profile.enter create_span;
  let d = encode ~page ~against_twin:true ~len ~marks:current ~twin current in
  Profile.leave create_span;
  d

let page t = t.page

let run_count t = t.runs

let is_empty t = t.runs = 0

let apply t target =
  Profile.enter apply_span;
  let len = Bytes.length target and buf = t.buf in
  let pos = ref 0 in
  for _ = 1 to t.runs do
    let offset = run_offset buf !pos and n = run_length buf !pos in
    if offset + n > len then invalid_arg "Diff.apply: run out of bounds";
    Bytes.unsafe_blit buf (!pos + run_descriptor_bytes) target offset n;
    pos := !pos + run_descriptor_bytes + n
  done;
  Profile.leave apply_span

(* Each domain replays merges into its own page image and touched-byte
   mask, kept apart from the encoder's output scratch, which is written
   while they are read.  Both grow, at the first merge that needs it, to
   the smallest power of two at least 64 that covers the largest extent
   seen, so never past [max_page_size].  Mask rule: every mask byte at
   or past [marked] is zero.  A merge clears [0, marked) before its
   replay and raises [marked] before it marks a byte, so an exception
   part way through a merge cannot leak its marks into the next one.
   The image is never cleared: the encoder reads it only where the mask
   is set. *)
type replay = {
  mutable image : Bytes.t;
  mutable mask : Bytes.t;
  mutable marked : int;
}

let replay_key =
  Domain.DLS.new_key (fun () ->
      { image = Bytes.empty; mask = Bytes.empty; marked = 0 })

(* Grows [r] to cover [need] bytes, keeping the first [r.marked]. *)
let grow r need =
  let size = ref 64 in
  while !size < need do
    size := 2 * !size
  done;
  let image = Bytes.create !size and mask = Bytes.make !size '\000' in
  Bytes.blit r.image 0 image 0 r.marked;
  Bytes.blit r.mask 0 mask 0 r.marked;
  r.image <- image;
  r.mask <- mask

(* Replays [ds] in order into [r], each run blitted into the image and
   its range marked in the mask in one walk over the descriptors, so
   later runs overwrite earlier ones exactly as sequential [apply]
   would.  A top-level loop, not a closure, so it allocates nothing. *)
let rec replay r page = function
  | [] -> ()
  | d :: rest ->
    if d.page <> page then invalid_arg "Diff.merge: pages differ";
    let buf = d.buf in
    let pos = ref 0 in
    for _ = 1 to d.runs do
      let offset = run_offset buf !pos and n = run_length buf !pos in
      let stop = offset + n in
      if stop > r.marked then begin
        if stop > Bytes.length r.mask then grow r stop;
        r.marked <- stop
      end;
      Bytes.unsafe_blit buf (!pos + run_descriptor_bytes) r.image offset n;
      Bytes.unsafe_fill r.mask offset n '\001';
      pos := !pos + run_descriptor_bytes + n
    done;
    replay r page rest

let reset_scratch () =
  Domain.DLS.set scratch_key Bytes.empty;
  Domain.DLS.set replay_key
    { image = Bytes.empty; mask = Bytes.empty; marked = 0 }

let merge = function
  | [] -> invalid_arg "Diff.merge: empty"
  | [ d ] -> d
  | first :: _ as ds ->
    Profile.enter merge_span;
    let r = Domain.DLS.get replay_key in
    Bytes.unsafe_fill r.mask 0 r.marked '\000';
    r.marked <- 0;
    replay r first.page ds;
    (* [marked] is now one past the last touched byte; the encoder
       re-extracts precisely the touched bytes as maximal runs. *)
    let d =
      encode ~page:first.page ~against_twin:false ~len:r.marked ~marks:r.mask
        ~twin:r.mask r.image
    in
    Profile.leave merge_span;
    d

let changed_bytes t = Bytes.length t.buf - (run_descriptor_bytes * t.runs)

let size_bytes t = header_bytes + Bytes.length t.buf

let pp ppf t =
  Format.fprintf ppf "@[<h>diff(page %d:" t.page;
  let pos = ref 0 in
  for _ = 1 to t.runs do
    let offset = run_offset t.buf !pos and n = run_length t.buf !pos in
    Format.fprintf ppf " [%d..%d)" offset (offset + n);
    pos := !pos + run_descriptor_bytes + n
  done;
  Format.fprintf ppf ")@]"
