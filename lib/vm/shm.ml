type t = {
  page_table : Page_table.t;
  (* The page table's own array, read directly by the typed accessors'
     fast path. *)
  frames : Page.t array;
  (* The region's geometry as integers, so the typed accessors resolve an
     address with compares and shifts only.  Every simulated memory
     access goes through here — the apps issue millions per run — so the
     hot path must not allocate: no variant, no [(page, offset)] tuple. *)
  size : int;
  page_shift : int;
  page_mask : int;
}

(* Apps store addresses in shared memory, so the base is fixed: moving it
   would change the bytes they write, and with them every diff. *)
let base = 0x4000_0000

let create ?obs ?node ?twin_pool ~page_size ~pages () =
  if page_size <= 0 || page_size land (page_size - 1) <> 0 then
    invalid_arg "Shm.create: page_size must be a positive power of two";
  if page_size > Diff.max_page_size then
    invalid_arg
      (Printf.sprintf "Shm.create: page_size exceeds %d bytes"
         Diff.max_page_size);
  let rec log2 n = if n <= 1 then 0 else 1 + log2 (n lsr 1) in
  let page_table =
    Page_table.create ?obs ?node ?twin_pool ~pages ~page_size ()
  in
  {
    page_table;
    frames = Page_table.frames page_table;
    size = pages * page_size;
    page_shift = log2 page_size;
    page_mask = page_size - 1;
  }

let page_table t = t.page_table

let addr t ~page ~offset =
  if page < 0 || page >= Page_table.pages t.page_table then
    invalid_arg "Shm.addr: bad page";
  if offset < 0 || offset > t.page_mask then invalid_arg "Shm.addr: bad offset";
  base + (page lsl t.page_shift) + offset

(* Cold paths, kept out of line so the accessors stay small. *)
let[@inline never] segv addr =
  invalid_arg (Printf.sprintf "Shm: segmentation violation at 0x%x" addr)

let[@inline never] unaligned addr width =
  invalid_arg (Printf.sprintf "Shm: unaligned %d-byte access at 0x%x" width addr)

(* The offset of [addr] into the region; anything outside it is a
   segmentation violation. *)
let[@inline] locate t addr =
  let off = addr - base in
  if off < 0 || off >= t.size then segv addr;
  off

(* The backing bytes of page [i] once it may be read or written, taking
   the protection faults first.  [i] comes from an offset [locate]
   accepted. *)
let readable t i =
  Page_table.ensure_readable t.page_table i;
  Page.data t.frames.(i)

let writable t i =
  Page_table.ensure_writable t.page_table i;
  Page.data t.frames.(i)

(* The checked accessors: check the alignment (and a written value's
   range), locate the address, then read or write the page's bytes once
   the page table has taken the protection faults.  Alignment guarantees
   an access never crosses a page boundary. *)

let read_u8 t addr =
  let off = locate t addr in
  let data = readable t (off lsr t.page_shift) in
  Char.code (Bytes.get data (off land t.page_mask))

let write_u8 t addr v =
  if v < 0 || v > 0xff then invalid_arg "Shm.write_u8: out of range";
  let off = locate t addr in
  let data = writable t (off lsr t.page_shift) in
  Bytes.set data (off land t.page_mask) (Char.unsafe_chr v)

let min_i32 = Int32.to_int Int32.min_int

let max_i32 = Int32.to_int Int32.max_int

let[@inline never] read_i32_checked t addr =
  if addr land 3 <> 0 then unaligned addr 4;
  let off = locate t addr in
  let data = readable t (off lsr t.page_shift) in
  Int32.to_int (Bytes.get_int32_le data (off land t.page_mask))

let[@inline never] write_i32_checked t addr v =
  if addr land 3 <> 0 then unaligned addr 4;
  if v < min_i32 || v > max_i32 then invalid_arg "Shm.write_i32: out of range";
  let off = locate t addr in
  let data = writable t (off lsr t.page_shift) in
  Bytes.set_int32_le data (off land t.page_mask) (Int32.of_int v)

let[@inline never] read_i64_checked t addr =
  if addr land 7 <> 0 then unaligned addr 8;
  let off = locate t addr in
  let data = readable t (off lsr t.page_shift) in
  Int64.to_int (Bytes.get_int64_le data (off land t.page_mask))

let[@inline never] write_i64_checked t addr v =
  if addr land 7 <> 0 then unaligned addr 8;
  let off = locate t addr in
  let data = writable t (off lsr t.page_shift) in
  Bytes.set_int64_le data (off land t.page_mask) (Int64.of_int v)

let[@inline never] read_f64_checked t addr dst i =
  if addr land 7 <> 0 then unaligned addr 8;
  let off = locate t addr in
  let data = readable t (off lsr t.page_shift) in
  dst.(i) <- Int64.float_of_bits (Bytes.get_int64_le data (off land t.page_mask))

let[@inline never] write_f64_checked t addr v =
  if addr land 7 <> 0 then unaligned addr 8;
  let off = locate t addr in
  let data = writable t (off lsr t.page_shift) in
  Bytes.set_int64_le data (off land t.page_mask) (Int64.bits_of_float v)

(* The typed accessors' fast path, inlined into every caller: an aligned
   address inside the region, on a page whose state allows the access
   (and, for [write_i32], a value that fits), is read or written with
   one unchecked load or store.  The load cannot overrun: the region
   range and the alignment keep the access inside one page, and every
   frame a page can hold is [page_size] bytes long (see {!Page}).
   Anything else goes to the checked accessor above, which raises the
   same errors in the same order, or takes the fault.  Inlined, a float
   argument or result never crosses a call, so it is never boxed. *)

external get32u : Bytes.t -> int -> int32 = "%caml_bytes_get32u"

external set32u : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

external swap32 : int32 -> int32 = "%bswap_int32"

external swap64 : int64 -> int64 = "%bswap_int64"

let[@inline] get_i32_le b i =
  if Sys.big_endian then swap32 (get32u b i) else get32u b i

let[@inline] set_i32_le b i v =
  set32u b i (if Sys.big_endian then swap32 v else v)

let[@inline] get_i64_le b i =
  if Sys.big_endian then swap64 (get64u b i) else get64u b i

let[@inline] set_i64_le b i v =
  set64u b i (if Sys.big_endian then swap64 v else v)

(* The offset of an aligned address inside the region, or -1. *)
let[@inline] fast_offset t addr ~align =
  let off = addr - base in
  if addr land align = 0 && off >= 0 && off < t.size then off else -1

let[@inline] frame_of t off = Array.unsafe_get t.frames (off lsr t.page_shift)

let[@inline] read_i32 t addr =
  let off = fast_offset t addr ~align:3 in
  if off < 0 then read_i32_checked t addr
  else
    let p = frame_of t off in
    match Page.state p with
    | Page.Invalid -> read_i32_checked t addr
    | Page.Read_only | Page.Read_write ->
      Int32.to_int (get_i32_le (Page.data p) (off land t.page_mask))

let[@inline] write_i32 t addr v =
  let off = fast_offset t addr ~align:3 in
  if off < 0 || v < min_i32 || v > max_i32 then write_i32_checked t addr v
  else
    let p = frame_of t off in
    match Page.state p with
    | Page.Invalid | Page.Read_only -> write_i32_checked t addr v
    | Page.Read_write ->
      set_i32_le (Page.data p) (off land t.page_mask) (Int32.of_int v)

let[@inline] read_i64 t addr =
  let off = fast_offset t addr ~align:7 in
  if off < 0 then read_i64_checked t addr
  else
    let p = frame_of t off in
    match Page.state p with
    | Page.Invalid -> read_i64_checked t addr
    | Page.Read_only | Page.Read_write ->
      Int64.to_int (get_i64_le (Page.data p) (off land t.page_mask))

let[@inline] write_i64 t addr v =
  let off = fast_offset t addr ~align:7 in
  if off < 0 then write_i64_checked t addr v
  else
    let p = frame_of t off in
    match Page.state p with
    | Page.Invalid | Page.Read_only -> write_i64_checked t addr v
    | Page.Read_write ->
      set_i64_le (Page.data p) (off land t.page_mask) (Int64.of_int v)

let[@inline] read_f64_into t addr dst i =
  let off = fast_offset t addr ~align:7 in
  if off < 0 then read_f64_checked t addr dst i
  else
    let p = frame_of t off in
    match Page.state p with
    | Page.Invalid -> read_f64_checked t addr dst i
    | Page.Read_only | Page.Read_write ->
      dst.(i) <-
        Int64.float_of_bits (get_i64_le (Page.data p) (off land t.page_mask))

let[@inline] write_f64 t addr v =
  let off = fast_offset t addr ~align:7 in
  if off < 0 then write_f64_checked t addr v
  else
    let p = frame_of t off in
    match Page.state p with
    | Page.Invalid | Page.Read_only -> write_f64_checked t addr v
    | Page.Read_write ->
      set_i64_le (Page.data p) (off land t.page_mask) (Int64.bits_of_float v)

(* The offset of a [len]-byte span at [addr], which must lie in one
   page. *)
let span t addr len =
  let off = locate t addr in
  if (off land t.page_mask) + len > t.page_mask + 1 then
    invalid_arg "Shm: bulk access crosses a page boundary";
  off

let patch_bytes t addr src =
  let off = span t addr (Bytes.length src) in
  Page.patch
    (Page_table.page t.page_table (off lsr t.page_shift))
    ~offset:(off land t.page_mask) src
