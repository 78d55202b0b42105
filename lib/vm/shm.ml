type t = {
  page_table : Page_table.t;
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
  {
    page_table = Page_table.create ?obs ?node ?twin_pool ~pages ~page_size ();
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

(* The typed accessors share one shape: locate the address, then read or
   write the page's bytes through the page table, which takes the
   protection faults.  Alignment guarantees an access never crosses a
   page boundary. *)

let read_u8 t addr =
  let off = locate t addr in
  let data = Page_table.read_data t.page_table (off lsr t.page_shift) in
  Char.code (Bytes.get data (off land t.page_mask))

let write_u8 t addr v =
  if v < 0 || v > 0xff then invalid_arg "Shm.write_u8: out of range";
  let off = locate t addr in
  let data = Page_table.write_data t.page_table (off lsr t.page_shift) in
  Bytes.set data (off land t.page_mask) (Char.unsafe_chr v)

let read_i32 t addr =
  if addr land 3 <> 0 then unaligned addr 4;
  let off = locate t addr in
  let data = Page_table.read_data t.page_table (off lsr t.page_shift) in
  Int32.to_int (Bytes.get_int32_le data (off land t.page_mask))

let write_i32 t addr v =
  if addr land 3 <> 0 then unaligned addr 4;
  if v < Int32.to_int Int32.min_int || v > Int32.to_int Int32.max_int then
    invalid_arg "Shm.write_i32: out of range";
  let off = locate t addr in
  let data = Page_table.write_data t.page_table (off lsr t.page_shift) in
  Bytes.set_int32_le data (off land t.page_mask) (Int32.of_int v)

let read_i64 t addr =
  if addr land 7 <> 0 then unaligned addr 8;
  let off = locate t addr in
  let data = Page_table.read_data t.page_table (off lsr t.page_shift) in
  Int64.to_int (Bytes.get_int64_le data (off land t.page_mask))

let write_i64 t addr v =
  if addr land 7 <> 0 then unaligned addr 8;
  let off = locate t addr in
  let data = Page_table.write_data t.page_table (off lsr t.page_shift) in
  Bytes.set_int64_le data (off land t.page_mask) (Int64.of_int v)

(* The double goes straight into the caller's float array.  A [float]
   returned across a module boundary would be boxed (no cross-module
   inlining in an [-opaque] build): one allocation per read. *)
let read_f64_into t addr dst i =
  if addr land 7 <> 0 then unaligned addr 8;
  let off = locate t addr in
  let data = Page_table.read_data t.page_table (off lsr t.page_shift) in
  dst.(i) <- Int64.float_of_bits (Bytes.get_int64_le data (off land t.page_mask))

let write_f64 t addr v =
  if addr land 7 <> 0 then unaligned addr 8;
  let off = locate t addr in
  let data = Page_table.write_data t.page_table (off lsr t.page_shift) in
  Bytes.set_int64_le data (off land t.page_mask) (Int64.bits_of_float v)

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
