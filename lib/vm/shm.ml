type t = {
  region : Region.t;
  page_table : Page_table.t;
  mutable private_mem : Bytes.t; (* empty until first touched *)
  noncoherent : Bytes.t;
  (* Fast-path segment geometry, mirrored out of [region] so the typed
     accessors resolve an address with integer compares and shifts only.
     Every simulated memory access goes through here — the apps issue
     millions per run — so the hot path must not allocate: no
     [Region.location] variant, no [(bytes, offset)] tuple. *)
  pr_base : int;
  pr_limit : int;
  nc_base : int;
  nc_limit : int;
  co_base : int;
  co_limit : int;
  page_shift : int;
  page_mask : int;
}

let create ?obs ?node ?twin_pool ~region ~noncoherent () =
  if Bytes.length noncoherent <> Region.noncoherent_bytes region then
    invalid_arg "Shm.create: noncoherent backing store has the wrong size";
  let page_size = Region.page_size region in
  (* page_size is a positive power of two (checked by Region.create). *)
  let rec log2 n = if n <= 1 then 0 else 1 + log2 (n lsr 1) in
  {
    region;
    page_table =
      Page_table.create ?obs ?node ?twin_pool
        ~pages:(Region.coherent_pages region)
        ~page_size ();
    private_mem = Bytes.empty;
    noncoherent;
    pr_base = Region.private_base region;
    pr_limit = Region.private_base region + Region.private_bytes region;
    nc_base = Region.noncoherent_base region;
    nc_limit = Region.noncoherent_base region + Region.noncoherent_bytes region;
    co_base = Region.coherent_base region;
    co_limit =
      Region.coherent_base region + (Region.coherent_pages region * page_size);
    page_shift = log2 page_size;
    page_mask = page_size - 1;
  }

let page_table t = t.page_table

(* Cold paths, kept out of line so the accessors stay small. *)
let[@inline never] segv addr =
  invalid_arg (Printf.sprintf "Shm: segmentation violation at 0x%x" addr)

let[@inline never] unaligned addr width =
  invalid_arg (Printf.sprintf "Shm: unaligned %d-byte access at 0x%x" width addr)

(* The private segment, allocated on its first access: no app reads or
   writes it, so a node that never touches it costs nothing.  Reached only
   from the private-range branches, never from the coherent fast path. *)
let[@inline never] private_mem t =
  if Bytes.length t.private_mem = 0 then
    t.private_mem <- Bytes.make (t.pr_limit - t.pr_base) '\000';
  t.private_mem

(* Resolve a write: returns the backing bytes and offset, taking
   coherent-region faults as needed.  Allocates a tuple — used by the
   bulk writer only; the typed accessors below inline the segment walk
   instead. *)
let resolve_write t addr =
  match Region.locate t.region addr with
  | Region.Private off -> (private_mem t, off)
  | Region.Noncoherent off -> (t.noncoherent, off)
  | Region.Coherent { page; offset } ->
    Page_table.ensure_writable t.page_table page;
    (Page.data (Page_table.page t.page_table page), offset)

(* The typed accessors share one shape: classify the address with three
   range checks (coherent first — it is by far the hottest segment),
   then read or write through the backing bytes directly.  The safe
   [Bytes.get_*]/[set_*] accessors keep the end-of-segment bounds check,
   so a multi-byte access overhanging a segment still raises exactly as
   the old [Bytes] path did.  Alignment guarantees a coherent access
   never crosses a page boundary. *)

let read_u8 t addr =
  if addr >= t.co_base then begin
    if addr >= t.co_limit then segv addr;
    let off = addr - t.co_base in
    let data = Page_table.read_data t.page_table (off lsr t.page_shift) in
    Char.code (Bytes.get data (off land t.page_mask))
  end
  else if addr >= t.nc_base && addr < t.nc_limit then
    Char.code (Bytes.get t.noncoherent (addr - t.nc_base))
  else if addr >= t.pr_base && addr < t.pr_limit then
    Char.code (Bytes.get (private_mem t) (addr - t.pr_base))
  else segv addr

let write_u8 t addr v =
  if v < 0 || v > 0xff then invalid_arg "Shm.write_u8: out of range";
  if addr >= t.co_base then begin
    if addr >= t.co_limit then segv addr;
    let off = addr - t.co_base in
    let data = Page_table.write_data t.page_table (off lsr t.page_shift) in
    Bytes.set data (off land t.page_mask) (Char.unsafe_chr v)
  end
  else if addr >= t.nc_base && addr < t.nc_limit then
    Bytes.set t.noncoherent (addr - t.nc_base) (Char.unsafe_chr v)
  else if addr >= t.pr_base && addr < t.pr_limit then
    Bytes.set (private_mem t) (addr - t.pr_base) (Char.unsafe_chr v)
  else segv addr

let read_i32 t addr =
  if addr land 3 <> 0 then unaligned addr 4;
  if addr >= t.co_base then begin
    if addr >= t.co_limit then segv addr;
    let off = addr - t.co_base in
    let data = Page_table.read_data t.page_table (off lsr t.page_shift) in
    Int32.to_int (Bytes.get_int32_le data (off land t.page_mask))
  end
  else if addr >= t.nc_base && addr < t.nc_limit then
    Int32.to_int (Bytes.get_int32_le t.noncoherent (addr - t.nc_base))
  else if addr >= t.pr_base && addr < t.pr_limit then
    Int32.to_int (Bytes.get_int32_le (private_mem t) (addr - t.pr_base))
  else segv addr

let write_i32 t addr v =
  if addr land 3 <> 0 then unaligned addr 4;
  if v < Int32.to_int Int32.min_int || v > Int32.to_int Int32.max_int then
    invalid_arg "Shm.write_i32: out of range";
  let v = Int32.of_int v in
  if addr >= t.co_base then begin
    if addr >= t.co_limit then segv addr;
    let off = addr - t.co_base in
    let data = Page_table.write_data t.page_table (off lsr t.page_shift) in
    Bytes.set_int32_le data (off land t.page_mask) v
  end
  else if addr >= t.nc_base && addr < t.nc_limit then
    Bytes.set_int32_le t.noncoherent (addr - t.nc_base) v
  else if addr >= t.pr_base && addr < t.pr_limit then
    Bytes.set_int32_le (private_mem t) (addr - t.pr_base) v
  else segv addr

let read_i64 t addr =
  if addr land 7 <> 0 then unaligned addr 8;
  if addr >= t.co_base then begin
    if addr >= t.co_limit then segv addr;
    let off = addr - t.co_base in
    let data = Page_table.read_data t.page_table (off lsr t.page_shift) in
    Int64.to_int (Bytes.get_int64_le data (off land t.page_mask))
  end
  else if addr >= t.nc_base && addr < t.nc_limit then
    Int64.to_int (Bytes.get_int64_le t.noncoherent (addr - t.nc_base))
  else if addr >= t.pr_base && addr < t.pr_limit then
    Int64.to_int (Bytes.get_int64_le (private_mem t) (addr - t.pr_base))
  else segv addr

let write_i64 t addr v =
  if addr land 7 <> 0 then unaligned addr 8;
  let v = Int64.of_int v in
  if addr >= t.co_base then begin
    if addr >= t.co_limit then segv addr;
    let off = addr - t.co_base in
    let data = Page_table.write_data t.page_table (off lsr t.page_shift) in
    Bytes.set_int64_le data (off land t.page_mask) v
  end
  else if addr >= t.nc_base && addr < t.nc_limit then
    Bytes.set_int64_le t.noncoherent (addr - t.nc_base) v
  else if addr >= t.pr_base && addr < t.pr_limit then
    Bytes.set_int64_le (private_mem t) (addr - t.pr_base) v
  else segv addr

(* The double goes straight into the caller's float array.  A [float]
   returned across a module boundary would be boxed (no cross-module
   inlining in an [-opaque] build): one allocation per read. *)
let read_f64_into t addr dst i =
  if addr land 7 <> 0 then unaligned addr 8;
  if addr >= t.co_base then begin
    if addr >= t.co_limit then segv addr;
    let off = addr - t.co_base in
    let data = Page_table.read_data t.page_table (off lsr t.page_shift) in
    dst.(i) <- Int64.float_of_bits (Bytes.get_int64_le data (off land t.page_mask))
  end
  else if addr >= t.nc_base && addr < t.nc_limit then
    dst.(i) <-
      Int64.float_of_bits (Bytes.get_int64_le t.noncoherent (addr - t.nc_base))
  else if addr >= t.pr_base && addr < t.pr_limit then
    dst.(i) <-
      Int64.float_of_bits
        (Bytes.get_int64_le (private_mem t) (addr - t.pr_base))
  else segv addr

let write_f64 t addr v =
  if addr land 7 <> 0 then unaligned addr 8;
  let v = Int64.bits_of_float v in
  if addr >= t.co_base then begin
    if addr >= t.co_limit then segv addr;
    let off = addr - t.co_base in
    let data = Page_table.write_data t.page_table (off lsr t.page_shift) in
    Bytes.set_int64_le data (off land t.page_mask) v
  end
  else if addr >= t.nc_base && addr < t.nc_limit then
    Bytes.set_int64_le t.noncoherent (addr - t.nc_base) v
  else if addr >= t.pr_base && addr < t.pr_limit then
    Bytes.set_int64_le (private_mem t) (addr - t.pr_base) v
  else segv addr

let check_span t addr len =
  match Region.locate t.region addr with
  | Region.Coherent { offset; _ } ->
    if offset + len > Region.page_size t.region then
      invalid_arg "Shm: bulk access crosses a page boundary"
  | Region.Private _ | Region.Noncoherent _ -> ()

let write_bytes t addr src =
  check_span t addr (Bytes.length src);
  let bytes, off = resolve_write t addr in
  Bytes.blit src 0 bytes off (Bytes.length src)
