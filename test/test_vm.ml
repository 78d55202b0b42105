(* Tests for the simulated paged memory: the region layout, pages/twins,
   diffs, page tables, typed shared-memory access, allocator. *)

module Page = Carlos_vm.Page
module Diff = Carlos_vm.Diff
module Page_table = Carlos_vm.Page_table
module Shm = Carlos_vm.Shm
module Alloc = Carlos_vm.Alloc

(* A view of eight 256-byte pages, with identity fault handlers good
   enough for access tests. *)
let make_shm () =
  let shm = Shm.create ~page_size:256 ~pages:8 () in
  let pt = Shm.page_table shm in
  Page_table.set_read_fault pt (fun i -> Page.validate (Page_table.page pt i));
  Page_table.set_write_fault pt (fun i -> Page.make_twin (Page_table.page pt i));
  shm

(* Byte [offset] of page [page], read from the page itself. *)
let page_byte shm ~page ~offset =
  let pt = Shm.page_table shm in
  Char.code (Bytes.get (Page.data (Page_table.page pt page)) offset)

(* ------------------------------------------------------------------ *)
(* Region *)

let test_region_locate () =
  let shm = make_shm () in
  Shm.write_u8 shm (Shm.base + 300) 7;
  Alcotest.(check int) "page 1, offset 44" 7 (page_byte shm ~page:1 ~offset:44)

let test_region_segv () =
  let shm = make_shm () in
  let expect_segv addr =
    (match Shm.read_u8 shm addr with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "read: expected segmentation violation");
    match Shm.write_u8 shm addr 1 with
    | exception Invalid_argument _ -> ()
    | () -> Alcotest.fail "write: expected segmentation violation"
  in
  expect_segv 0;
  expect_segv (Shm.base - 1);
  expect_segv (Shm.base + (8 * 256))

let test_region_coherent_addr () =
  let shm = make_shm () in
  let addr = Shm.addr shm ~page:2 ~offset:10 in
  Shm.write_u8 shm addr 9;
  Alcotest.(check int) "page 2, offset 10" 9 (page_byte shm ~page:2 ~offset:10);
  match Shm.addr shm ~page:8 ~offset:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "page past the region accepted"

let test_region_bad_page_size () =
  let rejected page_size =
    match Shm.create ~page_size ~pages:1 () with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  if not (rejected 100) then Alcotest.fail "non power of two accepted";
  (* A diff's two-byte run descriptors reach 64 KiB pages, no further. *)
  if not (rejected 131_072) then Alcotest.fail "131,072-byte page accepted";
  if rejected 65_536 then Alcotest.fail "65,536-byte page rejected"

(* ------------------------------------------------------------------ *)
(* Diff *)

(* Reference codec: the list-of-runs encoder and merger that the flat
   encoding replaced, kept as the oracle for the properties below. *)
module Ref_diff = struct
  type run = { offset : int; data : Bytes.t }

  let create ~twin ~current =
    let len = Bytes.length twin in
    let runs = ref [] in
    let i = ref 0 in
    while !i < len do
      if Bytes.get twin !i <> Bytes.get current !i then begin
        let start = !i in
        while !i < len && Bytes.get twin !i <> Bytes.get current !i do
          incr i
        done;
        runs :=
          { offset = start; data = Bytes.sub current start (!i - start) }
          :: !runs
      end
      else incr i
    done;
    List.rev !runs

  let merge ds =
    let extent =
      List.fold_left
        (List.fold_left (fun a r -> max a (r.offset + Bytes.length r.data)))
        0 ds
    in
    let buf = Bytes.create extent in
    let covered = Bytes.make extent '\000' in
    List.iter
      (List.iter (fun r ->
           Bytes.blit r.data 0 buf r.offset (Bytes.length r.data);
           Bytes.fill covered r.offset (Bytes.length r.data) '\001'))
      ds;
    let runs = ref [] in
    let i = ref 0 in
    while !i < extent do
      if Bytes.get covered !i = '\001' then begin
        let start = !i in
        while !i < extent && Bytes.get covered !i = '\001' do
          incr i
        done;
        runs :=
          { offset = start; data = Bytes.sub buf start (!i - start) } :: !runs
      end
      else incr i
    done;
    List.rev !runs

  let changed_bytes runs =
    List.fold_left (fun acc r -> acc + Bytes.length r.data) 0 runs

  let size_bytes runs =
    8 + List.fold_left (fun acc r -> acc + 4 + Bytes.length r.data) 0 runs

  (* What [Diff.pp] prints for the same runs. *)
  let to_string ~page runs =
    Printf.sprintf "diff(page %d:%s)" page
      (String.concat ""
         (List.map
            (fun r ->
              Printf.sprintf " [%d..%d)" r.offset
                (r.offset + Bytes.length r.data))
            runs))
end

(* The diff [d] has exactly the reference runs [r]: the same
   boundaries, count and sizes. *)
let matches_reference ~page d r =
  Format.asprintf "%a" Diff.pp d = Ref_diff.to_string ~page r
  && Diff.run_count d = List.length r
  && Diff.size_bytes d = Ref_diff.size_bytes r
  && Diff.changed_bytes d = Ref_diff.changed_bytes r

let test_diff_empty () =
  let twin = Bytes.make 64 'a' in
  let current = Bytes.copy twin in
  let d = Diff.create ~page:0 ~twin ~current in
  Alcotest.(check bool) "empty" true (Diff.is_empty d);
  Alcotest.(check int) "no changed bytes" 0 (Diff.changed_bytes d)

let test_diff_roundtrip_simple () =
  let twin = Bytes.make 64 'a' in
  let current = Bytes.copy twin in
  Bytes.set current 3 'x';
  Bytes.set current 4 'y';
  Bytes.set current 60 'z';
  let d = Diff.create ~page:0 ~twin ~current in
  Alcotest.(check int) "two runs" 2 (Diff.run_count d);
  Alcotest.(check int) "changed" 3 (Diff.changed_bytes d);
  let target = Bytes.copy twin in
  Diff.apply d target;
  Alcotest.(check string) "reconstructs" (Bytes.to_string current)
    (Bytes.to_string target)

let test_diff_idempotent () =
  let twin = Bytes.make 32 '\000' in
  let current = Bytes.copy twin in
  Bytes.set current 10 'q';
  let d = Diff.create ~page:0 ~twin ~current in
  let target = Bytes.copy twin in
  Diff.apply d target;
  Diff.apply d target;
  Alcotest.(check string) "idempotent" (Bytes.to_string current)
    (Bytes.to_string target)

let test_diff_size_accounting () =
  let twin = Bytes.make 64 'a' in
  let current = Bytes.copy twin in
  Bytes.set current 0 'x';
  let d = Diff.create ~page:0 ~twin ~current in
  (* 8 header + 4 descriptor + 1 data byte *)
  Alcotest.(check int) "wire size" 13 (Diff.size_bytes d)

let bytes_gen len =
  QCheck.Gen.(map Bytes.of_string (string_size ~gen:printable (return len)))

let prop_diff_roundtrip =
  let gen =
    QCheck.make
      ~print:(fun (a, b) -> Bytes.to_string a ^ " / " ^ Bytes.to_string b)
      QCheck.Gen.(bytes_gen 128 >>= fun a -> bytes_gen 128 >|= fun b -> (a, b))
  in
  QCheck.Test.make ~name:"diff: apply(create(t,c), copy t) = c" ~count:300 gen
    (fun (twin, current) ->
      let d = Diff.create ~page:0 ~twin ~current in
      let target = Bytes.copy twin in
      Diff.apply d target;
      Bytes.equal target current)

let prop_diff_disjoint_writers_commute =
  (* Two writers touching disjoint ranges of a page: applying their diffs
     in either order yields the same result (multiple-writer protocol). *)
  let gen = QCheck.(pair (int_range 0 63) (int_range 64 127)) in
  QCheck.Test.make ~name:"diff: disjoint diffs commute" ~count:200 gen
    (fun (i, j) ->
      let base = Bytes.make 128 '\000' in
      let w1 = Bytes.copy base and w2 = Bytes.copy base in
      Bytes.set w1 i 'A';
      Bytes.set w2 j 'B';
      let d1 = Diff.create ~page:0 ~twin:base ~current:w1 in
      let d2 = Diff.create ~page:0 ~twin:base ~current:w2 in
      let t12 = Bytes.copy base and t21 = Bytes.copy base in
      Diff.apply d1 t12;
      Diff.apply d2 t12;
      Diff.apply d2 t21;
      Diff.apply d1 t21;
      Bytes.equal t12 t21 && Bytes.get t12 i = 'A' && Bytes.get t12 j = 'B')

let test_diff_merge_rejects () =
  let twin = Bytes.make 16 'a' and current = Bytes.make 16 'b' in
  let on page = Diff.create ~page ~twin ~current in
  Alcotest.check_raises "empty" (Invalid_argument "Diff.merge: empty")
    (fun () -> ignore (Diff.merge []));
  Alcotest.check_raises "mixed pages"
    (Invalid_argument "Diff.merge: pages differ") (fun () ->
      ignore (Diff.merge [ on 0; on 1 ]))

(* Quicksort's worst page: 4 KB where every fourth byte is unchanged, so
   the diff has 1,024 three-byte runs. *)
let every_fourth_equal_page () =
  let twin = Bytes.make 4096 '\000' in
  let current = Bytes.copy twin in
  for r = 0 to 1023 do
    Bytes.fill current (4 * r) 3 'x'
  done;
  (twin, current)

let test_diff_create_allocation () =
  (* A diff allocates a record and one buffer of run descriptors and
     bytes; a heap block per run would cost several more words per
     run. *)
  let twin, current = every_fourth_equal_page () in
  let before = Gc.allocated_bytes () in
  let d = Diff.create ~page:0 ~twin ~current in
  let words =
    (Gc.allocated_bytes () -. before) /. float_of_int (Sys.word_size / 8)
  in
  Alcotest.(check int) "runs" 1024 (Diff.run_count d);
  let bound = 2 * (1024 + (4096 / 8)) in
  if words >= float_of_int bound then
    Alcotest.failf "Diff.create allocated %.0f words (bound %d)" words bound

let test_diff_retained_words () =
  (* A diff retains its wire encoding plus a few words of headers: no
     descriptor word per run. *)
  let twin, current = every_fourth_equal_page () in
  let d = Diff.create ~page:0 ~twin ~current in
  let words = Obj.reachable_words (Obj.repr d) in
  let bound = ((Diff.size_bytes d - 8) / 8) + 8 in
  if words > bound then
    Alcotest.failf "diff retains %d words (bound %d)" words bound

let test_diff_whole_page_runs () =
  (* The descriptor edges on the largest page: a run of all 65,536
     bytes (its length - 1 is the largest u16) and a run at the last
     offset. *)
  let len = 65_536 in
  let twin = Bytes.make len 'a' in
  let all = Bytes.make len 'b' in
  let last = Bytes.copy twin in
  Bytes.set last (len - 1) 'c';
  let check name d r expect =
    if not (matches_reference ~page:1 d r) then
      Alcotest.failf "%s: runs differ from the list codec" name;
    let target = Bytes.copy twin in
    Diff.apply d target;
    Alcotest.(check bool) (name ^ ": apply round trip") true
      (Bytes.equal target expect)
  in
  let d_all = Diff.create ~page:1 ~twin ~current:all in
  let r_all = Ref_diff.create ~twin ~current:all in
  check "every byte" d_all r_all all;
  let d_last = Diff.create ~page:1 ~twin ~current:last in
  let r_last = Ref_diff.create ~twin ~current:last in
  check "last byte" d_last r_last last;
  let merged = Bytes.copy all in
  Bytes.set merged (len - 1) 'c';
  check "merge" (Diff.merge [ d_all; d_last ]) (Ref_diff.merge [ r_all; r_last ])
    merged

(* Which bytes of a page a writer changes: most of them, a few, or all
   but every fourth byte (the high byte of small int32 values, as in the
   quicksort workload). *)
type pattern = Dense | Sparse | Every_fourth_equal

let pattern_name = function
  | Dense -> "dense"
  | Sparse -> "sparse"
  | Every_fourth_equal -> "every 4th byte equal"

(* [twin] with the bytes [pattern] selects changed: byte [i] changes when
   its 0-99 roll is under the pattern's rate, by a nonzero xor mask. *)
let mutate pattern twin changes =
  let current = Bytes.copy twin in
  List.iteri
    (fun i (roll, mask) ->
      let change =
        match pattern with
        | Dense -> roll < 85
        | Sparse -> roll < 4
        | Every_fourth_equal -> i mod 4 <> 3 && roll < 95
      in
      if change then
        Bytes.set current i (Char.chr (Char.code (Bytes.get twin i) lxor mask)))
    changes;
  current

let gen_pattern = QCheck.Gen.oneofl [ Dense; Sparse; Every_fourth_equal ]

let gen_changes len =
  QCheck.Gen.(list_repeat len (pair (int_bound 99) (int_range 1 255)))

(* Page lengths 1-300, most of them not a multiple of the scan's 8-byte
   word. *)
let gen_page =
  QCheck.Gen.(
    int_range 1 300 >>= fun len ->
    string_size ~gen:char (return len) >|= Bytes.of_string)

let gen_twin_current =
  QCheck.Gen.(
    gen_page >>= fun twin ->
    gen_pattern >>= fun pattern ->
    gen_changes (Bytes.length twin) >|= fun changes ->
    (pattern, twin, mutate pattern twin changes))

let print_twin_current (pattern, twin, current) =
  Printf.sprintf "%s, %d bytes\ntwin    %S\ncurrent %S" (pattern_name pattern)
    (Bytes.length twin) (Bytes.to_string twin) (Bytes.to_string current)

let prop_diff_matches_reference =
  QCheck.Test.make ~name:"diff: runs and sizes match the list codec"
    ~count:500
    (QCheck.make ~print:print_twin_current gen_twin_current)
    (fun (_, twin, current) ->
      let d = Diff.create ~page:7 ~twin ~current in
      let target = Bytes.copy twin in
      Diff.apply d target;
      matches_reference ~page:7 d (Ref_diff.create ~twin ~current)
      && Bytes.equal target current)

(* Several writers' diffs against one base page, about a quarter of them
   empty. *)
let gen_merge_case =
  QCheck.Gen.(
    gen_page >>= fun base ->
    let write =
      frequency
        [
          (1, return base);
          ( 3,
            gen_pattern >>= fun p ->
            gen_changes (Bytes.length base) >|= mutate p base );
        ]
    in
    list_size (int_range 1 6) write >|= fun currents -> (base, currents))

let print_merge_case (base, currents) =
  String.concat "\n"
    (Printf.sprintf "base    %S" (Bytes.to_string base)
    :: List.map
         (fun c -> Printf.sprintf "current %S" (Bytes.to_string c))
         currents)

let prop_diff_merge =
  QCheck.Test.make
    ~name:"diff: apply (merge ds) = apply ds in order, runs match list codec"
    ~count:300
    (QCheck.make ~print:print_merge_case gen_merge_case)
    (fun (base, currents) ->
      let ds =
        List.map
          (fun current -> Diff.create ~page:3 ~twin:base ~current)
          currents
      in
      let merged = Diff.merge ds in
      let in_order = Bytes.copy base and at_once = Bytes.copy base in
      List.iter (fun d -> Diff.apply d in_order) ds;
      Diff.apply merged at_once;
      let reference =
        Ref_diff.merge
          (List.map
             (fun current -> Ref_diff.create ~twin:base ~current)
             currents)
      in
      Bytes.equal in_order at_once
      && matches_reference ~page:3 merged reference)

(* ------------------------------------------------------------------ *)
(* Page *)

let fresh_page size = Page.create ~twin_pool:(Page.create_twin_pool ()) ~size

let test_page_twin_and_diff () =
  let p = fresh_page 64 in
  Alcotest.(check bool) "starts read-only" true (Page.state p = Page.Read_only);
  Page.make_twin p;
  Alcotest.(check bool) "read-write" true (Page.state p = Page.Read_write);
  Bytes.set (Page.data p) 7 'k';
  let d = Page.encode_diff p ~page_index:3 in
  Alcotest.(check bool) "back to read-only" true
    (Page.state p = Page.Read_only);
  Alcotest.(check int) "diff page" 3 (Diff.page d);
  Alcotest.(check int) "one changed byte" 1 (Diff.changed_bytes d)

let test_page_invalidate_requires_clean () =
  let p = fresh_page 64 in
  Page.make_twin p;
  (match Page.invalidate p with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "invalidate of dirty page accepted");
  let (_ : Diff.t) = Page.encode_diff p ~page_index:0 in
  Page.invalidate p;
  Alcotest.(check bool) "invalid" true (Page.state p = Page.Invalid)

let test_page_install_and_validate () =
  let p = fresh_page 8 in
  Page.invalidate p;
  Page.install p (Bytes.of_string "abcdefgh");
  Alcotest.(check bool) "valid after install" true
    (Page.state p = Page.Read_only);
  Alcotest.(check string) "contents" "abcdefgh"
    (Bytes.to_string (Page.data p));
  Page.invalidate p;
  Page.validate p;
  Alcotest.(check bool) "valid again" true (Page.state p = Page.Read_only)

(* ------------------------------------------------------------------ *)
(* Page table *)

let test_page_table_fault_dispatch () =
  let obs = Carlos_obs.Obs.create () in
  let pt = Page_table.create ~obs ~pages:4 ~page_size:64 () in
  let read_faults = ref [] and write_faults = ref [] in
  Page_table.set_read_fault pt (fun i ->
      read_faults := i :: !read_faults;
      Page.validate (Page_table.page pt i));
  Page_table.set_write_fault pt (fun i ->
      write_faults := i :: !write_faults;
      Page.make_twin (Page_table.page pt i));
  (* Fresh pages are readable without faulting. *)
  Page_table.ensure_readable pt 0;
  Alcotest.(check (list int)) "no read fault" [] !read_faults;
  (* Write takes a write fault once. *)
  Page_table.ensure_writable pt 0;
  Page_table.ensure_writable pt 0;
  Alcotest.(check (list int)) "one write fault" [ 0 ] !write_faults;
  (* Invalid page takes a read fault on read. *)
  Page.invalidate (Page_table.page pt 1);
  Page_table.ensure_readable pt 1;
  Alcotest.(check (list int)) "one read fault" [ 1 ] !read_faults;
  let vm_counter name = Counters.counter obs ~layer:Carlos_obs.Obs.Vm name in
  Alcotest.(check int) "stats reads" 1 (vm_counter "read_faults");
  Alcotest.(check int) "stats writes" 1 (vm_counter "write_faults")

let test_page_table_write_to_invalid_takes_both_faults () =
  let pt = Page_table.create ~pages:1 ~page_size:64 () in
  let log = ref [] in
  Page_table.set_read_fault pt (fun i ->
      log := `Read :: !log;
      Page.validate (Page_table.page pt i));
  Page_table.set_write_fault pt (fun i ->
      log := `Write :: !log;
      Page.make_twin (Page_table.page pt i));
  Page.invalidate (Page_table.page pt 0);
  Page_table.ensure_writable pt 0;
  Alcotest.(check bool) "read then write fault" true
    (List.rev !log = [ `Read; `Write ])

let test_page_table_broken_handler_detected () =
  let pt = Page_table.create ~pages:1 ~page_size:64 () in
  Page_table.set_read_fault pt (fun _ -> ());
  Page.invalidate (Page_table.page pt 0);
  match Page_table.ensure_readable pt 0 with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "handler that fixes nothing must be detected"

(* ------------------------------------------------------------------ *)
(* Shm *)

let test_shm_coherent_rw () =
  let shm = make_shm () in
  let addr = Shm.addr shm ~page:3 ~offset:8 in
  Shm.write_f64 shm addr 3.25;
  let dst = Array.make 1 0.0 in
  Shm.read_f64_into shm addr dst 0;
  Alcotest.(check (float 0.0)) "f64 roundtrip" 3.25 dst.(0)

(* [read_f64_into] on a valid page stores the double unboxed: no words
   allocated per read. *)
let test_shm_read_f64_into_allocation () =
  let shm = make_shm () in
  let addr = Shm.addr shm ~page:3 ~offset:8 in
  Shm.write_f64 shm addr 3.25;
  let dst = Array.make 2 0.0 in
  Shm.read_f64_into shm addr dst 1;
  Alcotest.(check (float 0.0)) "read into cell" 3.25 dst.(1);
  let n = 10_000 in
  let before = Gc.minor_words () in
  for _ = 1 to n do
    Shm.read_f64_into shm addr dst 1
  done;
  let w = (Gc.minor_words () -. before) /. float_of_int n in
  if w > 0.0 then Alcotest.failf "read_f64_into allocates %.2f words" w

let test_shm_unaligned_rejected () =
  let shm = make_shm () in
  let addr = Shm.addr shm ~page:0 ~offset:4 in
  (match Shm.read_i64 shm addr with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unaligned read accepted");
  match Shm.write_i32 shm (addr + 2) 1 with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "unaligned write accepted"

let test_shm_out_of_range_rejected () =
  let shm = make_shm () in
  let addr = Shm.addr shm ~page:1 ~offset:8 in
  let expect_reject name write =
    match write () with
    | exception Invalid_argument _ -> ()
    | () -> Alcotest.failf "%s accepted" name
  in
  expect_reject "u8 256" (fun () -> Shm.write_u8 shm addr 256);
  expect_reject "u8 -1" (fun () -> Shm.write_u8 shm addr (-1));
  expect_reject "i32 2^31" (fun () -> Shm.write_i32 shm addr (1 lsl 31))

let test_shm_bulk_cross_page_rejected () =
  let shm = make_shm () in
  let addr = Shm.addr shm ~page:0 ~offset:250 in
  (match Shm.write_bytes shm addr (Bytes.make 16 'x') with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "cross-page bulk write accepted");
  match Shm.patch_bytes shm addr (Bytes.make 16 'x') with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "cross-page patch accepted"

let test_shm_u8 () =
  let shm = make_shm () in
  let addr = Shm.addr shm ~page:1 ~offset:13 in
  Shm.write_u8 shm addr 200;
  Alcotest.(check int) "u8" 200 (Shm.read_u8 shm addr)

(* ------------------------------------------------------------------ *)
(* Frames on first touch *)

(* Operations on the pages of three Shm views that share one pool.  A
   page is named by its index in [frame_pages]. *)
type frame_op =
  | Make_twin of int
  | Write of int * int * int (* page, offset, byte: through Shm *)
  | Read of int * int (* page, offset: through Shm *)
  | Encode of int
  | Apply of int * int (* page, diff *)
  | Apply_to_twin of int * int
  | Patch of int * int * string (* page, offset, bytes *)
  | Install of int * int (* page, fill seed *)
  | Invalidate of int
  | Validate of int

(* Views 0 and 1 have three 64-byte pages each, view 2 two 32-byte pages,
   so the pool holds two zero frames. *)
let frame_pages =
  [| (0, 0); (0, 1); (0, 2); (1, 0); (1, 1); (1, 2); (2, 0); (2, 1) |]

let show_frame_op = function
  | Make_twin p -> Printf.sprintf "make_twin %d" p
  | Write (p, o, v) -> Printf.sprintf "write %d@%d=%d" p o v
  | Read (p, o) -> Printf.sprintf "read %d@%d" p o
  | Encode p -> Printf.sprintf "encode %d" p
  | Apply (p, d) -> Printf.sprintf "apply %d diff %d" p d
  | Apply_to_twin (p, d) -> Printf.sprintf "apply_to_twin %d diff %d" p d
  | Patch (p, o, s) -> Printf.sprintf "patch %d@%d %S" p o s
  | Install (p, s) -> Printf.sprintf "install %d fill %d" p s
  | Invalidate p -> Printf.sprintf "invalidate %d" p
  | Validate p -> Printf.sprintf "validate %d" p

let gen_frame_op =
  let open QCheck.Gen in
  let page = int_bound (Array.length frame_pages - 1) and off = int_bound 63 in
  frequency
    [
      (2, map (fun p -> Make_twin p) page);
      (6, map3 (fun p o v -> Write (p, o, v)) page off (int_bound 255));
      (3, map2 (fun p o -> Read (p, o)) page off);
      (3, map (fun p -> Encode p) page);
      (2, map2 (fun p d -> Apply (p, d)) page nat);
      (2, map2 (fun p d -> Apply_to_twin (p, d)) page nat);
      ( 2,
        map3
          (fun p o s -> Patch (p, o, s))
          page off
          (string_size ~gen:printable (int_range 1 8)) );
      (1, map2 (fun p s -> Install (p, s)) page (int_bound 255));
      (2, map (fun p -> Invalidate p) page);
      (2, map (fun p -> Validate p) page);
    ]

(* The eager model of one page: its own data and twin from the start,
   and whether some operation has written to the real page yet. *)
type page_model = {
  mutable m_state : Page.state;
  mutable m_data : Bytes.t;
  mutable m_twin : Bytes.t option;
  mutable touched : bool;
}

(* After every step each page matches its model: state, data, clean
   snapshot, and whether it owns a frame (exactly when written to).  At
   the end the shared zero frames must still be all zeros. *)
let prop_frames_on_first_touch =
  QCheck.Test.make
    ~name:"page: frames on first touch match an eager model" ~count:200
    QCheck.(
      make
        ~print:(Print.list show_frame_op)
        Gen.(list_size (int_range 1 60) gen_frame_op))
    (fun ops ->
      let twin_pool = Page.create_twin_pool () in
      let view ~page_size ~pages =
        let shm = Shm.create ~twin_pool ~page_size ~pages () in
        let pt = Shm.page_table shm in
        Page_table.set_read_fault pt (fun i ->
            Page.validate (Page_table.page pt i));
        Page_table.set_write_fault pt (fun i ->
            Page.make_twin (Page_table.page pt i));
        shm
      in
      let views =
        [|
          view ~page_size:64 ~pages:3;
          view ~page_size:64 ~pages:3;
          view ~page_size:32 ~pages:2;
        |]
      in
      let shm p = views.(fst frame_pages.(p)) in
      let page p =
        Page_table.page (Shm.page_table (shm p)) (snd frame_pages.(p))
      in
      let addr p off =
        let v, i = frame_pages.(p) in
        Shm.addr views.(v) ~page:i ~offset:off
      in
      let size p = Page_table.page_size (Shm.page_table (shm p)) in
      let zero_frame size = Page.data (Page.create ~twin_pool ~size) in
      let model =
        Array.init (Array.length frame_pages) (fun p ->
            {
              m_state = Page.Read_only;
              m_data = Bytes.make (size p) '\000';
              m_twin = None;
              touched = false;
            })
      in
      (* Diffs encoded so far: the page size, the diff and the bytes it
         changed. *)
      let diffs = ref [] in
      let pick_diff p k =
        match List.filter (fun (s, _, _) -> s = size p) !diffs with
        | [] -> None
        | ds -> Some (List.nth ds (k mod List.length ds))
      in
      let set_bytes b changes =
        List.iter (fun (i, c) -> Bytes.set b i c) changes
      in
      let patch_model m off s =
        Bytes.blit_string s 0 m.m_data off (String.length s);
        Option.iter (fun t -> Bytes.blit_string s 0 t off (String.length s))
          m.m_twin
      in
      let step op =
        match op with
        | Make_twin p ->
          let m = model.(p) in
          if m.m_state = Page.Read_only then begin
            Page.make_twin (page p);
            m.m_twin <- Some (Bytes.copy m.m_data);
            m.m_state <- Page.Read_write;
            m.touched <- true
          end
        | Write (p, off, v) ->
          let m = model.(p) and off = off mod size p in
          Shm.write_u8 (shm p) (addr p off) v;
          if m.m_state <> Page.Read_write then begin
            m.m_twin <- Some (Bytes.copy m.m_data);
            m.m_state <- Page.Read_write
          end;
          Bytes.set m.m_data off (Char.chr v);
          m.touched <- true
        | Read (p, off) ->
          let m = model.(p) and off = off mod size p in
          let got = Shm.read_u8 (shm p) (addr p off) in
          if m.m_state = Page.Invalid then m.m_state <- Page.Read_only;
          let want = Char.code (Bytes.get m.m_data off) in
          if got <> want then
            QCheck.Test.fail_reportf "page %d byte %d reads %d, model %d" p
              off got want
        | Encode p ->
          let m = model.(p) in
          if m.m_state = Page.Read_write then begin
            let twin = Option.get m.m_twin in
            let changes =
              List.filter_map
                (fun i ->
                  let c = Bytes.get m.m_data i in
                  if c <> Bytes.get twin i then Some (i, c) else None)
                (List.init (size p) Fun.id)
            in
            let d =
              Page.encode_diff (page p) ~page_index:(snd frame_pages.(p))
            in
            diffs := !diffs @ [ (size p, d, changes) ];
            m.m_twin <- None;
            m.m_state <- Page.Read_only
          end
        | Apply (p, k) -> (
          match pick_diff p k with
          | None -> ()
          | Some (_, d, changes) ->
            let m = model.(p) in
            Page.apply_diff (page p) d;
            set_bytes m.m_data changes;
            m.touched <- true)
        | Apply_to_twin (p, k) -> (
          match pick_diff p k with
          | None -> ()
          | Some (_, d, changes) ->
            let m = model.(p) in
            Page.apply_diff_to_twin (page p) d;
            set_bytes m.m_data changes;
            Option.iter (fun t -> set_bytes t changes) m.m_twin;
            m.touched <- true)
        | Patch (p, off, s) ->
          let m = model.(p) and off = off mod size p in
          let s = String.sub s 0 (min (String.length s) (size p - off)) in
          Page.patch (page p) ~offset:off (Bytes.of_string s);
          patch_model m off s;
          m.touched <- true
        | Install (p, seed) ->
          let m = model.(p) in
          let b =
            Bytes.init (size p) (fun i -> Char.chr ((seed + (7 * i)) land 255))
          in
          Page.install (page p) b;
          m.m_data <- Bytes.copy b;
          m.m_twin <- None;
          m.m_state <- Page.Read_only;
          m.touched <- true
        | Invalidate p ->
          let m = model.(p) in
          if m.m_state <> Page.Read_write then begin
            Page.invalidate (page p);
            m.m_state <- Page.Invalid
          end
        | Validate p ->
          let m = model.(p) in
          if m.m_state = Page.Invalid then begin
            Page.validate (page p);
            m.m_state <- Page.Read_only
          end
      in
      let check () =
        Array.iteri
          (fun p m ->
            let pg = page p in
            let snapshot =
              match m.m_twin with Some t -> t | None -> m.m_data
            in
            if Page.state pg <> m.m_state then
              QCheck.Test.fail_reportf "page %d: state differs" p;
            if not (Bytes.equal (Page.data pg) m.m_data) then
              QCheck.Test.fail_reportf "page %d: data differs" p;
            if not (Bytes.equal (Page.clean_snapshot pg) snapshot) then
              QCheck.Test.fail_reportf "page %d: clean snapshot differs" p;
            if m.touched = (Page.data pg == zero_frame (size p)) then
              QCheck.Test.fail_reportf "page %d: %s" p
                (if m.touched then "written but still on the zero frame"
                 else "owns a frame it never wrote"))
          model
      in
      List.iter
        (fun op ->
          step op;
          check ())
        ops;
      List.for_all
        (fun size -> Bytes.for_all (( = ) '\000') (zero_frame size))
        [ 32; 64 ])

(* Setting up grid-32 (32 nodes, [Grid.config]) must not allocate every
   node's address space up front: an eager simulator reaches a frame for
   every coherent page on every node. *)
let test_system_create_footprint () =
  let nodes = 32 in
  let cfg = Carlos_apps.Grid.config ~nodes Carlos_apps.Grid.default_params in
  let sys = Carlos.System.create cfg in
  let eager =
    nodes * cfg.coherent_pages * cfg.page_size / (Sys.word_size / 8)
  in
  let reached = Obj.reachable_words (Obj.repr sys) in
  if reached >= eager / 4 then
    Alcotest.failf "System.create reaches %d words, eager layout %d" reached
      eager

(* ------------------------------------------------------------------ *)
(* Alloc *)

let test_alloc_basic () =
  let a = Alloc.create ~base:1000 ~size:256 in
  let p1 = Alloc.alloc a 10 in
  let p2 = Alloc.alloc a 10 in
  Alcotest.(check bool) "disjoint" true (abs (p2 - p1) >= 10);
  Alcotest.(check int) "live" 20 (Alloc.live_bytes a)

let test_alloc_alignment () =
  let a = Alloc.create ~base:1001 ~size:256 in
  let p = Alloc.alloc a ~align:16 10 in
  Alcotest.(check int) "aligned" 0 (p mod 16)

let test_alloc_exhaustion () =
  let a = Alloc.create ~base:0 ~size:64 in
  let _ = Alloc.alloc a 64 in
  match Alloc.alloc a 1 with
  | exception Out_of_memory -> ()
  | _ -> Alcotest.fail "expected Out_of_memory"

let test_alloc_free_reuse () =
  let a = Alloc.create ~base:0 ~size:64 in
  let p1 = Alloc.alloc a 32 in
  let _p2 = Alloc.alloc a 32 in
  Alloc.free a ~addr:p1 ~size:32;
  let p3 = Alloc.alloc a 32 in
  Alcotest.(check int) "reused" p1 p3

let test_alloc_coalesce () =
  let a = Alloc.create ~base:0 ~size:96 in
  let p1 = Alloc.alloc a 32 in
  let p2 = Alloc.alloc a 32 in
  let p3 = Alloc.alloc a 32 in
  Alloc.free a ~addr:p1 ~size:32;
  Alloc.free a ~addr:p2 ~size:32;
  Alloc.free a ~addr:p3 ~size:32;
  (* After coalescing we can allocate the whole arena again. *)
  let p = Alloc.alloc a 96 in
  Alcotest.(check int) "full arena" 0 p

let prop_alloc_no_overlap =
  QCheck.Test.make ~name:"alloc: live blocks never overlap" ~count:100
    QCheck.(small_list (int_range 1 64))
    (fun sizes ->
      let a = Alloc.create ~base:0 ~size:65536 in
      let blocks = List.map (fun n -> (Alloc.alloc a n, n)) sizes in
      let sorted = List.sort compare blocks in
      let rec disjoint = function
        | (a1, s1) :: ((a2, _) :: _ as rest) ->
          a1 + s1 <= a2 && disjoint rest
        | [ _ ] | [] -> true
      in
      disjoint sorted)

(* ------------------------------------------------------------------ *)

let qcheck = Props.qcheck

let () =
  Props.run "vm"
    [
      ( "region",
        [
          Alcotest.test_case "locate" `Quick test_region_locate;
          Alcotest.test_case "segv" `Quick test_region_segv;
          Alcotest.test_case "coherent addr roundtrip" `Quick
            test_region_coherent_addr;
          Alcotest.test_case "bad page size" `Quick test_region_bad_page_size;
        ] );
      ( "diff",
        [
          Alcotest.test_case "empty" `Quick test_diff_empty;
          Alcotest.test_case "roundtrip" `Quick test_diff_roundtrip_simple;
          Alcotest.test_case "idempotent" `Quick test_diff_idempotent;
          Alcotest.test_case "size accounting" `Quick
            test_diff_size_accounting;
          Alcotest.test_case "merge rejects empty and mixed pages" `Quick
            test_diff_merge_rejects;
          Alcotest.test_case "create allocates per diff, not per run" `Quick
            test_diff_create_allocation;
          Alcotest.test_case "retains its wire encoding" `Quick
            test_diff_retained_words;
          Alcotest.test_case "64 KiB page descriptor edges" `Quick
            test_diff_whole_page_runs;
        ]
        @ qcheck
            [
              prop_diff_roundtrip;
              prop_diff_disjoint_writers_commute;
              prop_diff_matches_reference;
              prop_diff_merge;
            ] );
      ( "page",
        [
          Alcotest.test_case "twin and diff" `Quick test_page_twin_and_diff;
          Alcotest.test_case "invalidate requires clean" `Quick
            test_page_invalidate_requires_clean;
          Alcotest.test_case "install and validate" `Quick
            test_page_install_and_validate;
        ] );
      ( "page-table",
        [
          Alcotest.test_case "fault dispatch" `Quick
            test_page_table_fault_dispatch;
          Alcotest.test_case "write to invalid: both faults" `Quick
            test_page_table_write_to_invalid_takes_both_faults;
          Alcotest.test_case "broken handler detected" `Quick
            test_page_table_broken_handler_detected;
        ] );
      ( "shm",
        [
          Alcotest.test_case "coherent rw" `Quick test_shm_coherent_rw;
          Alcotest.test_case "unaligned rejected" `Quick
            test_shm_unaligned_rejected;
          Alcotest.test_case "out-of-range values rejected" `Quick
            test_shm_out_of_range_rejected;
          Alcotest.test_case "bulk cross-page rejected" `Quick
            test_shm_bulk_cross_page_rejected;
          Alcotest.test_case "u8" `Quick test_shm_u8;
          Alcotest.test_case "read_f64_into allocation" `Quick
            test_shm_read_f64_into_allocation;
        ] );
      ( "frames",
        Alcotest.test_case "system create footprint" `Quick
          test_system_create_footprint
        :: qcheck [ prop_frames_on_first_touch ] );
      ( "alloc",
        [
          Alcotest.test_case "basic" `Quick test_alloc_basic;
          Alcotest.test_case "alignment" `Quick test_alloc_alignment;
          Alcotest.test_case "exhaustion" `Quick test_alloc_exhaustion;
          Alcotest.test_case "free and reuse" `Quick test_alloc_free_reuse;
          Alcotest.test_case "coalesce" `Quick test_alloc_coalesce;
        ]
        @ qcheck [ prop_alloc_no_overlap ] );
    ]
