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

(* Words [f] allocates, on the minor heap or straight on the major
   heap (a block too big for the minor heap), counted exactly. *)
let allocated_words f =
  let _, promoted0, major0 = Gc.counters () in
  let minor0 = Gc.minor_words () in
  f ();
  let minor1 = Gc.minor_words () in
  let _, promoted1, major1 = Gc.counters () in
  int_of_float
    (minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0))

let test_diff_create_allocation () =
  (* Once its domain's scratch buffer exists, a diff allocates exactly
     its record (a header and three fields) and one buffer of run
     descriptors and bytes (a header and [n / 8 + 1] words for [n]
     bytes), however many runs it holds; applying it allocates
     nothing. *)
  let twin, current = every_fourth_equal_page () in
  ignore (Diff.create ~page:0 ~twin ~current);
  let d = ref (Diff.create ~page:0 ~twin ~current) in
  let words =
    allocated_words (fun () -> d := Diff.create ~page:0 ~twin ~current)
  in
  Alcotest.(check int) "runs" 1024 (Diff.run_count !d);
  let buf_bytes = Diff.size_bytes !d - 8 in
  Alcotest.(check int) "create allocates the record and buffer"
    (4 + 2 + (buf_bytes / 8))
    words;
  let target = Bytes.copy twin in
  Alcotest.(check int) "apply allocates nothing" 0
    (allocated_words (fun () -> Diff.apply !d target))

let test_diff_merge_allocation () =
  (* Once its domain's replay scratch has grown to the page, a merge
     allocates exactly its result's record and buffer, as [create]
     does.  The pieces are quicksort-like: writer [k] changes all but
     every fourth byte of the [k]th quarter of the page. *)
  let twin = Bytes.make 4096 '\000' in
  let ds =
    List.init 4 (fun k ->
        let current = Bytes.copy twin in
        for i = k * 1024 to ((k + 1) * 1024) - 1 do
          if i mod 4 <> 3 then Bytes.set current i 'x'
        done;
        Diff.create ~page:0 ~twin ~current)
  in
  ignore (Diff.merge ds);
  let m = ref (Diff.merge ds) in
  let words = allocated_words (fun () -> m := Diff.merge ds) in
  Alcotest.(check int) "runs" 1024 (Diff.run_count !m);
  let buf_bytes = Diff.size_bytes !m - 8 in
  Alcotest.(check int) "merge allocates the record and buffer"
    (4 + 2 + (buf_bytes / 8))
    words

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

let test_diff_merge_sequence () =
  (* One domain's merges in a row, each checked against the list codec
     and against applying its pieces in order: a page changed end to
     end, then one touched only in its first 16 bytes, then one touched
     in a few bytes up to its end, so marks a merge left behind would
     show as extra runs; pieces that are all empty; a 65,536-byte page
     changed end to end; and a merge that fails part way on a piece of
     another page, after which a sparse merge must still see only its
     own runs. *)
  let check name ~page twin currents =
    let ds =
      List.map (fun current -> Diff.create ~page ~twin ~current) currents
    in
    let merged = Diff.merge ds in
    let reference =
      Ref_diff.merge
        (List.map (fun current -> Ref_diff.create ~twin ~current) currents)
    in
    if not (matches_reference ~page merged reference) then
      Alcotest.failf "%s: merge differs from the list codec: %s" name
        (Format.asprintf "%a" Diff.pp merged);
    let in_order = Bytes.copy twin and at_once = Bytes.copy twin in
    List.iter (fun d -> Diff.apply d in_order) ds;
    Diff.apply merged at_once;
    if not (Bytes.equal in_order at_once) then
      Alcotest.failf "%s: merge differs from applying in order" name
  in
  let changed twin positions =
    let current = Bytes.copy twin in
    List.iter (fun i -> Bytes.set current i 'y') positions;
    current
  in
  let page = Bytes.make 4096 'a' in
  let whole = Bytes.make 4096 'b' in
  let sparse_to_end = [ changed page [ 100 ]; changed page [ 2000; 4095 ] ] in
  check "4,096 bytes end to end" ~page:4 page [ whole; changed page [ 7 ] ];
  check "16 bytes" ~page:4 page
    [ changed page [ 0; 1 ]; changed page [ 15 ]; changed page [ 3 ] ];
  check "4,096 bytes, sparse to the end" ~page:4 page sparse_to_end;
  check "all pieces empty" ~page:4 page [ page; page; page ];
  check "4,096 bytes, sparse again" ~page:4 page sparse_to_end;
  let big = Bytes.make 65_536 'a' in
  check "65,536 bytes end to end" ~page:5 big
    [ Bytes.make 65_536 'b'; changed big [ 0; 65_535 ] ];
  let whole_other = Diff.create ~page:6 ~twin:page ~current:whole in
  let stray = Diff.create ~page:7 ~twin:page ~current:(changed page [ 9 ]) in
  Alcotest.check_raises "mixed pages, part way"
    (Invalid_argument "Diff.merge: pages differ") (fun () ->
      ignore (Diff.merge [ whole_other; whole_other; stray ]));
  check "4,096 bytes, sparse after a failed merge" ~page:4 page sparse_to_end

let test_diff_word_tail_lengths () =
  (* Every page length from 0 to 24 and the two largest, each with every
     byte, alternate bytes or only the last byte changed: the word scan's
     whole words, its byte-by-byte tail past the last whole word, and a
     run that ends at the end of the page.  At 65,535 bytes, alternate
     bytes fill the encoder's worst-case scratch bound exactly. *)
  let lengths = List.init 25 Fun.id @ [ 65_535; 65_536 ] in
  let changes =
    [
      ("every byte", fun _ _ -> true);
      ("alternate bytes", fun _ i -> i mod 2 = 0);
      ("last byte", fun len i -> i = len - 1);
    ]
  in
  List.iter
    (fun len ->
      List.iter
        (fun (name, changed) ->
          let twin = Bytes.make len 'a' in
          let current =
            Bytes.mapi (fun i c -> if changed len i then 'b' else c) twin
          in
          let d = Diff.create ~page:2 ~twin ~current in
          let r = Ref_diff.create ~twin ~current in
          if not (matches_reference ~page:2 d r) then
            Alcotest.failf "%d bytes, %s: runs differ from the list codec" len
              name;
          if not (matches_reference ~page:2 (Diff.merge [ d; d ]) r) then
            Alcotest.failf "%d bytes, %s: merge differs from the list codec"
              len name;
          let target = Bytes.copy twin in
          Diff.apply d target;
          if not (Bytes.equal target current) then
            Alcotest.failf "%d bytes, %s: apply does not round trip" len name)
        changes)
    lengths

(* Which bytes of a page a writer changes: most of them, a few, all
   but every fourth byte (the high byte of small int32 values, as in the
   quicksort workload), or, word by word, all of an aligned 8-byte word,
   none of it or a random subset (so runs open and close at every offset
   in a word and across word boundaries). *)
type pattern = Dense | Sparse | Every_fourth_equal | Word_masks

let pattern_name = function
  | Dense -> "dense"
  | Sparse -> "sparse"
  | Every_fourth_equal -> "every 4th byte equal"
  | Word_masks -> "whole, empty or mixed words"

(* [twin] with the bytes [pattern] selects changed: byte [i] changes when
   its 0-99 roll is under the pattern's rate, by a nonzero xor mask.
   Under [Word_masks] the roll of a word's first byte picks the word's
   kind. *)
let mutate pattern twin changes =
  let current = Bytes.copy twin in
  let changes = Array.of_list changes in
  Array.iteri
    (fun i (roll, mask) ->
      let change =
        match pattern with
        | Dense -> roll < 85
        | Sparse -> roll < 4
        | Every_fourth_equal -> i mod 4 <> 3 && roll < 95
        | Word_masks -> (
          match fst changes.(i land lnot 7) mod 3 with
          | 0 -> true
          | 1 -> false
          | _ -> roll < 50)
      in
      if change then
        Bytes.set current i (Char.chr (Char.code (Bytes.get twin i) lxor mask)))
    changes;
  current

let gen_pattern =
  QCheck.Gen.oneofl [ Dense; Sparse; Every_fourth_equal; Word_masks ]

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

let test_diff_domains_encode_at_once () =
  (* Each domain encodes into a scratch buffer of its own and merges
     through a replay scratch of its own: two domains encoding pages of
     growing length at once, and merging pieces of them, both get
     exactly the list codec's runs. *)
  let encode_pages seed () =
    let rand = Random.State.make [| seed |] in
    List.for_all
      (fun k ->
        let twin = Bytes.init (16 * k) (fun _ ->
              Char.chr (Random.State.int rand 256)) in
        let changes =
          QCheck.Gen.generate1 ~rand (gen_changes (Bytes.length twin))
        in
        let pattern = if k mod 2 = 0 then Dense else Word_masks in
        let current = mutate pattern twin changes in
        let pieces =
          List.map
            (fun pattern -> mutate pattern twin changes)
            [ Sparse; pattern; Every_fourth_equal ]
        in
        matches_reference ~page:k
          (Diff.create ~page:k ~twin ~current)
          (Ref_diff.create ~twin ~current)
        && matches_reference ~page:k
             (Diff.merge
                (List.map
                   (fun current -> Diff.create ~page:k ~twin ~current)
                   pieces))
             (Ref_diff.merge
                (List.map
                   (fun current -> Ref_diff.create ~twin ~current)
                   pieces)))
      (List.init 256 (fun k -> k + 1))
  in
  let other = Domain.spawn (encode_pages 1) in
  let here = encode_pages 2 () in
  Alcotest.(check bool) "spawned domain's diffs" true (Domain.join other);
  Alcotest.(check bool) "main domain's diffs" true here

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
  (match Shm.patch_bytes shm addr (Bytes.make 16 'x') with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "cross-page patch accepted");
  Alcotest.(check int) "rejected patch wrote nothing" 0 (Shm.read_u8 shm addr);
  (* The page's last word ends exactly at the boundary: in bounds. *)
  let last = Shm.addr shm ~page:0 ~offset:248 in
  Shm.write_i64 shm last 7;
  Alcotest.(check int) "last word of the page" 7 (Shm.read_i64 shm last)

let test_shm_u8 () =
  let shm = make_shm () in
  let addr = Shm.addr shm ~page:1 ~offset:13 in
  Shm.write_u8 shm addr 200;
  Alcotest.(check int) "u8" 200 (Shm.read_u8 shm addr)

(* [write_f64], [read_i32] and [write_i32] on a mapped page allocate
   nothing either.  The stored float is computed, so a call that boxed
   its argument would show here: the accessors inline into this loop
   (the release build compiles without [-opaque]).  The dev profile
   does not inline them, and [write_f64] boxes its argument, 2 words a
   call. *)
let test_shm_access_allocation () =
  let shm = make_shm () in
  let f = Shm.addr shm ~page:3 ~offset:8
  and i = Shm.addr shm ~page:4 ~offset:4 in
  Shm.write_f64 shm f 0.5;
  Shm.write_i32 shm i 0;
  let n = 10_000 in
  let words ?(bound = 0.0) name access =
    let before = Gc.minor_words () in
    for k = 1 to n do
      access k
    done;
    let w = (Gc.minor_words () -. before) /. float_of_int n in
    if w > bound then Alcotest.failf "%s allocates %.2f words" name w
  in
  words "write_f64"
    ~bound:(if Build_profile.name = "release" then 0.0 else 2.0)
    (fun k -> Shm.write_f64 shm f (float_of_int k *. 0.5));
  let sum = ref 0 in
  words "read_i32" (fun _ -> sum := !sum + Shm.read_i32 shm i);
  words "write_i32" (fun k -> Shm.write_i32 shm i (k - 5_000));
  let dst = Array.make 1 0.0 in
  Shm.read_f64_into shm f dst 0;
  Alcotest.(check (float 0.0)) "last f64" (float_of_int n *. 0.5) dst.(0);
  Alcotest.(check int) "last i32" (n - 5_000) (Shm.read_i32 shm i);
  Alcotest.(check int) "reads saw the stored zero" 0 !sum

(* Every frame a page can hold is [page_size] bytes long, which lets the
   typed accessors load without a bounds check: the pool's zero frames
   (one per size), the page's own frame once a write materializes it,
   and an installed copy, whose size [install] checks. *)
let test_page_frames_are_page_sized () =
  let twin_pool = Page.create_twin_pool () in
  let small = Page.create ~twin_pool ~size:32
  and large = Page.create ~twin_pool ~size:64 in
  let length p = Bytes.length (Page.data p) in
  Alcotest.(check int) "zero frame, 32" 32 (length small);
  Alcotest.(check int) "zero frame, 64" 64 (length large);
  Page.make_twin large;
  Alcotest.(check int) "own frame" 64 (length large);
  let (_ : Diff.t) = Page.encode_diff large ~page_index:0 in
  Page.patch small ~offset:4 (Bytes.of_string "ab");
  Alcotest.(check int) "patched frame" 32 (length small);
  Page.install small (Bytes.make 32 'x');
  Alcotest.(check int) "installed frame" 32 (length small);
  (match Page.install small (Bytes.make 64 'y') with
  | exception Invalid_argument msg ->
    Alcotest.(check string) "message" "Page.install: size mismatch" msg
  | () -> Alcotest.fail "install of a wrong-sized copy accepted");
  Alcotest.(check string) "rejected install wrote nothing" (String.make 32 'x')
    (Bytes.to_string (Page.data small))

(* The typed accessors against a byte-array model of the region.  A
   random mix of reads and writes of every width, at aligned, unaligned
   and out-of-range addresses, with out-of-range values, on pages that
   start in every state: each access must return the model's value or
   raise its exception (message included), take the model's faults in
   its order, and leave the model's bytes and page states. *)

type access =
  | Rd_u8 of int
  | Wr_u8 of int * int
  | Rd_i32 of int
  | Wr_i32 of int * int
  | Rd_i64 of int
  | Wr_i64 of int * int
  | Rd_f64 of int
  | Wr_f64 of int * float

let show_access =
  let a addr = Printf.sprintf "base%+d" (addr - Shm.base) in
  function
  | Rd_u8 x -> "read_u8 " ^ a x
  | Wr_u8 (x, v) -> Printf.sprintf "write_u8 %s %d" (a x) v
  | Rd_i32 x -> "read_i32 " ^ a x
  | Wr_i32 (x, v) -> Printf.sprintf "write_i32 %s %d" (a x) v
  | Rd_i64 x -> "read_i64 " ^ a x
  | Wr_i64 (x, v) -> Printf.sprintf "write_i64 %s %d" (a x) v
  | Rd_f64 x -> "read_f64 " ^ a x
  | Wr_f64 (x, v) -> Printf.sprintf "write_f64 %s %h" (a x) v

let model_page_size = 64

let model_pages = 4

let model_size = model_page_size * model_pages

type model_case = {
  states : Page.state array;
  fill : string; (* the region's bytes before the first access *)
  accesses : access list;
}

let show_state = function
  | Page.Invalid -> "I"
  | Page.Read_only -> "R"
  | Page.Read_write -> "W"

let print_model_case c =
  Printf.sprintf "states %s\n%s"
    (String.concat "" (Array.to_list (Array.map show_state c.states)))
    (String.concat "\n" (List.map show_access c.accesses))

let gen_model_case =
  let open QCheck.Gen in
  let addr =
    frequency
      [
        (* Mostly inside the region, any alignment... *)
        (6, map (fun o -> Shm.base + o) (int_bound (model_size - 1)));
        (* ...word-aligned more often, and a little outside. *)
        ( 6,
          map (fun w -> Shm.base + (8 * w)) (int_bound ((model_size / 8) - 1))
        );
        (2, map (fun o -> Shm.base + model_size - 16 + o) (int_bound 31));
        (2, map (fun o -> Shm.base - 16 + o) (int_bound 15));
        (1, oneofl [ 0; -8; max_int - 7; min_int ]);
      ]
  in
  let i32 =
    frequency
      [
        (6, int_range (-1000) 1000);
        (2, oneofl [ 0x7fff_ffff; -0x8000_0000; 0x8000_0000; -0x8000_0001 ]);
        (1, oneofl [ max_int; min_int ]);
      ]
  in
  let u8 = frequency [ (6, int_bound 255); (1, oneofl [ -1; 256 ]) ] in
  let f64 =
    frequency
      [
        (4, float_range (-1e6) 1e6);
        (1, oneofl [ 0.0; -0.0; infinity; neg_infinity; nan; 5e-324 ]);
      ]
  in
  let access =
    frequency
      [
        (2, map (fun a -> Rd_u8 a) addr);
        (2, map2 (fun a v -> Wr_u8 (a, v)) addr u8);
        (3, map (fun a -> Rd_i32 a) addr);
        (3, map2 (fun a v -> Wr_i32 (a, v)) addr i32);
        (2, map (fun a -> Rd_i64 a) addr);
        (2, map2 (fun a v -> Wr_i64 (a, v)) addr int);
        (2, map (fun a -> Rd_f64 a) addr);
        (2, map2 (fun a v -> Wr_f64 (a, v)) addr f64);
      ]
  in
  map3
    (fun states fill accesses ->
      { states = Array.of_list states; fill; accesses })
    (list_repeat model_pages
       (oneofl [ Page.Invalid; Page.Read_only; Page.Read_write ]))
    (string_size ~gen:char (return model_size))
    (list_size (int_range 1 40) access)

(* The model's fault: the page table's read fault validates, its write
   fault makes the twin, and each logs the page. *)
type fault = Read_fault of int | Write_fault of int

let prop_shm_matches_model =
  QCheck.Test.make ~name:"shm: typed accessors match a byte-array model"
    ~count:300
    (QCheck.make ~print:print_model_case gen_model_case)
    (fun c ->
      let shm =
        Shm.create ~page_size:model_page_size ~pages:model_pages ()
      in
      let pt = Shm.page_table shm in
      let log = ref [] in
      Page_table.set_read_fault pt (fun i ->
          log := Read_fault i :: !log;
          Page.validate (Page_table.page pt i));
      Page_table.set_write_fault pt (fun i ->
          log := Write_fault i :: !log;
          Page.make_twin (Page_table.page pt i));
      for i = 0 to model_pages - 1 do
        Shm.patch_bytes shm (Shm.addr shm ~page:i ~offset:0)
          (Bytes.of_string
             (String.sub c.fill (i * model_page_size) model_page_size));
        let p = Page_table.page pt i in
        match c.states.(i) with
        | Page.Read_only -> ()
        | Page.Read_write -> Page.make_twin p
        | Page.Invalid -> Page.invalidate p
      done;
      (* The model: the region's bytes, the page states and the fault
         log, changed as the checked accessors change them. *)
      let bytes = Bytes.of_string c.fill and states = Array.copy c.states in
      let model_log = ref [] in
      let fail msg = raise (Invalid_argument msg) in
      let locate addr =
        let off = addr - Shm.base in
        if off < 0 || off >= model_size then
          fail (Printf.sprintf "Shm: segmentation violation at 0x%x" addr);
        off
      in
      let aligned addr width =
        if addr land (width - 1) <> 0 then
          fail
            (Printf.sprintf "Shm: unaligned %d-byte access at 0x%x" width addr)
      in
      let readable off =
        let i = off / model_page_size in
        if states.(i) = Page.Invalid then begin
          model_log := Read_fault i :: !model_log;
          states.(i) <- Page.Read_only
        end
      in
      let writable off =
        readable off;
        let i = off / model_page_size in
        if states.(i) = Page.Read_only then begin
          model_log := Write_fault i :: !model_log;
          states.(i) <- Page.Read_write
        end
      in
      let model = function
        | Rd_u8 a ->
          let off = locate a in
          readable off;
          Bytes.get_uint8 bytes off
        | Wr_u8 (a, v) ->
          if v < 0 || v > 0xff then fail "Shm.write_u8: out of range";
          let off = locate a in
          writable off;
          Bytes.set_uint8 bytes off v;
          0
        | Rd_i32 a ->
          aligned a 4;
          let off = locate a in
          readable off;
          Int32.to_int (Bytes.get_int32_le bytes off)
        | Wr_i32 (a, v) ->
          aligned a 4;
          if v < -0x8000_0000 || v > 0x7fff_ffff then
            fail "Shm.write_i32: out of range";
          let off = locate a in
          writable off;
          Bytes.set_int32_le bytes off (Int32.of_int v);
          0
        | Rd_i64 a | Rd_f64 a ->
          aligned a 8;
          let off = locate a in
          readable off;
          Int64.to_int (Bytes.get_int64_le bytes off)
        | Wr_i64 (a, v) ->
          aligned a 8;
          let off = locate a in
          writable off;
          Bytes.set_int64_le bytes off (Int64.of_int v);
          0
        | Wr_f64 (a, v) ->
          aligned a 8;
          let off = locate a in
          writable off;
          Bytes.set_int64_le bytes off (Int64.bits_of_float v);
          0
      in
      let dst = Array.make 2 0.0 in
      let real = function
        | Rd_u8 a -> Shm.read_u8 shm a
        | Wr_u8 (a, v) -> Shm.write_u8 shm a v; 0
        | Rd_i32 a -> Shm.read_i32 shm a
        | Wr_i32 (a, v) -> Shm.write_i32 shm a v; 0
        | Rd_i64 a -> Shm.read_i64 shm a
        | Wr_i64 (a, v) -> Shm.write_i64 shm a v; 0
        | Rd_f64 a ->
          Shm.read_f64_into shm a dst 1;
          Int64.to_int (Int64.bits_of_float dst.(1))
        | Wr_f64 (a, v) -> Shm.write_f64 shm a v; 0
      in
      let outcome f x =
        match f x with v -> Ok v | exception Invalid_argument m -> Error m
      in
      List.iter
        (fun a ->
          let want = outcome model a and got = outcome real a in
          if got <> want then
            QCheck.Test.fail_reportf "%s: %s, model %s" (show_access a)
              (match got with Ok v -> string_of_int v | Error m -> m)
              (match want with Ok v -> string_of_int v | Error m -> m);
          if !log <> !model_log then
            QCheck.Test.fail_reportf "%s: faults differ" (show_access a))
        c.accesses;
      for i = 0 to model_pages - 1 do
        let p = Page_table.page pt i in
        if Page.state p <> states.(i) then
          QCheck.Test.fail_reportf "page %d: state differs" i;
        if
          Bytes.sub bytes (i * model_page_size) model_page_size
          <> Page.data p
        then QCheck.Test.fail_reportf "page %d: bytes differ" i
      done;
      true)

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
  Alcotest.(check bool) "disjoint" true (abs (p2 - p1) >= 10)

let test_alloc_alignment () =
  let a = Alloc.create ~base:1001 ~size:256 in
  let p = Alloc.alloc a ~align:16 10 in
  Alcotest.(check int) "aligned" 0 (p mod 16)

(* First fit puts a small block into the padding an aligned block left
   before itself, as TSP's layout does with its 8-byte and page-aligned
   blocks; a bump allocator would place it after the aligned block. *)
let test_alloc_fills_padding () =
  let a = Alloc.create ~base:0 ~size:16384 in
  let small = Alloc.alloc a 8 in
  let page = Alloc.alloc a ~align:4096 4096 in
  let next = Alloc.alloc a 8 in
  Alcotest.(check int) "aligned block" 4096 page;
  Alcotest.(check int) "next small block follows the first" (small + 8) next

let test_alloc_exhaustion () =
  let a = Alloc.create ~base:0 ~size:64 in
  let _ = Alloc.alloc a 64 in
  match Alloc.alloc a 1 with
  | exception Out_of_memory -> ()
  | _ -> Alcotest.fail "expected Out_of_memory"

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
          Alcotest.test_case "merge allocates only its result" `Quick
            test_diff_merge_allocation;
          Alcotest.test_case "merges in a row share no marks" `Quick
            test_diff_merge_sequence;
          Alcotest.test_case "page lengths around the word tail" `Quick
            test_diff_word_tail_lengths;
          Alcotest.test_case "two domains encode at once" `Quick
            test_diff_domains_encode_at_once;
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
          Alcotest.test_case "every frame is page-sized" `Quick
            test_page_frames_are_page_sized;
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
          Alcotest.test_case "write_f64 and i32 access allocation" `Quick
            test_shm_access_allocation;
        ]
        @ qcheck [ prop_shm_matches_model ] );
      ( "frames",
        Alcotest.test_case "system create footprint" `Quick
          test_system_create_footprint
        :: qcheck [ prop_frames_on_first_touch ] );
      ( "alloc",
        [
          Alcotest.test_case "basic" `Quick test_alloc_basic;
          Alcotest.test_case "alignment" `Quick test_alloc_alignment;
          Alcotest.test_case "first fit fills alignment padding" `Quick
            test_alloc_fills_padding;
          Alcotest.test_case "exhaustion" `Quick test_alloc_exhaustion;
        ]
        @ qcheck [ prop_alloc_no_overlap ] );
    ]
