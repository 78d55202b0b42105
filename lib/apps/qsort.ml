module Rng = Carlos_sim.Rng
module Shm = Carlos_vm.Shm
module System = Carlos.System
module Node = Carlos.Node
module Annotation = Carlos.Annotation
module Msg_lock = Carlos.Msg_lock
module Msg_barrier = Carlos.Msg_barrier
module Work_queue = Carlos.Work_queue

type variant = Lock | Hybrid1 | Hybrid2 | Hybrid_nf

let variant_name = function
  | Lock -> "lock"
  | Hybrid1 -> "hybrid-1"
  | Hybrid2 -> "hybrid-2"
  | Hybrid_nf -> "hybrid-noforward"

type params = {
  elements : int;
  threshold : int;
  seed : int;
  compare_cost : float;
  partition_cost : float;
}

let default_params =
  {
    elements = 256 * 1024;
    threshold = 1024;
    seed = 7;
    compare_cost = 0.28e-6;
    partition_cost = 0.25e-6;
  }

type result = { sorted : bool; leaves : int; report : System.report }

let config ?(nodes = 4) p =
  let array_pages = ((p.elements * 4) + 4095) / 4096 in
  {
    (System.default_config ~nodes) with
    System.coherent_pages = array_pages + 64;
    gc_threshold = Some 6_000_000;
  }

(* Pack a subarray descriptor [lo, hi] into one integer. *)
let pack ~lo ~hi = (lo lsl 24) lor hi

let unpack d = (d lsr 24, d land 0xFFFFFF)

type layout = {
  array_base : int;
  stack_top : int;
  stack_done : int;
  stack_slots : int;
  max_slots : int;
}

let make_layout sys p =
  let array_base = System.alloc sys ~align:4096 (p.elements * 4) in
  let stack_top = System.alloc sys ~align:4096 8 in
  let stack_done = System.alloc sys 8 in
  let max_slots = 8192 in
  let stack_slots = System.alloc sys (8 * max_slots) in
  { array_base; stack_top; stack_done; stack_slots; max_slots }

let elem layout i = layout.array_base + (4 * i)

let[@inline] read_elem shm layout i = Shm.read_i32 shm (elem layout i)

let[@inline] write_elem shm layout i v = Shm.write_i32 shm (elem layout i) v

(* Hoare partition with median-of-three pivot, element accesses through
   the coherent region. *)
let partition node shm layout p ~lo ~hi =
  let a i = read_elem shm layout i in
  let mid = (lo + hi) / 2 in
  let x = a lo and y = a mid and z = a hi in
  let pivot = max (min x y) (min (max x y) z) in
  let i = ref (lo - 1) and j = ref (hi + 1) in
  let scanned = ref 0 in
  let result = ref (-1) in
  while !result < 0 do
    incr i;
    incr scanned;
    while a !i < pivot do
      incr i;
      incr scanned
    done;
    decr j;
    incr scanned;
    while a !j > pivot do
      decr j;
      incr scanned
    done;
    if !i >= !j then result := !j
    else begin
      let tmp = a !i in
      write_elem shm layout !i (a !j);
      write_elem shm layout !j tmp
    end
  done;
  Node.compute node (p.partition_cost *. float_of_int !scanned);
  !result

(* The host-side leaf sort.  It runs on plain [int array]s with the
   comparison inlined: insertion sort within runs of [sort_run] cells,
   then bottom-up merges that go back and forth between the array and a
   merge scratch.  The sort never suspends, so one scratch serves every
   fiber of a domain (bench runs fan rows across domains); it grows to
   the largest sort seen, so a warmed-up sort allocates nothing. *)
let merge_key = Domain.DLS.new_key (fun () -> ref [||])

let reset_scratch () = Domain.DLS.set merge_key (ref [||])

let sort_run = 16

(* Insertion sort of [a.(lo .. hi - 1)]. *)
let insertion_sort (a : int array) lo hi =
  for i = lo + 1 to hi - 1 do
    let v = a.(i) in
    let j = ref (i - 1) in
    while !j >= lo && a.(!j) > v do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- v
  done

(* Merge the sorted [src.(lo .. mid - 1)] and [src.(mid .. hi - 1)] into
   [dst.(lo .. hi - 1)]; equal values keep their order. *)
let merge_runs (src : int array) (dst : int array) lo mid hi =
  let i = ref lo and j = ref mid in
  for k = lo to hi - 1 do
    if !i < mid && (!j >= hi || src.(!i) <= src.(!j)) then begin
      dst.(k) <- src.(!i);
      incr i
    end
    else begin
      dst.(k) <- src.(!j);
      incr j
    end
  done

let sort_ints a n =
  if n < 0 || n > Array.length a then invalid_arg "Qsort.sort_ints";
  let scratch = Domain.DLS.get merge_key in
  if Array.length !scratch < n then scratch := Array.make n 0;
  let lo = ref 0 in
  while !lo < n do
    insertion_sort a !lo (min n (!lo + sort_run));
    lo := !lo + sort_run
  done;
  let src = ref a and dst = ref !scratch and width = ref sort_run in
  while !width < n do
    let lo = ref 0 in
    while !lo < n do
      let mid = min n (!lo + !width) in
      let hi = min n (mid + !width) in
      merge_runs !src !dst !lo mid hi;
      lo := hi
    done;
    let t = !src in
    src := !dst;
    dst := t;
    width := 2 * !width
  done;
  if !src != a then Array.blit !src 0 a 0 n

(* Local sort of a leaf: the accesses go through shared memory (faulting
   pages in), the comparison work is charged at Bubblesort's quadratic
   cost as in the paper's program.  [leaf] is the node's own buffer:
   reading and writing the leaf can fault and suspend the node, so the
   buffer cannot be shared with other nodes. *)
let sort_leaf node shm layout p leaf ~lo ~hi =
  let n = hi - lo + 1 in
  if Array.length !leaf < n then leaf := Array.make n 0;
  let buf = !leaf in
  for k = 0 to n - 1 do
    buf.(k) <- read_elem shm layout (lo + k)
  done;
  sort_ints buf n;
  for k = 0 to n - 1 do
    write_elem shm layout (lo + k) buf.(k)
  done;
  let fn = float_of_int n in
  Node.compute node (p.compare_cost *. fn *. fn /. 2.0)

let run sys variant p =
  let layout = make_layout sys p in
  let barrier = Msg_barrier.create sys ~manager:0 ~name:"qs-end" () in
  let stack_lock = Msg_lock.create sys ~manager:0 ~name:"qs-stack" in
  let queue =
    Work_queue.create sys ~manager:0 ~name:"qs-q"
      ~mode:
        (match variant with
        | Lock | Hybrid1 -> Work_queue.Forwarding
        | Hybrid2 -> Work_queue.All_release
        | Hybrid_nf -> Work_queue.No_forwarding)
      ()
  in
  let leaves = ref 0 in
  let sorted = ref false in
  (* Hybrid termination: the manager counts sorted elements and closes the
     queue when the whole array is accounted for. *)
  let manager_done = ref 0 in
  let notify_sorted node n =
    Node.send node ~dst:0 ~annotation:Annotation.None_ ~payload_bytes:16
      ~handler:(fun manager_node d ->
        Node.accept d;
        manager_done := !manager_done + n;
        if !manager_done >= p.elements then
          Work_queue.close queue manager_node)
  in
  let init node =
    let shm = Node.shm node in
    let rng = Rng.create ~seed:p.seed in
    for i = 0 to p.elements - 1 do
      write_elem shm layout i (Rng.int rng 1_000_000)
    done;
    Node.compute node (0.02e-6 *. float_of_int p.elements)
  in
  (* Process one descriptor: peel subarrays down to leaves, pushing the
     smaller half back to the pool each time. *)
  let process node leaf push (lo0, hi0) =
    let shm = Node.shm node in
    let lo = ref lo0 and hi = ref hi0 in
    while !hi - !lo + 1 > p.threshold do
      let j = partition node shm layout p ~lo:!lo ~hi:!hi in
      (* Keep the larger side, push the smaller one. *)
      if j - !lo < !hi - j then begin
        push (!lo, j);
        lo := j + 1
      end
      else begin
        push (j + 1, !hi);
        hi := j
      end
    done;
    sort_leaf node shm layout p leaf ~lo:!lo ~hi:!hi;
    incr leaves;
    !hi - !lo + 1
  in
  let app node =
    let me = Node.id node in
    let shm = Node.shm node in
    let leaf = ref [||] in
    (match variant with
    | Lock ->
      let pending_done = ref 0 in
      if me = 0 then begin
        init node;
        Msg_lock.with_lock stack_lock node (fun () ->
            Shm.write_i64 shm layout.stack_slots
              (pack ~lo:0 ~hi:(p.elements - 1));
            Shm.write_i64 shm layout.stack_top 1;
            Shm.write_i64 shm layout.stack_done 0)
      end;
      let push (lo, hi) =
        Msg_lock.with_lock stack_lock node (fun () ->
            let top = Shm.read_i64 shm layout.stack_top in
            if top >= layout.max_slots then
              failwith "qsort: stack overflow";
            Shm.write_i64 shm
              (layout.stack_slots + (8 * top))
              (pack ~lo ~hi);
            Shm.write_i64 shm layout.stack_top (top + 1))
      in
      let rec consume () =
        let action =
          Msg_lock.with_lock stack_lock node (fun () ->
              (if !pending_done > 0 then begin
                 let d = Shm.read_i64 shm layout.stack_done in
                 Shm.write_i64 shm layout.stack_done (d + !pending_done);
                 pending_done := 0
               end);
              let top = Shm.read_i64 shm layout.stack_top in
              if top > 0 then begin
                Shm.write_i64 shm layout.stack_top (top - 1);
                `Work
                  (unpack
                     (Shm.read_i64 shm (layout.stack_slots + (8 * (top - 1)))))
              end
              else if Shm.read_i64 shm layout.stack_done >= p.elements then
                `Done
              else `Retry)
        in
        match action with
        | `Work d ->
          pending_done := !pending_done + process node leaf push d;
          consume ()
        | `Retry ->
          Node.compute node 1e-3;
          Node.flush_compute node;
          consume ()
        | `Done -> ()
      in
      consume ()
    | Hybrid1 | Hybrid2 | Hybrid_nf ->
      if me = 0 then begin
        init node;
        Work_queue.enqueue queue node ~bytes:16 (0, p.elements - 1)
      end;
      let push (lo, hi) = Work_queue.enqueue queue node ~bytes:16 (lo, hi) in
      let rec consume () =
        match Work_queue.dequeue queue node with
        | Some d ->
          let n = process node leaf push d in
          notify_sorted node n;
          consume ()
        | None -> ()
      in
      consume ());
    Msg_barrier.wait barrier node;
    (* "A barrier is used to collect all of the sorted subarrays": node 0
       walks the whole array, pulling every final diff to itself, and
       verifies the sort. *)
    if me = 0 then begin
      let ok = ref true in
      let prev = ref min_int in
      for i = 0 to p.elements - 1 do
        let v = read_elem shm layout i in
        if v < !prev then ok := false;
        prev := v
      done;
      Node.compute node (0.01e-6 *. float_of_int p.elements);
      sorted := !ok
    end
  in
  let report = System.run sys app in
  { sorted = !sorted; leaves = !leaves; report }
