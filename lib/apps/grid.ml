module Rng = Carlos_sim.Rng
module Resource = Carlos_sim.Resource
module Shm = Carlos_vm.Shm
module System = Carlos.System
module Node = Carlos.Node
module Annotation = Carlos.Annotation
module Msg_barrier = Carlos.Msg_barrier

type variant = Barrier | Hybrid

let variant_name = function Barrier -> "barrier" | Hybrid -> "hybrid"

type params = {
  size : int;
  iterations : int;
  seed : int;
  cell_cost : float;
}

let default_params =
  { size = 96; iterations = 24; seed = 11; cell_cost = 20e-6 }

type result = { checksum : float; exact : bool; report : System.report }

let config ?(nodes = 4) ?(strategy = Carlos_dsm.Lrc_backend.Invalidate) p =
  let grid_pages = ((p.size * p.size * 8) + 4095) / 4096 in
  {
    (System.default_config ~nodes) with
    System.coherent_pages = (2 * grid_pages) + 32;
    strategy;
  }

(* ------------------------------------------------------------------ *)
(* Sequential reference: double-buffered Jacobi is bit-reproducible, so
   the parallel run must match it exactly. *)

let init_cell rng = Rng.float rng *. 100.0

let reference p =
  let n = p.size in
  let rng = Rng.create ~seed:p.seed in
  let a = Array.init n (fun _ -> Array.init n (fun _ -> init_cell rng)) in
  let b = Array.map Array.copy a in
  let bufs = [| a; b |] in
  for gen = 0 to p.iterations - 1 do
    let src = bufs.(gen mod 2) and dst = bufs.((gen + 1) mod 2) in
    for r = 1 to n - 2 do
      for c = 1 to n - 2 do
        dst.(r).(c) <-
          0.25
          *. (src.(r - 1).(c) +. src.(r + 1).(c) +. src.(r).(c - 1)
             +. src.(r).(c + 1))
      done
    done
  done;
  let final = bufs.(p.iterations mod 2) in
  Array.fold_left
    (fun acc row -> Array.fold_left ( +. ) acc row)
    0.0 final

(* ------------------------------------------------------------------ *)

(* Row-partition the interior rows [1, n-2] into contiguous chunks. *)
let rows_of p ~nodes me =
  let interior = p.size - 2 in
  let per = interior / nodes and extra = interior mod nodes in
  let lo = 1 + (me * per) + min me extra in
  let count = per + if me < extra then 1 else 0 in
  (lo, lo + count - 1)

let run sys variant p =
  let n = p.size in
  let nodes = System.node_count sys in
  let grid_bytes = n * n * 8 in
  let base_a = System.alloc sys ~align:4096 grid_bytes in
  let base_b = System.alloc sys ~align:4096 grid_bytes in
  let addr base r c = base + (8 * ((r * n) + c)) in
  let barrier = Msg_barrier.create sys ~manager:0 ~name:"grid" () in
  (* Hybrid: per node, one semaphore per neighbour counting "finished
     generation" notifications. *)
  let notif =
    Array.init nodes (fun _ ->
        Array.init nodes (fun _ -> Resource.Semaphore.create 0))
  in
  let checksum = ref nan in
  let app node =
    let me = Node.id node in
    let shm = Node.shm node in
    let lo, hi = rows_of p ~nodes me in
    if me = 0 then begin
      (* Materialize the initial grids (both buffers share the boundary
         and the initial interior). *)
      let rng = Rng.create ~seed:p.seed in
      for r = 0 to n - 1 do
        for c = 0 to n - 1 do
          let v = init_cell rng in
          Shm.write_f64 shm (addr base_a r c) v;
          Shm.write_f64 shm (addr base_b r c) v
        done
      done;
      Node.compute node (float_of_int (n * n) *. 0.2e-6)
    end;
    Msg_barrier.wait barrier node;
    let neighbours =
      List.filter
        (fun p -> p >= 0 && p < nodes && p <> me)
        [ me - 1; me + 1 ]
    in
    (* The stencil's four neighbours, read unboxed.  The reads go right
       neighbour, left, below, above: the order in which the simulated
       program has always issued them. *)
    let nb = Array.make 4 0.0 in
    for gen = 0 to p.iterations - 1 do
      let src = if gen mod 2 = 0 then base_a else base_b in
      let dst = if gen mod 2 = 0 then base_b else base_a in
      for r = lo to hi do
        for c = 1 to n - 2 do
          Shm.read_f64_into shm (addr src r (c + 1)) nb 3;
          Shm.read_f64_into shm (addr src r (c - 1)) nb 2;
          Shm.read_f64_into shm (addr src (r + 1) c) nb 1;
          Shm.read_f64_into shm (addr src (r - 1) c) nb 0;
          let v = 0.25 *. (nb.(0) +. nb.(1) +. nb.(2) +. nb.(3)) in
          Shm.write_f64 shm (addr dst r c) v;
          Node.compute node p.cell_cost
        done
      done;
      match variant with
      | Barrier -> Msg_barrier.wait barrier node
      | Hybrid ->
        (* §3: the data stays in shared memory; a notification marked
           RELEASE tells each neighbour this generation's rows are
           published.  Under the update strategy the boundary-row diffs
           ride along with it. *)
        List.iter
          (fun nb ->
            Node.send node ~dst:nb ~annotation:Annotation.Release
              ~payload_bytes:16
              ~handler:(fun here d ->
                Node.accept d;
                Resource.Semaphore.signal notif.(Node.id here).(me)))
          neighbours;
        List.iter
          (fun nb -> Resource.Semaphore.wait notif.(me).(nb))
          neighbours
    done;
    (* Collect the final answer at node 0. *)
    Msg_barrier.wait barrier node;
    if me = 0 then begin
      let final = if p.iterations mod 2 = 0 then base_a else base_b in
      let sum = ref 0.0 in
      for r = 0 to n - 1 do
        for c = 0 to n - 1 do
          Shm.read_f64_into shm (addr final r c) nb 0;
          sum := !sum +. nb.(0)
        done
      done;
      Node.compute node (float_of_int (n * n) *. 0.05e-6);
      checksum := !sum
    end
  in
  let report = System.run sys app in
  { checksum = !checksum; exact = !checksum = reference p; report }
