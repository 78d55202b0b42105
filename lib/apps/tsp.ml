module Rng = Carlos_sim.Rng
module Shm = Carlos_vm.Shm
module System = Carlos.System
module Node = Carlos.Node
module Annotation = Carlos.Annotation
module Msg_lock = Carlos.Msg_lock
module Msg_barrier = Carlos.Msg_barrier
module Work_queue = Carlos.Work_queue

type variant = Lock | Hybrid | Hybrid_all_release

let variant_name = function
  | Lock -> "lock"
  | Hybrid -> "hybrid"
  | Hybrid_all_release -> "hybrid-all-release"

type params = {
  cities : int;
  seed : int;
  prefix_depth : int;
  expand_frac : float;
      (* a prefix is split further only while its length is below this
         fraction of the initial bound: promising subtrees become fine
         tasks, hopeless ones stay coarse (they prune immediately) *)
  visit_cost : float;
  bound_check_period : int;
}

let default_params =
  {
    cities = 19;
    seed = 1994;
    prefix_depth = 4;
    expand_frac = 0.18;
    visit_cost = 38.5e-6;
    bound_check_period = 200;
  }

type result = {
  best : int;
  visited : int;
  report : System.report;
}

(* ------------------------------------------------------------------ *)
(* Instance *)

type instance = {
  cities : int;
  dist : int array array; (* scaled integer distances *)
  sorted_neighbors : int array array; (* per city, others by distance *)
  min_edge : int array; (* cheapest edge out of each city *)
  nn_bound : int; (* nearest-neighbour tour length *)
}

let make_instance p =
  let rng = Rng.create ~seed:p.seed in
  let xs = Array.init p.cities (fun _ -> Rng.float rng *. 1000.0) in
  let ys = Array.init p.cities (fun _ -> Rng.float rng *. 1000.0) in
  let dist =
    Array.init p.cities (fun i ->
        Array.init p.cities (fun j ->
            let dx = xs.(i) -. xs.(j) and dy = ys.(i) -. ys.(j) in
            int_of_float (sqrt ((dx *. dx) +. (dy *. dy)) *. 100.0)))
  in
  let sorted_neighbors =
    Array.init p.cities (fun i ->
        let others =
          Array.of_list
            (List.filter (fun j -> j <> i) (List.init p.cities Fun.id))
        in
        Array.sort (fun a b -> compare dist.(i).(a) dist.(i).(b)) others;
        others)
  in
  let min_edge =
    Array.init p.cities (fun i -> dist.(i).(sorted_neighbors.(i).(0)))
  in
  (* Nearest-neighbour tour for the initial bound. *)
  let visited = Array.make p.cities false in
  visited.(0) <- true;
  let total = ref 0 and current = ref 0 in
  for _ = 1 to p.cities - 1 do
    let next =
      Array.fold_left
        (fun acc j ->
          if visited.(j) then acc
          else
            match acc with
            | None -> Some j
            | Some b -> if dist.(!current).(j) < dist.(!current).(b) then Some j else acc)
        None
        (Array.init p.cities Fun.id)
    in
    match next with
    | Some j ->
      total := !total + dist.(!current).(j);
      visited.(j) <- true;
      current := j
    | None ->
      raise
        (Node.Handler_error
           (Printf.sprintf
              "Tsp.make_instance: nearest-neighbour tour found no unvisited \
               city among %d"
              p.cities))
  done;
  total := !total + dist.(!current).(0);
  (* Improve the initial tour with 2-opt so the search effort is dominated
     by verification and stays stable across schedules. *)
  let tour = Array.make p.cities 0 in
  let seen = Array.make p.cities false in
  seen.(0) <- true;
  let cur = ref 0 in
  for i = 1 to p.cities - 1 do
    let best = ref (-1) in
    for j = 0 to p.cities - 1 do
      if (not seen.(j))
         && (!best < 0 || dist.(!cur).(j) < dist.(!cur).(!best))
      then best := j
    done;
    tour.(i) <- !best;
    seen.(!best) <- true;
    cur := !best
  done;
  let improved = ref true in
  while !improved do
    improved := false;
    for i = 0 to p.cities - 2 do
      for j = i + 2 to p.cities - 1 do
        let a = tour.(i)
        and b = tour.(i + 1)
        and c = tour.(j)
        and d = tour.((j + 1) mod p.cities) in
        if dist.(a).(c) + dist.(b).(d) < dist.(a).(b) + dist.(c).(d) then begin
          let lo = ref (i + 1) and hi = ref j in
          while !lo < !hi do
            let tmp = tour.(!lo) in
            tour.(!lo) <- tour.(!hi);
            tour.(!hi) <- tmp;
            incr lo;
            decr hi
          done;
          improved := true
        end
      done
    done
  done;
  let two_opt = ref 0 in
  for i = 0 to p.cities - 1 do
    two_opt := !two_opt + dist.(tour.(i)).(tour.((i + 1) mod p.cities))
  done;
  (* +1 keeps a tour equal to the heuristic bound acceptable to the
     branch-and-bound (strict < pruning). *)
  let bound = min !total !two_opt + 1 in
  { cities = p.cities; dist; sorted_neighbors; min_edge; nn_bound = bound }

(* ------------------------------------------------------------------ *)
(* Search core, shared by the reference solver and the workers.

   A prefix is a partial tour starting at city 0.  [remaining_min] is the
   sum of the cheapest outgoing edges of the cities not on the path (plus
   the last city's), a cheap admissible-ish lower bound on the rest. *)

type search_ctx = {
  inst : instance;
  get_bound : unit -> int;
  offer_bound : int -> unit;
  on_visit : unit -> unit;
  mutable local_bound : int; (* cached copy of the global bound *)
  mutable visits : int;
}

let rec dfs ctx ~mask ~last ~len ~depth ~remaining_min =
  ctx.visits <- ctx.visits + 1;
  ctx.on_visit ();
  let inst = ctx.inst in
  if depth = inst.cities then begin
    let total = len + inst.dist.(last).(0) in
    if total < ctx.local_bound then begin
      ctx.local_bound <- total;
      ctx.offer_bound total
    end
  end
  else
    let neighbors = inst.sorted_neighbors.(last) in
    Array.iter
      (fun next ->
        if mask land (1 lsl next) = 0 then begin
          let len' = len + inst.dist.(last).(next) in
          let optimistic =
            len' + remaining_min - inst.min_edge.(last)
          in
          if optimistic < ctx.local_bound then
            dfs ctx ~mask:(mask lor (1 lsl next)) ~last:next ~len:len'
              ~depth:(depth + 1)
              ~remaining_min:(remaining_min - inst.min_edge.(last))
        end)
      neighbors

(* Solve the subproblem rooted at [prefix] (array of cities, starting with
   0). *)
let solve_prefix ctx prefix =
  let inst = ctx.inst in
  let mask = Array.fold_left (fun m c -> m lor (1 lsl c)) 0 prefix in
  let len = ref 0 in
  for i = 0 to Array.length prefix - 2 do
    len := !len + inst.dist.(prefix.(i)).(prefix.(i + 1))
  done;
  let remaining_min = ref 0 in
  for c = 0 to inst.cities - 1 do
    if mask land (1 lsl c) = 0 then
      remaining_min := !remaining_min + inst.min_edge.(c)
  done;
  let last = prefix.(Array.length prefix - 1) in
  ctx.local_bound <- ctx.get_bound ();
  dfs ctx ~mask ~last ~len:!len ~depth:(Array.length prefix)
    ~remaining_min:(!remaining_min + inst.min_edge.(last))

(* Split policy shared by the generator (hybrid) and the stack expansion
   (lock variant): descend while short and promising. *)
let should_expand p inst ~depth ~len =
  depth < p.prefix_depth
  && float_of_int len < p.expand_frac *. float_of_int inst.nn_bound

(* All task prefixes under the static nearest-neighbour bound.  Identical
   for every variant and node count. *)
let generate_prefixes p inst =
  let out = ref [] in
  let rec go prefix mask len depth =
    if not (should_expand p inst ~depth ~len) then
      out := Array.of_list (List.rev prefix) :: !out
    else
      let last = List.hd prefix in
      Array.iter
        (fun next ->
          if mask land (1 lsl next) = 0 then begin
            let len' = len + inst.dist.(last).(next) in
            if len' < inst.nn_bound then
              go (next :: prefix) (mask lor (1 lsl next)) len' (depth + 1)
          end)
        inst.sorted_neighbors.(last)
  in
  go [ 0 ] 1 0 1;
  List.rev !out

let solve_reference p =
  let inst = make_instance p in
  let best = ref inst.nn_bound in
  let ctx =
    {
      inst;
      get_bound = (fun () -> !best);
      offer_bound = (fun b -> if b < !best then best := b);
      on_visit = ignore;
      local_bound = !best;
      visits = 0;
    }
  in
  List.iter (fun prefix -> solve_prefix ctx prefix) (generate_prefixes p inst);
  !best

(* ------------------------------------------------------------------ *)
(* Shared-memory layout *)

type layout = {
  bound_addr : int;
  descriptors : int; (* base of descriptor slots *)
  slot_bytes : int;
  stack_top : int; (* lock variant: stack of descriptor indices *)
  stack_unfinished : int; (* items pushed but not yet completed *)
  stack_next_slot : int; (* descriptor slot allocator *)
  stack_slots : int;
}

let make_layout sys p ~max_descriptors =
  let slot_bytes = 32 in
  assert (p.prefix_depth < slot_bytes);
  {
    bound_addr = System.alloc sys ~align:8 8;
    descriptors = System.alloc sys ~align:4096 (max_descriptors * slot_bytes);
    slot_bytes;
    stack_top = System.alloc sys ~align:4096 8;
    stack_unfinished = System.alloc sys 8;
    stack_next_slot = System.alloc sys 8;
    stack_slots = System.alloc sys (8 * max_descriptors);
  }

let write_descriptor shm layout ~index prefix =
  let base = layout.descriptors + (index * layout.slot_bytes) in
  Shm.write_u8 shm base (Array.length prefix);
  Array.iteri (fun i c -> Shm.write_u8 shm (base + 1 + i) c) prefix

let read_descriptor shm layout ~index =
  let base = layout.descriptors + (index * layout.slot_bytes) in
  let len = Shm.read_u8 shm base in
  Array.init len (fun i -> Shm.read_u8 shm (base + 1 + i))

(* ------------------------------------------------------------------ *)

(* Worker context: charging, periodic bound refresh from shared memory. *)
let worker_ctx p inst node layout ~offer_bound =
  let counter = ref 0 in
  let rec ctx =
    {
      inst;
      get_bound = (fun () -> Shm.read_i64 (Node.shm node) layout.bound_addr);
      offer_bound = (fun b -> offer_bound ctx b);
      on_visit =
        (fun () ->
          Node.compute node p.visit_cost;
          incr counter;
          if !counter >= p.bound_check_period then begin
            counter := 0;
            let g = Shm.read_i64 (Node.shm node) layout.bound_addr in
            if g < ctx.local_bound then ctx.local_bound <- g
          end);
      local_bound = max_int;
      visits = 0;
    }
  in
  ctx

(* Upper bound on descriptor slots: every prefix of depth <= prefix_depth
   (the lock variant allocates slots for interior prefixes too). *)
let max_descriptors p =
  let rec go depth count total =
    if depth >= p.prefix_depth then total
    else
      let count = count * (p.cities - depth) in
      go (depth + 1) count (total + count)
  in
  go 1 1 1

let run sys variant p =
  let inst = make_instance p in
  let prefixes = generate_prefixes p inst in
  let layout = make_layout sys p ~max_descriptors:(max_descriptors p) in
  System.preload_i64 sys layout.bound_addr inst.nn_bound;
  (* The root task is accounted for before any worker can peek at the
     stack: a worker that wins the very first lock race must spin, not
     conclude the search is over. *)
  System.preload_i64 sys layout.stack_unfinished 1;
  let barrier = Msg_barrier.create sys ~manager:0 ~name:"tsp-end" () in
  let total_visits = ref 0 in
  let final_best = ref max_int in
  let queue = Work_queue.create sys ~manager:0 ~name:"tsp-q"
      ~mode:(match variant with
        | Lock | Hybrid -> Work_queue.Forwarding
        | Hybrid_all_release -> Work_queue.All_release)
      ()
  in
  let bound_lock = Msg_lock.create sys ~manager:0 ~name:"tsp-bound" in
  let stack_lock = Msg_lock.create sys ~manager:0 ~name:"tsp-stack" in
  let offer_bound_lock node _ctx b =
    Msg_lock.with_lock bound_lock node (fun () ->
        let shm = Node.shm node in
        if b < Shm.read_i64 shm layout.bound_addr then
          Shm.write_i64 shm layout.bound_addr b)
  in
  let post_annotation =
    match variant with
    | Hybrid_all_release -> Annotation.Release
    | Lock | Hybrid -> Annotation.Request
  in
  (* Hybrid: post the bound to the master, which writes shared memory and
     answers with a RELEASE (asynchronous at the poster). *)
  let offer_bound_hybrid node _ctx b =
    Node.send node ~dst:0 ~annotation:post_annotation ~payload_bytes:16
      ~handler:(fun master d ->
        Node.accept d;
        let shm = Node.shm master in
        if b < Shm.read_i64 shm layout.bound_addr then
          Shm.write_i64 shm layout.bound_addr b;
        Node.send master ~dst:(Node.delivery_src d)
          ~annotation:Annotation.Release ~payload_bytes:8
          ~handler:(fun _ d2 -> Node.accept d2))
  in
  let app node =
    let me = Node.id node in
    let shm = Node.shm node in
    let offer node' =
      match variant with
      | Lock -> offer_bound_lock node'
      | Hybrid | Hybrid_all_release -> offer_bound_hybrid node'
    in
    let ctx = worker_ctx p inst node layout ~offer_bound:(fun c b -> (offer node) c b) in
    (match variant with
    | Lock ->
      (* The original shared-memory program: a work stack of tour
         descriptors in coherent memory, protected by a lock.  Workers pop
         a descriptor; short prefixes are expanded one level and the
         children pushed back; full prefixes are solved recursively.
         Termination: the count of incomplete items reaches zero. *)
      if me = 0 then begin
        write_descriptor shm layout ~index:0 [| 0 |];
        Msg_lock.with_lock stack_lock node (fun () ->
            Shm.write_i64 shm layout.stack_slots 0;
            Shm.write_i64 shm layout.stack_top 1;
            Shm.write_i64 shm layout.stack_next_slot 1)
      end;
      let pending_done = ref 0 in
      let push_children children =
        Msg_lock.with_lock stack_lock node (fun () ->
            let base = Shm.read_i64 shm layout.stack_next_slot in
            Shm.write_i64 shm layout.stack_next_slot
              (base + List.length children);
            List.iteri
              (fun i prefix ->
                write_descriptor shm layout ~index:(base + i) prefix)
              children;
            let top = Shm.read_i64 shm layout.stack_top in
            List.iteri
              (fun i _ ->
                Shm.write_i64 shm (layout.stack_slots + (8 * (top + i)))
                  (base + i))
              children;
            Shm.write_i64 shm layout.stack_top (top + List.length children);
            let u = Shm.read_i64 shm layout.stack_unfinished in
            Shm.write_i64 shm layout.stack_unfinished
              (u + List.length children - 1))
      in
      let rec consume () =
        let action =
          Msg_lock.with_lock stack_lock node (fun () ->
              let u =
                Shm.read_i64 shm layout.stack_unfinished - !pending_done
              in
              if !pending_done > 0 then begin
                Shm.write_i64 shm layout.stack_unfinished u;
                pending_done := 0
              end;
              let top = Shm.read_i64 shm layout.stack_top in
              if top > 0 then begin
                Shm.write_i64 shm layout.stack_top (top - 1);
                `Work
                  (Shm.read_i64 shm (layout.stack_slots + (8 * (top - 1))))
              end
              else if u = 0 then `Done
              else `Retry)
        in
        match action with
        | `Work index ->
          let prefix = read_descriptor shm layout ~index in
          let plen = ref 0 in
          for i = 0 to Array.length prefix - 2 do
            plen := !plen + inst.dist.(prefix.(i)).(prefix.(i + 1))
          done;
          if should_expand p inst ~depth:(Array.length prefix) ~len:!plen
          then begin
            (* Expand one level, pruning against the current bound. *)
            let bound = Shm.read_i64 shm layout.bound_addr in
            let mask = Array.fold_left (fun m c -> m lor (1 lsl c)) 0 prefix in
            let last = prefix.(Array.length prefix - 1) in
            let len = ref 0 in
            for i = 0 to Array.length prefix - 2 do
              len := !len + inst.dist.(prefix.(i)).(prefix.(i + 1))
            done;
            let children = ref [] in
            Array.iter
              (fun next ->
                if mask land (1 lsl next) = 0 then begin
                  Node.compute node 2e-6;
                  if !len + inst.dist.(last).(next) < bound then
                    children := Array.append prefix [| next |] :: !children
                end)
              inst.sorted_neighbors.(last);
            (match !children with
            | [] -> pending_done := !pending_done + 1
            | children -> push_children children)
          end
          else begin
            solve_prefix ctx prefix;
            pending_done := !pending_done + 1
          end;
          consume ()
        | `Retry ->
          Node.compute node 1e-3;
          Node.flush_compute node;
          consume ()
        | `Done -> ()
      in
      consume ()
    | Hybrid | Hybrid_all_release ->
      (* The manager generates the queued tours (paper: "the manager node
         on which the queue is located is responsible for generating the
         queued tours") and also searches. *)
      if me = 0 then begin
        List.iteri
          (fun index prefix ->
            write_descriptor shm layout ~index prefix;
            Node.compute node 2e-6;
            Work_queue.enqueue queue node ~bytes:8 index)
          prefixes;
        Work_queue.close queue node
      end;
      let rec consume () =
        match Work_queue.dequeue queue node with
        | Some index ->
          solve_prefix ctx (read_descriptor shm layout ~index);
          consume ()
        | None -> ()
      in
      consume ());
    total_visits := !total_visits + ctx.visits;
    Msg_barrier.wait barrier node;
    if me = 0 then final_best := Shm.read_i64 shm layout.bound_addr
  in
  let report = System.run sys app in
  { best = !final_best; visited = !total_visits; report }
