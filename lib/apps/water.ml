module Rng = Carlos_sim.Rng
module Resource = Carlos_sim.Resource
module Shm = Carlos_vm.Shm
module System = Carlos.System
module Node = Carlos.Node
module Annotation = Carlos.Annotation
module Msg_lock = Carlos.Msg_lock
module Msg_barrier = Carlos.Msg_barrier

type variant = Lock | Hybrid | Hybrid_all_release

let variant_name = function
  | Lock -> "lock"
  | Hybrid -> "hybrid"
  | Hybrid_all_release -> "hybrid-all-release"

type params = {
  molecules : int;
  steps : int;
  seed : int;
  cutoff : float;
  pair_check_cost : float;
  pair_force_cost : float;
  integrate_cost : float;
}

let default_params =
  {
    molecules = 343;
    steps = 5;
    seed = 343;
    cutoff = 2.6;
    pair_check_cost = 11e-6;
    pair_force_cost = 700e-6;
    integrate_cost = 30e-6;
  }

type result = { energy : float; energy_ok : bool; report : System.report }

(* ------------------------------------------------------------------ *)
(* Physics: soft-sphere molecules in a periodic box.  Not water's real
   potential, but the same O(N^2/2) cutoff structure, force accumulation
   and integration pattern as the SPLASH code. *)

(* Not inlined: callers keep the one boxed result and pass it on, where
   an inlined, unboxed [side] would be boxed again at every call it is
   passed to. *)
let[@inline never] box_side p = Float.cbrt (float_of_int p.molecules) *. 1.2

let dt = 0.004

let spring = 4.0

(* Minimum-image displacement component.  Inlined, so no float crosses
   a call boxed. *)
let[@inline] wrap side d =
  if d > side /. 2.0 then d -. side
  else if d < -.(side /. 2.0) then d +. side
  else d

type phys = {
  px : float array;
  py : float array;
  pz : float array;
  vx : float array;
  vy : float array;
  vz : float array;
  fx : float array;
  fy : float array;
  fz : float array;
}

let init_phys p =
  let rng = Rng.create ~seed:p.seed in
  let n = p.molecules in
  let side = box_side p in
  let arr f = Array.init n (fun _ -> f ()) in
  {
    px = arr (fun () -> Rng.float rng *. side);
    py = arr (fun () -> Rng.float rng *. side);
    pz = arr (fun () -> Rng.float rng *. side);
    vx = arr (fun () -> (Rng.float rng -. 0.5) *. 0.2);
    vy = arr (fun () -> (Rng.float rng -. 0.5) *. 0.2);
    vz = arr (fun () -> (Rng.float rng -. 0.5) *. 0.2);
    fx = Array.make n 0.0;
    fy = Array.make n 0.0;
    fz = Array.make n 0.0;
  }

(* Force of molecule j on molecule i, if within the cutoff: stored in
   [f.(0..2)], and the result says whether there is one.  The positions
   of i and j are [pos.(0..2)] and [pos.(3..5)].  Floats pass through
   float arrays so that the O(N^2) pair loops allocate nothing. *)
let pair_force p ~side pos f =
  let dx = wrap side (pos.(0) -. pos.(3))
  and dy = wrap side (pos.(1) -. pos.(4))
  and dz = wrap side (pos.(2) -. pos.(5)) in
  let r2 = (dx *. dx) +. (dy *. dy) +. (dz *. dz) in
  if r2 >= p.cutoff *. p.cutoff || r2 = 0.0 then false
  else begin
    let r = sqrt r2 in
    let mag = spring *. (p.cutoff -. r) /. r in
    f.(0) <- mag *. dx;
    f.(1) <- mag *. dy;
    f.(2) <- mag *. dz;
    true
  end

(* Pair potential of the molecules at [pos.(0..2)] and [pos.(3..5)],
   added to [e.(0)] when within the cutoff. *)
let add_pair_energy p ~side pos e =
  let dx = wrap side (pos.(0) -. pos.(3))
  and dy = wrap side (pos.(1) -. pos.(4))
  and dz = wrap side (pos.(2) -. pos.(5)) in
  let r2 = (dx *. dx) +. (dy *. dy) +. (dz *. dz) in
  if r2 < p.cutoff *. p.cutoff && r2 > 0.0 then begin
    let d = p.cutoff -. sqrt r2 in
    e.(0) <- e.(0) +. (0.5 *. spring *. d *. d)
  end

let half p = (p.molecules - 1) / 2

let reference_energy p =
  let n = p.molecules in
  let side = box_side p in
  let ph = init_phys p in
  let pos = Array.make 6 0.0 and f = Array.make 3 0.0 in
  let set_pos o m =
    pos.(o) <- ph.px.(m);
    pos.(o + 1) <- ph.py.(m);
    pos.(o + 2) <- ph.pz.(m)
  in
  for _ = 1 to p.steps do
    for i = 0 to n - 1 do
      ph.px.(i) <- ph.px.(i) +. (ph.vx.(i) *. dt);
      ph.py.(i) <- ph.py.(i) +. (ph.vy.(i) *. dt);
      ph.pz.(i) <- ph.pz.(i) +. (ph.vz.(i) *. dt);
      ph.fx.(i) <- 0.0;
      ph.fy.(i) <- 0.0;
      ph.fz.(i) <- 0.0
    done;
    for i = 0 to n - 1 do
      set_pos 0 i;
      for k = 1 to half p do
        let j = (i + k) mod n in
        set_pos 3 j;
        if pair_force p ~side pos f then begin
          ph.fx.(i) <- ph.fx.(i) +. f.(0);
          ph.fy.(i) <- ph.fy.(i) +. f.(1);
          ph.fz.(i) <- ph.fz.(i) +. f.(2);
          ph.fx.(j) <- ph.fx.(j) -. f.(0);
          ph.fy.(j) <- ph.fy.(j) -. f.(1);
          ph.fz.(j) <- ph.fz.(j) -. f.(2)
        end
      done
    done;
    for i = 0 to n - 1 do
      ph.vx.(i) <- ph.vx.(i) +. (ph.fx.(i) *. dt);
      ph.vy.(i) <- ph.vy.(i) +. (ph.fy.(i) *. dt);
      ph.vz.(i) <- ph.vz.(i) +. (ph.fz.(i) *. dt)
    done
  done;
  (* NOTE: the parallel program accumulates per-molecule contributions
     before applying them; at one node the floating-point grouping is
     identical to this loop nest, and across nodes the energy check uses a
     relative tolerance. *)
  (* Energy: kinetic plus pair potential. *)
  let e = [| 0.0 |] in
  for i = 0 to n - 1 do
    e.(0) <-
      e.(0)
      +. 0.5
         *. ((ph.vx.(i) *. ph.vx.(i))
            +. (ph.vy.(i) *. ph.vy.(i))
            +. (ph.vz.(i) *. ph.vz.(i)))
  done;
  for i = 0 to n - 1 do
    set_pos 0 i;
    for k = 1 to half p do
      set_pos 3 ((i + k) mod n);
      add_pair_energy p ~side pos e
    done
  done;
  e.(0)

(* ------------------------------------------------------------------ *)
(* Shared-memory layout.  A molecule record is 672 bytes, as in the SPLASH
   code (three atoms with positions, velocities, forces and the
   higher-order predictor-corrector derivatives); we actively use the
   first nine doubles and keep the derivative scratch area live so page
   diffs carry realistic volumes. *)

let mol_bytes = 672

let scratch_doubles = 6

type layout = { base : int }

let pos_addr l m = l.base + (m * mol_bytes)

let vel_addr l m = l.base + (m * mol_bytes) + 24

let force_addr l m = l.base + (m * mol_bytes) + 48

let scratch_addr l m = l.base + (m * mol_bytes) + 72

(* The three doubles at [a] into [dst.(o..o+2)], highest address first:
   the order in which the simulated program has always issued them. *)
let read3_into shm a dst o =
  Shm.read_f64_into shm (a + 16) dst (o + 2);
  Shm.read_f64_into shm (a + 8) dst (o + 1);
  Shm.read_f64_into shm a dst o

let write3 shm a (x, y, z) =
  Shm.write_f64 shm a x;
  Shm.write_f64 shm (a + 8) y;
  Shm.write_f64 shm (a + 16) z

let owner p ~nodes m = m * nodes / p.molecules

let run sys variant p =
  let n = p.molecules in
  let nodes = System.node_count sys in
  let side = box_side p in
  let layout = { base = System.alloc sys ~align:4096 (n * mol_bytes) } in
  let barrier = Msg_barrier.create sys ~manager:0 ~name:"water" () in
  let locks =
    match variant with
    | Lock ->
      Array.init n (fun m ->
          Msg_lock.create sys ~manager:(owner p ~nodes m)
            ~name:(Printf.sprintf "mol%d" m))
    | Hybrid | Hybrid_all_release -> [||]
  in
  (* The SS5.4 ablation: every message marked RELEASE, including the update
     and end-of-phase messages that need no synchronization. *)
  let update_annotation =
    match variant with
    | Hybrid_all_release -> Annotation.Release
    | Lock | Hybrid -> Annotation.None_
  in
  (* Per-node count of phase-completion markers received this step. *)
  let flush_sem =
    Array.init nodes (fun _ -> Resource.Semaphore.create 0)
  in
  let energy = ref nan in
  let update_bytes = 616 (* molecule index + per-atom force and correction terms *) in
  let app node =
    let me = Node.id node in
    let shm = Node.shm node in
    let mine m = owner p ~nodes m = me in
    (* Initial data: node 0 materializes the molecule database. *)
    if me = 0 then begin
      let ph = init_phys p in
      for m = 0 to n - 1 do
        write3 shm (pos_addr layout m) (ph.px.(m), ph.py.(m), ph.pz.(m));
        write3 shm (vel_addr layout m) (ph.vx.(m), ph.vy.(m), ph.vz.(m));
        write3 shm (force_addr layout m) (0.0, 0.0, 0.0)
      done;
      Node.compute node (float_of_int n *. 2e-6)
    end;
    Msg_barrier.wait barrier node;
    let accx = Array.make n 0.0
    and accy = Array.make n 0.0
    and accz = Array.make n 0.0 in
    (* Scratch cells of this node's app fiber (handlers use their own):
       two triples (two molecules' positions, or a velocity and a
       position or force) and one force. *)
    let cells = Array.make 6 0.0 and f = Array.make 3 0.0 in
    for _step = 1 to p.steps do
      (* Phase A: integrate positions of own molecules, clear forces. *)
      for m = 0 to n - 1 do
        if mine m then begin
          read3_into shm (vel_addr layout m) cells 0;
          read3_into shm (pos_addr layout m) cells 3;
          let vx = cells.(0) and vy = cells.(1) and vz = cells.(2) in
          let x = cells.(3) and y = cells.(4) and z = cells.(5) in
          write3 shm (pos_addr layout m)
            (x +. (vx *. dt), y +. (vy *. dt), z +. (vz *. dt));
          write3 shm (force_addr layout m) (0.0, 0.0, 0.0);
          (* Predictor scratch terms, as the SPLASH integrator updates. *)
          for s = 0 to scratch_doubles - 1 do
            Shm.write_f64 shm (scratch_addr layout m + (8 * s)) (x +. float_of_int s)
          done;
          Node.compute node p.integrate_cost
        end
      done;
      Msg_barrier.wait barrier node;
      (* Phase B: forces.  Accumulate privately, then one update per
         molecule (paper: "having each processor accumulate its own
         contributions and then perform a single update"). *)
      Array.fill accx 0 n 0.0;
      Array.fill accy 0 n 0.0;
      Array.fill accz 0 n 0.0;
      for i = 0 to n - 1 do
        if mine i then begin
          read3_into shm (pos_addr layout i) cells 0;
          for k = 1 to half p do
            let j = (i + k) mod n in
            read3_into shm (pos_addr layout j) cells 3;
            Node.compute node p.pair_check_cost;
            if pair_force p ~side cells f then begin
              Node.compute node p.pair_force_cost;
              accx.(i) <- accx.(i) +. f.(0);
              accy.(i) <- accy.(i) +. f.(1);
              accz.(i) <- accz.(i) +. f.(2);
              accx.(j) <- accx.(j) -. f.(0);
              accy.(j) <- accy.(j) -. f.(1);
              accz.(j) <- accz.(j) -. f.(2)
            end
          done
        end
      done;
      (* Apply the accumulated updates. *)
      for m = 0 to n - 1 do
        if accx.(m) <> 0.0 || accy.(m) <> 0.0 || accz.(m) <> 0.0 then begin
          let ux = accx.(m) and uy = accy.(m) and uz = accz.(m) in
          match variant with
          | Lock ->
            Msg_lock.with_lock locks.(m) node (fun () ->
                read3_into shm (force_addr layout m) f 0;
                write3 shm (force_addr layout m)
                  (f.(0) +. ux, f.(1) +. uy, f.(2) +. uz);
                Node.compute node 2e-6)
          | Hybrid | Hybrid_all_release ->
            (* Function shipping: a NONE message invokes the update
               function at the molecule's owner; sequential delivery makes
               the updates atomic without locks (paper §5.3). *)
            Node.send node
              ~dst:(owner p ~nodes m)
              ~annotation:update_annotation ~payload_bytes:update_bytes
              ~handler:(fun owner_node d ->
                Node.accept d;
                let oshm = Node.shm owner_node in
                let cur = Array.make 3 0.0 in
                read3_into oshm (force_addr layout m) cur 0;
                write3 oshm (force_addr layout m)
                  (cur.(0) +. ux, cur.(1) +. uy, cur.(2) +. uz);
                Node.charge owner_node Carlos.Breakdown.User 2e-6)
        end
      done;
      (match variant with
      | Lock -> ()
      | Hybrid | Hybrid_all_release ->
        (* End-of-phase markers: in-order delivery guarantees every update
           from a peer has been applied once its marker arrives.  The
           marker to ourselves flushes our own locally shipped updates
           through the serial dispatcher before phase C reads forces. *)
        for peer = 0 to nodes - 1 do
          Node.send node ~dst:peer ~annotation:update_annotation
            ~payload_bytes:8
            ~handler:(fun peer_node d ->
              Node.accept d;
              Resource.Semaphore.signal flush_sem.(Node.id peer_node))
        done;
        Node.flush_compute node;
        for _ = 1 to nodes do
          Resource.Semaphore.wait flush_sem.(me)
        done);
      Msg_barrier.wait barrier node;
      (* Phase C: integrate velocities of own molecules. *)
      for m = 0 to n - 1 do
        if mine m then begin
          read3_into shm (force_addr layout m) cells 0;
          read3_into shm (vel_addr layout m) cells 3;
          let fx = cells.(0) and fy = cells.(1) and fz = cells.(2) in
          let vx = cells.(3) and vy = cells.(4) and vz = cells.(5) in
          write3 shm (vel_addr layout m)
            (vx +. (fx *. dt), vy +. (fy *. dt), vz +. (fz *. dt));
          for s = 0 to scratch_doubles - 1 do
            Shm.write_f64 shm (scratch_addr layout m + (8 * s)) (vx +. float_of_int s)
          done;
          Node.compute node p.integrate_cost
        end
      done;
      Msg_barrier.wait barrier node
    done;
    (* Node 0 evaluates the end-state energy from shared memory. *)
    if me = 0 then begin
      let e = [| 0.0 |] in
      for i = 0 to n - 1 do
        read3_into shm (vel_addr layout i) cells 0;
        let vx = cells.(0) and vy = cells.(1) and vz = cells.(2) in
        e.(0) <- e.(0) +. (0.5 *. ((vx *. vx) +. (vy *. vy) +. (vz *. vz)))
      done;
      for i = 0 to n - 1 do
        read3_into shm (pos_addr layout i) cells 0;
        for k = 1 to half p do
          read3_into shm (pos_addr layout ((i + k) mod n)) cells 3;
          add_pair_energy p ~side cells e
        done
      done;
      Node.compute node 0.05;
      energy := e.(0)
    end
  in
  let report = System.run sys app in
  let reference = reference_energy p in
  let ok =
    Float.abs (!energy -. reference)
    <= 1e-6 *. Float.max 1.0 (Float.abs reference)
  in
  { energy = !energy; energy_ok = ok; report }
