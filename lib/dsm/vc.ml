(* Every function that indexes a clock is annotated [t], so it compiles
   for an [int array]: inferred as ['a array], an entry compare would be
   a C call and a store a write barrier, behind a float-array check. *)
type t = int array

let zero ~nodes =
  if nodes <= 0 then invalid_arg "Vc.zero: nodes";
  Array.make nodes 0

let copy = Array.copy

(* The empty array is one static atom, never in the minor heap. *)
let none : t = [||]

let get (t : t) i = t.(i)

let set (t : t) i v = t.(i) <- v

let tick (t : t) ~me =
  t.(me) <- t.(me) + 1;
  t.(me)

let join (a : t) (b : t) =
  if Array.length a <> Array.length b then invalid_arg "Vc.join: size";
  Array.init (Array.length a) (fun i -> Int.max a.(i) b.(i))

let join_in_place (a : t) (b : t) =
  if Array.length a <> Array.length b then invalid_arg "Vc.join_in_place: size";
  for i = 0 to Array.length a - 1 do
    if b.(i) > a.(i) then a.(i) <- b.(i)
  done

let rec dominates_from (a : t) (b : t) i =
  i >= Array.length a || (a.(i) >= b.(i) && dominates_from a b (i + 1))

let dominates a b =
  if Array.length a <> Array.length b then invalid_arg "Vc.dominates: size";
  dominates_from a b 0

let equal a b = a = b

let rec sum_from t i acc =
  if i >= Array.length t then acc else sum_from t (i + 1) (acc + t.(i))

let sum t = sum_from t 0 0

let entry_bytes = 4

let size_bytes t = entry_bytes * Array.length t

let pp ppf t =
  Format.fprintf ppf "<%s>"
    (String.concat "," (Array.to_list (Array.map string_of_int t)))
