type t = int array

let zero ~nodes =
  if nodes <= 0 then invalid_arg "Vc.zero: nodes";
  Array.make nodes 0

let copy = Array.copy

let get t i = t.(i)

let set t i v = t.(i) <- v

let tick t ~me =
  t.(me) <- t.(me) + 1;
  t.(me)

let join a b =
  if Array.length a <> Array.length b then invalid_arg "Vc.join: size";
  Array.init (Array.length a) (fun i -> max a.(i) b.(i))

let join_in_place a b =
  if Array.length a <> Array.length b then invalid_arg "Vc.join_in_place: size";
  for i = 0 to Array.length a - 1 do
    if b.(i) > a.(i) then a.(i) <- b.(i)
  done

let rec dominates_from a b i =
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
