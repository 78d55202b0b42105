(* Minimal recursive-descent JSON reader; see json.mli. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

type state = { src : string; mutable pos : int }

let fail st msg =
  let line = ref 1 and col = ref 1 in
  for i = 0 to min st.pos (String.length st.src) - 1 do
    if st.src.[i] = '\n' then begin
      incr line;
      col := 1
    end
    else incr col
  done;
  raise (Parse_error (Printf.sprintf "%d:%d: %s" !line !col msg))

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let rec skip_ws st =
  match peek st with
  | Some (' ' | '\t' | '\n' | '\r') ->
    advance st;
    skip_ws st
  | _ -> ()

let expect st c =
  match peek st with
  | Some c' when c' = c -> advance st
  | Some c' -> fail st (Printf.sprintf "expected %C, got %C" c c')
  | None -> fail st (Printf.sprintf "expected %C, got end of input" c)

let literal st word value =
  let n = String.length word in
  if
    st.pos + n <= String.length st.src
    && String.sub st.src st.pos n = word
  then begin
    st.pos <- st.pos + n;
    value
  end
  else fail st (Printf.sprintf "expected %s" word)

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> fail st "unterminated string"
    | Some '"' -> advance st
    | Some '\\' -> (
      advance st;
      match peek st with
      | None -> fail st "unterminated escape"
      | Some c ->
        advance st;
        (match c with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | 't' -> Buffer.add_char buf '\t'
        | 'u' ->
          if st.pos + 4 > String.length st.src then
            fail st "truncated \\u escape";
          let hex = String.sub st.src st.pos 4 in
          let code =
            try int_of_string ("0x" ^ hex)
            with _ -> fail st "bad \\u escape"
          in
          st.pos <- st.pos + 4;
          (* ASCII subset only; anything wider degrades to '?'. *)
          if code < 128 then Buffer.add_char buf (Char.chr code)
          else Buffer.add_char buf '?'
        | c -> fail st (Printf.sprintf "bad escape \\%C" c));
        go ())
    | Some c ->
      advance st;
      Buffer.add_char buf c;
      go ()
  in
  go ();
  Buffer.contents buf

let parse_number st =
  let start = st.pos in
  let rec go () =
    match peek st with
    | Some ('0' .. '9' | '-' | '+' | '.' | 'e' | 'E') ->
      advance st;
      go ()
    | _ -> ()
  in
  go ();
  let tok = String.sub st.src start (st.pos - start) in
  match float_of_string_opt tok with
  | Some f -> Num f
  | None -> fail st (Printf.sprintf "bad number %S" tok)

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> fail st "unexpected end of input"
  | Some '{' ->
    advance st;
    skip_ws st;
    if peek st = Some '}' then begin
      advance st;
      Obj []
    end
    else
      let rec fields acc =
        skip_ws st;
        let key = parse_string st in
        skip_ws st;
        expect st ':';
        let v = parse_value st in
        skip_ws st;
        match peek st with
        | Some ',' ->
          advance st;
          fields ((key, v) :: acc)
        | Some '}' ->
          advance st;
          Obj (List.rev ((key, v) :: acc))
        | _ -> fail st "expected ',' or '}'"
      in
      fields []
  | Some '[' ->
    advance st;
    skip_ws st;
    if peek st = Some ']' then begin
      advance st;
      Arr []
    end
    else
      let rec elems acc =
        let v = parse_value st in
        skip_ws st;
        match peek st with
        | Some ',' ->
          advance st;
          elems (v :: acc)
        | Some ']' ->
          advance st;
          Arr (List.rev (v :: acc))
        | _ -> fail st "expected ',' or ']'"
      in
      elems []
  | Some '"' -> Str (parse_string st)
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some 'n' -> literal st "null" Null
  | Some ('-' | '0' .. '9') -> parse_number st
  | Some c -> fail st (Printf.sprintf "unexpected %C" c)

let parse src =
  let st = { src; pos = 0 } in
  let v = parse_value st in
  skip_ws st;
  (match peek st with
  | None -> ()
  | Some c -> fail st (Printf.sprintf "trailing %C after value" c));
  v

let parse_file file =
  let ic = open_in_bin file in
  let n = in_channel_length ic in
  let src = really_input_string ic n in
  close_in ic;
  parse src

let member key = function
  | Obj fields -> ( match List.assoc_opt key fields with Some v -> v | None -> Null)
  | _ -> Null

let to_list = function Arr l -> l | _ -> []

let to_int_opt = function Num f -> Some (int_of_float f) | _ -> None

let to_string_opt = function Str s -> Some s | _ -> None

let to_bool_opt = function Bool b -> Some b | _ -> None
