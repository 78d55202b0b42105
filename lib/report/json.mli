(** Minimal JSON reader for the bench snapshots.

    Hand-rolled (the toolchain ships no JSON library) and deliberately
    small: it parses exactly the subset the bench writer emits — objects,
    arrays, double-quoted strings with the standard escapes, numbers,
    booleans and null.  Numbers are all read as [float] (the snapshots
    only contain counts and seconds). *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string
(** Raised with a [line:col: message] description. *)

val parse : string -> t

val parse_file : string -> t
(** Reads and parses a whole file.  Raises [Parse_error] or
    [Sys_error]. *)

(** {1 Accessors} *)

val member : string -> t -> t
(** Field of an object; [Null] when absent or not an object. *)

val to_list : t -> t list
(** Elements of an array; [[]] for anything else. *)

val to_int_opt : t -> int option

val to_string_opt : t -> string option

val to_bool_opt : t -> bool option
