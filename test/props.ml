(* Seeding for every qcheck property in the test suite.

   Each property runs on a pinned seed, so [dune runtest] checks the same
   instances on every run.  [QCHECK_SEED=N] runs every property on seed N
   instead; [make soak] does that over a range of seeds, and [make
   soak-check] compares the failing seeds with test/soak_expected.txt.
   With [QCHECK_SOAK=1] a test binary runs only its properties (see
   [run]). *)

let pinned_seed = 2

let seed () =
  match Sys.getenv_opt "QCHECK_SEED" with
  | None -> pinned_seed
  | Some s -> (
    match int_of_string_opt s with
    | Some n -> n
    | None -> invalid_arg ("QCHECK_SEED is not an int: " ^ s))

(* The run functions of the properties registered so far, so that [run]
   can pick them out. *)
let registered : (unit -> unit) list ref = ref []

let to_alcotest t =
  let ((_, _, f) as case) =
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| seed () |]) t
  in
  registered := f :: !registered;
  case

let qcheck tests = List.map to_alcotest tests

let soak_only () = Sys.getenv_opt "QCHECK_SOAK" = Some "1"

let run name suites =
  let suites =
    if not (soak_only ()) then suites
    else
      List.filter_map
        (fun (suite, cases) ->
          match
            List.filter (fun (_, _, f) -> List.memq f !registered) cases
          with
          | [] -> None
          | cases -> Some (suite, cases))
        suites
  in
  Alcotest.run name suites
