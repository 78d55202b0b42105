(* Write capture shared by the three DSM backends.  See writeback.mli. *)

module Page = Carlos_vm.Page
module Page_table = Carlos_vm.Page_table
module Diff = Carlos_vm.Diff
module Obs = Carlos_obs.Obs
module Profile = Carlos_obs.Profile
module Ivar = Carlos_sim.Resource.Ivar
module Itbl = Hashtbl.Make (Int)

type t = {
  page_table : Page_table.t;
  costs : Cpu_cost.t;
  charge : float -> unit;
  (* Per-page fetch gates; see [under_gates]. *)
  inflight : unit Ivar.t Itbl.t;
  (* Set while a flush runs; the first fiber to wait for it creates the
     [flushed] gate, filled when the flush ends. *)
  mutable flushing : bool;
  mutable flushed : unit Ivar.t option;
}

let create ~page_table ~costs ~charge =
  {
    page_table;
    costs;
    charge;
    inflight = Itbl.create 8;
    flushing = false;
    flushed = None;
  }

(* ------------------------------------------------------------------ *)
(* Capture *)

let write_fault t page =
  Page.make_twin (Page_table.page t.page_table page);
  t.charge
    (t.costs.Cpu_cost.fault_trap
    +. (t.costs.Cpu_cost.twin_per_byte
       *. float_of_int (Page_table.page_size t.page_table))
    +. t.costs.Cpu_cost.page_protect)

let charge_encode t diff =
  t.charge
    ((t.costs.Cpu_cost.diff_scan_per_byte
     *. float_of_int (Page_table.page_size t.page_table))
    +. (t.costs.Cpu_cost.diff_data_per_byte
       *. float_of_int (Diff.changed_bytes diff))
    +. t.costs.Cpu_cost.page_protect)

(* The pieces of one page's writes, newest first. *)
let rec encode_page t ~created p ~page pieces =
  if Page.state p <> Page.Read_write then pieces
  else begin
    let diff = Page.encode_diff p ~page_index:page in
    Obs.inc created;
    charge_encode t diff;
    encode_page t ~created p ~page
      (if Diff.is_empty diff then pieces else diff :: pieces)
  end

let encode_written t ~created =
  let diffs = ref [] in
  for page = 0 to Page_table.pages t.page_table - 1 do
    let p = Page_table.page t.page_table page in
    match List.rev (encode_page t ~created p ~page []) with
    | [] -> ()
    | [ d ] -> diffs := d :: !diffs
    | ds -> diffs := Diff.merge ds :: !diffs
  done;
  List.rev !diffs

(* ------------------------------------------------------------------ *)
(* One flush at a time *)

let release t =
  t.flushing <- false;
  match t.flushed with
  | Some gate ->
    t.flushed <- None;
    Ivar.fill gate ()
  | None -> ()

let rec exclusively t f x =
  if t.flushing then begin
    let gate =
      match t.flushed with
      | Some gate -> gate
      | None ->
        let gate = Ivar.create () in
        t.flushed <- Some gate;
        gate
    in
    Ivar.read gate;
    exclusively t f x
  end
  else begin
    t.flushing <- true;
    match f x with
    | result ->
      release t;
      result
    | exception e ->
      release t;
      raise e
  end

(* ------------------------------------------------------------------ *)
(* Fetch gates *)

let under_gates t pages f =
  let gates =
    List.map
      (fun page ->
        let gate = Ivar.create () in
        Itbl.replace t.inflight page gate;
        (page, gate))
      pages
  in
  let finish () =
    List.iter
      (fun (page, gate) ->
        Itbl.remove t.inflight page;
        Ivar.fill gate ())
      gates
  in
  (try f ()
   with e ->
     finish ();
     raise e);
  finish ()

let inflight_span = Profile.span Obs.Dsm "tbl.writeback.inflight"

let fetch_gate t page =
  Profile.enter inflight_span;
  let gate = Itbl.find_opt t.inflight page in
  Profile.leave inflight_span;
  gate

let fetching t page =
  Profile.enter inflight_span;
  let b = Itbl.mem t.inflight page in
  Profile.leave inflight_span;
  b

let any_fetch_gate t = Itbl.fold (fun _ gate _ -> Some gate) t.inflight None
