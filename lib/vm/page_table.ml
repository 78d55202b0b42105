module Obs = Carlos_obs.Obs
module Profile = Carlos_obs.Profile

type t = {
  table : Page.t array;
  page_size : int;
  mutable on_read_fault : int -> unit;
  mutable on_write_fault : int -> unit;
  read_faults_c : Obs.counter;
  write_faults_c : Obs.counter;
}

let no_handler _ = invalid_arg "Page_table: no fault handler installed"

let create ?obs ?node ?(twin_pool = Page.create_twin_pool ()) ~pages
    ~page_size () =
  if pages < 0 then invalid_arg "Page_table.create: pages";
  let obs = match obs with Some o -> o | None -> Obs.create () in
  let node = match node with Some n -> n | None -> Obs.global_node in
  {
    table = Array.init pages (fun _ -> Page.create ~twin_pool ~size:page_size);
    page_size;
    on_read_fault = no_handler;
    on_write_fault = no_handler;
    read_faults_c = Obs.counter obs ~node ~layer:Obs.Vm "read_faults";
    write_faults_c = Obs.counter obs ~node ~layer:Obs.Vm "write_faults";
  }

let pages t = Array.length t.table

let page_size t = t.page_size

let page t i =
  if i < 0 || i >= Array.length t.table then
    invalid_arg (Printf.sprintf "Page_table.page: bad page %d" i);
  t.table.(i)

let set_read_fault t f = t.on_read_fault <- f

let set_write_fault t f = t.on_write_fault <- f

(* Fault handlers may block, and while blocked the page can change state
   again (a write notice invalidating it, another thread's fault fixing
   it); retry like real hardware re-executing the trapping instruction.
   The attempt bound turns a broken handler into an error instead of a
   livelock. *)
let max_fault_retries = 1000

let ensure_readable t i =
  let rec attempt n =
    match Page.state (page t i) with
    | Page.Read_only | Page.Read_write -> ()
    | Page.Invalid ->
      if n >= max_fault_retries then
        invalid_arg "Page_table: read fault handler left page invalid";
      Obs.inc t.read_faults_c;
      (* Inclusive span: the handler may suspend, so this wall-clock
         extent also covers other fibers run meanwhile (see Profile). *)
      let p0 = Profile.start () in
      t.on_read_fault i;
      Profile.stop Profile.Vm_fault p0;
      attempt (n + 1)
  in
  attempt 0

let ensure_writable t i =
  let rec attempt n =
    if n >= max_fault_retries then
      invalid_arg "Page_table: write fault handler left page unwritable";
    match Page.state (page t i) with
    | Page.Read_write -> ()
    | Page.Invalid ->
      ensure_readable t i;
      attempt (n + 1)
    | Page.Read_only ->
      Obs.inc t.write_faults_c;
      let p0 = Profile.start () in
      t.on_write_fault i;
      Profile.stop Profile.Vm_fault p0;
      attempt (n + 1)
  in
  attempt 0

(* Fast-path accessors for {!Shm}: when the page is already accessible
   (the overwhelmingly common case) return its backing bytes with one
   state check and no allocation; otherwise fall into the full
   fault-and-retry logic above.  [i] must be a valid page index — Shm
   derives it from an address already validated against the coherent
   segment bounds. *)

let[@inline never] read_data_slow t i =
  ensure_readable t i;
  Page.data (page t i)

let[@inline] read_data t i =
  let p = Array.unsafe_get t.table i in
  match Page.state p with
  | Page.Read_only | Page.Read_write -> Page.data p
  | Page.Invalid -> read_data_slow t i

let[@inline never] write_data_slow t i =
  ensure_writable t i;
  Page.data (page t i)

let[@inline] write_data t i =
  let p = Array.unsafe_get t.table i in
  match Page.state p with
  | Page.Read_write -> Page.data p
  | Page.Invalid | Page.Read_only -> write_data_slow t i
