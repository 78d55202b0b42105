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

(* [Array.init f n] with [n] over the 256-word young limit allocates
   its array straight in the major heap, filled with [f 0], and when that
   first element is young the runtime empties the minor heap first.  A
   table is built instead from young chunks of at most 256 pages, which
   [Array.concat] copies into one major block through the write
   barrier, with no collection. *)
let young_chunk = 256

let init_table pages f =
  let n = young_chunk in
  Array.concat
    (List.init ((pages + n - 1) / n) (fun c ->
         Array.init (Int.min n (pages - (c * n))) (fun i -> f ((c * n) + i))))

let create ?obs ?node ?(twin_pool = Page.create_twin_pool ()) ~pages
    ~page_size () =
  if pages < 0 then invalid_arg "Page_table.create: pages";
  let obs = match obs with Some o -> o | None -> Obs.create () in
  let node = match node with Some n -> n | None -> Obs.global_node in
  {
    table = init_table pages (fun _ -> Page.create ~twin_pool ~size:page_size);
    page_size;
    on_read_fault = no_handler;
    on_write_fault = no_handler;
    read_faults_c = Obs.counter obs ~node ~layer:Obs.Vm "read_faults";
    write_faults_c = Obs.counter obs ~node ~layer:Obs.Vm "write_faults";
  }

let pages t = Array.length t.table

let page_size t = t.page_size

let frames t = t.table

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
