(* Host-time and allocation profiler: a span stack tagged by layer.  See
   profile.mli for the model.

   Numbers here are real seconds and host allocation, not virtual time:
   the seconds are nondeterministic, so they must never enter the Obs
   metrics registry, whose exports are byte-identical across identical
   runs. *)

type span = int

(* The registry: every span's name and layer, by id.  Spans register at
   module initialisation, before any domain profiles. *)
let names = ref [||]

let span_layers = ref [||]

let span layer name =
  let id = Array.length !names in
  names := Array.append !names [| name |];
  span_layers := Array.append !span_layers [| layer |];
  id

let name s = !names.(s)

let layer s = !span_layers.(s)

let run = span Obs.Sim "run"

let event = span Obs.Sim "event"

let heap_push = span Obs.Sim "heap_push"

let heap_pop = span Obs.Sim "heap_pop"

let fiber_spawn = span Obs.Sim "fiber_spawn"

let fiber_resume = span Obs.Sim "fiber_resume"

let ivar_wakeup = span Obs.Sim "ivar_wakeup"

let vm_fault = span Obs.Vm "vm_fault"

(* One global flag, so a probe that is off reads no domain-local state. *)
let on = ref false

let set_enabled b = on := b

let[@inline] enabled () = !on

(* Per-domain accumulators and stack.  [marks] holds, unboxed, the time
   and the words of the last boundary and [own], the profiler's own
   allocation: [words] is the domain's minor words less [own], so
   charging the difference of two readings never charges the profiler's
   words. *)
type state = {
  mutable stack : int array;
  mutable t0s : float array; (* by stack position: enter time *)
  mutable w0s : float array; (* by stack position: enter words *)
  mutable depth : int;
  marks : float array;
  mutable counts : int array; (* by span id *)
  mutable incl_s : float array;
  mutable incl_w : float array;
  mutable self_s : float array;
  mutable self_w : float array;
}

let fresh () =
  let n = Array.length !names in
  { stack = Array.make 64 0; t0s = Array.make 64 0.0; w0s = Array.make 64 0.0;
    depth = 0; marks = [| 0.0; 0.0; 0.0 |];
    counts = Array.make n 0; incl_s = Array.make n 0.0;
    incl_w = Array.make n 0.0; self_s = Array.make n 0.0;
    self_w = Array.make n 0.0 }

let state_key : state Domain.DLS.key = Domain.DLS.new_key fresh

let state () = Domain.DLS.get state_key

let reset () = Domain.DLS.set state_key (fresh ())

let last_t = 0

let last_w = 1

let own = 2

let[@inline] words st = Gc.minor_words () -. st.marks.(own)

let[@inline] exclude_since st w0 =
  st.marks.(own) <- st.marks.(own) +. (Gc.minor_words () -. w0)

(* Runs [f] (which grows the profiler's own arrays) with its allocation
   added to [own]. *)
let[@inline never] excluding st f =
  let w0 = Gc.minor_words () in
  f st;
  exclude_since st w0

let extend a n fill =
  let a' = Array.make n fill in
  Array.blit a 0 a' 0 (Array.length a);
  a'

let grow_stack st =
  let n = 2 * Array.length st.stack in
  st.stack <- extend st.stack n 0;
  st.t0s <- extend st.t0s n 0.0;
  st.w0s <- extend st.w0s n 0.0

(* A span registered after this domain's state was made. *)
let grow_spans st =
  let n = Array.length !names in
  st.counts <- extend st.counts n 0;
  st.incl_s <- extend st.incl_s n 0.0;
  st.incl_w <- extend st.incl_w n 0.0;
  st.self_s <- extend st.self_s n 0.0;
  st.self_w <- extend st.self_w n 0.0

(* The boundary: charge the seconds and words since the last one to the
   span on top. *)
let[@inline] charge st now w =
  if st.depth > 0 then begin
    let top = Array.unsafe_get st.stack (st.depth - 1) in
    st.self_s.(top) <- st.self_s.(top) +. (now -. st.marks.(last_t));
    st.self_w.(top) <- st.self_w.(top) +. (w -. st.marks.(last_w))
  end;
  st.marks.(last_t) <- now;
  st.marks.(last_w) <- w

let[@inline] push st s now w =
  if st.depth = Array.length st.stack then excluding st grow_stack;
  let d = st.depth in
  Array.unsafe_set st.stack d s;
  Array.unsafe_set st.t0s d now;
  Array.unsafe_set st.w0s d w;
  st.depth <- d + 1

let enter_on s =
  let st = state () in
  if st.depth > 0 || s = run then begin
    let now = Unix.gettimeofday () in
    let w = words st in
    charge st now w;
    if s >= Array.length st.counts then excluding st grow_spans;
    st.counts.(s) <- st.counts.(s) + 1;
    push st s now w
  end

(* Close the span on top. *)
let pop st =
  let now = Unix.gettimeofday () in
  let w = words st in
  charge st now w;
  let d = st.depth - 1 in
  let s = Array.unsafe_get st.stack d in
  st.incl_s.(s) <- st.incl_s.(s) +. (now -. Array.unsafe_get st.t0s d);
  st.incl_w.(s) <- st.incl_w.(s) +. (w -. Array.unsafe_get st.w0s d);
  st.depth <- d

let leave_on s =
  let st = state () in
  if st.depth > 0 && Array.unsafe_get st.stack (st.depth - 1) = s then pop st

let[@inline] enter s = if !on then enter_on s

let[@inline] leave s = if !on then leave_on s

let tick s =
  if !on then begin
    let st = state () in
    if st.depth > 0 then begin
      if s >= Array.length st.counts then excluding st grow_spans;
      st.counts.(s) <- st.counts.(s) + 1
    end
  end

let depth () = if !on then (state ()).depth else 0

let cut d =
  if !on then begin
    let st = state () in
    while st.depth > d do
      pop st
    done
  end

(* Parked spans keep their enter times and words, so their inclusive
   numbers cover the suspension. *)
type parked = { p_stack : int array; p_t0s : float array; p_w0s : float array }

let nothing_parked = { p_stack = [||]; p_t0s = [||]; p_w0s = [||] }

let park d =
  if not !on then nothing_parked
  else begin
    let st = state () in
    if st.depth <= d then nothing_parked
    else begin
      charge st (Unix.gettimeofday ()) (words st);
      let n = st.depth - d in
      let w0 = Gc.minor_words () in
      let p =
        { p_stack = Array.sub st.stack d n; p_t0s = Array.sub st.t0s d n;
          p_w0s = Array.sub st.w0s d n }
      in
      exclude_since st w0;
      st.depth <- d;
      p
    end
  end

let unpark p =
  if !on && p != nothing_parked then begin
    let st = state () in
    charge st (Unix.gettimeofday ()) (words st);
    for i = 0 to Array.length p.p_stack - 1 do
      push st p.p_stack.(i) p.p_t0s.(i) p.p_w0s.(i)
    done
  end

(* ------------------------------------------------------------------ *)
(* Readout *)

type sample = { category : string; count : int; seconds : float }

type stat = {
  span_name : string;
  span_layer : Obs.layer;
  calls : int;
  incl_s : float;
  incl_words : float;
  self_s : float;
  self_words : float;
}

let ids () =
  let st = state () in
  if Array.length st.counts < Array.length !names then grow_spans st;
  (st, List.init (Array.length !names) Fun.id)

let snapshot () =
  let st, ids = ids () in
  List.map
    (fun s ->
      { category = name s; count = st.counts.(s); seconds = st.incl_s.(s) })
    ids

let stats () =
  let st, ids = ids () in
  List.map
    (fun s ->
      { span_name = name s; span_layer = layer s; calls = st.counts.(s);
        incl_s = st.incl_s.(s); incl_words = st.incl_w.(s);
        self_s = st.self_s.(s); self_words = st.self_w.(s) })
    ids

let all_layers = Obs.[ Sim; Net; Vm; Dsm; Carlos; App ]

let layers () =
  let spans = stats () in
  List.map
    (fun l ->
      List.fold_left
        (fun (l, secs, words) s ->
          if s.span_layer = l then (l, secs +. s.self_s, words +. s.self_words)
          else (l, secs, words))
        (l, 0.0, 0.0) spans)
    all_layers

let pp ppf () =
  let stats = stats () in
  let run = List.nth stats run in
  Format.fprintf ppf "%-8s %12s %14s@." "layer" "self host(s)" "minor words";
  List.iter
    (fun (l, secs, words) ->
      Format.fprintf ppf "%-8s %12.6f %14.0f@." (Obs.layer_name l) secs words)
    (layers ());
  Format.fprintf ppf "%-8s %12.6f %14.0f@.@." "(run)" run.incl_s
    run.incl_words;
  Format.fprintf ppf "%-22s %-6s %10s %12s %12s %14s@." "span" "layer" "count"
    "host(s)" "self(s)" "self words";
  List.iter
    (fun s ->
      if s.calls > 0 then
        Format.fprintf ppf "%-22s %-6s %10d %12.6f %12.6f %14.0f@." s.span_name
          (Obs.layer_name s.span_layer) s.calls s.incl_s s.self_s s.self_words)
    stats

(* One JSONL line per span and per layer, shaped like (but distinct
   from) the Obs metrics lines, so --metrics-json consumers can filter on
   "type":"profile".  Uses %.9g like Obs.json_float; the seconds are real
   wall-clock seconds and thus nondeterministic. *)
let pp_jsonl ppf () =
  List.iter
    (fun s ->
      Format.fprintf ppf
        "{\"node\":%d,\"layer\":%S,\"name\":\"profile.%s\",\"type\":\"profile\",\"count\":%d,\"seconds\":%.9g,\"self_seconds\":%.9g,\"self_words\":%.0f}\n"
        Obs.profile_node
        (Obs.layer_name s.span_layer)
        s.span_name s.calls s.incl_s s.self_s s.self_words)
    (stats ());
  List.iter
    (fun (l, secs, words) ->
      let l = Obs.layer_name l in
      Format.fprintf ppf
        "{\"node\":%d,\"layer\":%S,\"name\":\"profile.layer.%s\",\"type\":\"profile\",\"self_seconds\":%.9g,\"self_words\":%.0f}\n"
        Obs.profile_node l l secs words)
    (layers ())

(* Mirror the layer table into the trace buffer as Complete slices on the
   host-profile pseudo-process, laid out sequentially so Perfetto shows
   one bar per layer (lengths are its exclusive host seconds). *)
let to_obs obs =
  let t = ref 0.0 in
  List.iter
    (fun (l, secs, words) ->
      if secs > 0.0 then begin
        Obs.complete_at obs ~ts:!t ~duration:secs ~node:Obs.profile_node
          ~layer:l
          ("profile." ^ Obs.layer_name l)
          ~args:[ ("words", Obs.Int (int_of_float words)) ];
        t := !t +. secs
      end)
    (layers ())
