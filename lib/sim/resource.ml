module Ivar = struct
  type 'a state = Empty of (unit -> unit) Queue.t | Full of 'a

  type 'a t = { mutable state : 'a state }

  let create () = { state = Empty (Queue.create ()) }

  let fill t v =
    match t.state with
    | Full _ -> invalid_arg "Ivar.fill: already filled"
    | Empty waiters ->
      t.state <- Full v;
      if Carlos_obs.Profile.enabled () then begin
        let p0 = Carlos_obs.Profile.start () in
        Queue.iter (fun resume -> resume ()) waiters;
        Carlos_obs.Profile.stop Carlos_obs.Profile.Ivar_wakeup p0
      end
      else Queue.iter (fun resume -> resume ()) waiters

  let is_filled t = match t.state with Full _ -> true | Empty _ -> false

  let read t =
    match t.state with
    | Full v -> v
    | Empty waiters ->
      Engine.suspend (fun resume -> Queue.add resume waiters);
      (match t.state with
      | Full v -> v
      | Empty _ -> assert false)
end

module Mailbox = struct
  type 'a t = {
    messages : 'a Queue.t;
    receivers : (unit -> unit) Queue.t;
  }

  let create () = { messages = Queue.create (); receivers = Queue.create () }

  let send t v =
    Queue.add v t.messages;
    if not (Queue.is_empty t.receivers) then (Queue.pop t.receivers) ()

  let rec recv t =
    if Queue.is_empty t.messages then begin
      Engine.suspend (fun resume -> Queue.add resume t.receivers);
      (* A competing receiver woken at the same instant may have consumed
         the message; loop until we actually get one. *)
      recv t
    end
    else Queue.pop t.messages
end

module Semaphore = struct
  type t = { mutable count : int; waiters : (unit -> unit) Queue.t }

  let create count =
    if count < 0 then invalid_arg "Semaphore.create: negative";
    { count; waiters = Queue.create () }

  let wait t =
    if t.count > 0 then t.count <- t.count - 1
    else Engine.suspend (fun resume -> Queue.add resume t.waiters)

  let signal t =
    if Queue.is_empty t.waiters then t.count <- t.count + 1
    else (Queue.pop t.waiters) ()

  let value t = t.count
end
