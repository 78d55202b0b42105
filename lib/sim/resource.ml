module Ivar = struct
  type 'a state = Empty | Full of 'a

  type 'a t = { mutable state : 'a state; readers : Engine.waiters }

  let create () = { state = Empty; readers = Engine.waiters () }

  let fill t v =
    match t.state with
    | Full _ -> invalid_arg "Ivar.fill: already filled"
    | Empty ->
      t.state <- Full v;
      Carlos_obs.Profile.(enter ivar_wakeup);
      while Engine.has_waiters t.readers do
        Engine.wake_one t.readers
      done;
      Carlos_obs.Profile.(leave ivar_wakeup)

  let is_filled t = match t.state with Full _ -> true | Empty -> false

  let read t =
    match t.state with
    | Full v -> v
    | Empty -> (
      Engine.wait t.readers;
      match t.state with
      | Full v -> v
      | Empty -> assert false)
end

module Mailbox = struct
  type 'a t = { messages : 'a Queue.t; receivers : Engine.waiters }

  let create () = { messages = Queue.create (); receivers = Engine.waiters () }

  let send t v =
    Queue.add v t.messages;
    if Engine.has_waiters t.receivers then Engine.wake_one t.receivers

  let rec recv t =
    if Queue.is_empty t.messages then begin
      Engine.wait t.receivers;
      (* A competing receiver woken at the same instant may have consumed
         the message; loop until we actually get one. *)
      recv t
    end
    else Queue.pop t.messages
end

module Semaphore = struct
  type t = { mutable count : int; waiters : Engine.waiters }

  let create count =
    if count < 0 then invalid_arg "Semaphore.create: negative";
    { count; waiters = Engine.waiters () }

  let wait t =
    if t.count > 0 then t.count <- t.count - 1 else Engine.wait t.waiters

  let signal t =
    if Engine.has_waiters t.waiters then Engine.wake_one t.waiters
    else t.count <- t.count + 1

  let value t = t.count
end
