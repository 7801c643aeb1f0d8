type t = { engine : Engine.t; queue : int Queue.t (* wake tokens *) }

let create engine = { engine; queue = Queue.create () }

let wait t = Process.park (fun token -> Queue.push token t.queue)

let signal_one t =
  if not (Queue.is_empty t.queue) then Process.wake t.engine (Queue.pop t.queue)

let signal_all t =
  while not (Queue.is_empty t.queue) do
    signal_one t
  done

let waiters t = Queue.length t.queue

module Completion = struct
  type c = { q : t; mutable fired : bool }

  let create engine = { q = create engine; fired = false }

  let fire c =
    if not c.fired then begin
      c.fired <- true;
      signal_all c.q
    end

  let is_fired c = c.fired
  let wait c = if not c.fired then wait c.q
end
