open Effect
open Effect.Deep

exception Process_failure of string * exn

let () =
  Printexc.register_printer (function
    | Process_failure (name, inner) ->
        Some (Printf.sprintf "Process %S failed: %s" name (Printexc.to_string inner))
    | _ -> None)

type _ Effect.t +=
  | Park : (int -> unit) -> unit Effect.t
        (* [Park register]: suspend until {!wake} is called with the token
           the handler passes to [register]. *)
  | Sleep : int -> unit Effect.t
        (* [Sleep cycles]: a park whose wake the process schedules itself,
           [cycles] ahead — no [register] closure and no token. Delays are
           the dominant suspension in spin-heavy benches, so the slimmer
           path pays for the extra constructor. *)
  | Tick : int * (unit -> int) -> unit Effect.t
        (* [Tick (first, step)]: sleep [first] cycles, then consult [step]
           at that boundary — and at each subsequent one — from inside the
           engine handler. [step () = 0] resumes the process at the current
           boundary; [step () = d] sleeps [d] more cycles without resuming.
           One effect suspension thus spans an arbitrary run of idle poll
           ticks: every boundary is still its own engine event at exactly
           the time a chain of [delay]s would produce (so event counts,
           timestamps and seq order are unchanged), but an idle boundary
           re-arms allocation-free instead of paying a continuation
           resume+capture round trip. Spin-wait loops are mostly idle
           boundaries, which makes this the difference between the
           simulation allocating per poll tick and not allocating at all. *)

(* A wake token packs the parked process's handler tag (low [tag_bits])
   with the generation of the park it ends; it stays a non-negative int
   while generations, which start at an engine event count, are below
   2^38. *)
let tag_bits = 24
let tag_mask = (1 lsl tag_bits) - 1

(* Every process event goes to the one handler its process registers at
   spawn, with [a] saying what the event is and [b] carrying its int: *)
let ev_resume = 0 (* b = park generation: a sleep ends or {!wake} fires *)
let ev_tick = 1 (* b = the process's own tag: a [Tick] boundary *)
let ev_start = 2 (* b = the process's own tag: run the body *)

(* A process's parking state, one block per process. [gen] counts parks:
   a resume event carries the generation of the park it ends and must find
   the process parked at exactly that generation. *)
type parking = {
  mutable k : (unit, unit) continuation option; (* set while parked *)
  mutable step : (unit -> int) option; (* set while parked in a [Tick] *)
  mutable gen : int;
}

let parked p k =
  p.gen <- p.gen + 1;
  p.k <- Some k

let self_name engine = Engine.current_name engine

let park register = perform (Park register)

let wake engine token =
  Engine.schedule_tag engine ~delay:0 ~tag:(token land tag_mask) ~a:ev_resume
    ~b:(token lsr tag_bits)

let spawn engine ~name f =
  (* One handler per process, registered once: a park stores the
     continuation in [p.k], and every event the process needs — start,
     sleep resume, tick boundary, wake — is a pooled tag event, so nothing
     is allocated per sleep beyond the [Some] box. The tag is released when
     the process completes (it cannot be parked while it runs, so no event
     of its own can still carry the tag).

     A second wake, or one left over from an earlier park, finds another
     generation (or no continuation) and raises. Seeding [gen] from the
     engine's event count keeps generations distinct across processes that
     reuse a released tag — every park of an earlier holder ended with one
     of its own events, all dispatched before this spawn. *)
  let p = { k = None; step = None; gen = Engine.events_run engine } in
  let resume g =
    match p.k with
    | Some k when g = p.gen -> (
        p.k <- None;
        let saved = Engine.current_name engine in
        Engine.set_current_name engine name;
        (* Restore by hand instead of Fun.protect: this runs once per
           resumed suspension, squarely on the hot path, and the protect
           pair is two allocations. *)
        match continue k () with
        | () -> Engine.set_current_name engine saved
        | exception e ->
            Engine.set_current_name engine saved;
            raise e)
    | _ -> invalid_arg (Printf.sprintf "Process %s resumed twice" name)
  in
  (* Drive one poll boundary of a [Tick] suspension. Mirrors what the
     resumed process itself would do after a plain sleep: consult the
     condition, and either continue (here: [resume]), skip ahead through an
     empty window ([try_advance], exactly like [delay]'s fast path), or
     schedule the next boundary. *)
  let rec tick step tag =
    let d = step () in
    if d = 0 then begin
      p.step <- None;
      resume p.gen
    end
    else if d < 0 then invalid_arg "Process.tick_sleep: negative interval"
    else if Engine.try_advance engine ~cycles:d then tick step tag
    else Engine.schedule_tag engine ~delay:d ~tag ~a:ev_tick ~b:tag
  in
  let body tag =
    match_with f ()
      {
        retc = (fun () -> Engine.release_handler engine tag);
        exnc =
          (fun e ->
            Engine.release_handler engine tag;
            raise (Process_failure (name, e)));
        effc =
          (fun (type a) (eff : a Effect.t) ->
            match eff with
            | Park register ->
                Some
                  (fun (k : (a, _) continuation) ->
                    parked p k;
                    register ((p.gen lsl tag_bits) lor tag))
            | Sleep cycles ->
                Some
                  (fun (k : (a, _) continuation) ->
                    parked p k;
                    Engine.schedule_tag engine ~delay:cycles ~tag ~a:ev_resume ~b:p.gen)
            | Tick (first, step) ->
                Some
                  (fun (k : (a, _) continuation) ->
                    parked p k;
                    p.step <- Some step;
                    Engine.schedule_tag engine ~delay:first ~tag ~a:ev_tick ~b:tag)
            | _ -> None);
      }
  in
  let tag =
    Engine.register_handler engine (fun a b ->
        if a = ev_resume then resume b
        else if a = ev_tick then
          match p.step with
          | None ->
              invalid_arg (Printf.sprintf "Process %s: tick without a step" name)
          | Some step -> tick step b
        else begin
          let saved = Engine.current_name engine in
          Engine.set_current_name engine name;
          match body b with
          | () -> Engine.set_current_name engine saved
          | exception e ->
              Engine.set_current_name engine saved;
              raise e
        end)
  in
  if tag > tag_mask then invalid_arg "Process.spawn: too many live processes";
  Engine.schedule_tag engine ~delay:0 ~tag ~a:ev_start ~b:tag

let delay engine cycles =
  if cycles < 0 then invalid_arg "Process.delay: negative delay";
  if cycles = 0 || Engine.try_advance engine ~cycles then ()
  else perform (Sleep cycles)

let tick_sleep engine ~first step =
  if first <= 0 then invalid_arg "Process.tick_sleep: nonpositive first interval";
  (* Fast path, identical to [delay]'s: while the window ahead is empty,
     advance the clock synchronously and consult [step] without ever
     suspending. Only when another event interleaves does the span suspend —
     once — and hand the remaining boundaries to the spawn-registered tick
     handler. *)
  let rec fast d =
    if Engine.try_advance engine ~cycles:d then begin
      let d' = step () in
      if d' < 0 then invalid_arg "Process.tick_sleep: negative interval"
      else if d' > 0 then fast d'
    end
    else perform (Tick (d, step))
  in
  fast first
