open Effect
open Effect.Deep

exception Process_failure of string * exn

let () =
  Printexc.register_printer (function
    | Process_failure (name, inner) ->
        Some (Printf.sprintf "Process %S failed: %s" name (Printexc.to_string inner))
    | _ -> None)

type _ Effect.t +=
  | Suspend : ((unit -> unit) -> unit) -> unit Effect.t
  | Sleep : int -> unit Effect.t
        (* [Sleep cycles] = [Suspend (fun r -> Engine.schedule ~delay:cycles r)]
           minus the allocations: no [register] closure, no per-sleep resume
           closure (the process registers one engine handler at spawn and
           sleeps by tag), and no double-resume guard — the engine fires a
           scheduled event exactly once, and a spurious second resume finds
           the continuation slot empty and raises. Delays are the dominant
           suspension in spin-heavy benches, so the slimmer path pays for
           the extra constructor. *)
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

let self_name engine = Engine.current_name engine

let suspend register = perform (Suspend register)

let spawn engine ~name f =
  (* One resume handler per process, registered once: a sleep parks the
     continuation in [kslot] and schedules a pooled tag event — nothing is
     allocated per sleep beyond the [Some] box. The tag is released when
     the process completes (it cannot be sleeping while it runs, so no
     event can still carry the tag). *)
  let kslot : (unit, unit) continuation option ref = ref None in
  let stepslot : (unit -> int) option ref = ref None in
  let resume () =
    match !kslot with
    | None -> invalid_arg (Printf.sprintf "Process %s resumed twice" name)
    | Some k ->
        kslot := None;
        let saved = Engine.current_name engine in
        Engine.set_current_name engine name;
        (* Restore by hand instead of Fun.protect: this runs once per
           resumed suspension, squarely on the hot path, and the
           protect pair is two allocations. *)
        (match continue k () with
        | () -> Engine.set_current_name engine saved
        | exception e ->
            Engine.set_current_name engine saved;
            raise e)
  in
  (* Drive one poll boundary of a [Tick] suspension. Mirrors what the
     resumed process itself would do after a plain sleep: consult the
     condition, and either continue (here: [resume]), skip ahead through an
     empty window ([try_advance], exactly like [delay]'s fast path), or
     schedule the next boundary. [tag] rides in the event's [b] argument so
     this function needs no back-reference to it. *)
  let rec tick step b =
    let d = step () in
    if d = 0 then begin
      stepslot := None;
      resume ()
    end
    else if d < 0 then invalid_arg "Process.tick_sleep: negative interval"
    else if Engine.try_advance engine ~cycles:d then tick step b
    else Engine.schedule_tag engine ~delay:d ~tag:b ~a:1 ~b
  in
  let tag =
    Engine.register_handler engine (fun a b ->
        if a = 0 then resume ()
        else
          match !stepslot with
          | None ->
              invalid_arg (Printf.sprintf "Process %s: tick without a step" name)
          | Some step -> tick step b)
  in
  let body () =
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
            | Suspend register ->
                Some
                  (fun (k : (a, _) continuation) ->
                    let resumed = ref false in
                    let resume () =
                      if !resumed then
                        invalid_arg
                          (Printf.sprintf "Process %s resumed twice" name);
                      resumed := true;
                      let saved = Engine.current_name engine in
                      Engine.set_current_name engine name;
                      match continue k () with
                      | () -> Engine.set_current_name engine saved
                      | exception e ->
                          Engine.set_current_name engine saved;
                          raise e
                    in
                    register resume)
            | Sleep cycles ->
                Some
                  (fun (k : (a, _) continuation) ->
                    kslot := Some k;
                    Engine.schedule_tag engine ~delay:cycles ~tag ~a:0 ~b:0)
            | Tick (first, step) ->
                Some
                  (fun (k : (a, _) continuation) ->
                    kslot := Some k;
                    stepslot := Some step;
                    Engine.schedule_tag engine ~delay:first ~tag ~a:1 ~b:tag)
            | _ -> None);
      }
  in
  Engine.schedule engine ~delay:0 (fun () ->
      let saved = Engine.current_name engine in
      Engine.set_current_name engine name;
      match body () with
      | () -> Engine.set_current_name engine saved
      | exception e ->
          Engine.set_current_name engine saved;
          raise e)

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
