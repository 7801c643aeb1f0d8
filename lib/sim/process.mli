(** Direct-style simulated processes on top of OCaml 5 effect handlers.

    A process is ordinary OCaml code that may perform {!delay} and
    {!suspend}; the handler installed by {!spawn} turns those into engine
    events, so protocol code reads sequentially ("flush, then wait for the
    ack") while the engine interleaves many processes deterministically. *)

exception Process_failure of string * exn

(** A spawned process raised; carries the process name and the exception. *)

(** [spawn engine ~name f] starts [f] as a process at the current time.
    Exceptions escaping [f] are wrapped in {!Process_failure} and re-raised
    out of the engine loop. *)
val spawn : Engine.t -> name:string -> (unit -> unit) -> unit

(** Suspend the current process; [register resume] is called immediately and
    must arrange for [resume] to be invoked exactly once later (e.g. stash it
    in a wait queue or schedule it). Must only be called from process
    context. *)
val suspend : ((unit -> unit) -> unit) -> unit

(** Advance this process's local time by [cycles] (>= 0). When no pending
    event falls inside the window this is a plain clock bump
    ({!Engine.try_advance}) with no suspend; behaviour is identical either
    way. *)
val delay : Engine.t -> int -> unit

(** [tick_sleep engine ~first step] sleeps [first] cycles (> 0), then calls
    [step ()] at that boundary and at each subsequent one: a return of [0]
    resumes the process at the current boundary, [d > 0] sleeps [d] more
    cycles first. Behaviour — event times, event counts and same-cycle
    ordering — is exactly that of the equivalent chain of {!delay} calls
    re-checking a condition between sleeps, but a run of idle boundaries
    costs one effect suspension total instead of one continuation
    capture/resume (and its allocations) per boundary: idle boundaries are
    handled inside the engine event, allocation-free. [step] must be free
    of observable side effects when it returns nonzero (private cursor
    movement is fine), because the process is not resumed for that
    boundary. Must only be called from process context. *)
val tick_sleep : Engine.t -> first:int -> (unit -> int) -> unit

(** Name of the process currently running on [engine] ("main" outside any
    process). Per-engine rather than global so independent machines can run
    on separate domains. *)
val self_name : Engine.t -> string
