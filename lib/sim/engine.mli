(** Discrete-event simulation engine.

    Time is a monotonically increasing integer cycle counter. Events
    scheduled for the same instant fire in insertion order, which makes every
    simulation deterministic.

    Every event is a tagged dispatch: a long-lived object (a process, the
    APIC, a deferred-flush queue) registers one handler and gets back an
    integer tag, then schedules by tag with two unboxed [int] arguments
    stored in the pooled event itself. Events carry no closure, so
    scheduling is allocation-free at steady state.

    Internally the priority key packs [(time, seq)] into a single int, so
    heap ordering is one native comparison; see the implementation notes.
    Simulated time may not exceed [2^38] cycles (ample: the full paper
    evaluation stays below [2^31]). *)

type t

val create : unit -> t

(** Current simulated time in cycles. *)
val now : t -> int

(** Largest representable simulated time ([2^38 - 1] cycles with the
    current packing). {!schedule_tag} rejects later times, and the
    [try_advance] fast path declines to move [now] past it, so the packed
    key's time field can never wrap into the sequence bits. *)
val max_time : int

(** Number of events executed so far. *)
val events_run : t -> int

(** Number of suspend-free clock advances (the [try_advance] fast path). *)
val advances : t -> int

(** Engine operations so far: [events_run + advances]. Per-engine by
    design — each simulation run owns its engine, so a harness attributes
    ops to a run by reading this after the run and sums across runs at
    reduce time. There is no process-wide counter: a global meter would
    force perf attribution to run one experiment at a time and would
    report 0 for experiments that reuse memoized results. *)
val ops : t -> int

(** {2 Tagged dispatch} *)

(** [register_handler t f] installs [f] in the engine's dispatch table and
    returns its tag. Tags are small dense ints (released tags are reused). *)
val register_handler : t -> (int -> int -> unit) -> int

(** Release a tag for reuse. The caller must ensure no event carrying the
    tag is still pending — the slot may be reassigned by the next
    [register_handler], and a stale event would dispatch to the wrong
    handler. (Dispatching a released-but-unreassigned tag raises.) *)
val release_handler : t -> int -> unit

(** [schedule_tag t ~delay ~tag ~a ~b] runs [handler a b] at
    [now t + delay], where [handler] is the function registered under
    [tag]. Raises [Invalid_argument] on a negative delay, on one that would
    move past {!max_time}, or on a tag that was never registered.
    Allocation-free at steady state. *)
val schedule_tag : t -> delay:int -> tag:int -> a:int -> b:int -> unit

(** [try_advance t ~cycles] advances the clock by [cycles] and returns
    [true] iff no pending event would fire at or before the new time and no
    chooser is installed. Used by [Process.delay] to skip the
    suspend/reschedule round-trip for uncontended sleeps; behaviour is
    identical either way. *)
val try_advance : t -> cycles:int -> bool

(** Execute the earliest pending event. Returns [false] when none remain. *)
val step : t -> bool

(** Run until no events remain. *)
val run : t -> unit

(** Name of the cooperative process currently executing on this engine
    ("main" outside any process). Maintained by {!Process}; lives on the
    engine rather than in a global so independent machines can run on
    separate domains. *)
val current_name : t -> string

val set_current_name : t -> string -> unit

(** Install a scheduling chooser: whenever more than one pending event falls
    within [horizon] cycles of the earliest one, [choose n] is called with
    the candidate count and returns the index (in (time, seq) order) of the
    event to fire next; out-of-range answers fall back to 0. The clock is
    clamped monotone, so choosing a later candidate makes overtaken events
    run "late" at the current time — the interleaving explorer's model of
    timing variance. No chooser (the default) is the strict deterministic
    (time, seq) order with zero overhead. While a chooser is installed the
    {!try_advance} fast path is disabled, so the explorer sees every
    scheduling decision point. *)
val set_chooser : t -> ?horizon:int -> (int -> int) -> unit

val clear_chooser : t -> unit
