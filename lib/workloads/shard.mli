(** Sub-experiment sharding: plan / execute / reduce for the bench harness.

    An experiment is flattened into self-contained sim-run {e cells} at
    plan time; every plan's cells execute on one shared {!Sim.Domain_pool}
    in longest-task-first order; reduction reads cell slots in plan order.
    Because a cell's value lands in its own slot whatever the schedule,
    reduced output is byte-identical for every [-j] by construction. *)

(** Per-cell (and, aggregated, per-experiment) cost accounting. *)
type measure = {
  wall_s : float;  (** summed run wall — CPU-seconds under [-j N] *)
  max_wall_s : float;  (** slowest single run: the shard-level critical path *)
  engine_ops : int option;
      (** engine events + advances, from the run's own engines via the
          cell's extractor; [None] marks "no engine-driven run" (reported
          as an explicit n/a, never a misleading 0) *)
  minor_words : float;  (** the executing domain's own; the same at any [-j] *)
  major_words : float;
      (** includes [promoted_words]; the direct part (major − promoted) is
          the same at any [-j] *)
  promoted_words : float;  (** depends on minor-heap fill: not deterministic *)
  runs : int;
}

val zero_measure : measure
val add_measure : measure -> measure -> measure

type job

type plan = {
  name : string;
  jobs : job list;
      (** cells this experiment owns — shared cells (e.g. the micro
          matrices figs 5–8 and table 3 both consume) belong to exactly
          one plan, so perf attribution never double-counts *)
  reused : int;
      (** cells this experiment reads from a {!memo} but does not own:
          they were registered first by an earlier plan. Perf mode reports
          the count beside the plan's own runs: its measures cover only
          the cells it ran. *)
  reduce : unit -> unit;  (** prints via {!Report}; runs after every cell *)
}

(** [cell ?label ?ops ~weight f] wraps one self-contained sim run.
    Returns the job (to attach to the owning plan) and a getter the
    reduce phase calls; the getter raises if read before execution.
    [ops] extracts the run's engine-op count from its result; omit it for
    runs that drive no engine (the measure reports n/a). [weight] is the
    estimated cost in engine-op units — only the descending order of
    weights matters (LPT scheduling). [f] must not print: tables belong
    in reduce, where output is captured deterministically. *)
val cell :
  ?label:string -> ?ops:('a -> int) -> weight:float -> (unit -> 'a) -> job * (unit -> 'a)

(** Cross-experiment cell memoization: identical (config, seed) cells run
    once, whatever experiments consume them. *)
type 'a memo

val create_memo : unit -> 'a memo

(** A plan under construction: it records the jobs the plan owns and the
    number of memo cells it only reads, as cells are registered. *)
type acc

val acc : unit -> acc

(** [own acc (job, get)] attaches a {!cell} to the plan and returns its
    getter. *)
val own : acc -> job * (unit -> 'a) -> unit -> 'a

(** [memo_cell acc memo ~key ...] is {!cell}, deduplicated on [key] (a
    workload [config_key]). The first registration of a key builds the
    cell and [acc] owns its job; later registrations, in this plan or any
    other on the same memo, get the same getter and count as reused.
    Plan construction is sequential, so ownership is deterministic (first
    builder in plan order). *)
val memo_cell :
  acc ->
  'a memo ->
  key:string ->
  ?label:string ->
  ?ops:('a -> int) ->
  weight:float ->
  (unit -> 'a) ->
  unit ->
  'a

(** The plan: the owned jobs in registration order, the reused count and
    [reduce]. *)
val plan_of : acc -> name:string -> (unit -> unit) -> plan

type outcome = {
  out_name : string;
  output : string;  (** the experiment's captured tables *)
  out_measure : measure;  (** cells summed + reduce wall *)
  out_reused : int;  (** the plan's [reused] count, for perf reporting *)
}

(** [execute ~jobs plans] runs every plan's cells on the shared pool
    ([jobs] domains, LPT order, per-worker GC tuning) and reduces in plan
    order. [progress] prints one per-cell elapsed line to stderr as cells
    finish (unordered across domains; stdout stays schedule-independent).
    Also returns the pool's summed per-domain GC deltas. *)
val execute :
  ?progress:bool -> jobs:int -> plan list -> outcome list * Domain_pool.gc_totals
