(** The experiment registry: every table and figure of the paper's
    evaluation (§5, §7), the ablations and the cross-backend comparisons
    (DESIGN.md §13) and the per-shootdown phase breakdown, in plan order.
    It is the one place an experiment is defined: the bench harness plans
    its entries by name or group, and [tlbsim shootout] and [tlbsim stats]
    plan the [shootout], [shootout-workloads] and [stats] entries'
    builders on a fresh context. *)

(** One invocation's context: the quick/full scale and one cell memo per
    workload type. Cells with identical (config, seed) run once per
    context, owned by the first entry that plans them. *)
type t

(** [context ~quick ()] is a fresh context. The optional parameters shape
    the metered microbenchmark cells of [shootout] and [stats] (the CLI's
    flags): [ptes] is shootout's flush size (default 10; stats sweeps 1,
    10 and 50), [iterations] overrides each entry's scale default
    (shootout: {!micro_iterations}; stats: 50 quick, 200 full), and [seed]
    defaults to 7. *)
val context : ?ptes:int -> ?iterations:int -> ?seed:int64 -> quick:bool -> unit -> t

(** Measured iterations per microbenchmark cell at a scale: 60 quick,
    200 full. *)
val micro_iterations : quick:bool -> int

type entry = {
  name : string;
  group : string option;  (** ["figs5-8"] or ["ablation"] *)
  build : t -> Shard.plan * (unit -> Perf_row.row list);
      (** the plan, and its extra BENCH_PERF.json rows (read after
          execution; most entries have none) *)
}

(** Every entry, in plan order. [stats] follows [shootout] so at full
    scale it reads shootout's paper cell; [shootout-workloads] comes last
    so its paper-backend cells are read from fig10, fig11 and bigmachine. *)
val registry : entry list

(** Entry names, in registry order. *)
val names : string list

(** Group names: ["figs5-8"], ["ablation"], ["all"]. *)
val groups : string list

(** The entries an experiment name or group selects, in registry order;
    [None] for an unknown name. *)
val select : string -> entry list option

(** The [shootout] entry's builder with its typed rows (for the CLI). *)
val shootout : t -> Shard.plan * (unit -> Shootout.row list)

(** The [stats] entry's builder with its plan-order merged phase-latency
    registry (byte-identical at any [-j]). *)
val stats : t -> Shard.plan * (unit -> Metrics.t)

(** The [shootout-workloads] entry's builder with its typed report. *)
val shootout_workloads : t -> Shard.plan * (unit -> Shootout.wl_report)
