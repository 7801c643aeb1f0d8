(** The experiment registry: every table and figure of the paper's
    evaluation (§5, §7), the ablations and the cross-backend comparisons
    (DESIGN.md §13), in plan order. It is the one place an experiment is
    defined: the bench harness plans its entries by name or group, and
    [tlbsim shootout] plans the [shootout] and [shootout-workloads]
    entries' builders on a fresh context. *)

(** One invocation's context: the quick/full scale and one cell memo per
    workload type. Cells with identical (config, seed) run once per
    context, owned by the first entry that plans them. *)
type t

(** [context ~quick ()] is a fresh context. The [shootout_*] parameters
    shape the shootout microbenchmark cells (default: 10 PTEs, the
    scale's micro iteration count, seed 7). *)
val context :
  ?shootout_ptes:int ->
  ?shootout_iterations:int ->
  ?shootout_seed:int64 ->
  quick:bool ->
  unit ->
  t

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

(** Every entry, in plan order. [shootout-workloads] comes last so its
    paper-backend cells are read from fig10, fig11 and bigmachine. *)
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

(** The [shootout-workloads] entry's builder with its typed report. *)
val shootout_workloads : t -> Shard.plan * (unit -> Shootout.wl_report)
