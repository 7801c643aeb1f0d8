(** {!Shard} cells for every workload type, and the plans for the paper's
    two application figures (10 and 11).

    Each [*_cell memo acc ~label config] registers one memoized cell on
    the plan under construction [acc] and returns its getter. It owns the
    workload's [config_key], its engine-op extractor, its LPT weight and
    its [run]: the first requester of a (config, seed) owns the job, later
    ones only read it. Callers build the configs; every cell copies its
    opts and bakes its seed into the config, so per-run RNG streams derive
    from the run's own seed and never from mutable state shared across
    cells. *)

val micro_cell :
  Microbench.result Shard.memo ->
  Shard.acc ->
  label:string ->
  Microbench.config ->
  unit ->
  Microbench.result

val sysbench_cell :
  Sysbench.result Shard.memo ->
  Shard.acc ->
  label:string ->
  Sysbench.config ->
  unit ->
  Sysbench.result

val apache_cell :
  Apache.result Shard.memo ->
  Shard.acc ->
  label:string ->
  Apache.config ->
  unit ->
  Apache.result

val cow_cell :
  Cow_bench.result Shard.memo ->
  Shard.acc ->
  label:string ->
  Cow_bench.config ->
  unit ->
  Cow_bench.result

val bigmachine_cell :
  Bigmachine.result Shard.memo ->
  Shard.acc ->
  label:string ->
  Bigmachine.config ->
  unit ->
  Bigmachine.result

type fig10_scale = {
  sys_threads : int list;
  sys_seeds : int64 list;  (** the paper averages several runs per point *)
  sys_ops_per_thread : int;
  sys_file_pages : int;
}

(** The bench harness's full/quick parameters. *)
val fig10_scale : quick:bool -> fig10_scale

(** A sysbench config at the scale's ops and file size (opts copied). *)
val fig10_config :
  fig10_scale -> opts:Opts.t -> threads:int -> seed:int64 -> Sysbench.config

(** One fig10 column under [opts]: a memoized cell per (thread count,
    seed), labelled [label t=N seed=S]; the getter yields, in thread
    order, [(threads, seed-averaged ops/kcyc, seed-summed shootdowns)].
    {!fig10_plan} builds its baseline and stack columns with it, and so
    does the cross-backend workload comparison (DESIGN.md §13): the paper
    backend's opts ([Opts.all ~safe:true]) are value-identical to the
    final "+batching" stack, so planned after {!fig10_plan} on the same
    memo its cells are all reused. *)
val fig10_column :
  Sysbench.result Shard.memo ->
  Shard.acc ->
  label:string ->
  opts:Opts.t ->
  fig10_scale ->
  unit ->
  (int * float * int) list

(** Figure 10 as a plan: 2 modes × threads × (baseline + stacks) × seeds
    sim-run cells (memoized through [memo], so ablation rows at the same
    scale reuse them), reduced to the two published speedup tables. *)
val fig10_plan : memo:Sysbench.result Shard.memo -> fig10_scale -> Shard.plan

type fig11_scale = { ap_cores : int list; ap_seeds : int64 list; ap_requests : int }

val fig11_scale : quick:bool -> fig11_scale

(** Same as {!fig10_column} for fig11: [(cores, seed-averaged req/Mcyc,
    seed-summed shootdowns)], labelled [label c=N seed=S]. *)
val fig11_column :
  Apache.result Shard.memo ->
  Shard.acc ->
  label:string ->
  opts:Opts.t ->
  fig11_scale ->
  unit ->
  (int * float * int) list

val fig11_plan : memo:Apache.result Shard.memo -> fig11_scale -> Shard.plan
