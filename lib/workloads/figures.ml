(* Shard cells for every workload type, and the plans for the paper's
   two application figures.

   Each workload type has one memoized-cell constructor: it keys the cell
   by the workload's [config_key], extracts its engine ops, estimates its
   weight and runs it. Configs are built by the callers — opts copied per
   cell, the seed baked into the config — so every cell is a pure function
   of its own state and per-run RNG streams derive from the run's own
   seed, never from mutable state shared across cells.

   Weights are rough per-run engine-op estimates calibrated from
   BENCH_PERF.json; only their relative order matters (LPT scheduling). *)

(* ~90 ops per iteration at 1 PTE, ~390 at 10 (measured). *)
let micro_cell memo acc ~label (cfg : Microbench.config) =
  Shard.memo_cell acc memo ~key:(Microbench.config_key cfg) ~label
    ~ops:(fun r -> r.Microbench.engine_ops)
    ~weight:
      (float_of_int (cfg.Microbench.iterations * (60 + (35 * cfg.Microbench.pte_count))))
    (fun () -> Microbench.run cfg)

(* ~230 engine ops per thread·write (measured: 735k ops for the mean
   fig10 run at 288 writes across 11.2 threads). *)
let sysbench_cell memo acc ~label (cfg : Sysbench.config) =
  Shard.memo_cell acc memo ~key:(Sysbench.config_key cfg) ~label
    ~ops:(fun r -> r.Sysbench.engine_ops)
    ~weight:(float_of_int (cfg.Sysbench.threads * cfg.Sysbench.ops_per_thread * 230))
    (fun () -> Sysbench.run cfg)

(* ~370 ops per request at the sweep's midpoint, growing with cores. *)
let apache_cell memo acc ~label (cfg : Apache.config) =
  Shard.memo_cell acc memo ~key:(Apache.config_key cfg) ~label
    ~ops:(fun r -> r.Apache.engine_ops)
    ~weight:(float_of_int (cfg.Apache.requests * (250 + (15 * cfg.Apache.cores))))
    (fun () -> Apache.run cfg)

let cow_cell memo acc ~label (cfg : Cow_bench.config) =
  Shard.memo_cell acc memo ~key:(Cow_bench.config_key cfg) ~label
    ~ops:(fun r -> r.Cow_bench.engine_ops)
    ~weight:(float_of_int (cfg.Cow_bench.rounds * cfg.Cow_bench.pages_per_round * 12))
    (fun () -> Cow_bench.run cfg)

(* Same work at every size; the bigger machines only pay more setup, so
   weight on the op count with a mild size bump. *)
let bigmachine_cell memo acc ~label (cfg : Bigmachine.config) =
  let n_cpus =
    cfg.Bigmachine.sockets * cfg.Bigmachine.cores_per_socket * cfg.Bigmachine.smt
  in
  Shard.memo_cell acc memo ~key:(Bigmachine.config_key cfg) ~label
    ~ops:(fun r -> r.Bigmachine.engine_ops)
    ~weight:
      (float_of_int
         ((cfg.Bigmachine.tenants * cfg.Bigmachine.threads_per_tenant
          * cfg.Bigmachine.ops_per_thread * 40)
         + (n_cpus * 100)))
    (fun () -> Bigmachine.run cfg)

(* One column: a memoized cell per (point, seed), reduced per point to
   the seed-averaged throughput and the seed-summed shootdown count. *)
let column ~points ~seeds ~cell ~throughput ~shootdowns =
  let rows =
    List.map
      (fun n ->
        let getters = List.map (fun seed -> cell ~n ~seed) seeds in
        let nseeds = float_of_int (List.length getters) in
        fun () ->
          let tput =
            List.fold_left (fun acc g -> acc +. throughput (g ())) 0.0 getters /. nseeds
          in
          (n, tput, List.fold_left (fun acc g -> acc + shootdowns (g ())) 0 getters))
      points
  in
  fun () -> List.map (fun g -> g ()) rows

(* Figures 10 and 11 share one shape: per mode, a baseline column and one
   column per cumulative stack, printed as speedups over the baseline. *)
let speedup_plan ~name ~axis ~base_header ~base_fmt ~title column =
  let acc = Shard.acc () in
  let sides =
    List.map
      (fun safe ->
        let mode = if safe then "safe" else "unsafe" in
        let tag l = Printf.sprintf "%s %s %s" name mode l in
        let stacks = Opts.cumulative_workload ~safe in
        let base = column acc ~label:(tag "base") (Opts.baseline ~safe) in
        let columns =
          List.map (fun (label, opts) -> column acc ~label:(tag label) opts) stacks
        in
        (safe, List.map fst stacks, base, columns))
      [ true; false ]
  in
  let reduce () =
    List.iter
      (fun (safe, stack_labels, base, stacks) ->
        let stacks = List.map (fun col -> col ()) stacks in
        Report.table ~title:(title ~safe)
          ~header:(axis :: base_header :: stack_labels)
          (List.mapi
             (fun i (n, base, _) ->
               string_of_int n :: base_fmt base
               :: List.map
                    (fun col ->
                      let _, t, _ = List.nth col i in
                      Report.speedup (t /. base))
                    stacks)
             (base ())))
      sides
  in
  Shard.plan_of acc ~name reduce

(* ----- Figure 10: Sysbench ----- *)

type fig10_scale = {
  sys_threads : int list;
  sys_seeds : int64 list;  (** the paper averages several runs per point *)
  sys_ops_per_thread : int;
  sys_file_pages : int;
}

let fig10_scale ~quick =
  if quick then
    { sys_threads = [ 1; 4; 10; 16 ]; sys_seeds = [ 23L ]; sys_ops_per_thread = 120; sys_file_pages = 1024 }
  else
    {
      sys_threads = [ 1; 2; 3; 4; 6; 8; 10; 12; 16; 20; 24; 28 ];
      sys_seeds = [ 23L; 137L; 911L ];
      sys_ops_per_thread = 288;
      sys_file_pages = 4096;
    }

let fig10_config scale ~opts ~threads ~seed =
  {
    (Sysbench.default_config ~opts:(Opts.copy opts) ~threads) with
    Sysbench.ops_per_thread = scale.sys_ops_per_thread;
    file_pages = scale.sys_file_pages;
    seed;
  }

let fig10_column memo acc ~label ~opts scale =
  column ~points:scale.sys_threads ~seeds:scale.sys_seeds
    ~cell:(fun ~n ~seed ->
      sysbench_cell memo acc
        ~label:(Printf.sprintf "%s t=%d seed=%Ld" label n seed)
        (fig10_config scale ~opts ~threads:n ~seed))
    ~throughput:(fun r -> r.Sysbench.throughput)
    ~shootdowns:(fun r -> r.Sysbench.shootdowns)

let fig10_plan ~memo scale =
  speedup_plan ~name:"fig10" ~axis:"threads" ~base_header:"base ops/kcyc"
    ~base_fmt:(Printf.sprintf "%.3f")
    ~title:(fun ~safe ->
      Printf.sprintf
        "Figure 10 — Sysbench rnd-write + fdatasync speedup over baseline (%s mode; \
         paper: up to 1.22x, batching up to 1.18x, gains fade at high thread counts)"
        (if safe then "safe" else "unsafe"))
    (fun acc ~label opts -> fig10_column memo acc ~label ~opts scale)

(* ----- Figure 11: Apache ----- *)

type fig11_scale = {
  ap_cores : int list;
  ap_seeds : int64 list;
  ap_requests : int;
}

let fig11_scale ~quick =
  if quick then { ap_cores = [ 1; 4; 8; 11 ]; ap_seeds = [ 31L ]; ap_requests = 220 }
  else
    {
      ap_cores = [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10; 11 ];
      ap_seeds = [ 31L; 211L; 1013L ];
      ap_requests = 660;
    }

let fig11_column memo acc ~label ~opts scale =
  column ~points:scale.ap_cores ~seeds:scale.ap_seeds
    ~cell:(fun ~n ~seed ->
      let cfg = Apache.default_config ~opts:(Opts.copy opts) ~cores:n in
      apache_cell memo acc
        ~label:(Printf.sprintf "%s c=%d seed=%Ld" label n seed)
        { cfg with Apache.requests = scale.ap_requests; seed })
    ~throughput:(fun r -> r.Apache.throughput)
    ~shootdowns:(fun r -> r.Apache.shootdowns)

let fig11_plan ~memo scale =
  speedup_plan ~name:"fig11" ~axis:"cores" ~base_header:"base req/Mcyc"
    ~base_fmt:(Printf.sprintf "%.2f")
    ~title:(fun ~safe ->
      Printf.sprintf
        "Figure 11 — Apache mpm_event speedup over baseline (%s mode; paper: \
         concurrent up to 1.10x, in-context up to 1.05x)"
        (if safe then "safe" else "unsafe"))
    (fun acc ~label opts -> fig11_column memo acc ~label ~opts scale)
