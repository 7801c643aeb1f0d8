(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§5, §7).

     dune exec bench/main.exe            -- everything
     dune exec bench/main.exe -- fig5    -- one experiment
     dune exec bench/main.exe -- quick   -- everything, reduced iterations
     dune exec bench/main.exe -- all -j 4 -- sim runs on 4 domains
     dune exec bench/main.exe -- perf    -- wall-clock harness (BENCH_PERF.json)
     dune exec bench/main.exe -- bechamel -- harness self-measurement

   Every experiment is an entry of the registry in
   lib/workloads/experiments.ml, the one place an experiment is defined:
   its name, its group (figs5-8, ablation) and its plan. This file parses
   arguments, runs the selected entries, and holds perf and bechamel.
   Simulated cycle counts are printed; EXPERIMENTS.md compares them to the
   paper's numbers.

   `-j N` semantics (sub-experiment sharding): every multi-run experiment
   is flattened at plan time into self-contained (config, seed) sim-run
   cells — fig10 alone is 2 modes x 12 thread counts x 6 configs x 3
   seeds = 432 cells in a full run — and ALL selected experiments' cells
   execute on one shared N-domain pool in longest-task-first order. Each
   cell's result lands in its own slot; tables are reduced from the slots
   in experiment order, so stdout is byte-identical for every `-j` by
   construction and the wall-clock bound is the slowest single cell, not
   the slowest experiment. `-j 1` spawns no domains. `-j 0` asks the
   runtime for a domain count. Expected scaling: the full bench is
   embarrassingly parallel past the plan phase, so wall-clock approaches
   (sum of cell costs) / N until the slowest fig10 cell dominates.
   Per-experiment elapsed-time lines go to stderr (per-cell lines with
   -v) so stdout stays comparable across runs and `-j` levels. One
   registry context (its cell memos) spans the whole invocation, so a
   cell shared by two named experiments runs once.

   `perf` respects `-j` too: engine ops are per-engine counters carried in
   each cell's result and summed at reduce time, so attribution is exact
   under any schedule; per-experiment wall_s sums the experiment's own
   cell walls (CPU-seconds when parallel), and own_runs/reused count the
   cells it ran and the cells it read from an earlier experiment.
   Experiments that drive no engine (table2, table4, paravirt) or own no
   cells in this invocation (table3 reusing the figures' matrices) report
   engine_ops null — an explicit n/a, never a misleading 0. Each entry's
   extra BENCH_PERF.json rows (lib/perf_row/perf_row.ml) come from the
   registry, read from the same cell getters as its reduce. *)

(* ----- Bechamel: wall-clock self-measurement of the harness ----- *)

let bechamel ~quick =
  let open Bechamel in
  let micro_test =
    Test.make ~name:"figs5-8:microbench-cell"
      (Staged.stage (fun () ->
           let cfg =
             Microbench.default_config
               ~opts:(Opts.all_general ~safe:true)
               ~placement:Microbench.Cross_socket ~pte_count:10
           in
           ignore
             (Microbench.run
                {
                  cfg with
                  Microbench.iterations = Experiments.micro_iterations ~quick;
                  warmup = 20;
                })))
  in
  let cow_test =
    Test.make ~name:"fig9:cow-bench"
      (Staged.stage (fun () ->
           let cfg = Cow_bench.default_config ~opts:(Opts.all ~safe:true) in
           ignore (Cow_bench.run { cfg with Cow_bench.rounds = 2; pages_per_round = 16 })))
  in
  let sysbench_test =
    Test.make ~name:"fig10:sysbench-point"
      (Staged.stage (fun () ->
           let cfg = Sysbench.default_config ~opts:(Opts.all ~safe:true) ~threads:4 in
           ignore
             (Sysbench.run { cfg with Sysbench.ops_per_thread = 40; file_pages = 128 })))
  in
  let apache_test =
    Test.make ~name:"fig11:apache-point"
      (Staged.stage (fun () ->
           let cfg = Apache.default_config ~opts:(Opts.all ~safe:true) ~cores:4 in
           ignore (Apache.run { cfg with Apache.requests = 60 })))
  in
  let fracture_test =
    Test.make ~name:"table4:fracture-row"
      (Staged.stage (fun () ->
           ignore
             (Fracture.run_shape
                { Fracture.working_set_pages = 256; rounds = 10; tlb_capacity = 1536 }
                (List.hd Fracture.table4_rows))))
  in
  let test =
    Test.make_grouped ~name:"shootdown-repro"
      [ micro_test; cow_test; sysbench_test; apache_test; fracture_test ]
  in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:50 ~quota:(Time.second 1.0) () in
  let raw = Benchmark.all cfg instances test in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  print_endline "\n== Bechamel: harness wall-clock (ns per run) ==";
  Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.iter (fun (name, ols) ->
         match Analyze.OLS.estimates ols with
         | Some [ est ] -> Printf.printf "  %-32s %12.0f ns/run\n" name est
         | Some _ | None -> Printf.printf "  %-32s (no estimate)\n" name)

(* ----- driver: registry entries, sharded over the domain pool ----- *)

(* Plan the entries (sequential: the context's cell memos assign shared
   cells to their first requester), execute all cells on one shared pool,
   reduce in order. *)
let execute ~verbose ~jobs ctx entries =
  let built = List.map (fun e -> e.Experiments.build ctx) entries in
  let outcomes, gc = Shard.execute ~progress:verbose ~jobs (List.map fst built) in
  (outcomes, gc, fun () -> List.concat_map (fun (_, rows) -> rows ()) built)

let run_entries ~verbose ~jobs ctx entries =
  let outcomes, _gc, _rows = execute ~verbose ~jobs ctx entries in
  List.iter
    (fun o ->
      let m = o.Shard.out_measure in
      Printf.eprintf "[bench] %-12s %7.2fs cpu  %4d run(s)  slowest %5.2fs\n%!"
        o.Shard.out_name m.Shard.wall_s m.Shard.runs m.Shard.max_wall_s;
      print_string o.Shard.output)
    outcomes

(* ----- perf: wall-clock harness, BENCH_PERF.json ----- *)

(* Per-phase shootdown latency percentiles from a small metered Observe
   sweep, run after the (unmetered) experiments so their timing rows are
   untouched. *)
let phases_rows ~quick ~jobs =
  let metrics = Observe.collect ~iterations:(if quick then 50 else 200) ~jobs () in
  List.filter_map
    (fun s ->
      let st = Metrics.stats s in
      if Stats.count st = 0 then None
      else
        let labels =
          Metrics.series_labels s
          |> List.map (fun (k, v) -> Printf.sprintf "%s=%s" k v)
          |> String.concat ","
        in
        let key =
          if String.equal labels "" then Metrics.series_name s
          else Printf.sprintf "%s{%s}" (Metrics.series_name s) labels
        in
        let pct p = Option.value (Stats.percentile_opt st p) ~default:0.0 in
        Some
          Perf_row.(
            row "phases" key
              [ int "count" (Stats.count st); float "p50" (pct 50.0); float "p99" (pct 99.0) ]))
    (Metrics.all metrics)

let perf ~quick ~verbose ~jobs ctx =
  let t0 = Unix.gettimeofday () in
  let outcomes, pool_gc, entry_rows = execute ~verbose ~jobs ctx Experiments.registry in
  let elapsed = Unix.gettimeofday () -. t0 in
  let rate ops wall = if wall > 0.0 then Some (float_of_int ops /. wall) else None in
  List.iter
    (fun o ->
      let m = o.Shard.out_measure in
      let ops_s, rate_s =
        match m.Shard.engine_ops with
        | None -> ("n/a", "n/a")
        | Some ops ->
            ( Report.count ops,
              Report.cycles (float_of_int ops /. Float.max 1e-9 m.Shard.wall_s) )
      in
      Printf.printf "  %-12s %7.2fs  %11s engine-ops  %8s ops/s  %4d run(s)%s\n%!"
        o.Shard.out_name m.Shard.wall_s ops_s rate_s m.Shard.runs
        (if o.Shard.out_reused > 0 then Printf.sprintf "  [%d reused]" o.Shard.out_reused
         else ""))
    outcomes;
  let experiment o =
    let m = o.Shard.out_measure in
    let ops = m.Shard.engine_ops in
    (* Allocation per engine op is deterministic (unlike wall-clock), so
       the gate compares it across machines without normalization. *)
    let per_op n = if n > 0 then Some (m.Shard.minor_words /. float_of_int n) else None in
    Perf_row.(
      row "experiments" o.Shard.out_name
        [
          float "wall_s" m.Shard.wall_s;
          float "max_run_wall_s" m.Shard.max_wall_s;
          int "own_runs" m.Shard.runs;
          int "reused" o.Shard.out_reused;
          ("engine_ops", Option.map float_of_int ops);
          ("engine_ops_per_s", Option.bind ops (fun n -> rate n m.Shard.wall_s));
          float "minor_words" m.Shard.minor_words;
          float "major_words" m.Shard.major_words;
          float "promoted_words" m.Shard.promoted_words;
          ("minor_words_per_engine_op", Option.bind ops per_op);
        ])
  in
  let total_wall =
    List.fold_left (fun acc o -> acc +. o.Shard.out_measure.Shard.wall_s) 0.0 outcomes
  in
  let total_ops =
    List.fold_left
      (fun acc o -> acc + Option.value o.Shard.out_measure.Shard.engine_ops ~default:0)
      0 outcomes
  in
  (* Process-lifetime GC totals: after the pool's domains are joined their
     counters have folded into this domain's, so a plain quick_stat here
     sums every domain — the cross-domain aggregate perf mode reports. *)
  let gc = Gc.quick_stat () in
  let phases = phases_rows ~quick ~jobs in
  let pg = pool_gc in
  Perf_row.(
    write "BENCH_PERF.json"
      ~mode:(if quick then "quick" else "full")
      (List.map experiment outcomes
      @ phases @ entry_rows ()
      @ [
          row "total" "run"
            [
              int "jobs" jobs;
              float "wall_s" total_wall;
              float "elapsed_s" elapsed;
              int "engine_ops" total_ops;
              ("engine_ops_per_s", rate total_ops total_wall);
            ];
          row "gc" "pool"
            [
              float "minor_words" pg.Domain_pool.pool_minor_words;
              float "major_words" pg.Domain_pool.pool_major_words;
              float "promoted_words" pg.Domain_pool.pool_promoted_words;
              int "minor_collections" pg.Domain_pool.pool_minor_collections;
              int "major_collections" pg.Domain_pool.pool_major_collections;
            ];
          row "gc" "process"
            [
              int "minor_collections" gc.Gc.minor_collections;
              int "major_collections" gc.Gc.major_collections;
              int "heap_words" gc.Gc.heap_words;
              float "minor_words" gc.Gc.minor_words;
              float "major_words" gc.Gc.major_words;
            ];
        ]));
  Printf.printf "total %.2fs cpu (%.2fs elapsed at -j %d) over %d experiments; wrote \
                 BENCH_PERF.json\n"
    total_wall elapsed jobs (List.length outcomes)

let usage () =
  let commands = Experiments.names @ Experiments.groups @ [ "perf"; "bechamel" ] in
  Printf.eprintf "usage: main.exe [quick] [-v] [-j N] [%s]\n" (String.concat " | " commands);
  exit 2

let () =
  let quick = ref false in
  let verbose = ref false in
  let jobs = ref 1 in
  let rec parse acc = function
    | [] -> List.rev acc
    | ("quick" | "--quick") :: rest ->
        quick := true;
        parse acc rest
    | ("-v" | "--verbose") :: rest ->
        verbose := true;
        parse acc rest
    | ("-j" | "--jobs") :: n :: rest when Option.is_some (int_of_string_opt n) ->
        jobs := int_of_string n;
        parse acc rest
    | [ ("-j" | "--jobs") ] ->
        Printf.eprintf "-j needs a worker count\n";
        exit 2
    | arg :: rest
      when String.length arg > 2
           && String.equal (String.sub arg 0 2) "-j"
           && Option.is_some (int_of_string_opt (String.sub arg 2 (String.length arg - 2)))
      ->
        jobs := int_of_string (String.sub arg 2 (String.length arg - 2));
        parse acc rest
    | arg :: rest -> parse (arg :: acc) rest
  in
  let cmds = parse [] (List.tl (Array.to_list Sys.argv)) in
  let quick = !quick and verbose = !verbose in
  let jobs = if !jobs <= 0 then Domain_pool.default_jobs () else !jobs in
  (* The main domain gets the same allocation-storm GC relief as the pool's
     workers; tuning affects wall-clock only, never simulated results. *)
  Domain_pool.tune_current_domain ();
  let ctx = Experiments.context ~quick () in
  List.iter
    (fun cmd ->
      match Experiments.select cmd with
      | Some entries -> run_entries ~verbose ~jobs ctx entries
      | None -> (
          match cmd with
          | "bechamel" -> bechamel ~quick
          | "perf" -> perf ~quick ~verbose ~jobs ctx
          | other ->
              Printf.eprintf "unknown experiment %S\n" other;
              usage ()))
    (match cmds with [] -> [ "all" ] | cmds -> cmds)
