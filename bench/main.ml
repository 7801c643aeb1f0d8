(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§5, §7).

     dune exec bench/main.exe            -- everything
     dune exec bench/main.exe -- fig5    -- one experiment
     dune exec bench/main.exe -- quick   -- everything, reduced iterations
     dune exec bench/main.exe -- all -j 4 -- sim runs on 4 domains
     dune exec bench/main.exe -- perf    -- wall-clock harness (BENCH_PERF.json)

   Every experiment is an entry of the registry in
   lib/workloads/experiments.ml, the one place an experiment is defined:
   its name, its group (figs5-8, ablation) and its plan. This file parses
   arguments, runs the selected entries, and holds perf.
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
   runtime for a domain count; a negative count is a usage error.
   Expected scaling: the full bench is embarrassingly parallel past the
   plan phase, so wall-clock approaches (sum of cell costs) / N until the
   slowest fig10 cell dominates.
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
  (* Process-lifetime GC totals: quick_stat reports the whole program (every
     domain, live or joined) — the cross-domain aggregate perf mode reports. *)
  let gc = Gc.quick_stat () in
  let pg = pool_gc in
  Perf_row.(
    write "BENCH_PERF.json"
      ~mode:(if quick then "quick" else "full")
      (List.map experiment outcomes
      @ entry_rows ()
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
  let commands = Experiments.names @ Experiments.groups @ [ "perf" ] in
  Printf.eprintf "usage: main.exe [quick] [-v] [-j N] [%s]\n" (String.concat " | " commands);
  exit 2

let () =
  let quick = ref false in
  let verbose = ref false in
  let jobs = ref 1 in
  let set_jobs n =
    match int_of_string_opt n with
    | Some n when n >= 0 -> jobs := n
    | _ ->
        Printf.eprintf "-j needs a non-negative worker count, got %S\n" n;
        exit 2
  in
  let rec parse acc = function
    | [] -> List.rev acc
    | ("quick" | "--quick") :: rest ->
        quick := true;
        parse acc rest
    | ("-v" | "--verbose") :: rest ->
        verbose := true;
        parse acc rest
    | ("-j" | "--jobs") :: n :: rest ->
        set_jobs n;
        parse acc rest
    | [ ("-j" | "--jobs") ] ->
        Printf.eprintf "-j needs a worker count\n";
        exit 2
    | arg :: rest when String.length arg > 2 && String.equal (String.sub arg 0 2) "-j" ->
        set_jobs (String.sub arg 2 (String.length arg - 2));
        parse acc rest
    | arg :: rest -> parse (arg :: acc) rest
  in
  let cmds = parse [] (List.tl (Array.to_list Sys.argv)) in
  let quick = !quick and verbose = !verbose in
  let jobs = if !jobs = 0 then Domain_pool.default_jobs () else !jobs in
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
          | "perf" -> perf ~quick ~verbose ~jobs ctx
          | other ->
              Printf.eprintf "unknown experiment %S\n" other;
              usage ()))
    (match cmds with [] -> [ "all" ] | cmds -> cmds)
