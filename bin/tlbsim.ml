(* tlbsim: command-line front end for the shootdown simulator.

     tlbsim micro --placement cross-socket --ptes 10 --safe ...
     tlbsim sysbench --threads 8 --opts all
     tlbsim apache --cores 6 --opts concurrent,early-ack
     tlbsim cow --opts all
     tlbsim fracture
     tlbsim trace --ptes 4          (print a protocol timeline)
     tlbsim analyze --inject-bug    (happens-before race analysis)
     tlbsim analyze --explore       (systematic interleaving exploration)
*)

open Cmdliner

(* --- shared options --- *)

let safe_t =
  let doc = "Mitigation mode: true = PTI + mitigations (Linux default)." in
  Arg.(value & opt bool true & info [ "safe" ] ~doc)

(* The four general techniques of §3 come first: analyze --explore sweeps
   exactly those. *)
let opt_names =
  [
    ("concurrent", fun o v -> o.Opts.concurrent_flush <- v);
    ("early-ack", fun o v -> o.Opts.early_ack <- v);
    ("cacheline", fun o v -> o.Opts.cacheline_consolidation <- v);
    ("in-context", fun o v -> o.Opts.in_context_flush <- v);
    ("cow", fun o v -> o.Opts.cow_avoid_flush <- v);
    ("batching", fun o v -> o.Opts.userspace_batching <- v);
  ]

(* --opts names that choose the protocol instead of enabling a flag; at
   most one may appear. *)
let protocol_presets =
  [ ("unsafe-lazy", Opts.with_protocol Opts.Unsafe_lazy); ("freebsd", Opts.freebsd) ]

let opts_t =
  let doc =
    "Optimizations to enable: comma-separated subset of concurrent, early-ack, \
     cacheline, in-context, cow, batching, plus at most one protocol, unsafe-lazy or \
     freebsd; or 'all', 'general', 'none'."
  in
  let fail what names = Error (`Msg (what ^ ": " ^ String.concat ", " names)) in
  let parse = function
    | "none" -> Ok `None
    | "all" -> Ok `All
    | "general" -> Ok `General
    | s -> (
        let names = String.split_on_char ',' s in
        let known n = List.mem_assoc n opt_names || List.mem_assoc n protocol_presets in
        match
          ( List.filter (fun n -> not (known n)) names,
            List.filter (fun n -> List.mem_assoc n protocol_presets) names )
        with
        | _ :: _ as unknown, _ -> fail "unknown optimization(s)" unknown
        | [], (_ :: _ :: _ as protocols) -> fail "at most one protocol may be named" protocols
        | [], _ -> Ok (`List names))
  in
  let print fmt v =
    Format.pp_print_string fmt
      (match v with
      | `None -> "none"
      | `All -> "all"
      | `General -> "general"
      | `List names -> String.concat "," names)
  in
  Arg.(
    value
    & opt (conv (parse, print)) `None
    & info [ "opts" ] ~doc)

let seed_t =
  let doc = "Deterministic RNG seed." in
  Arg.(value & opt int 42 & info [ "seed" ] ~doc)

(* A negative count is a usage error (exit 124), never a silent clamp. *)
let jobs_t =
  let doc =
    "Worker domains (0 = ask the runtime). Output is byte-identical at any value."
  in
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 0 -> Ok n
    | Some _ -> Error (`Msg "must be non-negative (0 asks the runtime)")
    | None -> Error (`Msg (Printf.sprintf "invalid value %S, expected an integer" s))
  in
  let resolve = function 0 -> Domain_pool.default_jobs () | n -> n in
  Term.(
    const resolve
    $ Arg.(value & opt (conv (parse, Format.pp_print_int)) 1 & info [ "j"; "jobs" ] ~doc))

(* Plan one registry entry's builder, execute it on [jobs] domains and
   return its typed result; the bench table its reduce prints is captured
   by [Shard.execute] and dropped. *)
let run_entry ~jobs (plan, get) =
  ignore (Shard.execute ~jobs [ plan ] : Shard.outcome list * Domain_pool.gc_totals);
  get ()

let make_opts ~safe spec =
  match spec with
  | `None -> Opts.baseline ~safe
  | `All -> Opts.all ~safe
  | `General -> Opts.all_general ~safe
  | `List names ->
      let o =
        match List.find_map (fun n -> List.assoc_opt n protocol_presets) names with
        | Some preset -> preset ~safe
        | None -> Opts.baseline ~safe
      in
      List.iter (fun n -> Option.iter (fun set -> set o true) (List.assoc_opt n opt_names)) names;
      o

(* --- micro --- *)

let placement_t =
  let doc = "Responder placement: same-core, same-socket or cross-socket." in
  let alist =
    [
      ("same-core", Microbench.Same_core);
      ("same-socket", Microbench.Same_socket);
      ("cross-socket", Microbench.Cross_socket);
    ]
  in
  Arg.(value & opt (enum alist) Microbench.Cross_socket & info [ "placement" ] ~doc)

let ptes_t =
  let doc = "PTEs flushed per madvise." in
  Arg.(value & opt int 10 & info [ "ptes" ] ~doc)

let iters_t =
  let doc = "Measured iterations." in
  Arg.(value & opt int 200 & info [ "iterations" ] ~doc)

let micro_cmd =
  let run safe spec placement ptes iterations seed =
    let opts = make_opts ~safe spec in
    let cfg = Microbench.default_config ~opts ~placement ~pte_count:ptes in
    let cfg = { cfg with Microbench.iterations; seed = Int64.of_int seed } in
    let r = Microbench.run cfg in
    Printf.printf "config: %s, %d PTE(s), %s\n"
      (Microbench.placement_label placement)
      ptes
      (Format.asprintf "%a" Opts.pp opts);
    Printf.printf "initiator: %.0f +- %.0f cycles per madvise\n" r.Microbench.initiator_mean
      r.Microbench.initiator_sd;
    Printf.printf "responder: %.0f cycles interruption per shootdown (%d shootdowns)\n"
      r.Microbench.responder_mean r.Microbench.shootdowns
  in
  Cmd.v
    (Cmd.info "micro" ~doc:"The paper's §5.1 madvise microbenchmark (Figures 5-8).")
    Term.(const run $ safe_t $ opts_t $ placement_t $ ptes_t $ iters_t $ seed_t)

(* --- sysbench --- *)

let sysbench_cmd =
  let threads_t =
    Arg.(value & opt int 8 & info [ "threads" ] ~doc:"Worker threads (1-28, one NUMA node).")
  in
  let ops_t = Arg.(value & opt int 240 & info [ "ops" ] ~doc:"Writes per thread.") in
  let run safe spec threads ops seed =
    let opts = make_opts ~safe spec in
    let cfg = Sysbench.default_config ~opts ~threads in
    let cfg = { cfg with Sysbench.ops_per_thread = ops; seed = Int64.of_int seed } in
    let r = Sysbench.run cfg in
    Printf.printf "%d threads, %s\n" threads (Format.asprintf "%a" Opts.pp opts);
    Printf.printf
      "ops=%d cycles=%d throughput=%.3f ops/kcyc shootdowns=%d full-fallbacks=%d \
       batched=%d\n"
      r.Sysbench.ops r.Sysbench.cycles r.Sysbench.throughput r.Sysbench.shootdowns
      r.Sysbench.full_flush_fallbacks r.Sysbench.batched_deferrals
  in
  Cmd.v
    (Cmd.info "sysbench" ~doc:"Random writes + fdatasync on a mapped file (Figure 10).")
    Term.(const run $ safe_t $ opts_t $ threads_t $ ops_t $ seed_t)

(* --- apache --- *)

let apache_cmd =
  let cores_t = Arg.(value & opt int 8 & info [ "cores" ] ~doc:"Worker cores (1-11).") in
  let requests_t = Arg.(value & opt int 660 & info [ "requests" ] ~doc:"Total requests.") in
  let run safe spec cores requests seed =
    let opts = make_opts ~safe spec in
    let cfg = Apache.default_config ~opts ~cores in
    let cfg = { cfg with Apache.requests; seed = Int64.of_int seed } in
    let r = Apache.run cfg in
    Printf.printf "%d cores, %s\n" cores (Format.asprintf "%a" Opts.pp opts);
    Printf.printf "requests=%d cycles=%d throughput=%.2f req/Mcyc shootdowns=%d\n"
      r.Apache.requests_done r.Apache.cycles r.Apache.throughput r.Apache.shootdowns
  in
  Cmd.v
    (Cmd.info "apache" ~doc:"mpm_event-style request serving (Figure 11).")
    Term.(const run $ safe_t $ opts_t $ cores_t $ requests_t $ seed_t)

(* --- cow --- *)

let cow_cmd =
  let run safe spec seed =
    let opts = make_opts ~safe spec in
    let cfg = Cow_bench.default_config ~opts in
    let cfg = { cfg with Cow_bench.seed = Int64.of_int seed } in
    let r = Cow_bench.run cfg in
    Printf.printf "%s\n" (Format.asprintf "%a" Opts.pp opts);
    Printf.printf "CoW write: %.0f +- %.0f cycles (%d breaks, %d flushes avoided)\n"
      r.Cow_bench.write_mean r.Cow_bench.write_sd r.Cow_bench.cow_breaks
      r.Cow_bench.flushes_avoided
  in
  Cmd.v
    (Cmd.info "cow" ~doc:"Copy-on-write fault latency (Figure 9).")
    Term.(const run $ safe_t $ opts_t $ seed_t)

(* --- fracture --- *)

let fracture_cmd =
  let ws_t =
    Arg.(value & opt int 1024 & info [ "working-set" ] ~doc:"Working set in 4KiB pages.")
  in
  let rounds_t = Arg.(value & opt int 100 & info [ "rounds" ] ~doc:"Touch+flush rounds.") in
  let run working_set_pages rounds =
    let cfg = { Fracture.working_set_pages; rounds; tlb_capacity = 1536 } in
    List.iter
      (fun (r : Fracture.result) ->
        Printf.printf "%-24s full=%-10s selective=%-10s promoted=%s\n"
          r.Fracture.shape.Fracture.label
          (Report.count r.Fracture.full_misses)
          (Report.count r.Fracture.selective_misses)
          (Report.count r.Fracture.fracture_promotions))
      (Fracture.run_all cfg)
  in
  Cmd.v
    (Cmd.info "fracture" ~doc:"Page-fracturing dTLB miss counts (Table 4).")
    Term.(const run $ ws_t $ rounds_t)

(* --- trace --- *)

let trace_cmd =
  let run safe spec ptes =
    let opts = make_opts ~safe spec in
    let m = Machine.create ~opts ~seed:1L () in
    Trace.enable m.Machine.trace;
    let mm = Machine.new_mm m in
    let stop = ref false in
    Kernel.spawn_user m ~cpu:14 ~mm ~name:"responder" (fun () ->
        let cpu = Machine.cpu m 14 in
        while not !stop do
          Cpu.compute cpu ~quantum:100 100
        done);
    Kernel.spawn_user m ~cpu:0 ~mm ~name:"initiator" (fun () ->
        Machine.delay m 2_000;
        let addr = Syscall.mmap m ~cpu:0 ~pages:ptes () in
        Access.touch_range m ~cpu:0 ~addr ~pages:ptes ~write:true;
        Trace.clear m.Machine.trace;
        let t0 = Machine.now m in
        Syscall.madvise_dontneed m ~cpu:0 ~addr ~pages:ptes;
        Printf.printf "madvise took %d cycles\n" (Machine.now m - t0);
        Machine.delay m 10_000;
        stop := true);
    Kernel.run m;
    Format.printf "%a@?" Trace.pp m.Machine.trace
  in
  Cmd.v
    (Cmd.info "trace" ~doc:"Print the timeline of one shootdown.")
    Term.(const run $ safe_t $ opts_t $ ptes_t)

(* --- analyze --- *)

let analyze_cmd =
  let inject_bug_t =
    let doc =
      "Inject the protocol bug (drop deferred user-PCID flushes) and let the \
       happens-before analysis catch it."
    in
    Arg.(value & flag & info [ "inject-bug" ] ~doc)
  in
  let explore_t =
    let doc =
      "Instead of one run, systematically explore interleavings of a 2-CPU shootdown \
       under every combination of the paper's general optimizations."
    in
    Arg.(value & flag & info [ "explore" ] ~doc)
  in
  let rounds_t =
    Arg.(value & opt int 40 & info [ "rounds" ] ~doc:"madvise rounds in the traced scenario.")
  in
  let general_flags = List.filteri (fun i _ -> i < 4) opt_names in
  let protocol_t =
    let doc =
      "Backend whose quiescence/invariants the $(b,--explore) sweep validates: \
       paper, oracle, sync-broadcast, queue-spin, freebsd, or 'all' to sweep every \
       backend. Defaults to the protocol $(b,--opts) names, else paper; naming a \
       different one in both is an error."
    in
    let alist =
      (("all", `All) :: List.map (fun p -> (Opts.protocol_label p, `One p)) Opts.all_protocols)
      @ [ ("sync", `One Opts.Sync_broadcast); ("queue", `One Opts.Queue_spin) ]
    in
    Arg.(value & opt (some (enum alist)) None & info [ "protocol" ] ~doc)
  in
  let run safe spec inject_bug explore protocol_sel rounds seed jobs =
    let opts = make_opts ~safe spec in
    let opts =
      match spec with `None when not explore -> Opts.all_general ~safe | _ -> opts
    in
    if inject_bug then opts.Opts.bug_skip_deferred_flush <- true;
    let protocols =
      match protocol_sel with
      | None -> [ opts.Opts.protocol ]
      | Some sel ->
          let ps = match sel with `One p -> [ p ] | `All -> Opts.all_protocols in
          if opts.Opts.protocol <> Opts.Paper && ps <> [ opts.Opts.protocol ] then begin
            Printf.eprintf "tlbsim: --protocol disagrees with --opts %s\n"
              (Opts.protocol_label opts.Opts.protocol);
            exit Cmd.Exit.cli_error
          end;
          ps
    in
    if explore then begin
      (* Sweep every subset of the four general optimizations — per
         selected protocol backend — on the exhaustively-explorable 2-CPU
         scenario; each (backend, subset)'s exploration is one pool task,
         reported in (backend, mask) order whatever the schedule. *)
      let nflags = List.length general_flags in
      let combos =
        List.concat_map
          (fun p ->
            List.init (1 lsl nflags) (fun mask ->
                let o = Opts.copy opts in
                o.Opts.protocol <- p;
                List.iteri
                  (fun i (_, set) -> set o (mask land (1 lsl i) <> 0))
                  general_flags;
                let flags =
                  if mask = 0 then "baseline"
                  else
                    String.concat ","
                      (List.filteri
                         (fun i _ -> mask land (1 lsl i) <> 0)
                         (List.map fst general_flags))
                in
                let label =
                  match protocols with
                  | [ Opts.Paper ] -> flags
                  | _ -> Printf.sprintf "%s %s" (Opts.protocol_label p) flags
                in
                (label, o)))
          protocols
      in
      let results =
        Explorer.explore_set ~jobs
          (List.map
             (fun (_, o) () -> Scenarios.shootdown_2cpu ~opts:o ~seed:(Int64.of_int seed) ())
             combos)
      in
      let worst = ref 0 in
      List.iter2
        (fun (label, _) r ->
          Format.printf "[%-42s] %a" label Explorer.pp_result r;
          worst := Stdlib.max !worst (List.length r.Explorer.failures))
        combos results;
      if !worst > 0 then exit 1
    end
    else begin
      let m = Scenarios.early_ack_demo ~opts ~rounds ~seed:(Int64.of_int seed) () in
      Trace.enable m.Machine.trace;
      Kernel.run m;
      let report = Hb.analyze_trace m.Machine.trace in
      Format.printf "scenario: cross-socket reader vs %d madvise rounds, %a@."
        rounds Opts.pp opts;
      Hb.pp_report Format.std_formatter report;
      if report.Hb.genuine > 0 then exit 1
    end
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Happens-before race analysis of a shootdown trace; with $(b,--explore), \
          systematic interleaving exploration.")
    Term.(
      const run $ safe_t $ opts_t $ inject_bug_t $ explore_t $ protocol_t $ rounds_t
      $ seed_t $ jobs_t)

(* --- fuzz --- *)

let fuzz_cmd =
  let count_t =
    Arg.(value & opt int 500 & info [ "count" ] ~doc:"Seeded programs to run.")
  in
  let seed_base_t =
    Arg.(value & opt int 0 & info [ "seed-base" ] ~doc:"First seed of the range.")
  in
  let seed_one_t =
    let doc = "Run exactly this seed (use with $(b,--replay) to reproduce a failure)." in
    Arg.(value & opt (some int) None & info [ "seed" ] ~doc)
  in
  let replay_t =
    let doc = "Replay mode: print the seed's program and every per-op observation." in
    Arg.(value & flag & info [ "replay" ] ~doc)
  in
  let inject_bug_t =
    let doc =
      "Inject the drop-deferred-flush protocol bug into the optimized run; the fuzzer \
       must catch it and shrink to a minimal counterexample."
    in
    Arg.(value & flag & info [ "inject-bug" ] ~doc)
  in
  let max_ops_t =
    Arg.(value & opt int 32 & info [ "max-ops" ] ~doc:"Upper bound on random ops per program.")
  in
  let no_shrink_t =
    Arg.(value & flag & info [ "no-shrink" ] ~doc:"Report failures without ddmin shrinking.")
  in
  let run count seed_base seed_one replay inject_bug max_ops no_shrink jobs =
    let shrink = not no_shrink in
    match seed_one with
    | Some seed ->
        let program = Fuzz.gen_program ~max_ops ~inject_bug seed in
        Format.printf "%a@." Fuzz.pp_program program;
        if replay then begin
          List.iteri (fun i op -> Format.printf "  op %2d: %a@." i Fuzz.pp_op op) program.Fuzz.p_ops;
          let r = Fuzz.execute ~opts:(Fuzz.program_opts program) program in
          Array.iteri (fun i o -> Format.printf "  obs %2d: %s@." i o) r.Fuzz.xr_obs
        end;
        (match Fuzz.check_seed ~max_ops ~inject_bug ~shrink seed with
        | None ->
            print_endline "seed passed: optimized run matches the oracle";
            exit 0
        | Some f ->
            Format.printf "%a@." Fuzz.pp_failure f;
            exit 1)
    | None ->
        let report =
          Fuzz.run_seeds ~seed_base ~count ~jobs ~max_ops ~inject_bug ~shrink ()
        in
        List.iter (fun f -> Format.printf "%a@." Fuzz.pp_failure f) report.Fuzz.failures;
        Printf.printf "fuzz: %d/%d seeds diverged (seeds %d..%d)\n"
          (List.length report.Fuzz.failures) report.Fuzz.tested seed_base
          (seed_base + count - 1);
        if not (List.is_empty report.Fuzz.failures) then exit 1
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differential fuzzing: run random kernel-op programs under the optimized \
          protocol and under a conservative synchronous-broadcast oracle, diff every \
          observable, and ddmin-shrink any divergence.")
    Term.(
      const run $ count_t $ seed_base_t $ seed_one_t $ replay_t $ inject_bug_t $ max_ops_t
      $ no_shrink_t $ jobs_t)

(* --- shootout --- *)

let shootout_cmd =
  let format_t =
    let doc = "Output format: table or json." in
    let alist = [ ("table", Shootout.Table); ("json", Shootout.Json) ] in
    Arg.(value & opt (enum alist) Shootout.Table & info [ "format" ] ~doc)
  in
  let workloads_t =
    let doc =
      "Compare the backends on the paper's workload evaluation instead of the \
       microbenchmark: fig10 sysbench, fig11 apache and the bigmachine-56 \
       multi-tenant churn, at quick scale (DESIGN.md §13)."
    in
    Arg.(value & flag & info [ "workloads" ] ~doc)
  in
  let run format ptes iterations seed jobs workloads =
    print_string
      (if workloads then
         Shootout.render_workloads format
           (run_entry ~jobs
              (Experiments.shootout_workloads (Experiments.context ~quick:true ())))
       else
         Shootout.render format
           (run_entry ~jobs
              (Experiments.shootout
                 (Experiments.context ~ptes ~iterations ~seed:(Int64.of_int seed)
                    ~quick:false ()))))
  in
  Cmd.v
    (Cmd.info "shootout"
       ~doc:
         "Protocol-backend comparison: run the metered madvise microbenchmark once \
          per backend (paper all/baseline, oracle, sync-broadcast, queue-spin) and \
          print one row each — initiator/responder latency, phase-latency p50s, and \
          cacheline traffic. With $(b,--workloads), race the backends on the \
          fig10/fig11/bigmachine workload family instead.")
    Term.(const run $ format_t $ ptes_t $ iters_t $ seed_t $ jobs_t $ workloads_t)

(* --- stats --- *)

let stats_cmd =
  let format_t =
    let doc = "Output format: table, json, or prom (Prometheus text exposition)." in
    let alist = [ ("table", `Table); ("json", `Json); ("prom", `Prom) ] in
    Arg.(value & opt (enum alist) `Table & info [ "format" ] ~doc)
  in
  let run format iterations seed jobs =
    let metrics =
      run_entry ~jobs
        (Experiments.stats
           (Experiments.context ~iterations ~seed:(Int64.of_int seed) ~quick:false ()))
    in
    print_string
      (match format with
      | `Table -> Format.asprintf "%a" Metrics.pp_table metrics
      | `Json -> Metrics.to_json metrics
      | `Prom -> Metrics.to_prometheus metrics)
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Per-shootdown phase-latency breakdown (prep / IPI delivery / flush \
          execution / ack wait / cacheline transfers) by topology distance and \
          flush kind, from a metered microbenchmark sweep.")
    Term.(const run $ format_t $ iters_t $ seed_t $ jobs_t)

let () =
  let info =
    Cmd.info "tlbsim" ~version:"1.0.0"
      ~doc:
        "Simulator reproducing 'Don't shoot down TLB shootdowns!' (EuroSys 2020): \
         the Linux TLB shootdown protocol and the paper's six optimizations on a \
         simulated multicore x86 machine."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            micro_cmd;
            sysbench_cmd;
            apache_cmd;
            cow_cmd;
            fracture_cmd;
            trace_cmd;
            analyze_cmd;
            fuzz_cmd;
            shootout_cmd;
            stats_cmd;
          ]))
