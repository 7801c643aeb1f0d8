(* Tests for the experiment registry (lib/workloads/experiments.ml): every
   name and group selects plans, an experiment's output does not depend
   on whether it owns its cells (planned alone) or reads them from an
   earlier entry (planned inside `all`), the CLI and the bench print the
   same stats table, and per-experiment allocation counts do not depend on
   the worker count. *)

let check = Alcotest.check
let int_t = Alcotest.int

let plans ctx entries =
  List.map (fun e -> (e.Experiments.name, fst (e.Experiments.build ctx))) entries

let test_every_name_selects_a_plan () =
  check
    Alcotest.(list string)
    "groups" [ "figs5-8"; "ablation"; "all" ] Experiments.groups;
  List.iter
    (fun name ->
      match Experiments.select name with
      | None -> Alcotest.failf "%S selects nothing" name
      | Some entries ->
          check Alcotest.bool (name ^ " selects a non-empty plan list") true
            (List.length (plans (Experiments.context ~quick:true ()) entries) > 0))
    (Experiments.names @ Experiments.groups);
  List.iter
    (fun name ->
      check
        Alcotest.(option (list string))
        (name ^ " selects exactly itself")
        (Some [ name ])
        (Option.map (List.map (fun e -> e.Experiments.name)) (Experiments.select name)))
    Experiments.names;
  check int_t "figs5-8 is four figures" 4
    (List.length (Option.get (Experiments.select "figs5-8")));
  check int_t "ablation is A-E and paravirt" 6
    (List.length (Option.get (Experiments.select "ablation")));
  check int_t "all is the whole registry"
    (List.length Experiments.registry)
    (List.length (Option.get (Experiments.select "all")));
  check Alcotest.bool "unknown name selects nothing" true
    (Option.is_none (Experiments.select "ablation-Z"))

(* Execute the named plans (in registry order) and return [target]'s
   output. *)
let output_of planned ~names ~target =
  let outcomes, _gc =
    Shard.execute ~jobs:1
      (List.filter_map
         (fun (n, p) -> if List.mem n (target :: names) then Some p else None)
         planned)
  in
  (List.find (fun o -> String.equal o.Shard.out_name target) outcomes).Shard.output

(* [target] alone owns every cell it reads; inside `all` it reads at least
   one cell that [owners] own, and its output is byte-identical either
   way. Executing only [owners] and [target] from the `all` planning fails
   (a cell read before execution) if the registry moves those cells to
   another owner. *)
let check_owned_alone_read_in_all ~target ~owners () =
  let alone =
    plans (Experiments.context ~quick:true ()) (Option.get (Experiments.select target))
  in
  let alone_plan = List.assoc target alone in
  check int_t (target ^ " alone reuses nothing") 0 alone_plan.Shard.reused;
  let in_all = plans (Experiments.context ~quick:true ()) Experiments.registry in
  let all_plan = List.assoc target in_all in
  check Alcotest.bool (target ^ " in all reads cells it does not own") true
    (all_plan.Shard.reused > 0);
  check int_t
    (target ^ " owns in all only what it does not read")
    (List.length alone_plan.Shard.jobs)
    (List.length all_plan.Shard.jobs + all_plan.Shard.reused);
  check Alcotest.string
    (target ^ " output identical alone and inside all")
    (output_of alone ~names:[] ~target)
    (output_of in_all ~names:owners ~target)

(* The bench prints the stats entry's reduce; `tlbsim stats` renders the
   typed registry of the same builder. Same context, same bytes. *)
let test_stats_table_matches_cli () =
  let ctx () = Experiments.context ~iterations:20 ~quick:true () in
  let bench =
    output_of (plans (ctx ()) (Option.get (Experiments.select "stats"))) ~names:[]
      ~target:"stats"
  in
  let plan, metrics = Experiments.stats (ctx ()) in
  ignore (Shard.execute ~jobs:1 [ plan ] : Shard.outcome list * Domain_pool.gc_totals);
  check Alcotest.string "bench table = CLI table" bench
    (Format.asprintf "%a" Metrics.pp_table (metrics ()))

(* At full scale the stats sweep's cross-socket 10-PTE cell is shootout's
   paper cell (same config, seed 7, metered): planned after shootout it is
   read from the memo, not run twice. At quick scale the iteration counts
   differ (50 vs 60), so stats owns all nine cells. *)
let test_stats_reads_shootout_paper_cell () =
  let planned ~quick = plans (Experiments.context ~quick ()) Experiments.registry in
  let full = planned ~quick:false in
  let stats = List.assoc "stats" full in
  check int_t "full: one cell read from the memo" 1 stats.Shard.reused;
  check int_t "full: owns the other eight" 8 (List.length stats.Shard.jobs);
  (* Executing only shootout and stats fails if the shared cell has
     another owner. *)
  check Alcotest.bool "full: shootout owns the shared cell" true
    (String.length (output_of full ~names:[ "shootout" ] ~target:"stats") > 0);
  let quick = List.assoc "stats" (planned ~quick:true) in
  check int_t "quick: reuses nothing" 0 quick.Shard.reused;
  check int_t "quick: owns all nine" 9 (List.length quick.Shard.jobs)

(* Each experiment's minor words and direct major words (major minus
   promoted) are counted on the domain that ran its cells, so `quick all`
   reports the same figures at -j1 and -j2. Promoted words depend on how
   full the minor heap is and are skipped. *)
let test_gc_words_same_at_any_j () =
  let measures jobs =
    let planned = plans (Experiments.context ~quick:true ()) Experiments.registry in
    let outcomes, _gc = Shard.execute ~jobs (List.map snd planned) in
    List.map (fun o -> (o.Shard.out_name, o.Shard.out_measure)) outcomes
  in
  List.iter2
    (fun (name, m1) (_, m2) ->
      let direct m = m.Shard.major_words -. m.Shard.promoted_words in
      check (Alcotest.float 0.0) (name ^ " minor words") m1.Shard.minor_words
        m2.Shard.minor_words;
      check (Alcotest.float 0.0) (name ^ " direct major words") (direct m1) (direct m2))
    (measures 1) (measures 2)

let suite =
  [
    Alcotest.test_case "every name and group selects a plan" `Quick
      test_every_name_selects_a_plan;
    Alcotest.test_case "table3 owns alone, reads figs5-8 in all" `Quick
      (check_owned_alone_read_in_all ~target:"table3"
         ~owners:[ "fig5"; "fig6"; "fig7"; "fig8" ]);
    Alcotest.test_case "ablation-E owns alone, reads ablation-C in all" `Quick
      (check_owned_alone_read_in_all ~target:"ablation-E" ~owners:[ "ablation-C" ]);
    Alcotest.test_case "stats: bench table = CLI table" `Quick
      test_stats_table_matches_cli;
    Alcotest.test_case "stats reads shootout's paper cell at full scale" `Quick
      test_stats_reads_shootout_paper_cell;
    Alcotest.test_case "gc words per experiment: -j2 = -j1" `Slow
      test_gc_words_same_at_any_j;
  ]
