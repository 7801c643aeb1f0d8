(* The experiment registry: every table and figure of the paper's
   evaluation (§5, §7) plus our ablations, cross-backend comparisons and
   the per-shootdown phase breakdown, in the one order the bench harness
   plans them.

   An entry maps a context to a Shard plan and a thunk of its
   BENCH_PERF.json rows, read from the same cell getters as its reduce.
   The context holds the quick/full scale and one cell memo per workload
   type, keyed on the workload's [config_key]: any two cells with
   identical (config, seed) run once, owned by the FIRST requesting entry
   in plan order. Figures 5-8 and table 3 consume the same four micro
   matrices; ablation A's baseline is fig6's cross-socket baseline cell,
   ablation B's x1 rows are matrix cells, and ablations C and E run
   sysbench at fig10's scale so their overlapping points are fig10 cells.
   Planning is sequential, so ownership is deterministic; reduced output
   is a pure function of cell slots either way. *)

type t = {
  quick : bool;
  ptes : int; (* shootout flush size *)
  iterations : int option; (* [None]: each metered entry's scale default *)
  seed : int64; (* metered entries' seed *)
  micro : Microbench.result Shard.memo;
  sysbench : Sysbench.result Shard.memo;
  apache : Apache.result Shard.memo;
  cow : Cow_bench.result Shard.memo;
  bigmachine : Bigmachine.result Shard.memo;
}

let micro_iterations ~quick = if quick then 60 else 200
let micro_warmup = 20

let context ?(ptes = 10) ?iterations ?(seed = 7L) ~quick () =
  {
    quick;
    ptes;
    iterations;
    seed;
    micro = Shard.create_memo ();
    sysbench = Shard.create_memo ();
    apache = Shard.create_memo ();
    cow = Shard.create_memo ();
    bigmachine = Shard.create_memo ();
  }

let mode safe = if safe then "safe" else "unsafe"

let micro_config ctx ~opts ~placement ~pte_count =
  {
    (Microbench.default_config ~opts ~placement ~pte_count) with
    Microbench.iterations = micro_iterations ~quick:ctx.quick;
    warmup = micro_warmup;
  }

(* The canonical quick shaping, shared by the bigmachine column and the
   workload comparison so the 56-CPU paper cell is one memo entry. *)
let bigmachine_config ctx ~opts ~n_cpus =
  let cfg = Bigmachine.default_config ~opts ~n_cpus in
  if ctx.quick then Bigmachine.quick_shape cfg else cfg

(* ----- Figures 5-8 / Table 3: the madvise microbenchmark matrices ----- *)

(* All cumulative stacks for all placements at one (safe, pte_count); the
   getter rebuilds the (placement, (label, result) list) list shape the
   table printers eat. *)
let micro_matrix ctx acc ~safe ~pte_count =
  let rows =
    List.map
      (fun placement ->
        ( placement,
          List.map
            (fun (label, opts) ->
              let cfg = micro_config ctx ~opts:(Opts.copy opts) ~placement ~pte_count in
              ( label,
                Figures.micro_cell ctx.micro acc cfg
                  ~label:
                    (Printf.sprintf "micro %s %dpte %s %s" (mode safe) pte_count
                       (Microbench.placement_label placement)
                       label) ))
            (Opts.cumulative_general ~safe) ))
      Microbench.all_placements
  in
  fun () ->
    List.map (fun (p, cells) -> (p, List.map (fun (l, g) -> (l, g ())) cells)) rows

let print_micro_figure ~fig ~safe ~pte_count matrix =
  let stacks = List.map fst (List.assoc Microbench.Same_core matrix) in
  let header = "placement" :: stacks in
  let side name pick =
    let rows =
      List.map
        (fun (placement, cells) ->
          Microbench.placement_label placement
          :: List.map (fun (_, r) -> Report.cycles (pick r)) cells)
        matrix
    in
    Report.table
      ~title:
        (Printf.sprintf "Figure %d%s (%s mode, %d PTE%s) — %s cycles" fig
           (match name with "initiator" -> "a" | _ -> "b")
           (mode safe) pte_count
           (if pte_count = 1 then "" else "s")
           name)
      ~header rows
  in
  side "initiator" (fun r -> r.Microbench.initiator_mean);
  side "responder" (fun r -> r.Microbench.responder_mean);
  (* The paper's bar-figure rendition for the farthest placement. *)
  Report.bars
    ~title:(Printf.sprintf "Figure %da, cross-socket initiator cycles (bars)" fig)
    (List.map
       (fun (label, r) -> (label, r.Microbench.initiator_mean))
       (List.assoc Microbench.Cross_socket matrix))

let micro_figure ~fig ~safe ~pte_count ctx =
  let acc = Shard.acc () in
  let get = micro_matrix ctx acc ~safe ~pte_count in
  Shard.plan_of acc ~name:(Printf.sprintf "fig%d" fig) (fun () ->
      print_micro_figure ~fig ~safe ~pte_count (get ()))

(* ----- Table 3: latency reduction cross-socket, all four techniques ----- *)

let table3 ctx =
  let acc = Shard.acc () in
  let matrices =
    List.map
      (fun ((safe, pte_count) as key) -> (key, micro_matrix ctx acc ~safe ~pte_count))
      [ (true, 1); (true, 10); (false, 1); (false, 10) ]
  in
  let reduce () =
    let cell ~safe ~pte_count =
      let matrix = List.assoc (safe, pte_count) matrices () in
      let cells = List.assoc Microbench.Cross_socket matrix in
      let first = snd (List.hd cells) in
      let last = snd (List.nth cells (List.length cells - 1)) in
      let pct baseline v =
        if Float.equal baseline 0.0 then 0.0 else (baseline -. v) /. baseline *. 100.0
      in
      ( pct first.Microbench.initiator_mean last.Microbench.initiator_mean,
        pct first.Microbench.responder_mean last.Microbench.responder_mean )
    in
    let fmt (i, r) = Printf.sprintf "%.0f%% / %.0f%%" i r in
    let row label pte_count =
      [ label; fmt (cell ~safe:true ~pte_count); fmt (cell ~safe:false ~pte_count) ]
    in
    Report.table
      ~title:
        "Table 3 — [initiator / responder] latency reduction, cross-socket, all \
         techniques of §3 (paper: safe 39%/13% & 58%/22%; unsafe 39%/18% & 54%/14%)"
      ~header:[ ""; "Safe Mode"; "Unsafe Mode" ]
      [ row "1 PTE" 1; row "10 PTEs" 10 ]
  in
  Shard.plan_of acc ~name:"table3" reduce

(* ----- Figure 9: CoW fault latency ----- *)

let fig9 ctx =
  let acc = Shard.acc () in
  let cell ~safe ~label opts =
    let cfg = Cow_bench.default_config ~opts in
    let cfg =
      if ctx.quick then { cfg with Cow_bench.rounds = 4; pages_per_round = 32 } else cfg
    in
    let get =
      Figures.cow_cell ctx.cow acc cfg
        ~label:(Printf.sprintf "fig9 %s %s" (mode safe) label)
    in
    fun () ->
      let r = get () in
      [
        mode safe;
        label;
        Report.cycles r.Cow_bench.write_mean;
        Printf.sprintf "%.0f" r.Cow_bench.write_sd;
      ]
  in
  let rows =
    List.concat_map
      (fun safe ->
        let baseline = cell ~safe ~label:"baseline" (Opts.baseline ~safe) in
        let all = cell ~safe ~label:"all (SS3)" (Opts.all_general ~safe) in
        let cow_opts = Opts.all_general ~safe in
        cow_opts.Opts.cow_avoid_flush <- true;
        let cow = cell ~safe ~label:"all + CoW" cow_opts in
        [ baseline; all; cow ])
      [ true; false ]
  in
  Shard.plan_of acc ~name:"fig9" (fun () ->
      Report.table
        ~title:
          "Figure 9 — CoW write latency, cycles (paper: CoW avoidance saves ~130 \
           cycles, 3-5%)"
        ~header:[ "mode"; "config"; "cycles"; "sd" ]
        (List.map (fun g -> g ()) rows))

(* ----- Table 2: lines of code ----- *)

let table2 _ctx =
  (* Our implementation sizes, measured from the sources when run from the
     repository root; the paper's patch sizes alongside. No simulation, so
     the perf row carries engine_ops null. *)
  let wc path =
    if Sys.file_exists path then begin
      let ic = open_in path in
      let n = ref 0 in
      (try
         while true do
           ignore (input_line ic);
           incr n
         done
       with End_of_file -> ());
      close_in ic;
      Some !n
    end
    else None
  in
  let ours paths =
    match List.filter_map wc paths with
    | [] -> "n/a (run from repo root)"
    | counts -> string_of_int (List.fold_left ( + ) 0 counts)
  in
  let rows_spec =
    [
      ("Concurrent flushes", "103", [ "lib/core/shootdown.ml" ]);
      ("Early ack + cacheline consolidation", "73", [ "lib/core/smp.ml" ]);
      ("In-context page flushing", "353", [ "lib/core/percpu.ml" ]);
      ("CoW", "35", [ "lib/core/fault.ml" ]);
      ("Userspace-safe batching", "221", [ "lib/core/syscall.ml" ]);
    ]
  in
  let acc = Shard.acc () in
  let get =
    Shard.own acc
      (Shard.cell ~label:"table2 wc" ~weight:1000.0 (fun () ->
           List.map (fun (name, paper, paths) -> [ name; paper; ours paths ]) rows_spec))
  in
  Shard.plan_of acc ~name:"table2" (fun () ->
      Report.table
        ~title:"Table 2 — lines of code per optimization (paper patch vs this repo)"
        ~header:[ "Optimization"; "paper LoC"; "this repo (module LoC)" ]
        (get ()))

(* ----- Table 4: page fracturing ----- *)

let table4 ctx =
  let cfg =
    if ctx.quick then
      { Fracture.working_set_pages = 512; rounds = 40; tlb_capacity = 1536 }
    else { Fracture.working_set_pages = 1024; rounds = 100; tlb_capacity = 1536 }
  in
  (* One cell per VM shape; no engine is driven (pure TLB modelling). *)
  let acc = Shard.acc () in
  let cells =
    List.map
      (fun shape ->
        Shard.own acc
          (Shard.cell
             ~label:(Printf.sprintf "table4 %s" shape.Fracture.label)
             ~weight:
               (float_of_int (cfg.Fracture.working_set_pages * cfg.Fracture.rounds / 2))
             (fun () -> Fracture.run_shape cfg shape)))
      Fracture.table4_rows
  in
  Shard.plan_of acc ~name:"table4" (fun () ->
      Report.table
        ~title:
          "Table 4 — dTLB misses after full vs selective flush (paper's anomaly: \
           guest-2M-on-host-4K makes selective ~= full)"
        ~header:[ "configuration"; "full flush"; "selective flush"; "promoted-to-full" ]
        (List.map
           (fun get ->
             let r = get () in
             [
               r.Fracture.shape.Fracture.label;
               Report.count r.Fracture.full_misses;
               Report.count r.Fracture.selective_misses;
               Report.count r.Fracture.fracture_promotions;
             ])
           cells))

(* ----- Ablations: design choices DESIGN.md calls out ----- *)

let ablation_single_opt ctx =
  (* Each optimization alone (non-cumulative), cross-socket, safe, 10 PTEs:
     isolates each technique's contribution without stacking. The baseline
     coincides with fig6's cross-socket baseline cell, so in an `all` run
     it is read from the memo rather than recomputed. *)
  let acc = Shard.acc () in
  let cell ~label opts =
    Figures.micro_cell ctx.micro acc ~label:("ablation-A " ^ label)
      (micro_config ctx ~opts ~placement:Microbench.Cross_socket ~pte_count:10)
  in
  let base = cell ~label:"baseline" (Opts.baseline ~safe:true) in
  let techniques =
    List.map
      (fun (label, set) ->
        let opts = Opts.baseline ~safe:true in
        set opts;
        (label, cell ~label opts))
      [
        ("concurrent alone", fun o -> o.Opts.concurrent_flush <- true);
        ("early-ack alone", fun o -> o.Opts.early_ack <- true);
        ("cacheline alone", fun o -> o.Opts.cacheline_consolidation <- true);
        ("in-context alone", fun o -> o.Opts.in_context_flush <- true);
      ]
  in
  let reduce () =
    let base = base () in
    let rows =
      List.map
        (fun (label, get) ->
          let r = get () in
          [
            label;
            Report.cycles r.Microbench.initiator_mean;
            Report.reduction ~baseline:base.Microbench.initiator_mean
              r.Microbench.initiator_mean;
            Report.cycles r.Microbench.responder_mean;
            Report.reduction ~baseline:base.Microbench.responder_mean
              r.Microbench.responder_mean;
          ])
        techniques
    in
    Report.table
      ~title:
        (Printf.sprintf
           "Ablation A — each §3 technique alone (cross-socket, safe, 10 PTEs; \
            baseline init=%s resp=%s)"
           (Report.cycles base.Microbench.initiator_mean)
           (Report.cycles base.Microbench.responder_mean))
      ~header:[ "technique"; "initiator"; "init cut"; "responder"; "resp cut" ]
      rows
  in
  Shard.plan_of acc ~name:"ablation-A" reduce

let ablation_ipi_latency ctx =
  (* §2.3.2: works evaluated without multicast IPIs saw ~500k-cycle
     shootdowns; scaling IPI latency shows how the case for *avoiding*
     shootdowns (rather than speeding them up) depends on slow IPIs. *)
  let scaled k =
    {
      Costs.default with
      Costs.ipi_fixed = Costs.default.Costs.ipi_fixed * k;
      ipi_smt = Costs.default.Costs.ipi_smt * k;
      ipi_same_socket = Costs.default.Costs.ipi_same_socket * k;
      ipi_cross_socket = Costs.default.Costs.ipi_cross_socket * k;
    }
  in
  let acc = Shard.acc () in
  (* The x1 rows are value-identical to fig6's cross-socket baseline and
     +in-context matrix cells (scaling by 1 is the default cost model), so
     the memo reuses them in an `all` run. *)
  let cell ~k ~label opts =
    let cfg =
      Microbench.default_config ~opts ~placement:Microbench.Cross_socket ~pte_count:10
    in
    let get =
      Figures.micro_cell ctx.micro acc
        ~label:(Printf.sprintf "ablation-B x%d %s" k label)
        {
          cfg with
          Microbench.costs = scaled k;
          iterations = micro_iterations ~quick:ctx.quick;
        }
    in
    fun () -> (get ()).Microbench.initiator_mean
  in
  let rows =
    List.map
      (fun k ->
        let base = cell ~k ~label:"baseline" (Opts.baseline ~safe:true) in
        let all = cell ~k ~label:"all" (Opts.all_general ~safe:true) in
        fun () ->
          let base = base () and all = all () in
          [
            Printf.sprintf "x%d" k;
            Report.cycles base;
            Report.cycles all;
            Report.reduction ~baseline:base all;
          ])
      [ 1; 4; 16; 64 ]
  in
  Shard.plan_of acc ~name:"ablation-B" (fun () ->
      Report.table
        ~title:
          "Ablation B — IPI-latency sensitivity (initiator, cross-socket, safe, 10 \
           PTEs): with slow pre-x2APIC IPIs the protocol work the paper optimizes \
           is noise, which is §2.3.2's point about older evaluations"
        ~header:[ "IPI scale"; "baseline"; "all §3"; "reduction" ]
        (List.map (fun g -> g ()) rows))

(* A sysbench cell at fig10's scale and first seed, so an ablation point
   that coincides with a fig10 point is the same memo entry. *)
let fig10_point ctx acc ~label ~opts ~threads =
  let scale = Figures.fig10_scale ~quick:ctx.quick in
  Figures.sysbench_cell ctx.sysbench acc ~label
    (Figures.fig10_config scale ~opts ~threads ~seed:(List.hd scale.Figures.sys_seeds))

let ablation_batch_slots ctx =
  (* The slots=4 row — the paper's allocation, fig10's +batching config —
     is the same cell as fig10's 8-thread point and comes from the memo in
     a full `all` run instead of being recomputed. *)
  let acc = Shard.acc () in
  let cells =
    List.map
      (fun slots ->
        let opts = Opts.all ~safe:true in
        opts.Opts.batch_slots <- slots;
        ( slots,
          fig10_point ctx acc ~opts ~threads:8
            ~label:(Printf.sprintf "ablation-C slots=%d" slots) ))
      [ 1; 2; 4; 8; 16 ]
  in
  Shard.plan_of acc ~name:"ablation-C" (fun () ->
      Report.table
        ~title:
          "Ablation C — §4.2 batch slots (sysbench, 8 threads, safe, fig10 scale; \
           the paper allocates 4)"
        ~header:[ "slots"; "ops/kcyc"; "shootdowns"; "deferrals" ]
        (List.map
           (fun (slots, get) ->
             let r = get () in
             [
               string_of_int slots;
               Printf.sprintf "%.3f" r.Sysbench.throughput;
               string_of_int r.Sysbench.shootdowns;
               string_of_int r.Sysbench.batched_deferrals;
             ])
           cells))

let ablation_full_flush_threshold ctx =
  (* madvise of 24 pages: below the threshold the kernel INVLPGs 24 entries
     per CPU; above it one cheap CR3 reload flushes everything — faster for
     the flusher, but every other cached translation is collateral (§2.1:
     Linux picks 33, FreeBSD 4096). *)
  let acc = Shard.acc () in
  let cell ~threshold ~safe =
    let opts = Opts.all_general ~safe in
    opts.Opts.full_flush_threshold <- threshold;
    let get =
      Figures.micro_cell ctx.micro acc
        ~label:(Printf.sprintf "ablation-D t=%d %s" threshold (mode safe))
        (micro_config ctx ~opts ~placement:Microbench.Cross_socket ~pte_count:24)
    in
    fun () ->
      let r = get () in
      [
        Report.cycles r.Microbench.initiator_mean;
        Report.cycles r.Microbench.responder_mean;
      ]
  in
  let rows =
    List.map
      (fun threshold ->
        let s = cell ~threshold ~safe:true in
        let u = cell ~threshold ~safe:false in
        fun () ->
          string_of_int threshold
          :: (if threshold < 24 then "full" else "ranged")
          :: (s () @ u ()))
      [ 8; 16; 33; 64 ]
  in
  Shard.plan_of acc ~name:"ablation-D" (fun () ->
      Report.table
        ~title:
          "Ablation D — full-flush threshold on a 24-page madvise (cross-socket): a \
           full flush is cheaper for the flusher but drops every cached translation"
        ~header:
          [ "threshold"; "mode"; "safe init"; "safe resp"; "unsafe init"; "unsafe resp" ]
        (List.map (fun g -> g ()) rows))

let ablation_freebsd ctx =
  (* §3.3 dismisses FreeBSD's scheme because smp_ipi_mtx admits one
     shootdown machine-wide; under concurrent mutators the serialization
     shows up directly. Runs at fig10's scale so the Linux rows (baseline
     and all-six) coincide with fig10's 2- and 8-thread points and, in a
     full `all` run, come from the memo; only the FreeBSD rows are new
     simulation work. *)
  let acc = Shard.acc () in
  let cells =
    List.concat_map
      (fun threads ->
        List.map
          (fun (label, opts) ->
            let get =
              fig10_point ctx acc ~opts ~threads
                ~label:(Printf.sprintf "ablation-E %s t=%d" label threads)
            in
            fun () ->
              [
                label;
                string_of_int threads;
                Printf.sprintf "%.3f" (get ()).Sysbench.throughput;
              ])
          [
            ("Linux baseline", Opts.baseline ~safe:true);
            ("FreeBSD (smp_ipi_mtx)", Opts.freebsd ~safe:true);
            ("Linux + all six", Opts.all ~safe:true);
          ])
      [ 2; 8 ]
  in
  Shard.plan_of acc ~name:"ablation-E" (fun () ->
      Report.table
        ~title:
          "Ablation E — protocol comparison on sysbench (safe mode, fig10 scale): \
           FreeBSD's global shootdown mutex vs Linux's concurrent protocol vs the \
           paper's optimizations"
        ~header:[ "protocol"; "threads"; "ops/kcyc" ]
        (List.map (fun g -> g ()) cells))

let paravirt _ctx =
  (* §7's proposed mitigation: a host-provided fracturing hint makes the
     guest use one full flush instead of n selective flushes that would be
     promoted to full anyway. Pure TLB modelling: no engine ops. *)
  let cfg = { Fracture.working_set_pages = 512; rounds = 1; tlb_capacity = 1536 } in
  let shape = List.nth Fracture.table4_rows 1 (* host=4K guest=2M *) in
  let flush_count = 16 in
  let run ~hint () =
    let mmu = Fracture.build_mmu_for_tests cfg shape in
    Nested_mmu.set_paravirt_fracture_hint mmu hint;
    ignore
      (Nested_mmu.touch_range mmu ~start_vpn:Fracture.base_vpn
         ~pages:cfg.Fracture.working_set_pages);
    let instructions =
      Nested_mmu.flush_pages mmu
        ~vpns:(List.init flush_count (fun i -> Fracture.base_vpn + (i * 3)))
    in
    let _, misses =
      Nested_mmu.touch_range mmu ~start_vpn:Fracture.base_vpn
        ~pages:cfg.Fracture.working_set_pages
    in
    (instructions, misses)
  in
  let acc = Shard.acc () in
  let get_no =
    Shard.own acc (Shard.cell ~label:"paravirt unhinted" ~weight:1000.0 (run ~hint:false))
  in
  let get_yes =
    Shard.own acc (Shard.cell ~label:"paravirt hinted" ~weight:1000.0 (run ~hint:true))
  in
  Shard.plan_of acc ~name:"paravirt" (fun () ->
      let i_no, m_no = get_no () in
      let i_yes, m_yes = get_yes () in
      Report.table
        ~title:
          "Extension (§7) — paravirtual fracturing hint: flushing 16 pages of a \
           fractured guest working set"
        ~header:[ "guest behaviour"; "flush instructions"; "misses on re-touch" ]
        [
          [ "16 selective flushes (unhinted)"; string_of_int i_no; Report.count m_no ];
          [ "1 full flush (hinted)"; string_of_int i_yes; Report.count m_yes ];
        ])

(* ----- Big-machine scaling (DESIGN.md §12) ----- *)

let bigmachine ctx =
  let acc = Shard.acc () in
  let cells =
    List.map
      (fun n_cpus ->
        ( n_cpus,
          Figures.bigmachine_cell ctx.bigmachine acc
            ~label:(Printf.sprintf "bigmachine %d" n_cpus)
            (bigmachine_config ctx ~opts:(Opts.all ~safe:true) ~n_cpus) ))
      Bigmachine.sizes
  in
  let results () = List.map (fun (n, get) -> (n, get ())) cells in
  let reduce () =
    Report.table
      ~title:
        "Big-machine scaling — identical multi-tenant churn, growing machine (flat \
         cycles/shootdown = O(active CPUs) hot paths)"
      ~header:
        [ "cpus"; "threads"; "shootdowns"; "IPIs"; "ICR writes"; "cycles/shootdown" ]
      (List.map
         (fun (n, r) ->
           [
             string_of_int n;
             string_of_int r.Bigmachine.threads;
             string_of_int r.Bigmachine.shootdowns;
             string_of_int r.Bigmachine.ipis;
             string_of_int r.Bigmachine.icr_writes;
             Printf.sprintf "%.0f" r.Bigmachine.cycles_per_shootdown;
           ])
         (results ()))
  in
  let rows () =
    List.map
      (fun (n, r) ->
        Perf_row.(
          row "bigmachine" (Printf.sprintf "bigmachine-%d" n)
            [
              int "n_cpus" n;
              int "threads" r.Bigmachine.threads;
              int "ops" r.Bigmachine.ops;
              int "shootdowns" r.Bigmachine.shootdowns;
              int "ipis" r.Bigmachine.ipis;
              int "icr_writes" r.Bigmachine.icr_writes;
              int "churns" r.Bigmachine.churns;
              float "cycles_per_shootdown" r.Bigmachine.cycles_per_shootdown;
              int "engine_ops" r.Bigmachine.engine_ops;
            ]))
      (results ())
  in
  (Shard.plan_of acc ~name:"bigmachine" reduce, rows)

(* ----- Shootout: protocol-backend comparison (DESIGN.md §13) ----- *)

let shootout ctx =
  let acc = Shard.acc () in
  let cells =
    List.map
      (fun (label, opts) ->
        let cfg =
          Microbench.default_config ~opts ~placement:Microbench.Cross_socket
            ~pte_count:ctx.ptes
        in
        let get =
          Figures.micro_cell ctx.micro acc
            ~label:(Printf.sprintf "shootout/%s" label)
            {
              cfg with
              Microbench.iterations =
                Option.value ctx.iterations ~default:(micro_iterations ~quick:ctx.quick);
              seed = ctx.seed;
              metering = true;
            }
        in
        (label, opts.Opts.protocol, get))
      (Shootout.backends ())
  in
  let rows () =
    List.map
      (fun (label, protocol, get) -> Shootout.row_of_result label protocol (get ()))
      cells
  in
  let reduce () =
    let cell = function None -> "-" | Some v -> Printf.sprintf "%.0f" v in
    Report.table
      ~title:
        "Shootout — protocol backends on the cross-socket madvise microbenchmark (10 \
         PTEs, safe mode; phase p50s in cycles)"
      ~header:
        [
          "backend"; "initiator"; "responder"; "prep"; "ipi"; "flush"; "ack"; "line xfers";
        ]
      (List.map
         (fun r ->
           [
             r.Shootout.sh_label;
             Report.cycles r.Shootout.sh_initiator_mean;
             Report.cycles r.Shootout.sh_responder_mean;
             cell r.Shootout.sh_prep_p50;
             cell r.Shootout.sh_ipi_p50;
             cell r.Shootout.sh_flush_p50;
             cell r.Shootout.sh_ack_p50;
             string_of_int r.Shootout.sh_line_transfers;
           ])
         (rows ()))
  in
  (Shard.plan_of acc ~name:"shootout" reduce, rows)

let shootout_perf_rows rows () =
  List.map
    (fun r ->
      Perf_row.(
        row "shootout" r.Shootout.sh_label
          [
            float "initiator_mean" r.Shootout.sh_initiator_mean;
            float "initiator_sd" r.Shootout.sh_initiator_sd;
            float "responder_mean" r.Shootout.sh_responder_mean;
            int "shootdowns" r.Shootout.sh_shootdowns;
            ("prep_p50", r.Shootout.sh_prep_p50);
            ("ipi_p50", r.Shootout.sh_ipi_p50);
            ("flush_p50", r.Shootout.sh_flush_p50);
            ("ack_p50", r.Shootout.sh_ack_p50);
            int "line_transfers" r.Shootout.sh_line_transfers;
            float "line_cycles" r.Shootout.sh_line_cycles;
          ]))
    (rows ())

(* ----- Stats: per-shootdown phase breakdown (tlbsim stats) ----- *)

(* A metered sweep over every placement (self/SMT flush-exec rows come from
   the same-core placement, cross-socket rows from the cross-socket one)
   and three flush sizes: 1 and 10 PTEs (the paper's ranged flushes) plus
   50, which exceeds Linux's 33-entry full-flush ceiling and exercises the
   CR3 path. Every cell pre-registers the same series in the same order
   (Machine.create), so the plan-order merge — registration order and each
   accumulator's sample order — is a pure function of the plan, whatever
   the worker count. At full scale the cross-socket 10-PTE cell is
   shootout's paper cell, read from the memo. *)
let stats ctx =
  let acc = Shard.acc () in
  let iterations = Option.value ctx.iterations ~default:(if ctx.quick then 50 else 200) in
  let cells =
    List.concat_map
      (fun placement ->
        List.map
          (fun pte_count ->
            let cfg =
              Microbench.default_config ~opts:(Opts.all ~safe:true) ~placement ~pte_count
            in
            Figures.micro_cell ctx.micro acc
              ~label:
                (Printf.sprintf "stats/%s/%d" (Microbench.placement_label placement)
                   pte_count)
              { cfg with Microbench.iterations; seed = ctx.seed; metering = true })
          [ 1; 10; 50 ])
      Microbench.all_placements
  in
  let merged =
    lazy
      (let m = Metrics.create ~enabled:false () in
       List.iter (fun get -> Metrics.merge_into m (get ()).Microbench.metrics) cells;
       m)
  in
  let metrics () = Lazy.force merged in
  ( Shard.plan_of acc ~name:"stats" (fun () ->
        Report.out_string (Format.asprintf "%a" Metrics.pp_table (metrics ()))),
    metrics )

(* Per-phase latency percentiles, one row per non-empty series. *)
let phases_perf_rows metrics () =
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
              [
                int "count" (Stats.count st);
                float "p50" (pct 50.0);
                float "p99" (pct 99.0);
              ]))
    (Metrics.all (metrics ()))

(* ----- Shootout workloads: fig10/fig11/bigmachine-56 per backend ----- *)

(* Planned LAST (see [registry]): the paper backend's cells are
   value-identical to fig10/fig11's "+batching" stack and the bigmachine
   56-CPU config, so in an `all` run they are owned by those earlier
   entries and every paper row reads from the memo. *)
let shootout_workloads ctx =
  let acc = Shard.acc () in
  let per_backend cell =
    List.map
      (fun (label, opts) -> (opts.Opts.protocol, cell ~label opts))
      (Shootout.workload_backends ())
  in
  let fig10 =
    per_backend (fun ~label opts ->
        Figures.fig10_column ctx.sysbench acc ~label:("wl-fig10 " ^ label) ~opts
          (Figures.fig10_scale ~quick:ctx.quick))
  in
  let fig11 =
    per_backend (fun ~label opts ->
        Figures.fig11_column ctx.apache acc ~label:("wl-fig11 " ^ label) ~opts
          (Figures.fig11_scale ~quick:ctx.quick))
  in
  let big =
    per_backend (fun ~label opts ->
        Figures.bigmachine_cell ctx.bigmachine acc ~label:("wl-bigmachine-56 " ^ label)
          (bigmachine_config ctx ~opts ~n_cpus:56))
  in
  let report () =
    let read columns = List.map (fun (p, get) -> (p, get ())) columns in
    Shootout.workload_report ~fig10:(read fig10) ~fig11:(read fig11) ~big:(read big)
  in
  let reduce () =
    let report = report () in
    let backend_cols = List.map fst (Shootout.workload_backends ()) in
    let tput_table ~title ~axis ~fmt rows =
      match rows with
      | [] -> ()
      | (_, first) :: _ ->
          Report.table ~title ~header:(axis :: backend_cols)
            (List.mapi
               (fun i (n, _, _) ->
                 string_of_int n
                 :: List.map
                      (fun (_, cells) ->
                        let _, t, _ = List.nth cells i in
                        Printf.sprintf fmt t)
                      rows)
               first)
    in
    tput_table
      ~title:
        "Shootout workloads — fig10 sysbench ops/kcyc per protocol backend (safe mode)"
      ~axis:"threads" ~fmt:"%.3f" report.Shootout.wl_fig10;
    tput_table
      ~title:"Shootout workloads — fig11 apache req/Mcyc per protocol backend (safe mode)"
      ~axis:"cores" ~fmt:"%.2f" report.Shootout.wl_fig11;
    Report.table
      ~title:"Shootout workloads — bigmachine-56 multi-tenant churn per protocol backend"
      ~header:[ "backend"; "cycles/shootdown"; "shootdowns"; "IPIs"; "ICR writes" ]
      (List.map
         (fun (p, r) ->
           [
             Opts.protocol_label p;
             Printf.sprintf "%.0f" r.Bigmachine.cycles_per_shootdown;
             string_of_int r.Bigmachine.shootdowns;
             string_of_int r.Bigmachine.ipis;
             string_of_int r.Bigmachine.icr_writes;
           ])
         report.Shootout.wl_big)
  in
  (Shard.plan_of acc ~name:"shootout-workloads" reduce, report)

let workloads_perf_rows report () =
  List.map
    (fun r ->
      Perf_row.row "workloads"
        (r.Shootout.wl_experiment ^ "/" ^ Opts.protocol_label r.Shootout.wl_protocol)
        [
          ("throughput", r.Shootout.wl_throughput);
          ("cycles_per_shootdown", r.Shootout.wl_cycles_per_shootdown);
          Perf_row.int "shootdowns" r.Shootout.wl_shootdowns;
        ])
    (report ()).Shootout.wl_rows

(* ----- The registry ----- *)

type entry = {
  name : string;
  group : string option;
  build : t -> Shard.plan * (unit -> Perf_row.row list);
}

(* Most entries add no BENCH_PERF.json rows beyond their experiment row. *)
let plain ?group name plan =
  { name; group; build = (fun ctx -> (plan ctx, fun () -> [])) }

let registry =
  [
    plain ~group:"figs5-8" "fig5" (micro_figure ~fig:5 ~safe:true ~pte_count:1);
    plain ~group:"figs5-8" "fig6" (micro_figure ~fig:6 ~safe:true ~pte_count:10);
    plain ~group:"figs5-8" "fig7" (micro_figure ~fig:7 ~safe:false ~pte_count:1);
    plain ~group:"figs5-8" "fig8" (micro_figure ~fig:8 ~safe:false ~pte_count:10);
    plain "table3" table3;
    plain "fig9" fig9;
    plain "fig10" (fun ctx ->
        Figures.fig10_plan ~memo:ctx.sysbench (Figures.fig10_scale ~quick:ctx.quick));
    plain "fig11" (fun ctx ->
        Figures.fig11_plan ~memo:ctx.apache (Figures.fig11_scale ~quick:ctx.quick));
    plain "table2" table2;
    plain "table4" table4;
    plain ~group:"ablation" "ablation-A" ablation_single_opt;
    plain ~group:"ablation" "ablation-B" ablation_ipi_latency;
    plain ~group:"ablation" "ablation-C" ablation_batch_slots;
    plain ~group:"ablation" "ablation-D" ablation_full_flush_threshold;
    plain ~group:"ablation" "ablation-E" ablation_freebsd;
    plain ~group:"ablation" "paravirt" paravirt;
    { name = "bigmachine"; group = None; build = bigmachine };
    {
      name = "shootout";
      group = None;
      build =
        (fun ctx ->
          let plan, rows = shootout ctx in
          (plan, shootout_perf_rows rows));
    };
    (* After shootout: at full scale it reads shootout's paper cell. *)
    {
      name = "stats";
      group = None;
      build =
        (fun ctx ->
          let plan, metrics = stats ctx in
          (plan, phases_perf_rows metrics));
    };
    (* Last on purpose: its paper-backend cells must find fig10/fig11/
       bigmachine already owning the shared memo entries. *)
    {
      name = "shootout-workloads";
      group = None;
      build =
        (fun ctx ->
          let plan, report = shootout_workloads ctx in
          (plan, workloads_perf_rows report));
    };
  ]

let names = List.map (fun e -> e.name) registry

let groups =
  List.fold_left
    (fun acc e ->
      match e.group with
      | Some g when not (List.exists (String.equal g) acc) -> acc @ [ g ]
      | _ -> acc)
    [] registry
  @ [ "all" ]

let select = function
  | "all" -> Some registry
  | name -> (
      let selects e =
        String.equal e.name name || Option.equal String.equal e.group (Some name)
      in
      match List.filter selects registry with
      | [] -> None
      | entries -> Some entries)
