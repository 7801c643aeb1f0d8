(* tlbbench: the benchmark for the simulator, one workload per invocation.

     main.exe --workload storm|translate|churn-1024 --seed N --seconds S --trace 0|1

   Untraced (--trace 0) it repeats passes over the workload's cells for S
   seconds and reports the end-to-end metrics. Traced (--trace 1) it runs
   the same cells with spans on, alternating with untraced passes, times
   each layer's public functions in isolation and reports the per-layer
   metrics. Either way every metric is printed by name with its unit, and
   the last line of stdout is one JSON object with the metrics the
   benchmark declares. A cell fails if it raises, if its checker records a
   violation, or if its simulated digest (the layer counters) differs from
   the reference pass; the exit code is 1 when any cell failed. *)

open Tlbbench

let now = Unix.gettimeofday
let median = Unitcost.median

(* ----- arguments ----- *)

let usage () =
  prerr_endline
    "usage: main.exe --workload storm|translate|churn-1024 --seed N --seconds S --trace 0|1";
  exit 2

let args () =
  let workload = ref None and seed = ref None and seconds = ref None and trace = ref None in
  let rec go = function
    | "--workload" :: v :: rest ->
        (match List.assoc_opt v Cells.workloads with
        | Some w -> workload := Some w
        | None -> usage ());
        go rest
    | "--seed" :: v :: rest ->
        (match Int64.of_string_opt v with Some s -> seed := Some s | None -> usage ());
        go rest
    | "--seconds" :: v :: rest ->
        (match int_of_string_opt v with
        | Some s when s >= 1 -> seconds := Some s
        | _ -> usage ());
        go rest
    | "--trace" :: v :: rest ->
        (match v with "0" -> trace := Some false | "1" -> trace := Some true | _ -> usage ());
        go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some w, Some s, Some n, Some t -> (w, s, n, t)
  | _ -> usage ()

(* ----- running cells ----- *)

type run = {
  cell : Cells.cell;
  setup_s : float;
  create_s : float;  (** the part of [setup_s] spent in Machine.create *)
  run_s : float;  (** Kernel.run *)
  verify_s : float;
  counters : int array;
  probe : Probe.t;
  t_start : float;
  t_setup : float;
  t_run : float;
  t_end : float;
}

let run_cell ~traced cell =
  let probe = Probe.create ~traced in
  let t_start = now () in
  match
    let pr = Cells.setup probe cell in
    let t_setup = now () in
    Kernel.run pr.Cells.m;
    let t_run = now () in
    let counters = Cells.verify pr in
    (pr.Cells.created_at, t_setup, t_run, counters)
  with
  | created_at, t_setup, t_run, counters ->
      let t_end = now () in
      Ok
        {
          cell;
          setup_s = t_setup -. t_start;
          create_s = created_at -. t_start;
          run_s = t_run -. t_setup;
          verify_s = t_end -. t_run;
          counters;
          probe;
          t_start;
          t_setup;
          t_run;
          t_end;
        }
  | exception e -> Error (Printexc.to_string e)

type pass = {
  runs : run list;  (** the cells that did not fail *)
  wall_s : float;
  minor_words : float;
  promoted_words : float;
  minor_collections : int;
  major_collections : int;
}

let attempted = ref 0
let failed = ref 0

let fail cell why =
  incr failed;
  Printf.eprintf "FAILED %s cell %d (seed %Ld): %s\n%!"
    (Cells.workload_name cell.Cells.workload)
    cell.Cells.index cell.Cells.seed why

(* Stands in for the probe and counters of a run that is not kept, so a
   long measurement does not grow the heap it is measuring. *)
let dropped = Probe.create ~traced:false

(* One pass over [cells]. With [reference] (the warm-up pass's digests),
   a cell whose counters differ from its reference fails. Unless [keep],
   each run's probe and counters are dropped once checked. *)
let pass ?reference ?(keep = false) ~traced cells =
  let g0 = Gc.quick_stat () in
  let t0 = now () in
  let runs =
    List.filter_map
      (fun (cell : Cells.cell) ->
        incr attempted;
        match run_cell ~traced cell with
        | Error why ->
            fail cell why;
            None
        | Ok r -> (
            match reference with
            | Some ref_counters when r.counters <> ref_counters.(cell.index) ->
                fail cell "simulated digest differs from the reference pass";
                None
            | _ -> Some (if keep then r else { r with probe = dropped; counters = [||] })))
      cells
  in
  let wall_s = now () -. t0 in
  let g1 = Gc.quick_stat () in
  {
    runs;
    wall_s;
    minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
    promoted_words = g1.promoted_words -. g0.promoted_words;
    minor_collections = g1.minor_collections - g0.minor_collections;
    major_collections = g1.major_collections - g0.major_collections;
  }

(* The warm-up pass: lets the heap and caches settle, and fixes each
   cell's reference digest. A cell that fails here has no reference, so
   its later runs are compared against an impossible digest and fail. *)
let warm_up cells =
  let p = pass ~keep:true ~traced:false cells in
  let reference = Array.make (List.length cells) [||] in
  List.iter (fun r -> reference.(r.cell.Cells.index) <- r.counters) p.runs;
  (p, reference)

(* ----- statistics ----- *)

let sum_counter runs name =
  let i = Cells.counter_index name in
  List.fold_left (fun acc r -> acc + r.counters.(i)) 0 runs

let sorted_ints bufs =
  let all = Probe.Ibuf.create () in
  List.iter (fun b -> Probe.Ibuf.append ~dst:all b) bufs;
  let a = Probe.Ibuf.to_array all in
  Array.sort Int.compare a;
  a

(* Nearest-rank percentile of a sorted array. *)
let percentile_int a p =
  let n = Array.length a in
  if n = 0 then 0
  else
    let k = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
    a.(max 0 (min (n - 1) (k - 1)))

(* The highest whole percentile with at least ten samples beyond it.
   Returns (percentile, value, samples beyond); with fewer than twenty
   samples it falls back to the median. *)
let tail sorted =
  let n = Array.length sorted in
  if n = 0 then (0, nan, 0)
  else
    let p = if n < 20 then 50 else 100 * (n - 10) / n in
    let k = max 1 (int_of_float (Float.ceil (float_of_int p /. 100.0 *. float_of_int n))) in
    (p, sorted.(k - 1), n - k)

(* ----- output ----- *)

let fmt_value v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_metric ?(note = "") name unit v =
  Printf.printf "metric %-40s %18s %s%s\n" name (fmt_value v) unit
    (if note = "" then "" else "  (" ^ note ^ ")")

let print_na name unit why = Printf.printf "metric %-40s %18s %s  (%s)\n" name "n/a" unit why

let json_line metrics =
  let correct = !failed = 0 in
  let body =
    String.concat ", "
      (List.map
         (fun (name, unit, v) ->
           let v = if Float.is_finite v then v else 0.0 in
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (fmt_value v) unit)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct !attempted !failed body

(* The flush-issuing syscall whose cost a workload's sim_syscall_* metrics
   report, if it has one. *)
let flush_syscall = function
  | Cells.Storm -> Some Probe.k_fdatasync
  | Cells.Churn -> Some Probe.k_madvise
  | Cells.Translate -> None

(* Simulated-time metrics of one pass: deterministic per seed. *)
let sim_metrics workload runs =
  let access = sorted_ints (List.map (fun r -> r.probe.Probe.access) runs) in
  let mcycles = float_of_int (sum_counter runs "sim.mean_completion") /. 1e6 in
  let access_p50 = float_of_int (percentile_int access 50.0) in
  let access_mean =
    float_of_int (Array.fold_left ( + ) 0 access) /. float_of_int (max 1 (Array.length access))
  in
  print_metric "sim_mcycles" "Mcycles" mcycles;
  print_metric "sim_access_cycles.p50" "cycles" access_p50
    ~note:(Printf.sprintf "%d accesses" (Array.length access));
  print_metric "sim_access_cycles.mean" "cycles" access_mean;
  (match flush_syscall workload with
  | None ->
      print_na "sim_syscall_cycles.p50" "cycles" "no flush-issuing syscall";
      print_na "sim_syscall_cycles.p99" "cycles" "no flush-issuing syscall";
      print_na "sim_cycles_per_shootdown" "cycles" "no flush-issuing syscall"
  | Some kind ->
      let calls = sorted_ints (List.map (fun r -> r.probe.Probe.calls.(kind)) runs) in
      let note = Printf.sprintf "%d %s calls" (Array.length calls) Probe.kind_names.(kind) in
      print_metric "sim_syscall_cycles.p50" "cycles" ~note
        (float_of_int (percentile_int calls 50.0));
      print_metric "sim_syscall_cycles.p99" "cycles" ~note
        (float_of_int (percentile_int calls 99.0));
      let shootdowns = sum_counter runs "core.shootdowns" in
      print_metric "sim_cycles_per_shootdown" "cycles"
        ~note:(Printf.sprintf "%d shootdowns" shootdowns)
        (float_of_int (Array.fold_left ( + ) 0 calls) /. float_of_int (max 1 shootdowns)));
  [ ("sim_mcycles", "Mcycles", mcycles) ]

(* [f 0], [f 1], ... until [deadline], at least [min_passes] times. *)
let passes_until ~deadline ~min_passes f =
  let rec go acc n =
    if n >= min_passes && now () >= deadline then List.rev acc else go (f n :: acc) (n + 1)
  in
  go [] 0

(* ----- --trace 0: end-to-end metrics ----- *)

let end_to_end workload cells ~seconds =
  let warm, reference = warm_up cells in
  let deadline = now () +. float_of_int seconds in
  let passes = passes_until ~deadline ~min_passes:3 (fun _ -> pass ~reference ~traced:false cells) in
  let cell_ms =
    Array.of_list (List.concat_map (fun p -> List.map (fun r -> r.run_s *. 1e3) p.runs) passes)
  in
  Array.sort Float.compare cell_ms;
  let med f = median (Array.of_list (List.map f passes)) in
  let wall_s = med (fun p -> p.wall_s) in
  let setup_s = med (fun p -> List.fold_left (fun acc r -> acc +. r.setup_s) 0.0 p.runs) in
  let cell_p50 = median cell_ms in
  let tail_p, tail_v, beyond = tail cell_ms in
  let minor_mwords = med (fun p -> p.minor_words /. 1e6) in
  let heap_peak_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0
  in
  let n_cells = Array.length cell_ms in
  Printf.printf "workload %s: %d cells per pass, %d timed passes, %d timed cells\n"
    (Cells.workload_name workload) (List.length cells) (List.length passes) n_cells;
  print_metric "wall_s" "s" wall_s ~note:(Printf.sprintf "median of %d passes" (List.length passes));
  print_metric "setup_s" "s" setup_s ~note:"Machine.create + preparation, summed over a pass's cells";
  print_metric "cell_ms.p50" "ms" cell_p50 ~note:(Printf.sprintf "%d cells" n_cells);
  print_metric "cell_ms.tail" "ms" tail_v
    ~note:(Printf.sprintf "p%d of %d cells, %d beyond" tail_p n_cells beyond);
  print_metric "minor_mwords" "Mwords" minor_mwords ~note:"per pass";
  print_metric "heap_peak_mb" "MB" heap_peak_mb;
  let sim = sim_metrics workload warm.runs in
  [
    ("wall_s", "s", wall_s);
    ("setup_s", "s", setup_s);
    ("cell_ms.p50", "ms", cell_p50);
    ("cell_ms.tail", "ms", tail_v);
    ("minor_mwords", "Mwords", minor_mwords);
    ("heap_peak_mb", "MB", heap_peak_mb);
  ]
  @ sim

(* ----- --trace 1: per-layer metrics ----- *)

(* Host-time spans, recorded from the benchmark's own files around the
   calls into each layer: cell -> setup / run / verify. *)
let host_spans runs =
  List.concat_map
    (fun r ->
      let c = r.cell.Cells.index in
      [
        ("cell", r.t_start, r.t_end, "-", c);
        ("setup", r.t_start, r.t_setup, "cell", c);
        ("run", r.t_setup, r.t_run, "cell", c);
        ("verify", r.t_run, r.t_end, "cell", c);
      ])
    runs

let write_spans ~workload ~seed ~host runs =
  let dir = Filename.concat "tlbbench" "out" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Filename.concat dir (Printf.sprintf "%s-seed%Ld.spans.tsv" (Cells.workload_name workload) seed) in
  let oc = open_out path in
  output_string oc "# host <name> <start_s> <end_s> <parent> <cell>\n";
  List.iter
    (fun (name, t0, t1, parent, c) -> Printf.fprintf oc "host\t%s\t%.6f\t%.6f\t%s\t%d\n" name t0 t1 parent c)
    host;
  output_string oc "# sim <cell> <call> <cpu> <start_cycle> <end_cycle>\n";
  output_string oc "# counters <cell> <name>=<value>...\n";
  List.iter
    (fun r ->
      let s = r.probe.Probe.spans in
      for k = 0 to Probe.span_count r.probe - 1 do
        let g j = Probe.Ibuf.get s ((4 * k) + j) in
        Printf.fprintf oc "sim\t%d\t%s\t%d\t%d\t%d\n" r.cell.Cells.index Probe.kind_names.(g 0) (g 1) (g 2) (g 3)
      done;
      Printf.fprintf oc "counters\t%d" r.cell.Cells.index;
      Array.iteri (fun i n -> Printf.fprintf oc "\t%s=%d" n r.counters.(i)) Cells.counter_names;
      output_char oc '\n')
    runs;
  close_out oc;
  path

(* Wall time of one pass executed through Shard at [jobs] domains. *)
let shard_wall ~jobs cells =
  let jobs_of =
    List.map
      (fun cell ->
        fst
          (Shard.cell ~weight:1.0 (fun () ->
               match run_cell ~traced:false cell with Ok r -> r.counters | Error e -> failwith e)))
      cells
  in
  let plan = { Shard.name = "tlbbench"; jobs = jobs_of; reused = 0; reduce = (fun () -> ()) } in
  let t0 = now () in
  ignore (Shard.execute ~jobs [ plan ]);
  now () -. t0

let per_layer workload cells ~seed ~seconds =
  let warm, reference = warm_up cells in
  let runs = warm.runs in
  let deadline = now () +. float_of_int seconds in
  (* Alternate traced and untraced passes so both see the same host. *)
  let pairs =
    passes_until ~deadline ~min_passes:2 (fun n ->
        let t = pass ~reference ~keep:(n = 0) ~traced:true cells in
        let u = pass ~reference ~traced:false cells in
        (t, u))
  in
  let traced = List.map fst pairs and untraced = List.map snd pairs in
  let run_s p = List.fold_left (fun acc r -> acc +. r.run_s) 0.0 p.runs in
  let med ps f = median (Array.of_list (List.map f ps)) in
  let untraced_run_s = med untraced run_s in
  let overhead = med traced run_s /. untraced_run_s in
  (* Unit costs, isolated. *)
  let ns_hit = Unitcost.tlb_hit () and ns_miss = Unitcost.tlb_miss () in
  let ns_insert = Unitcost.tlb_insert () in
  let ns_walk = Unitcost.pt_walk () and ns_map_unmap = Unitcost.pt_map_unmap () in
  let ns_access = Unitcost.cache_access () in
  let ns_event = Unitcost.engine_event () and ns_advance = Unitcost.engine_advance () in
  let ns_switch = Unitcost.process_switch () in
  let ns_iter56 = Unitcost.cpuset_iter 56 and ns_iter1024 = Unitcost.cpuset_iter 1024 in
  let ns_send56, targets56 = Unitcost.apic_send 56 in
  let ns_send1024, targets1024 = Unitcost.apic_send 1024 in
  let create56 = Unitcost.machine_create 56 and create1024 = Unitcost.machine_create 1024 in
  let nproc = Domain.recommended_domain_count () in
  let speedup = shard_wall ~jobs:1 cells /. shard_wall ~jobs:nproc cells in
  (* Counts: the reference pass, summed over its cells. *)
  let c name = float_of_int (sum_counter runs name) in
  let events = c "sim.engine.events" and advances = c "sim.engine.advances" in
  let hits = c "hw.tlb.hits" and misses = c "hw.tlb.misses" in
  let lookups = hits +. misses in
  let insertions = c "hw.tlb.insertions" in
  let accesses = c "hw.cache.reads" +. c "hw.cache.writes" in
  let transfers = c "hw.cache.transfers" in
  let ipis = c "hw.apic.ipis" and icr = c "hw.apic.icr_writes" in
  let mutations = c "mm.page_table.mutations" in
  let flush_skipped = c "core.flush_requests_skipped" in
  let ratio a b = if b = 0.0 then 0.0 else a /. b in
  let ns_lookup = ratio ((hits *. ns_hit) +. (misses *. ns_miss)) lookups in
  let ns_per_ipi =
    match workload with
    | Cells.Churn -> ns_send1024 /. float_of_int targets1024
    | _ -> ns_send56 /. float_of_int targets56
  in
  (* Attributed host time per layer, ns, over the pass. Most engine events
     resume a simulated process, so an event is priced as a process
     switch; a TLB miss is followed by one page walk; a mutation is half a
     map/unmap pair. *)
  let sim_ns = (events *. ns_switch) +. (advances *. ns_advance) in
  let tlb_ns = (hits *. ns_hit) +. (misses *. ns_miss) +. (insertions *. ns_insert) in
  let cache_ns = accesses *. ns_access in
  let apic_ns = ipis *. ns_per_ipi in
  let mm_ns = (misses *. ns_walk) +. (mutations *. ns_map_unmap /. 2.0) in
  let layers =
    [
      ("sim", "engine events + advances", events +. advances, sim_ns);
      ("hw.tlb", "lookups + insertions", lookups +. insertions, tlb_ns);
      ("hw.cache", "line accesses", accesses, cache_ns);
      ("hw.apic", "IPIs", ipis, apic_ns);
      ("mm", "walks + mutations", misses +. mutations, mm_ns);
    ]
  in
  let total_ns = untraced_run_s *. 1e9 in
  let share ns = ns /. total_ns in
  let attributed = List.fold_left (fun acc (_, _, _, ns) -> acc +. ns) 0.0 layers in
  let remainder = 1.0 -. share attributed in
  Printf.printf "workload %s: %d cells per pass, %d traced + %d untraced passes\n"
    (Cells.workload_name workload) (List.length cells) (List.length traced) (List.length untraced);
  Printf.printf "\nlayer table (one pass, Kernel.run host time %.1f ms untraced)\n" (untraced_run_s *. 1e3);
  Printf.printf "  %-10s %-26s %14s %10s %12s %8s\n" "layer" "counted" "count" "ns/op" "attrib. ms" "share";
  List.iter
    (fun (name, what, count, ns) ->
      Printf.printf "  %-10s %-26s %14.0f %10.1f %12.2f %7.1f%%\n" name what count (ratio ns count)
        (ns /. 1e6) (100.0 *. share ns))
    layers;
  Printf.printf "  %-10s %-26s %14s %10s %12.2f %7.1f%%\n" "core" "unattributed remainder" "-" "-"
    ((total_ns -. attributed) /. 1e6) (100.0 *. remainder);
  Printf.printf "  (remainder: protocol logic, fault and syscall paths, effect handlers, checker, GC, drivers)\n";
  Printf.printf "  tracing overhead: traced/untraced Kernel.run = %.3f\n\n" overhead;
  let syscall_metrics =
    List.concat_map
      (fun kind ->
        let calls = sorted_ints (List.map (fun r -> r.probe.Probe.calls.(kind)) runs) in
        let name = Probe.kind_names.(kind) in
        [
          (Printf.sprintf "core.syscall.%s.calls" name, "count", float_of_int (Array.length calls));
          (Printf.sprintf "core.syscall.%s.sim_cycles.p50" name, "cycles", float_of_int (percentile_int calls 50.0));
          (Printf.sprintf "core.syscall.%s.sim_cycles.p99" name, "cycles", float_of_int (percentile_int calls 99.0));
        ])
      Probe.syscall_kinds
  in
  let prep_ms = median (Array.of_list (List.map (fun r -> (r.setup_s -. r.create_s) *. 1e3) runs)) in
  let verify_ms =
    median (Array.of_list (List.concat_map (fun p -> List.map (fun r -> r.verify_s *. 1e3) p.runs) untraced))
  in
  let metrics =
    [
      ("sim.engine.events", "count", events);
      ("sim.engine.advances", "count", advances);
      ("sim.engine.ns_per_event", "ns", ns_event);
      ("sim.engine.ns_per_advance", "ns", ns_advance);
      ("sim.process.ns_per_switch", "ns", ns_switch);
      ("sim.cpuset.ns_per_iter.56", "ns", ns_iter56);
      ("sim.cpuset.ns_per_iter.1024", "ns", ns_iter1024);
      ("sim.host_share", "ratio", share sim_ns);
      ("hw.tlb.lookups", "count", lookups);
      ("hw.tlb.hit_ratio", "ratio", ratio hits lookups);
      ("hw.tlb.insertions", "count", insertions);
      ("hw.tlb.evictions", "count", c "hw.tlb.evictions");
      ("hw.tlb.invalidations", "count", c "hw.tlb.invalidations");
      ("hw.tlb.full_flushes", "count", c "hw.tlb.full_flushes");
      ("hw.tlb.ns_per_hit", "ns", ns_hit);
      ("hw.tlb.ns_per_miss", "ns", ns_miss);
      ("hw.tlb.ns_per_lookup", "ns", ns_lookup);
      ("hw.tlb.ns_per_insert", "ns", ns_insert);
      ("hw.tlb.host_share", "ratio", share tlb_ns);
      ("hw.cache.accesses", "count", accesses);
      ("hw.cache.transfers", "count", transfers);
      ("hw.cache.transfer_ratio", "ratio", ratio transfers accesses);
      ("hw.cache.ns_per_access", "ns", ns_access);
      ("hw.cache.host_share", "ratio", share cache_ns);
      ("hw.apic.ipis", "count", ipis);
      ("hw.apic.icr_writes", "count", icr);
      ("hw.apic.ipis_per_icr", "ratio", ratio ipis icr);
      ("hw.apic.ns_per_send.56", "ns", ns_send56);
      ("hw.apic.ns_per_send.1024", "ns", ns_send1024);
      ("hw.apic.host_share", "ratio", share apic_ns);
      ("hw.cpu.irqs", "count", c "hw.cpu.irqs");
      ("hw.cpu.irq_mcycles", "Mcycles", c "hw.cpu.irq_cycles" /. 1e6);
      ("mm.page_table.ns_per_walk", "ns", ns_walk);
      ("mm.page_table.mutations", "count", mutations);
      ("mm.page_table.tables_freed", "count", c "mm.page_table.tables_freed");
      ("mm.page_table.ns_per_map_unmap", "ns", ns_map_unmap);
      ("mm.host_share", "ratio", share mm_ns);
      ("core.shootdowns", "count", c "core.shootdowns");
      ("core.local_only_flushes", "count", c "core.local_only_flushes");
      ("core.ipis_skipped", "count", c "core.ipis_skipped");
      ("core.flush_requests_skipped", "count", flush_skipped);
      ("core.ipi_useful_ratio", "ratio", if ipis = 0.0 then 0.0 else 1.0 -. (flush_skipped /. ipis));
      ("core.full_flush_fallbacks", "count", c "core.full_flush_fallbacks");
      ("core.batched_deferrals", "count", c "core.batched_deferrals");
      ("core.in_context_deferrals", "count", c "core.in_context_deferrals");
      ("core.faults", "count", c "core.faults");
      ("core.checker.checks", "count", c "core.checker.checks");
    ]
    @ syscall_metrics
    @ [
        ("core.host_share", "ratio", remainder);
        ("workloads.setup.machine_create_ms.56", "ms", create56);
        ("workloads.setup.machine_create_ms.1024", "ms", create1024);
        ("workloads.setup.prep_ms", "ms", prep_ms);
        ("workloads.verify_ms", "ms", verify_ms);
        ("workloads.shard.speedup_jn", "x", speedup);
        ("gc.minor_words_per_event", "words", med untraced (fun p -> p.minor_words) /. events);
        ("gc.promoted_words", "words", med untraced (fun p -> p.promoted_words));
        ("gc.minor_collections", "count", med untraced (fun p -> float_of_int p.minor_collections));
        ("gc.major_collections", "count", med untraced (fun p -> float_of_int p.major_collections));
        ("trace.overhead_ratio", "ratio", overhead);
      ]
  in
  List.iter (fun (name, unit, v) -> print_metric name unit v) metrics;
  Printf.printf "metric %-40s %18d %s  (jobs for workloads.shard.speedup_jn)\n" "workloads.shard.jobs" nproc "count";
  (* Spans of the first traced pass; every traced pass records the same
     simulated spans, since their digests match the reference. *)
  let first = List.hd traced in
  let host = List.concat_map (fun p -> host_spans p.runs) traced in
  let path = write_spans ~workload ~seed ~host first.runs in
  Printf.printf "spans: %s (%d simulated spans per pass)\n"
    path (List.fold_left (fun acc r -> acc + Probe.span_count r.probe) 0 first.runs);
  metrics

let () =
  let workload, seed, seconds, trace = args () in
  if not (Sys.file_exists "tlbbench") then begin
    prerr_endline "tlbbench: run from the repository root";
    exit 2
  end;
  let cells = Cells.cells workload ~seed in
  Printf.printf "tlbbench %s seed=%Ld seconds=%d trace=%d\n" (Cells.workload_name workload) seed
    seconds (if trace then 1 else 0);
  List.iter (fun c -> Printf.printf "  cell %d seed %Ld\n" c.Cells.index c.Cells.seed) cells;
  let metrics =
    if trace then per_layer workload cells ~seed ~seconds else end_to_end workload cells ~seconds
  in
  print_metric "failed_ratio" "ratio" (float_of_int !failed /. float_of_int (max 1 !attempted))
    ~note:(Printf.sprintf "%d of %d cells" !failed !attempted);
  json_line metrics;
  exit (if !failed = 0 then 0 else 1)
