(* The `tlbsim shootout` workload: the same metered madvise microbenchmark
   run once per protocol backend, reduced to one comparison row each —
   initiator/responder latency, shootdown count, phase-latency p50s from
   the machine's metric registry (DESIGN.md §10), and cacheline traffic.

   The cells are planned by the [shootout] and [shootout-workloads]
   entries of the experiment registry (experiments.ml), which both the
   bench harness and the CLI execute; this module turns their results
   into rows and renders them. The paper backend appears twice — all
   optimizations and bare baseline — bracketing the protocol's own
   headroom before the alternative backends are compared against it. *)

type format = Table | Json

type row = {
  sh_label : string;
  sh_protocol : Opts.protocol;
  sh_initiator_mean : float;
  sh_initiator_sd : float;
  sh_responder_mean : float;
  sh_shootdowns : int;
  sh_prep_p50 : float option;
  sh_ipi_p50 : float option;
  sh_flush_p50 : float option;
  sh_ack_p50 : float option;
  sh_line_transfers : int;  (* metered cacheline transfers, all ranks *)
  sh_line_cycles : float;  (* total cycles those transfers cost *)
}

(* One entry per backend under comparison; opts built fresh per call (they
   are mutable and each cell's machine owns its copy). *)
let backends () =
  [
    ("paper", Opts.all ~safe:true);
    ("paper-baseline", Opts.baseline ~safe:true);
    ("oracle", Opts.with_protocol Opts.Oracle ~safe:true);
    ("sync-broadcast", Opts.with_protocol Opts.Sync_broadcast ~safe:true);
    ("queue-spin", Opts.with_protocol Opts.Queue_spin ~safe:true);
  ]

(* Pool every series of [name]: exact-moment merge of each per-rank
   accumulator into a fresh one (phase series are split by topology
   distance; the comparison wants the phase as a whole). Series carrying
   kind="skipped" are excluded — generation-skip "flushes" are priced at
   ~0 cycles and a broadcast backend IPIs 50+ idle CPUs per shootdown, so
   pooling them in would pin every broadcast flush p50 to 0. *)
let pooled_stats metrics name =
  let acc = Stats.create () in
  List.iter
    (fun s ->
      if
        String.equal (Metrics.series_name s) name
        && not (List.mem ("kind", "skipped") (Metrics.series_labels s))
      then Stats.merge_into acc (Metrics.stats s))
    (Metrics.all metrics);
  acc

let row_of_result label protocol (r : Microbench.result) =
  let p50 name = Stats.percentile_opt (pooled_stats r.Microbench.metrics name) 50.0 in
  let line = pooled_stats r.Microbench.metrics "cacheline_transfer_cycles" in
  {
    sh_label = label;
    sh_protocol = protocol;
    sh_initiator_mean = r.Microbench.initiator_mean;
    sh_initiator_sd = r.Microbench.initiator_sd;
    sh_responder_mean = r.Microbench.responder_mean;
    sh_shootdowns = r.Microbench.shootdowns;
    sh_prep_p50 = p50 "shootdown_prep_cycles";
    sh_ipi_p50 = p50 "ipi_delivery_cycles";
    sh_flush_p50 = p50 "flush_exec_cycles";
    sh_ack_p50 = p50 "ack_wait_cycles";
    sh_line_transfers = Stats.count line;
    sh_line_cycles = Stats.total line;
  }

let opt_cell = function None -> "-" | Some v -> Printf.sprintf "%.0f" v

let render_table rows =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "%-16s %-14s %14s %12s %10s %9s %8s %9s %8s %10s\n" "backend"
       "protocol" "madvise cyc" "responder" "shootdowns" "prep p50" "ipi p50" "flush p50"
       "ack p50" "line xfers");
  List.iter
    (fun r ->
      Buffer.add_string b
        (Printf.sprintf "%-16s %-14s %8.0f +-%4.0f %12.0f %10d %9s %8s %9s %8s %10d\n"
           r.sh_label
           (Opts.protocol_label r.sh_protocol)
           r.sh_initiator_mean r.sh_initiator_sd r.sh_responder_mean r.sh_shootdowns
           (opt_cell r.sh_prep_p50) (opt_cell r.sh_ipi_p50) (opt_cell r.sh_flush_p50)
           (opt_cell r.sh_ack_p50) r.sh_line_transfers))
    rows;
  Buffer.contents b

let json_opt = function None -> "null" | Some v -> Printf.sprintf "%.1f" v

let json_of_row r =
  Printf.sprintf
    "{\"protocol\": \"%s\", \"backend\": \"%s\", \"initiator_mean\": %.1f, \
     \"initiator_sd\": %.1f, \"responder_mean\": %.1f, \"shootdowns\": %d, \
     \"prep_p50\": %s, \"ipi_p50\": %s, \"flush_p50\": %s, \"ack_p50\": %s, \
     \"line_transfers\": %d, \"line_cycles\": %.0f}"
    (Opts.protocol_label r.sh_protocol)
    r.sh_label r.sh_initiator_mean r.sh_initiator_sd r.sh_responder_mean r.sh_shootdowns
    (json_opt r.sh_prep_p50) (json_opt r.sh_ipi_p50) (json_opt r.sh_flush_p50)
    (json_opt r.sh_ack_p50) r.sh_line_transfers r.sh_line_cycles

let render_json rows =
  "[\n  " ^ String.concat ",\n  " (List.map json_of_row rows) ^ "\n]\n"

let render format rows =
  match format with Table -> render_table rows | Json -> render_json rows

(* ----- Cross-backend workloads: fig10 / fig11 / bigmachine-56 ----- *)

(* The workload comparison drops paper-baseline (fig10/fig11 already print
   baseline speedup columns) and races the four real backends on the
   paper's workload evaluation. Paper opts are [Opts.all ~safe:true] —
   value-identical to fig10/fig11's final "+batching" stack and the bench
   bigmachine config — so in a bench `all` run planned after those
   experiments every paper cell comes from the memo, not a rerun. *)
let workload_backends () =
  [
    ("paper", Opts.all ~safe:true);
    ("oracle", Opts.with_protocol Opts.Oracle ~safe:true);
    ("sync-broadcast", Opts.with_protocol Opts.Sync_broadcast ~safe:true);
    ("queue-spin", Opts.with_protocol Opts.Queue_spin ~safe:true);
  ]

type wl_row = {
  wl_experiment : string;
  wl_protocol : Opts.protocol;
  wl_throughput : float option;
  wl_cycles_per_shootdown : float option;
  wl_shootdowns : int;
}

type wl_report = {
  wl_fig10 : (Opts.protocol * (int * float * int) list) list;
  wl_fig11 : (Opts.protocol * (int * float * int) list) list;
  wl_big : (Opts.protocol * Bigmachine.result) list;
  wl_rows : wl_row list;
}

let mean_tput cells =
  List.fold_left (fun acc (_, t, _) -> acc +. t) 0.0 cells
  /. float_of_int (List.length cells)

let sum_shootdowns cells = List.fold_left (fun acc (_, _, s) -> acc + s) 0 cells

let workload_report ~fig10 ~fig11 ~big =
  let tput_rows name per_backend =
    List.map
      (fun (p, cells) ->
        {
          wl_experiment = name;
          wl_protocol = p;
          wl_throughput = Some (mean_tput cells);
          wl_cycles_per_shootdown = None;
          wl_shootdowns = sum_shootdowns cells;
        })
      per_backend
  in
  let big_rows =
    List.map
      (fun (p, r) ->
        {
          wl_experiment = "wl-bigmachine-56";
          wl_protocol = p;
          wl_throughput = None;
          wl_cycles_per_shootdown = Some r.Bigmachine.cycles_per_shootdown;
          wl_shootdowns = r.Bigmachine.shootdowns;
        })
      big
  in
  {
    wl_fig10 = fig10;
    wl_fig11 = fig11;
    wl_big = big;
    wl_rows = tput_rows "wl-fig10" fig10 @ tput_rows "wl-fig11" fig11 @ big_rows;
  }

let json_of_wl_row r =
  let opt fmt = function None -> "null" | Some v -> Printf.sprintf fmt v in
  Printf.sprintf
    "{\"experiment\": \"%s\", \"proto\": \"%s\", \"throughput\": %s, \
     \"cycles_per_shootdown\": %s, \"shootdowns\": %d}"
    r.wl_experiment
    (Opts.protocol_label r.wl_protocol)
    (opt "%.4f" r.wl_throughput)
    (opt "%.2f" r.wl_cycles_per_shootdown)
    r.wl_shootdowns

(* Plain-text rendition for the CLI: one table per workload family,
   backends as columns (fig10/fig11) or rows (bigmachine). *)
let render_workloads_table report =
  let b = Buffer.create 2048 in
  let backend_header = List.map (fun (l, _) -> l) (workload_backends ()) in
  let tput_table ~title ~axis rows =
    Buffer.add_string b (title ^ "\n");
    Buffer.add_string b (Printf.sprintf "%-8s" axis);
    List.iter (fun l -> Buffer.add_string b (Printf.sprintf " %14s" l)) backend_header;
    Buffer.add_char b '\n';
    (match rows with
    | [] -> ()
    | (_, first) :: _ ->
        List.iteri
          (fun i (n, _, _) ->
            Buffer.add_string b (Printf.sprintf "%-8d" n);
            List.iter
              (fun (_, cells) ->
                let _, t, _ = List.nth cells i in
                Buffer.add_string b (Printf.sprintf " %14.4f" t))
              rows;
            Buffer.add_char b '\n')
          first);
    Buffer.add_char b '\n'
  in
  tput_table ~title:"fig10 — sysbench ops/kcyc per backend" ~axis:"threads"
    report.wl_fig10;
  tput_table ~title:"fig11 — apache req/Mcyc per backend" ~axis:"cores" report.wl_fig11;
  Buffer.add_string b "bigmachine-56 — multi-tenant churn per backend\n";
  Buffer.add_string b
    (Printf.sprintf "%-16s %18s %10s %8s %10s\n" "backend" "cycles/shootdown"
       "shootdowns" "IPIs" "ICR writes");
  List.iter
    (fun (p, r) ->
      Buffer.add_string b
        (Printf.sprintf "%-16s %18.0f %10d %8d %10d\n" (Opts.protocol_label p)
           r.Bigmachine.cycles_per_shootdown r.Bigmachine.shootdowns r.Bigmachine.ipis
           r.Bigmachine.icr_writes))
    report.wl_big;
  Buffer.contents b

let render_workloads format report =
  match format with
  | Table -> render_workloads_table report
  | Json ->
      "[\n  " ^ String.concat ",\n  " (List.map json_of_wl_row report.wl_rows) ^ "\n]\n"
