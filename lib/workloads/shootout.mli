(** The `tlbsim shootout` report: the metered madvise microbenchmark run
    once per protocol backend ({!Opts.protocol} — the paper protocol with
    all optimizations and bare, the oracle, the cronus-style synchronous
    broadcast and the charmos-style per-CPU queue), reduced to one
    comparison row each: initiator/responder latency, shootdown count,
    phase-latency p50s (DESIGN.md §10) and cacheline traffic.

    The cells are planned by the experiment registry ({!Experiments}):
    this module names the backends, turns cell results into rows and
    renders them. *)

type format = Table | Json

type row = {
  sh_label : string;  (** backend row label, e.g. ["paper-baseline"] *)
  sh_protocol : Opts.protocol;
  sh_initiator_mean : float;  (** madvise cycles, mean over iterations *)
  sh_initiator_sd : float;
  sh_responder_mean : float;  (** responder interruption per shootdown *)
  sh_shootdowns : int;
  sh_prep_p50 : float option;  (** pooled over distance ranks; [None] = no samples *)
  sh_ipi_p50 : float option;
  sh_flush_p50 : float option;
  sh_ack_p50 : float option;
  sh_line_transfers : int;  (** metered cacheline transfers, all ranks *)
  sh_line_cycles : float;  (** total cycles those transfers cost *)
}

(** The compared backends, in row order: label + fresh opts per call. *)
val backends : unit -> (string * Opts.t) list

(** One row from a backend's metered microbenchmark result. *)
val row_of_result : string -> Opts.protocol -> Microbench.result -> row

val render : format -> row list -> string

(** {2 Cross-backend workloads}

    The paper's workload evaluation — fig10 sysbench, fig11 apache and the
    bigmachine-56 multi-tenant churn — run once per real backend (paper /
    oracle / sync-broadcast / queue-spin; paper-baseline is omitted since
    the figures already print baseline columns). Paper opts are
    [Opts.all ~safe:true], value-identical to fig10/fig11's final
    "+batching" stack and the bench bigmachine config, so embedded after
    those plans on shared memos every paper cell is reused. *)

(** The compared backends, label + fresh opts per call; labels equal
    {!Opts.protocol_label} of the backend's protocol. *)
val workload_backends : unit -> (string * Opts.t) list

(** One gate/JSON summary row per (experiment, backend). *)
type wl_row = {
  wl_experiment : string;  (** ["wl-fig10"] | ["wl-fig11"] | ["wl-bigmachine-56"] *)
  wl_protocol : Opts.protocol;
  wl_throughput : float option;
      (** fig10 ops/kcyc, fig11 req/Mcyc — mean over the scale's points *)
  wl_cycles_per_shootdown : float option;  (** bigmachine only *)
  wl_shootdowns : int;  (** summed over the family's cells *)
}

type wl_report = {
  wl_fig10 : (Opts.protocol * (int * float * int) list) list;
      (** per backend: [(threads, ops/kcyc, shootdowns)] in thread order *)
  wl_fig11 : (Opts.protocol * (int * float * int) list) list;
  wl_big : (Opts.protocol * Bigmachine.result) list;
  wl_rows : wl_row list;  (** flattened summary rows, fixed plan order *)
}

(** Assemble the report from per-backend columns, in backend order. *)
val workload_report :
  fig10:(Opts.protocol * (int * float * int) list) list ->
  fig11:(Opts.protocol * (int * float * int) list) list ->
  big:(Opts.protocol * Bigmachine.result) list ->
  wl_report

val render_workloads : format -> wl_report -> string
