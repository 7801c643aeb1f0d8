(* Driver fidelity: the benchmark's storm and churn drivers must run the
   same simulated program as Sysbench.run and Bigmachine.run. At fig10's
   full-scale 28-thread point and at the 1024-CPU bigmachine config, every
   field both sides report must match bit for bit; otherwise the per-layer
   counts would describe a different program than the paper figures run.
   Exit code 1 on any mismatch. *)

open Tlbbench

let failures = ref 0

let check what ~lib ~driver =
  let ok = lib = driver in
  if not ok then incr failures;
  Printf.printf "  %-28s library %12d  driver %12d  %s\n" what lib driver
    (if ok then "ok" else "MISMATCH")

let driver_run setup =
  let p = Probe.create ~traced:false in
  let pr = setup p in
  Kernel.run pr.Cells.m;
  (pr, Cells.verify pr)

let storm seed =
  let cfg = Cells.storm_config ~seed in
  Printf.printf "storm = Sysbench.run, 28 threads, %d ops/thread, %d file pages, seed %Ld\n"
    cfg.Sysbench.ops_per_thread cfg.file_pages seed;
  let r = Sysbench.run cfg in
  let pr, c = driver_run (fun p -> Cells.setup_storm p cfg) in
  let get name = c.(Cells.counter_index name) in
  check "ops" ~lib:r.Sysbench.ops ~driver:(get "ops");
  check "cycles" ~lib:r.cycles ~driver:(get "sim.mean_completion");
  check "shootdowns" ~lib:r.shootdowns ~driver:(get "core.shootdowns");
  check "full_flush_fallbacks" ~lib:r.full_flush_fallbacks ~driver:(get "core.full_flush_fallbacks");
  check "batched_deferrals" ~lib:r.batched_deferrals ~driver:(get "core.batched_deferrals");
  check "engine_ops" ~lib:r.engine_ops ~driver:(Machine.engine_ops pr.Cells.m)

let churn seed =
  let cfg = Cells.churn_config ~seed in
  Printf.printf "churn-1024 = Bigmachine.run, default_config ~n_cpus:1024, seed %Ld\n" seed;
  let r = Bigmachine.run cfg in
  let pr, c = driver_run (fun p -> Cells.setup_churn p cfg) in
  let get name = c.(Cells.counter_index name) in
  check "ops" ~lib:r.Bigmachine.ops ~driver:(get "ops");
  check "shootdowns" ~lib:r.shootdowns ~driver:(get "core.shootdowns");
  check "ipis" ~lib:r.ipis ~driver:(get "hw.apic.ipis");
  check "icr_writes" ~lib:r.icr_writes ~driver:(get "hw.apic.icr_writes");
  check "churn_cycles" ~lib:r.churn_cycles ~driver:(get "churn.cycles");
  check "churns" ~lib:r.churns ~driver:(get "churn.count");
  check "engine_ops" ~lib:r.engine_ops ~driver:(Machine.engine_ops pr.Cells.m)

let () =
  (* fig10's first full-scale seed, and bigmachine's default seed. *)
  storm 23L;
  churn 37L;
  if !failures > 0 then begin
    Printf.printf "driver fidelity: %d mismatches\n" !failures;
    exit 1
  end;
  print_endline "driver fidelity: ok"
