(* The benchmark's workload drivers, written against the public Core API
   (Machine, Kernel, Access, Syscall, Cpu.compute). A cell is one
   self-contained simulation: [setup] builds the machine and spawns its
   threads, [run] is Kernel.run, [verify] checks the outcome and reads the
   layer counters.

   [storm] and [churn] follow Sysbench.run and Bigmachine.run call for
   call, so their simulated program is the one the paper figures run; the
   self-test (selftest.ml) holds them to that bit for bit. Every driver
   call is bracketed by Machine.now reads, which observe simulated time
   without moving it. *)

type workload = Storm | Translate | Churn

let workloads = [ ("storm", Storm); ("translate", Translate); ("churn-1024", Churn) ]
let workload_name w = fst (List.find (fun (_, w') -> w' = w) workloads)

(* All workloads run the paper backend with every optimisation: fig10's
   final "+batching" stack. *)
let opts () = Opts.all ~safe:true

(* ----- storm: fig10 sysbench at the full 28-thread NUMA node ----- *)

let storm_config ~seed =
  {
    (Sysbench.default_config ~opts:(opts ()) ~threads:28) with
    Sysbench.ops_per_thread = 288;
    file_pages = 4096;
    seed;
  }

(* Sysbench's per-write bookkeeping (sysbench.ml's think_cycles). *)
let storm_think = 800

(* ----- translate: private regions at 4x TLB reach ----- *)

type translate_config = {
  t_threads : int;
  t_region_pages : int;  (** per thread; 4x the 1536-entry STLB *)
  t_ops_per_thread : int;
  t_write_one_in : int;  (** 3:1 read:write *)
  t_think : int;
  t_seed : int64;
}

let translate_config ~seed =
  {
    t_threads = 8;
    t_region_pages = 6144;
    t_ops_per_thread = 20000;
    t_write_one_in = 4;
    t_think = 60;
    t_seed = seed;
  }

(* ----- churn-1024: bigmachine multi-tenant churn at 1024 CPUs ----- *)

let churn_config ~seed =
  { (Bigmachine.default_config ~opts:(opts ()) ~n_cpus:1024) with Bigmachine.seed }

(* Bigmachine's per-op bookkeeping (bigmachine.ml's think_cycles). *)
let churn_think = 600

(* Bigmachine.assign_cpus: tenant [t] on the socket pair (2t, 2t+1) mod S,
   cores before SMT siblings, one cursor per socket. *)
let assign_cpus topo ~tenants ~threads_per_tenant =
  let sockets = Topology.sockets topo in
  let cores = Topology.cores_per_socket topo in
  let physical = sockets * cores in
  let cursor = Array.make sockets 0 in
  Array.init tenants (fun t ->
      Array.init threads_per_tenant (fun i ->
          let s = ((2 * t) + (i mod 2)) mod sockets in
          let k = cursor.(s) in
          cursor.(s) <- k + 1;
          let core = k mod cores in
          let smt_thread = k / cores in
          if smt_thread >= Topology.smt topo then invalid_arg "churn: socket oversubscribed";
          (smt_thread * physical) + (s * cores) + core))

(* ----- instrumented calls ----- *)

let write p m ~cpu ~vaddr =
  let t0 = Machine.now m in
  Access.write m ~cpu ~vaddr;
  Probe.record p ~kind:Probe.k_write ~cpu t0 (Machine.now m)

let read p m ~cpu ~vaddr =
  let t0 = Machine.now m in
  Access.read m ~cpu ~vaddr;
  Probe.record p ~kind:Probe.k_read ~cpu t0 (Machine.now m)

let compute p m cpu_t ~cpu cycles =
  let t0 = Machine.now m in
  Cpu.compute cpu_t cycles;
  Probe.record p ~kind:Probe.k_compute ~cpu t0 (Machine.now m)

let touch p m ~cpu ~addr ~pages =
  let t0 = Machine.now m in
  Access.touch_range m ~cpu ~addr ~pages ~write:true;
  Probe.record p ~kind:Probe.k_touch ~cpu t0 (Machine.now m)

let syscall p m ~cpu ~kind f =
  let t0 = Machine.now m in
  let r = f () in
  Probe.record p ~kind ~cpu t0 (Machine.now m);
  r

(* ----- cells ----- *)

(* A cell between setup and run: the machine, the address spaces the
   driver made, and the threads' completion times as they finish. *)
type prepared = {
  m : Machine.t;
  created_at : float;  (** host time when Machine.create returned *)
  mms : Mm_struct.t list;
  finish : int list ref;
  ops : int ref;
  churn_cycles : int ref;  (** churn only: cycles inside madvise_dontneed *)
  churns : int ref;
}

let prepared ~created_at m mms =
  { m; created_at; mms; finish = ref []; ops = ref 0; churn_cycles = ref 0; churns = ref 0 }

let setup_storm p (c : Sysbench.config) =
  let m = Machine.create ~opts:c.opts ~seed:c.seed () in
  let created_at = Unix.gettimeofday () in
  let mm = Machine.new_mm m in
  let file = File.create m.Machine.frames ~name:"sysbench.dat" ~size_pages:c.file_pages in
  for index = 0 to c.file_pages - 1 do
    ignore (File.frame_of_page file ~index)
  done;
  let start_vpn = Mm_struct.alloc_va_range mm ~pages:c.file_pages () in
  Mm_struct.add_vma mm
    (Vma.make ~start_vpn ~pages:c.file_pages ~backing:(Vma.File_shared { file; offset = 0 }) ());
  let base_addr = Addr.addr_of_vpn start_vpn in
  let cpus = Sysbench.node_cpus m.Machine.topo c.threads in
  let pr = prepared ~created_at m [ mm ] in
  List.iteri
    (fun i cpu ->
      let rng = Rng.split m.Machine.rng in
      let sync_offset = i * c.sync_every / Stdlib.max 1 c.threads in
      Kernel.spawn_user m ~cpu ~mm ~name:(Printf.sprintf "sysbench%d" i) (fun () ->
          let cpu_t = Machine.cpu m cpu in
          for op = 1 to c.ops_per_thread do
            let page = Rng.int rng c.file_pages in
            write p m ~cpu ~vaddr:(base_addr + (page * Addr.page_size));
            compute p m cpu_t ~cpu (storm_think + Rng.int rng 200);
            incr pr.ops;
            if (op + sync_offset) mod c.sync_every = 0 then
              syscall p m ~cpu ~kind:Probe.k_fdatasync (fun () -> Syscall.fdatasync m ~cpu ~file)
          done;
          pr.finish := Machine.now m :: !(pr.finish)))
    cpus;
  pr

let setup_translate p c =
  let m = Machine.create ~opts:(opts ()) ~seed:c.t_seed () in
  let created_at = Unix.gettimeofday () in
  let cpus = Sysbench.node_cpus m.Machine.topo c.t_threads in
  (* One address space per thread: nothing is shared, so no flush, IPI or
     cacheline transfer can arise, and every cycle goes to translation. *)
  let mms = List.map (fun _ -> Machine.new_mm m) cpus in
  let pr = prepared ~created_at m mms in
  List.iteri
    (fun i (cpu, mm) ->
      let start_vpn = Mm_struct.alloc_va_range mm ~pages:c.t_region_pages () in
      Mm_struct.add_vma mm (Vma.make ~start_vpn ~pages:c.t_region_pages ~backing:Vma.Anonymous ());
      let base_addr = Addr.addr_of_vpn start_vpn in
      let rng = Rng.split m.Machine.rng in
      Kernel.spawn_user m ~cpu ~mm ~name:(Printf.sprintf "translate%d" i) (fun () ->
          let cpu_t = Machine.cpu m cpu in
          for _ = 1 to c.t_ops_per_thread do
            let vaddr = base_addr + (Rng.int rng c.t_region_pages * Addr.page_size) in
            if Rng.int rng c.t_write_one_in = 0 then write p m ~cpu ~vaddr
            else read p m ~cpu ~vaddr;
            compute p m cpu_t ~cpu (c.t_think + Rng.int rng 40);
            incr pr.ops
          done;
          pr.finish := Machine.now m :: !(pr.finish)))
    (List.combine cpus mms);
  pr

let setup_churn p (c : Bigmachine.config) =
  let topo =
    Topology.create ~sockets:c.sockets ~cores_per_socket:c.cores_per_socket ~smt:c.smt
  in
  let m = Machine.create ~topo ~opts:c.opts ~seed:c.seed () in
  let created_at = Unix.gettimeofday () in
  let placement =
    assign_cpus topo ~tenants:c.tenants ~threads_per_tenant:c.threads_per_tenant
  in
  let mms = ref [] in
  let pr = prepared ~created_at m [] in
  Array.iteri
    (fun t cpus ->
      let mm = Machine.new_mm m in
      mms := mm :: !mms;
      let file =
        File.create m.Machine.frames ~name:(Printf.sprintf "tenant%d.dat" t)
          ~size_pages:c.file_pages
      in
      let start_vpn = Mm_struct.alloc_va_range mm ~pages:c.file_pages () in
      Mm_struct.add_vma mm
        (Vma.make ~start_vpn ~pages:c.file_pages
           ~backing:(Vma.File_shared { file; offset = 0 })
           ());
      let base_addr = Addr.addr_of_vpn start_vpn in
      Array.iteri
        (fun i cpu ->
          let rng = Rng.split m.Machine.rng in
          Kernel.spawn_user m ~cpu ~mm ~name:(Printf.sprintf "tenant%d.%d" t i) (fun () ->
              let cpu_t = Machine.cpu m cpu in
              let mmap () =
                syscall p m ~cpu ~kind:Probe.k_mmap (fun () ->
                    Syscall.mmap m ~cpu ~pages:c.churn_pages ())
              in
              let arena = ref (mmap ()) in
              touch p m ~cpu ~addr:!arena ~pages:c.churn_pages;
              for op = 1 to c.ops_per_thread do
                let page = Rng.int rng c.file_pages in
                write p m ~cpu ~vaddr:(base_addr + (page * Addr.page_size));
                compute p m cpu_t ~cpu (churn_think + Rng.int rng 100);
                incr pr.ops;
                if (op + i) mod c.churn_every = 0 then begin
                  let t0 = Machine.now m in
                  syscall p m ~cpu ~kind:Probe.k_madvise (fun () ->
                      Syscall.madvise_dontneed m ~cpu ~addr:!arena ~pages:c.churn_pages);
                  pr.churn_cycles := !(pr.churn_cycles) + (Machine.now m - t0);
                  incr pr.churns;
                  syscall p m ~cpu ~kind:Probe.k_munmap (fun () ->
                      Syscall.munmap m ~cpu ~addr:!arena ~pages:c.churn_pages);
                  arena := mmap ();
                  touch p m ~cpu ~addr:!arena ~pages:c.churn_pages
                end
              done;
              pr.finish := Machine.now m :: !(pr.finish)))
        cpus)
    placement;
  { pr with mms = List.rev !mms }

(* ----- counters and verification ----- *)

(* The layer counters read after Kernel.run, in a fixed order. Together
   they are the cell's simulated digest: a cell whose digest differs
   between repeats, or between its timed and traced runs, has failed. *)
let counter_names =
  [|
    "sim.now"; "sim.mean_completion"; "sim.engine.events"; "sim.engine.advances";
    "ops"; "hw.tlb.hits"; "hw.tlb.misses"; "hw.tlb.insertions"; "hw.tlb.evictions";
    "hw.tlb.invalidations"; "hw.tlb.full_flushes"; "hw.cache.reads"; "hw.cache.writes";
    "hw.cache.transfers"; "hw.cache.cycles"; "hw.apic.ipis"; "hw.apic.icr_writes";
    "hw.cpu.irqs"; "hw.cpu.irq_cycles"; "mm.page_table.mutations";
    "mm.page_table.tables_freed"; "core.shootdowns"; "core.local_only_flushes";
    "core.ipis_skipped"; "core.flush_requests_skipped"; "core.full_flush_fallbacks";
    "core.batched_deferrals"; "core.in_context_deferrals"; "core.faults";
    "core.checker.checks"; "churn.cycles"; "churn.count";
  |]

let n_counters = Array.length counter_names

let counter_index name =
  let rec go i =
    if i = n_counters then invalid_arg ("Cells.counter_index: " ^ name)
    else if String.equal counter_names.(i) name then i
    else go (i + 1)
  in
  go 0

let counters pr =
  let m = pr.m in
  let tlb = Array.make 6 0 in
  let irqs = ref 0 and irq_cycles = ref 0 in
  for cpu = 0 to Machine.n_cpus m - 1 do
    let c = Machine.cpu m cpu in
    let s = Tlb.stats (Cpu.tlb c) in
    tlb.(0) <- tlb.(0) + s.Tlb.hits;
    tlb.(1) <- tlb.(1) + s.misses;
    tlb.(2) <- tlb.(2) + s.insertions;
    tlb.(3) <- tlb.(3) + s.evictions;
    tlb.(4) <- tlb.(4) + s.invlpg_ops + s.invpcid_ops;
    tlb.(5) <- tlb.(5) + s.full_flushes;
    irqs := !irqs + Cpu.irqs_handled c;
    irq_cycles := !irq_cycles + Cpu.interrupted_cycles c
  done;
  let ct = Cache.totals m.Machine.registry in
  let pts = List.map Mm_struct.page_table pr.mms in
  let sum f = List.fold_left (fun acc pt -> acc + f pt) 0 pts in
  let st = m.Machine.stats in
  let mean_completion =
    match !(pr.finish) with
    | [] -> Machine.now m
    | ts -> List.fold_left ( + ) 0 ts / List.length ts
  in
  [|
    Machine.now m; mean_completion; Engine.events_run m.Machine.engine;
    Engine.advances m.Machine.engine; !(pr.ops); tlb.(0); tlb.(1); tlb.(2); tlb.(3); tlb.(4);
    tlb.(5); ct.Cache.reads; ct.writes;
    ct.smt_transfers + ct.same_socket_transfers + ct.cross_socket_transfers; ct.cycles;
    Apic.ipis_sent m.Machine.apic; Apic.icr_writes m.Machine.apic; !irqs; !irq_cycles;
    sum Page_table.version; sum Page_table.tables_freed; st.Machine.shootdowns;
    st.local_only_flushes; st.ipis_skipped_lazy + st.ipis_skipped_batched;
    st.flush_requests_skipped; st.full_flush_fallbacks; st.batched_deferrals;
    st.in_context_deferrals; st.faults; Checker.checks m.Machine.checker; !(pr.churn_cycles);
    !(pr.churns);
  |]

exception Violation of string

(* Raises [Violation] when the checker saw a stale TLB hit. *)
let verify pr =
  match Checker.violations pr.m.Machine.checker with
  | [] -> counters pr
  | v :: _ -> raise (Violation (Format.asprintf "%a" Checker.pp_violation v))

(* ----- the workloads as sets of cells ----- *)

type cell = { workload : workload; index : int; seed : int64 }

(* Cells per pass of a workload: chosen so one pass takes about a second
   of host time on a 2-core host. *)
let cells_per_pass = function Storm -> 3 | Translate -> 4 | Churn -> 6

(* Cell [i] of a workload under benchmark seed [seed]: a splitmix64 step
   keeps neighbouring benchmark seeds' cells unrelated. *)
let cells workload ~seed =
  List.init (cells_per_pass workload) (fun index ->
      let rng = Rng.create ~seed:(Int64.add (Int64.mul 1_000_003L seed) (Int64.of_int index)) in
      let seed = Int64.of_int (Rng.int rng 1_000_000_000) in
      { workload; index; seed })

let setup p cell =
  match cell.workload with
  | Storm -> setup_storm p (storm_config ~seed:cell.seed)
  | Translate -> setup_translate p (translate_config ~seed:cell.seed)
  | Churn -> setup_churn p (churn_config ~seed:cell.seed)
