(* Isolated host-time cost of the public functions each layer's hot path
   is made of, measured at the workloads' shapes. Multiplied by the layer
   counters a cell reports, these split a cell's host time per layer from
   outside the program; what they do not cover is reported as an explicit
   remainder. *)

let now = Unix.gettimeofday

let median a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* ns per call of [f i]: batches of [batch] calls, repeated for about
   0.12 s of host time (at least five batches), median batch. [f] is
   given the call index so it can walk precomputed inputs. *)
let ns_per ~batch f =
  let samples = ref [] in
  let start = now () in
  let i = ref 0 in
  while List.length !samples < 5 || now () -. start < 0.12 do
    let t0 = now () in
    for _ = 1 to batch do
      f !i;
      incr i
    done;
    samples := ((now () -. t0) *. 1e9 /. float_of_int batch) :: !samples
  done;
  median (Array.of_list !samples)

(* A fixed pseudo-random index stream, so timed loops do no RNG work. *)
let indices ~n ~bound =
  let rng = Rng.create ~seed:99L in
  Array.init n (fun _ -> Rng.int rng bound)

(* ----- hw.tlb at the STLB's 1536 entries ----- *)

let tlb_capacity = 1536
let pcid = 1

let entry vpn =
  {
    Tlb.vpn;
    pfn = vpn + 7;
    pcid;
    size = Tlb.Four_k;
    global = false;
    writable = true;
    fractured = false;
    ck_ver = -1;
  }

let full_tlb () =
  let t = Tlb.create ~capacity:tlb_capacity () in
  for vpn = 0 to tlb_capacity - 1 do
    Tlb.insert t (entry vpn)
  done;
  t

let tlb_hit () =
  let t = full_tlb () in
  let idx = indices ~n:4096 ~bound:tlb_capacity in
  ns_per ~batch:4096 (fun i -> ignore (Tlb.lookup t ~pcid ~vpn:idx.(i land 4095)))

let tlb_miss () =
  let t = full_tlb () in
  let idx = indices ~n:4096 ~bound:tlb_capacity in
  ns_per ~batch:4096 (fun i ->
      ignore (Tlb.lookup t ~pcid ~vpn:(tlb_capacity + idx.(i land 4095))))

(* Every insert lands in a full TLB and evicts the oldest entry: the ring
   of 8192 entries is much longer than the capacity. *)
let tlb_insert () =
  let t = full_tlb () in
  let ring = Array.init 8192 (fun k -> entry (tlb_capacity + k)) in
  ns_per ~batch:4096 (fun i -> Tlb.insert t ring.(i land 8191))

(* ----- mm.page_table at translate's 6144-page region ----- *)

let region = 6144
let base_vpn = 0x40000

let mapped_table () =
  let pt = Page_table.create () in
  for k = 0 to region - 1 do
    Page_table.map pt ~vpn:(base_vpn + k) ~size:Tlb.Four_k (Pte.user_data ~pfn:(k + 1))
  done;
  pt

let pt_walk () =
  let pt = mapped_table () in
  let idx = indices ~n:4096 ~bound:region in
  ns_per ~batch:4096 (fun i -> ignore (Page_table.walk pt ~vpn:(base_vpn + idx.(i land 4095))))

(* One map plus one table-freeing unmap of a page in a live table, churn's
   arena lifecycle: the region's last 16 pages are the arena. *)
let pt_map_unmap () =
  let pt = mapped_table () in
  let arena = base_vpn + region - 16 in
  ignore (Page_table.unmap_range pt ~vpn:arena ~pages:16 ~free_tables:true ());
  let pte = Pte.user_data ~pfn:3 in
  ns_per ~batch:1024 (fun i ->
      let vpn = arena + (i land 15) in
      Page_table.map pt ~vpn ~size:Tlb.Four_k pte;
      ignore (Page_table.unmap pt ~vpn ~free_tables:true ()))

(* ----- hw.cache: one line contended across the two sockets ----- *)

let cache_access () =
  let reg = Cache.create_registry Topology.paper_machine Costs.default in
  let line = Cache.create_line reg ~name:(lazy "bench") in
  ns_per ~batch:4096 (fun i ->
      ignore (if i land 1 = 0 then Cache.write line ~by:0 else Cache.read line ~by:14))

(* ----- sim: engine dispatch, clock advance, process switch ----- *)

(* The engine with 64 far-future events pending, a heap depth like a
   running machine's. *)
let busy_engine () =
  let e = Engine.create () in
  let noop = Engine.register_handler e (fun _ _ -> ()) in
  for k = 1 to 64 do
    Engine.schedule_tag e ~delay:(1_000_000_000 + k) ~tag:noop ~a:0 ~b:0
  done;
  (e, noop)

let engine_event () =
  let e, noop = busy_engine () in
  ns_per ~batch:4096 (fun _ ->
      Engine.schedule_tag e ~delay:1 ~tag:noop ~a:0 ~b:0;
      ignore (Engine.step e))

let engine_advance () =
  let e, _ = busy_engine () in
  ns_per ~batch:4096 (fun _ -> ignore (Engine.try_advance e ~cycles:1))

(* Two processes sleeping one cycle in turn: each sleep finds the other's
   wake-up pending, so every Process.delay is a real suspend plus resume
   through the effect handler and one engine event. *)
let process_switch () =
  let samples =
    Array.init 7 (fun _ ->
        let e = Engine.create () in
        let n = 10_000 in
        for k = 0 to 1 do
          Process.spawn e ~name:(Printf.sprintf "switch%d" k) (fun () ->
              for _ = 1 to n do
                Process.delay e 1
              done)
        done;
        let t0 = now () in
        Engine.run e;
        (now () -. t0) *. 1e9 /. float_of_int (2 * n))
  in
  median samples

(* ----- the shapes at 56 and 1024 CPUs ----- *)

(* storm's 28-CPU node, and churn's tenant 0 (8 CPUs on two sockets of
   the 1024-CPU machine). *)
let shape n_cpus =
  match n_cpus with
  | 56 ->
      let topo = Topology.paper_machine in
      (topo, Sysbench.node_cpus topo 28)
  | n ->
      let sockets, cores_per_socket, smt = Bigmachine.topo_of_cpus n in
      let topo = Topology.create ~sockets ~cores_per_socket ~smt in
      (topo, Array.to_list (Cells.assign_cpus topo ~tenants:6 ~threads_per_tenant:8).(0))

let cpuset_iter n_cpus =
  let topo, members = shape n_cpus in
  let s = Cpuset.create ~bits:(Topology.n_cpus topo) in
  List.iter (Cpuset.set s) members;
  let acc = ref 0 in
  let r = ns_per ~batch:4096 (fun _ -> Cpuset.iter (fun c -> acc := !acc + c) s) in
  ignore (Sys.opaque_identity !acc);
  r

(* ns per Apic.send_ipi_id from the shape's first CPU to the rest. The
   delivery events it schedules are drained outside the timed region, so
   this is the APIC's own cost (cluster grouping and one pooled event per
   target), not the dispatch that follows. *)
let apic_send n_cpus =
  let topo, members = shape n_cpus in
  let e = Engine.create () in
  let costs = Costs.default in
  let cpus =
    Array.init (Topology.n_cpus topo) (fun id -> Cpu.create e topo costs ~id ~safe:true ())
  in
  let apic = Apic.create e topo costs ~cpus in
  let irq_id =
    Apic.register_irq apic { Cpu.vector = 0xfd; maskable = true; handler = (fun _ -> ()) }
  in
  let from = List.hd members in
  let targets = Cpuset.of_list (List.tl members) in
  let batch = 32 in
  let samples =
    Array.init 41 (fun _ ->
        let t0 = now () in
        for _ = 1 to batch do
          ignore (Apic.send_ipi_id apic ~from ~targets ~irq_id)
        done;
        let dt = now () -. t0 in
        Engine.run e;
        dt *. 1e9 /. float_of_int batch)
  in
  (median samples, List.length members - 1)

(* Machine.create at the workloads' machine sizes, in ms. *)
let machine_create n_cpus =
  let sockets, cores_per_socket, smt = Bigmachine.topo_of_cpus n_cpus in
  let topo = Topology.create ~sockets ~cores_per_socket ~smt in
  let reps = if n_cpus > 256 then 5 else 15 in
  median
    (Array.init reps (fun _ ->
         let t0 = now () in
         ignore (Sys.opaque_identity (Machine.create ~topo ~opts:(Cells.opts ()) ~seed:1L ()));
         (now () -. t0) *. 1e3))
