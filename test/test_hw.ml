(* Unit tests for the hardware model: Topology, Costs, Cache, Tlb, Cpu,
   Apic. *)

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

let dist_t =
  Alcotest.testable Topology.pp_distance (fun a b -> a = b)

(* --- Topology --- *)

let test_topology_sizes () =
  let t = Topology.paper_machine in
  check int_t "56 logical CPUs" 56 (Topology.n_cpus t);
  check int_t "sockets" 2 (Topology.sockets t);
  let flat = Topology.flat 4 in
  check int_t "flat n_cpus" 4 (Topology.n_cpus flat)

let test_topology_socket_mapping () =
  let t = Topology.paper_machine in
  check int_t "cpu0 on socket 0" 0 (Topology.socket_of t 0);
  check int_t "cpu13 on socket 0" 0 (Topology.socket_of t 13);
  check int_t "cpu14 on socket 1" 1 (Topology.socket_of t 14);
  check int_t "cpu27 on socket 1" 1 (Topology.socket_of t 27);
  (* SMT siblings (28..55) mirror the first 28. *)
  check int_t "cpu28 on socket 0" 0 (Topology.socket_of t 28);
  check int_t "cpu42 on socket 1" 1 (Topology.socket_of t 42)

let test_topology_smt_sibling () =
  let t = Topology.paper_machine in
  check (Alcotest.option int_t) "sibling of 0" (Some 28) (Topology.smt_sibling_of t 0);
  check (Alcotest.option int_t) "sibling of 28" (Some 0) (Topology.smt_sibling_of t 28);
  check (Alcotest.option int_t) "sibling of 14" (Some 42) (Topology.smt_sibling_of t 14);
  let flat = Topology.flat 4 in
  check (Alcotest.option int_t) "no SMT" None (Topology.smt_sibling_of flat 2)

let test_topology_distance () =
  let t = Topology.paper_machine in
  check dist_t "self" Topology.Self (Topology.distance t 3 3);
  check dist_t "smt" Topology.Smt_sibling (Topology.distance t 0 28);
  check dist_t "same socket" Topology.Same_socket (Topology.distance t 0 1);
  check dist_t "same socket across threads" Topology.Same_socket (Topology.distance t 0 29);
  check dist_t "cross socket" Topology.Cross_socket (Topology.distance t 0 14)

let test_topology_clusters () =
  let t = Topology.paper_machine in
  (* APIC ids pack SMT in bit 0: cpu0 -> 0, cpu28 -> 1 (same cluster). *)
  check int_t "cpu0 cluster" (Topology.cluster_of t 0) (Topology.cluster_of t 28);
  (* 14 cores x 2 threads = 28 APIC ids per socket: crosses the 16 boundary. *)
  check bool_t "socket 0 spans clusters" true
    (Topology.cluster_of t 0 <> Topology.cluster_of t 13);
  (* 16 APIC ids per cluster: cores 0-7 with their siblings, then 8-15. *)
  check int_t "core 7 shares cpu0's cluster" (Topology.cluster_of t 0)
    (Topology.cluster_of t 7);
  check int_t "core 8 starts the next cluster"
    (Topology.cluster_of t 0 + 1)
    (Topology.cluster_of t 8)

let test_topology_cpus_of_socket () =
  let t = Topology.paper_machine in
  check (Alcotest.list int_t) "socket 0 primaries"
    (List.init 14 Fun.id)
    (Topology.cpus_of_socket t 0);
  check (Alcotest.list int_t) "socket 1 primaries"
    (List.init 14 (fun i -> 14 + i))
    (Topology.cpus_of_socket t 1)

let test_topology_bounds () =
  let t = Topology.flat 2 in
  Alcotest.check_raises "out of range" (Invalid_argument "Topology: cpu 2 out of range [0,2)")
    (fun () -> ignore (Topology.socket_of t 2))

(* --- Costs --- *)

let test_costs_monotone_distance () =
  let c = Costs.default in
  check bool_t "ipi grows with distance" true
    (Costs.ipi_latency c Topology.Smt_sibling < Costs.ipi_latency c Topology.Same_socket
    && Costs.ipi_latency c Topology.Same_socket < Costs.ipi_latency c Topology.Cross_socket);
  check bool_t "lines grow with distance" true
    (Costs.line_transfer c Topology.Self < Costs.line_transfer c Topology.Same_socket
    && Costs.line_transfer c Topology.Same_socket < Costs.line_transfer c Topology.Cross_socket)

let test_costs_mode_asymmetry () =
  let c = Costs.default in
  check bool_t "safe entry dearer" true
    (Costs.syscall_entry c ~safe:true > Costs.syscall_entry c ~safe:false);
  check bool_t "user irq entry dearer in safe mode" true
    (Costs.irq_entry c ~safe:true ~from_user:true > Costs.irq_entry c ~safe:true ~from_user:false);
  check bool_t "invpcid slower than invlpg" true (c.Costs.invpcid_single > c.Costs.invlpg)

(* --- Cache --- *)

let make_cache () =
  Cache.create_registry Topology.paper_machine Costs.default

let test_cache_first_touch_local () =
  let reg = make_cache () in
  let l = Cache.create_line reg ~name:(lazy "x") in
  check int_t "first read local" Costs.default.Costs.line_local (Cache.read l ~by:0);
  check int_t "second read local" Costs.default.Costs.line_local (Cache.read l ~by:0)

let test_cache_remote_read_costs_transfer () =
  let reg = make_cache () in
  let l = Cache.create_line reg ~name:(lazy "x") in
  ignore (Cache.write l ~by:0);
  check int_t "cross-socket read" Costs.default.Costs.line_cross_socket (Cache.read l ~by:14);
  (* Now shared: reading again is local. *)
  check int_t "now cached" Costs.default.Costs.line_local (Cache.read l ~by:14)

let test_cache_write_invalidates_sharers () =
  let reg = make_cache () in
  let l = Cache.create_line reg ~name:(lazy "x") in
  ignore (Cache.write l ~by:0);
  ignore (Cache.read l ~by:14);
  (* A plain store retires through the store buffer: local cost for the
     writer, but the cross-socket sharer is invalidated. *)
  check int_t "write is local for the writer" Costs.default.Costs.line_local
    (Cache.write l ~by:1);
  (* A stalling write (or atomic) pays the farthest holder. *)
  ignore (Cache.read l ~by:14);
  check int_t "stalling write pays farthest" Costs.default.Costs.line_cross_socket
    (Cache.stalling_write l ~by:1);
  (* 14 lost the line either way. *)
  check int_t "14 re-reads remotely" Costs.default.Costs.line_cross_socket
    (Cache.read l ~by:14)

let test_cache_exclusive_write_is_local () =
  let reg = make_cache () in
  let l = Cache.create_line reg ~name:(lazy "x") in
  ignore (Cache.write l ~by:5);
  check int_t "exclusive rewrite local" Costs.default.Costs.line_local (Cache.write l ~by:5)

let test_cache_atomic_cost () =
  let reg = make_cache () in
  let l = Cache.create_line reg ~name:(lazy "x") in
  ignore (Cache.write l ~by:0);
  let expected = Costs.default.Costs.line_cross_socket + Costs.default.Costs.atomic_op in
  check int_t "atomic = write + lock" expected (Cache.atomic l ~by:14)

let test_cache_totals () =
  let reg = make_cache () in
  let l = Cache.create_line reg ~name:(lazy "x") in
  ignore (Cache.write l ~by:0);
  ignore (Cache.read l ~by:14);
  ignore (Cache.read l ~by:1);
  let t = Cache.totals reg in
  check int_t "writes" 1 t.Cache.writes;
  check int_t "reads" 2 t.Cache.reads;
  check int_t "cross transfers" 1 t.Cache.cross_socket_transfers;
  check int_t "same-socket transfers" 1 t.Cache.same_socket_transfers;
  Cache.reset_stats reg;
  check int_t "reset" 0 (Cache.totals reg).Cache.reads

(* --- Tlb --- *)

let entry ?(pcid = 1) ?(global = false) ?(size = Tlb.Four_k) ?(fractured = false)
    ?(writable = true) ~vpn ~pfn () =
  { Tlb.vpn; pfn; pcid; size; global; writable; fractured; ck_ver = -1 }

let test_tlb_hit_miss () =
  let t = Tlb.create () in
  check int_t "miss" (-1) (Tlb.lookup t ~pcid:1 ~vpn:100);
  Tlb.insert t (entry ~vpn:100 ~pfn:5 ());
  let row = Tlb.lookup t ~pcid:1 ~vpn:100 in
  if row < 0 then Alcotest.fail "expected hit";
  check int_t "pfn" 5 (Tlb.pfn t row);
  let s = Tlb.stats t in
  check int_t "one hit" 1 s.Tlb.hits;
  check int_t "one miss" 1 s.Tlb.misses

let test_tlb_pcid_isolation () =
  let t = Tlb.create () in
  Tlb.insert t (entry ~pcid:1 ~vpn:100 ~pfn:5 ());
  check bool_t "other pcid misses" true (Tlb.lookup t ~pcid:2 ~vpn:100 < 0)

let test_tlb_global_matches_any_pcid () =
  let t = Tlb.create () in
  Tlb.insert t (entry ~pcid:1 ~global:true ~vpn:200 ~pfn:9 ());
  check bool_t "hit under pcid 7" true (Tlb.lookup t ~pcid:7 ~vpn:200 >= 0)

let test_tlb_huge_covers_4k_lookups () =
  let t = Tlb.create () in
  Tlb.insert t (entry ~size:Tlb.Two_m ~vpn:1024 ~pfn:4096 ());
  check bool_t "base hit" true (Tlb.lookup t ~pcid:1 ~vpn:1024 >= 0);
  check bool_t "offset hit" true (Tlb.lookup t ~pcid:1 ~vpn:(1024 + 511) >= 0);
  check bool_t "outside misses" true (Tlb.lookup t ~pcid:1 ~vpn:(1024 + 512) < 0)

let test_tlb_invlpg_selective () =
  let t = Tlb.create () in
  Tlb.insert t (entry ~vpn:1 ~pfn:11 ());
  Tlb.insert t (entry ~vpn:2 ~pfn:12 ());
  Tlb.invlpg t ~current_pcid:1 ~vpn:1;
  check bool_t "vpn1 gone" false (Tlb.mem t ~pcid:1 ~vpn:1);
  check bool_t "vpn2 stays" true (Tlb.mem t ~pcid:1 ~vpn:2)

let test_tlb_invlpg_drops_globals_and_pwc () =
  let t = Tlb.create () in
  Tlb.insert t (entry ~global:true ~vpn:3 ~pfn:13 ());
  Tlb.warm_pwc t;
  Tlb.invlpg t ~current_pcid:1 ~vpn:3;
  check bool_t "global gone" false (Tlb.mem t ~pcid:1 ~vpn:3);
  check bool_t "pwc cooled" false (Tlb.pwc_warm t)

let test_tlb_invpcid_keeps_pwc () =
  let t = Tlb.create () in
  Tlb.insert t (entry ~pcid:4 ~vpn:3 ~pfn:13 ());
  Tlb.warm_pwc t;
  Tlb.invpcid_addr t ~pcid:4 ~vpn:3;
  check bool_t "entry gone" false (Tlb.mem t ~pcid:4 ~vpn:3);
  check bool_t "pwc still warm" true (Tlb.pwc_warm t)

let test_tlb_cr3_flush_spares_globals () =
  let t = Tlb.create () in
  Tlb.insert t (entry ~pcid:1 ~vpn:1 ~pfn:1 ());
  Tlb.insert t (entry ~pcid:1 ~global:true ~vpn:2 ~pfn:2 ());
  Tlb.insert t (entry ~pcid:2 ~vpn:3 ~pfn:3 ());
  Tlb.cr3_flush t ~pcid:1;
  check bool_t "pcid1 non-global gone" false (Tlb.mem t ~pcid:1 ~vpn:1);
  check bool_t "global survives" true (Tlb.mem t ~pcid:1 ~vpn:2);
  check bool_t "pcid2 untouched" true (Tlb.mem t ~pcid:2 ~vpn:3)

let test_tlb_capacity_eviction () =
  let t = Tlb.create ~capacity:4 () in
  for i = 0 to 9 do
    Tlb.insert t (entry ~vpn:i ~pfn:i ())
  done;
  check bool_t "bounded" true (Tlb.occupancy t <= 4);
  check bool_t "newest present" true (Tlb.mem t ~pcid:1 ~vpn:9);
  check bool_t "oldest evicted" false (Tlb.mem t ~pcid:1 ~vpn:0);
  check bool_t "evictions counted" true ((Tlb.stats t).Tlb.evictions >= 6)

let test_tlb_fracture_promotion () =
  let t = Tlb.create () in
  Tlb.insert t (entry ~vpn:1 ~pfn:1 ());
  Tlb.insert t (entry ~fractured:true ~vpn:2 ~pfn:2 ());
  check bool_t "flag set" true (Tlb.fracture_flag t);
  (* Selective flush of an unrelated address nukes everything. *)
  Tlb.invlpg t ~current_pcid:1 ~vpn:999;
  check bool_t "vpn1 gone too" false (Tlb.mem t ~pcid:1 ~vpn:1);
  check bool_t "vpn2 gone" false (Tlb.mem t ~pcid:1 ~vpn:2);
  check bool_t "flag cleared" false (Tlb.fracture_flag t);
  check int_t "promotion counted" 1 (Tlb.stats t).Tlb.fracture_full_flushes

let test_tlb_drop_no_side_effects () =
  let t = Tlb.create () in
  Tlb.insert t (entry ~fractured:true ~vpn:2 ~pfn:2 ());
  Tlb.insert t (entry ~vpn:3 ~pfn:3 ());
  Tlb.warm_pwc t;
  Tlb.drop t ~pcid:1 ~vpn:2;
  check bool_t "dropped" false (Tlb.mem t ~pcid:1 ~vpn:2);
  check bool_t "other survives" true (Tlb.mem t ~pcid:1 ~vpn:3);
  check bool_t "pwc warm" true (Tlb.pwc_warm t);
  check int_t "no promotion" 0 (Tlb.stats t).Tlb.fracture_full_flushes

let test_tlb_flush_all () =
  let t = Tlb.create () in
  Tlb.insert t (entry ~vpn:1 ~pfn:1 ());
  Tlb.insert t (entry ~global:true ~vpn:2 ~pfn:2 ());
  Tlb.flush_all t;
  check int_t "empty" 0 (Tlb.occupancy t);
  check int_t "counted" 1 (Tlb.stats t).Tlb.full_flushes

(* Regression: a key invalidated and later re-inserted used to keep its
   original (now dead) slot near the head of the FIFO queue, so the next
   eviction removed the brand-new entry instead of the oldest live one. *)
let test_tlb_reinsert_after_invalidate_is_youngest () =
  let t = Tlb.create ~capacity:4 () in
  for i = 1 to 4 do
    Tlb.insert t (entry ~vpn:i ~pfn:i ())
  done;
  Tlb.drop t ~pcid:1 ~vpn:1;
  Tlb.insert t (entry ~vpn:1 ~pfn:11 ());
  check int_t "full again" 4 (Tlb.occupancy t);
  (* Inserting a fifth key must evict vpn 2 (the oldest live entry), not
     the just-re-inserted vpn 1. *)
  Tlb.insert t (entry ~vpn:5 ~pfn:5 ());
  check bool_t "re-inserted key survives" true (Tlb.mem t ~pcid:1 ~vpn:1);
  check bool_t "oldest live key evicted" false (Tlb.mem t ~pcid:1 ~vpn:2);
  check bool_t "vpn3 stays" true (Tlb.mem t ~pcid:1 ~vpn:3);
  check bool_t "vpn4 stays" true (Tlb.mem t ~pcid:1 ~vpn:4);
  check bool_t "new key present" true (Tlb.mem t ~pcid:1 ~vpn:5);
  check int_t "exactly one eviction" 1 (Tlb.stats t).Tlb.evictions;
  check int_t "occupancy exact" 4 (Tlb.occupancy t)

(* Reference model for [Tlb]: non-global entries oldest first (FIFO, the
   eviction order) and globals in insertion order, outside capacity. An
   insert overwrites the entry with the same key in place; a new
   non-global key at capacity evicts the head. *)
type tlb_model = {
  cap : int;
  mutable locals : Tlb.entry list;
  mutable globals : Tlb.entry list;
}

let model_tag (e : Tlb.entry) =
  match e.Tlb.size with Tlb.Four_k -> e.Tlb.vpn | Tlb.Two_m -> e.Tlb.vpn lsr 9

let same_key (a : Tlb.entry) (b : Tlb.entry) =
  a.Tlb.size = b.Tlb.size
  && model_tag a = model_tag b
  && (a.Tlb.global || a.Tlb.pcid = b.Tlb.pcid)

let model_insert m (e : Tlb.entry) =
  let put l =
    if List.exists (same_key e) l then
      Some (List.map (fun x -> if same_key e x then e else x) l)
    else None
  in
  if e.Tlb.global then
    m.globals <- (match put m.globals with Some l -> l | None -> m.globals @ [ e ])
  else
    m.locals <-
      (match put m.locals with
      | Some l -> l
      | None ->
          let room = if List.length m.locals >= m.cap then List.tl m.locals else m.locals in
          room @ [ e ])

(* Does [e] translate [vpn] at [size]? *)
let covers size vpn (e : Tlb.entry) =
  e.Tlb.size = size
  && match size with Tlb.Four_k -> e.Tlb.vpn = vpn | Tlb.Two_m -> model_tag e = vpn lsr 9

(* Probe order: 4K, global 4K, 2M, global 2M. *)
let model_find m ~pcid ~vpn =
  let local size =
    List.find_opt (fun e -> e.Tlb.pcid = pcid && covers size vpn e) m.locals
  in
  let global size = List.find_opt (covers size vpn) m.globals in
  match local Tlb.Four_k with
  | Some _ as r -> r
  | None -> (
      match global Tlb.Four_k with
      | Some _ as r -> r
      | None -> ( match local Tlb.Two_m with Some _ as r -> r | None -> global Tlb.Two_m))

let model_drop m ~pcid ~vpn ~globals =
  let hit e = covers Tlb.Four_k vpn e || covers Tlb.Two_m vpn e in
  m.locals <- List.filter (fun e -> not (e.Tlb.pcid = pcid && hit e)) m.locals;
  if globals then m.globals <- List.filter (fun e -> not (hit e)) m.globals

(* After every operation the TLB must agree with the model on occupancy,
   on [entries] (contents and order), and on every lookup in the domain,
   read back through the row accessors. *)
let check_against_model ~step t m ~pcids ~vpns =
  if Tlb.occupancy t <> List.length m.locals + List.length m.globals then
    Alcotest.failf "step %d: occupancy %d, model %d" step (Tlb.occupancy t)
      (List.length m.locals + List.length m.globals);
  if Tlb.entries t <> m.locals @ m.globals then
    Alcotest.failf "step %d: entries differ" step;
  List.iter
    (fun pcid ->
      List.iter
        (fun vpn ->
          let row = Tlb.lookup t ~pcid ~vpn in
          match model_find m ~pcid ~vpn with
          | None -> if row >= 0 then Alcotest.failf "step %d: (%d,%d) present" step pcid vpn
          | Some e ->
              if row < 0 then Alcotest.failf "step %d: (%d,%d) missing" step pcid vpn;
              if
                Tlb.vpn t row <> e.Tlb.vpn
                || Tlb.pfn t row <> e.Tlb.pfn
                || Tlb.writable t row <> e.Tlb.writable
              then Alcotest.failf "step %d: (%d,%d) row disagrees" step pcid vpn)
        vpns)
    pcids

(* Random inserts/overwrites/invalidations/flushes of 4K, 2M and global
   entries against the model, at capacities 1-4 and 8. Vpns span three
   2 MiB regions so hugepages cover, and are shadowed by, 4K entries. *)
let test_tlb_random_vs_fifo_model () =
  let pcids = [ 1; 2 ] in
  let vpns = List.concat_map (fun r -> List.init 6 (fun o -> (r * 512) + o)) [ 0; 1; 2 ] in
  let r = Rng.create ~seed:0xF1F0L in
  List.iter
    (fun cap ->
      let t = Tlb.create ~capacity:cap () in
      let m = { cap; locals = []; globals = [] } in
      for step = 1 to 3000 do
        let pcid = 1 + Rng.int r 2 and region = Rng.int r 3 in
        let vpn = (region * 512) + Rng.int r 6 in
        (match Rng.int r 24 with
        | 14 | 15 ->
            Tlb.drop t ~pcid ~vpn;
            model_drop m ~pcid ~vpn ~globals:false
        | 16 | 17 ->
            Tlb.invlpg t ~current_pcid:pcid ~vpn;
            model_drop m ~pcid ~vpn ~globals:true
        | 18 | 19 ->
            Tlb.invpcid_addr t ~pcid ~vpn;
            model_drop m ~pcid ~vpn ~globals:false
        | 20 | 21 as op ->
            if op = 20 then Tlb.flush_pcid t ~pcid else Tlb.cr3_flush t ~pcid;
            m.locals <- List.filter (fun e -> e.Tlb.pcid <> pcid) m.locals
        | 22 ->
            Tlb.flush_all t;
            m.locals <- [];
            m.globals <- []
        | _ ->
            let huge = Rng.int r 6 = 0 and global = Rng.int r 6 = 0 in
            let e =
              entry ~pcid ~global
                ~size:(if huge then Tlb.Two_m else Tlb.Four_k)
                ~writable:(Rng.int r 2 = 0)
                ~vpn:(if huge then region * 512 else vpn)
                ~pfn:(Rng.int r 100_000) ()
            in
            Tlb.insert t e;
            model_insert m e);
        check_against_model ~step t m ~pcids ~vpns
      done)
    [ 1; 2; 3; 4; 8 ]

(* 6000 distinct keys through a 2048-entry TLB, with a third of them
   dropped again in random order: the index grows from its initial 16
   slots to 8192 and thousands of backward-shift deletes run over it,
   clusters wrapping past the table's end included. Keys are distinct and
   never re-inserted, so FIFO order is insertion order over live keys. *)
let test_tlb_many_keys_vs_model () =
  let cap = 2048 and n = 6000 in
  let t = Tlb.create ~capacity:cap () in
  let r = Rng.create ~seed:0x5EEDL in
  let pcid = Array.init n (fun _ -> Rng.int r 4096) in
  let live = Array.make n false in
  let oldest = ref 0 and n_live = ref 0 and evictions = ref 0 in
  let check_all step =
    if Tlb.occupancy t <> !n_live then
      Alcotest.failf "step %d: occupancy %d, model %d" step (Tlb.occupancy t) !n_live;
    for k = 0 to n - 1 do
      let row = Tlb.lookup t ~pcid:pcid.(k) ~vpn:k in
      if (row >= 0) <> live.(k) then
        Alcotest.failf "step %d: key %d %s" step k
          (if live.(k) then "missing" else "present");
      if row >= 0 && Tlb.pfn t row <> k + 7 then Alcotest.failf "step %d: key %d pfn" step k
    done
  in
  for k = 0 to n - 1 do
    if !n_live >= cap then begin
      while not live.(!oldest) do incr oldest done;
      live.(!oldest) <- false;
      decr n_live;
      incr evictions
    end;
    Tlb.insert t (entry ~pcid:pcid.(k) ~vpn:k ~pfn:(k + 7) ());
    live.(k) <- true;
    incr n_live;
    if k mod 3 = 2 then begin
      let victim = Rng.int r (k + 1) in
      Tlb.drop t ~pcid:pcid.(victim) ~vpn:victim;
      if live.(victim) then begin
        live.(victim) <- false;
        decr n_live
      end
    end;
    if k mod 1000 = 999 then check_all k
  done;
  check_all n;
  check int_t "evictions" !evictions (Tlb.stats t).Tlb.evictions

(* Every entry point rejects a pcid outside 12 bits: packed into the key
   unchecked, pcid 4097 would alias (pcid 1, vpn + 1). *)
let test_tlb_pcid_range () =
  let t = Tlb.create () in
  Tlb.insert t (entry ~pcid:1 ~vpn:101 ~pfn:5 ());
  let rejects name f =
    List.iter
      (fun pcid ->
        match f pcid with
        | () -> Alcotest.failf "%s accepted pcid %d" name pcid
        | exception Invalid_argument _ -> ())
      [ -1; 4096; 4097 ]
  in
  rejects "lookup" (fun pcid -> ignore (Tlb.lookup t ~pcid ~vpn:100 : int));
  rejects "mem" (fun pcid -> ignore (Tlb.mem t ~pcid ~vpn:100 : bool));
  rejects "insert" (fun pcid -> Tlb.insert t (entry ~pcid ~vpn:100 ~pfn:5 ()));
  rejects "invlpg" (fun pcid -> Tlb.invlpg t ~current_pcid:pcid ~vpn:100);
  rejects "invpcid_addr" (fun pcid -> Tlb.invpcid_addr t ~pcid ~vpn:100);
  rejects "drop" (fun pcid -> Tlb.drop t ~pcid ~vpn:100);
  rejects "flush_pcid" (fun pcid -> Tlb.flush_pcid t ~pcid);
  rejects "cr3_flush" (fun pcid -> Tlb.cr3_flush t ~pcid);
  check bool_t "entry untouched" true (Tlb.mem t ~pcid:1 ~vpn:101);
  check int_t "no lookups counted" 0 (let s = Tlb.stats t in s.Tlb.hits + s.Tlb.misses);
  check int_t "pcid 4095 accepted" (-1) (Tlb.lookup t ~pcid:4095 ~vpn:100)

(* The fast path allocates nothing: lookups, hit or miss, and inserts that
   evict at capacity (the caller's records are built before measuring). *)
let test_tlb_no_allocation () =
  let cap = 64 and n = 10_000 in
  let t = Tlb.create ~capacity:cap () in
  let ring = Array.init (4 * cap) (fun i -> entry ~vpn:i ~pfn:i ()) in
  Array.iter (Tlb.insert t) ring;
  let words f =
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before
  in
  let baseline = words ignore in
  let per_op f = (words f -. baseline) /. float_of_int n in
  (* The last [cap] ring entries are resident, the first [cap] are not. *)
  let hits =
    per_op (fun () ->
        for i = 1 to n do
          ignore (Tlb.lookup t ~pcid:1 ~vpn:((4 * cap) - 1 - (i land 63)) : int)
        done)
  in
  let misses =
    per_op (fun () ->
        for i = 1 to n do
          ignore (Tlb.lookup t ~pcid:1 ~vpn:(i land 63) : int)
        done)
  in
  let inserts =
    per_op (fun () ->
        for i = 1 to n do
          Tlb.insert t ring.(i land ((4 * cap) - 1))
        done)
  in
  check bool_t "hits are hits" true ((Tlb.stats t).Tlb.hits >= n);
  check bool_t "inserts evicted" true ((Tlb.stats t).Tlb.evictions >= n);
  check (Alcotest.float 0.) "words per hit" 0. hits;
  check (Alcotest.float 0.) "words per miss" 0. misses;
  check (Alcotest.float 0.) "words per insert" 0. inserts

(* --- Cpu + Apic --- *)

let make_machine_parts () =
  let e = Engine.create () in
  let topo = Topology.paper_machine in
  let c = Costs.default in
  let cpus =
    Array.init (Topology.n_cpus topo) (fun id ->
        Cpu.create e topo c ~id ~safe:false ())
  in
  let apic = Apic.create e topo c ~cpus in
  (e, topo, c, cpus, apic)

(* Register [irq] and send it from [from] to [targets] on the pooled path;
   returns the cost the sender pays. *)
let send_irq apic ~from ~targets irq =
  Apic.send_ipi_id apic ~from ~targets:(Cpuset.of_list targets)
    ~irq_id:(Apic.register_irq apic irq)

let test_cpu_compute_accounting () =
  let e, _, _, cpus, _ = make_machine_parts () in
  Process.spawn e ~name:"worker" (fun () -> Cpu.compute cpus.(0) 1000);
  Engine.run e;
  check int_t "time advanced" 1000 (Engine.now e);
  check int_t "compute recorded" 1000 (Cpu.compute_cycles cpus.(0))

let test_ipi_delivery_and_interruption () =
  let e, _, c, cpus, apic = make_machine_parts () in
  let handled = ref false in
  Process.spawn e ~name:"sender" (fun () ->
      let cost =
        send_irq apic ~from:0 ~targets:[ 14 ]
          {
            Cpu.vector = 1;
            maskable = true;
            handler =
              (fun cpu ->
                handled := true;
                Process.delay e 500;
                ignore cpu);
          }
      in
      Process.delay e cost);
  Process.spawn e ~name:"responder" (fun () -> Cpu.compute cpus.(14) 20_000);
  Engine.run e;
  check bool_t "handled" true !handled;
  check int_t "one irq" 1 (Cpu.irqs_handled cpus.(14));
  let expected_min = 500 + Costs.irq_entry c ~safe:false ~from_user:true + c.Costs.irq_exit in
  check bool_t "interruption includes entry+handler+exit" true
    (Cpu.interrupted_cycles cpus.(14) >= expected_min)

let test_irq_masking_defers () =
  let e, _, _, cpus, apic = make_machine_parts () in
  let handled_at = ref (-1) in
  let target = cpus.(1) in
  Process.spawn e ~name:"receiver" (fun () ->
      Cpu.irq_disable target;
      Cpu.compute target 5_000;
      (* IRQ arrives during this window but must wait. *)
      Cpu.irq_enable target);
  Process.spawn e ~name:"sender" (fun () ->
      Process.delay e 100;
      ignore
        (send_irq apic ~from:0 ~targets:[ 1 ]
           {
             Cpu.vector = 2;
             maskable = true;
             handler = (fun _ -> handled_at := Engine.now e);
           }));
  Engine.run e;
  check bool_t "deferred past mask window" true (!handled_at >= 5_000)

let test_nmi_bypasses_mask () =
  let e, _, _, cpus, _ = make_machine_parts () in
  let handled = ref false in
  let target = cpus.(2) in
  Process.spawn e ~name:"receiver" (fun () ->
      Cpu.irq_disable target;
      Cpu.post_irq target
        { Cpu.vector = 2; maskable = false; handler = (fun _ -> handled := true) };
      Cpu.compute target 1_000;
      check bool_t "NMI ran while masked" true !handled;
      Cpu.irq_enable target);
  Engine.run e

(* A spin-wait released by an IRQ handler: [poll_wait] services the IRQ
   at a poll boundary and returns, and the caller's loop re-checks. *)
let test_poll_wait_services_irqs () =
  let e, _, _, cpus, apic = make_machine_parts () in
  let flag = ref false in
  Process.spawn e ~name:"spinner" (fun () ->
      while not !flag do
        Cpu.poll_wait cpus.(3) (fun () -> !flag)
      done);
  Process.spawn e ~name:"sender" (fun () ->
      Process.delay e 1_000;
      ignore
        (send_irq apic ~from:0 ~targets:[ 3 ]
           { Cpu.vector = 3; maskable = true; handler = (fun _ -> flag := true) }));
  Engine.run e;
  check bool_t "spinner released by irq" true !flag;
  check int_t "handled on the spinning cpu" 1 (Cpu.irqs_handled cpus.(3))

let test_apic_multicast_cluster_cost () =
  let e, topo, c, _, apic = make_machine_parts () in
  (* Targets in different clusters need several ICR writes. *)
  let targets = [ 1; 13; 14; 27 ] in
  let clusters =
    List.length (List.sort_uniq Int.compare (List.map (Topology.cluster_of topo) targets))
  in
  check bool_t "targets span several clusters" true (clusters > 1);
  Process.spawn e ~name:"sender" (fun () ->
      let cost =
        send_irq apic ~from:0 ~targets
          { Cpu.vector = 9; maskable = true; handler = (fun _ -> ()) }
      in
      check int_t "one ICR write per cluster" (clusters * c.Costs.icr_write) cost);
  Engine.run e;
  check int_t "icr writes counted" clusters (Apic.icr_writes apic);
  check int_t "ipis counted" (List.length targets) (Apic.ipis_sent apic)

(* On a 1024-CPU x2APIC machine, a sparse multicast is delivered cluster
   by cluster in ascending cluster id, ascending cpu id within a cluster,
   with one ICR write per cluster. Every target is cross-socket from the
   sender, so delivery latency is the same for all: a later cluster
   arrives one ICR write later, and a cluster's targets arrive together
   and fire in insertion order. *)
let test_apic_send_ipi_id_order_1024 () =
  let e = Engine.create () in
  let topo = Topology.create ~sockets:8 ~cores_per_socket:64 ~smt:2 in
  let c = Costs.default in
  let cpus =
    Array.init (Topology.n_cpus topo) (fun id -> Cpu.create e topo c ~id ~safe:false ())
  in
  let apic = Apic.create e topo c ~cpus in
  let targets = [ 1000; 70; 600; 71; 583; 200; 1023; 64; 960 ] in
  List.iter
    (fun cpu ->
      check bool_t "cross-socket target" true
        (Topology.distance topo 0 cpu = Topology.Cross_socket))
    targets;
  let expected =
    List.sort
      (fun a b ->
        match Int.compare (Topology.cluster_of topo a) (Topology.cluster_of topo b) with
        | 0 -> Int.compare a b
        | n -> n)
      targets
  in
  let clusters =
    List.length (List.sort_uniq Int.compare (List.map (Topology.cluster_of topo) targets))
  in
  let delivered = ref [] in
  Process.spawn e ~name:"sender" (fun () ->
      let cost =
        send_irq apic ~from:0 ~targets
          {
            Cpu.vector = 1;
            maskable = true;
            handler = (fun cpu -> delivered := Cpu.id cpu :: !delivered);
          }
      in
      check int_t "sender pays one ICR write per cluster" (clusters * c.Costs.icr_write)
        cost);
  Engine.run e;
  check int_t "six clusters" 6 clusters;
  check (Alcotest.list int_t) "cluster-major, ascending cpu" expected (List.rev !delivered);
  check int_t "one ICR write per cluster" clusters (Apic.icr_writes apic);
  check int_t "one IPI per target" (List.length targets) (Apic.ipis_sent apic)

let test_apic_rejects_self_ipi () =
  let e, _, _, _, apic = make_machine_parts () in
  Process.spawn e ~name:"sender" (fun () ->
      Alcotest.check_raises "self ipi"
        (Invalid_argument "Apic.send_ipi_id: self-IPI not supported") (fun () ->
          ignore
            (send_irq apic ~from:0 ~targets:[ 0 ]
               { Cpu.vector = 1; maskable = true; handler = (fun _ -> ()) })));
  Engine.run e

let suite =
  [
    Alcotest.test_case "topology: sizes" `Quick test_topology_sizes;
    Alcotest.test_case "topology: socket mapping" `Quick test_topology_socket_mapping;
    Alcotest.test_case "topology: smt siblings" `Quick test_topology_smt_sibling;
    Alcotest.test_case "topology: distance" `Quick test_topology_distance;
    Alcotest.test_case "topology: x2apic clusters" `Quick test_topology_clusters;
    Alcotest.test_case "topology: cpus_of_socket" `Quick test_topology_cpus_of_socket;
    Alcotest.test_case "topology: bounds checking" `Quick test_topology_bounds;
    Alcotest.test_case "costs: monotone in distance" `Quick test_costs_monotone_distance;
    Alcotest.test_case "costs: mode asymmetries" `Quick test_costs_mode_asymmetry;
    Alcotest.test_case "cache: first touch local" `Quick test_cache_first_touch_local;
    Alcotest.test_case "cache: remote read transfer" `Quick test_cache_remote_read_costs_transfer;
    Alcotest.test_case "cache: write invalidates sharers" `Quick test_cache_write_invalidates_sharers;
    Alcotest.test_case "cache: exclusive write local" `Quick test_cache_exclusive_write_is_local;
    Alcotest.test_case "cache: atomic cost" `Quick test_cache_atomic_cost;
    Alcotest.test_case "cache: totals and reset" `Quick test_cache_totals;
    Alcotest.test_case "tlb: hit/miss" `Quick test_tlb_hit_miss;
    Alcotest.test_case "tlb: pcid isolation" `Quick test_tlb_pcid_isolation;
    Alcotest.test_case "tlb: global matches any pcid" `Quick test_tlb_global_matches_any_pcid;
    Alcotest.test_case "tlb: hugepage covers 4K lookups" `Quick test_tlb_huge_covers_4k_lookups;
    Alcotest.test_case "tlb: invlpg selective" `Quick test_tlb_invlpg_selective;
    Alcotest.test_case "tlb: invlpg drops globals+pwc" `Quick test_tlb_invlpg_drops_globals_and_pwc;
    Alcotest.test_case "tlb: invpcid keeps pwc" `Quick test_tlb_invpcid_keeps_pwc;
    Alcotest.test_case "tlb: cr3 flush spares globals" `Quick test_tlb_cr3_flush_spares_globals;
    Alcotest.test_case "tlb: capacity eviction" `Quick test_tlb_capacity_eviction;
    Alcotest.test_case "tlb: fracture promotion" `Quick test_tlb_fracture_promotion;
    Alcotest.test_case "tlb: drop has no side effects" `Quick test_tlb_drop_no_side_effects;
    Alcotest.test_case "tlb: flush_all" `Quick test_tlb_flush_all;
    Alcotest.test_case "tlb: re-insert after invalidate is youngest" `Quick
      test_tlb_reinsert_after_invalidate_is_youngest;
    Alcotest.test_case "tlb: random ops vs FIFO model" `Quick
      test_tlb_random_vs_fifo_model;
    Alcotest.test_case "tlb: 6000 keys vs FIFO model" `Quick test_tlb_many_keys_vs_model;
    Alcotest.test_case "tlb: out-of-range pcid rejected" `Quick test_tlb_pcid_range;
    Alcotest.test_case "tlb: lookup and insert allocate nothing" `Quick test_tlb_no_allocation;
    Alcotest.test_case "cpu: compute accounting" `Quick test_cpu_compute_accounting;
    Alcotest.test_case "cpu+apic: delivery and interruption" `Quick test_ipi_delivery_and_interruption;
    Alcotest.test_case "cpu: masking defers irqs" `Quick test_irq_masking_defers;
    Alcotest.test_case "cpu: nmi bypasses mask" `Quick test_nmi_bypasses_mask;
    Alcotest.test_case "cpu: poll_wait services irqs" `Quick test_poll_wait_services_irqs;
    Alcotest.test_case "apic: multicast cluster cost" `Quick test_apic_multicast_cluster_cost;
    Alcotest.test_case "apic: 1024-cpu delivery order" `Quick test_apic_send_ipi_id_order_1024;
    Alcotest.test_case "apic: rejects self-IPI" `Quick test_apic_rejects_self_ipi;
  ]
