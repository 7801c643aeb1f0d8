(* Property-based tests (qcheck) on core data structures and the central
   coherence invariant. *)

let count = 200

(* --- Stats: mean/min/max agree with a reference fold --- *)

let prop_stats_mean =
  QCheck.Test.make ~count ~name:"stats mean matches reference"
    QCheck.(list_of_size Gen.(1 -- 100) (float_bound_inclusive 1e6))
    (fun values ->
      let s = Stats.create () in
      List.iter (Stats.add s) values;
      let n = float_of_int (List.length values) in
      let mean = List.fold_left ( +. ) 0.0 values /. n in
      Float.abs (Stats.mean s -. mean) < 1e-6 *. (1.0 +. Float.abs mean))

let prop_stats_percentile_bounds =
  QCheck.Test.make ~count ~name:"percentiles stay within [min,max]"
    QCheck.(pair (list_of_size Gen.(1 -- 50) (float_bound_inclusive 1e6)) (float_bound_inclusive 100.0))
    (fun (values, p) ->
      let s = Stats.create () in
      List.iter (Stats.add s) values;
      match (Stats.percentile_opt s p, Stats.min_opt s, Stats.max_opt s) with
      | Some v, Some lo, Some hi -> v >= lo && v <= hi
      | _ -> false)

(* --- Rng: int stays in bounds for arbitrary positive bounds --- *)

let prop_rng_bounds =
  QCheck.Test.make ~count ~name:"rng int in bounds"
    QCheck.(pair int64 (int_range 1 1_000_000))
    (fun (seed, bound) ->
      let r = Rng.create ~seed in
      let ok = ref true in
      for _ = 1 to 50 do
        let v = Rng.int r bound in
        if v < 0 || v >= bound then ok := false
      done;
      !ok)

(* --- Vma.Set: remove_range never leaves overlap, preserves page count --- *)

let vma_layout_gen =
  (* Non-overlapping VMAs built from sorted segment boundaries. *)
  QCheck.Gen.(
    list_size (1 -- 8) (pair (0 -- 500) (1 -- 30)) >|= fun segments ->
    let _, vmas =
      List.fold_left
        (fun (cursor, acc) (gap, pages) ->
          let start = cursor + gap + 1 in
          (start + pages, Vma.make ~start_vpn:start ~pages () :: acc))
        (0, []) segments
    in
    List.rev vmas)

let total_pages set =
  List.fold_left (fun acc (v : Vma.t) -> acc + v.Vma.pages) 0 (Vma.Set.to_list set)

let prop_vma_remove_conserves_pages =
  QCheck.Test.make ~count ~name:"vma remove_range conserves pages"
    QCheck.(
      pair (make vma_layout_gen) (pair (int_range 0 600) (int_range 1 50)))
    (fun (vmas, (vpn, pages)) ->
      let set = List.fold_left Vma.Set.add Vma.Set.empty vmas in
      let before = total_pages set in
      let set', removed = Vma.Set.remove_range set ~vpn ~pages in
      let removed_pages = List.fold_left (fun a (v : Vma.t) -> a + v.Vma.pages) 0 removed in
      total_pages set' + removed_pages = before)

let prop_vma_remove_leaves_no_coverage =
  QCheck.Test.make ~count ~name:"vma remove_range leaves hole"
    QCheck.(
      pair (make vma_layout_gen) (pair (int_range 0 600) (int_range 1 50)))
    (fun (vmas, (vpn, pages)) ->
      let set = List.fold_left Vma.Set.add Vma.Set.empty vmas in
      let set', _ = Vma.Set.remove_range set ~vpn ~pages in
      let ok = ref true in
      for v = vpn to vpn + pages - 1 do
        if Vma.Set.find set' ~vpn:v <> None then ok := false
      done;
      !ok)

(* --- Page_table: map/unmap round-trips for arbitrary page sets --- *)

let vpn_set_gen = QCheck.Gen.(list_size (1 -- 40) (0 -- 100_000) >|= List.sort_uniq compare)

let prop_pt_roundtrip =
  QCheck.Test.make ~count ~name:"page table map/unmap round trip"
    (QCheck.make vpn_set_gen)
    (fun vpns ->
      let pt = Page_table.create () in
      List.iteri
        (fun i vpn -> Page_table.map pt ~vpn ~size:Tlb.Four_k (Pte.user_data ~pfn:i))
        vpns;
      let all_present =
        List.for_all (fun vpn -> Page_table.walk pt ~vpn <> None) vpns
      in
      List.iter (fun vpn -> ignore (Page_table.unmap pt ~vpn ~free_tables:true ())) vpns;
      all_present
      && Page_table.mapped_count pt = 0
      && Page_table.table_pages pt = 0)

let prop_pt_iter_complete =
  QCheck.Test.make ~count ~name:"page table iter finds every mapping"
    (QCheck.make vpn_set_gen)
    (fun vpns ->
      let pt = Page_table.create () in
      List.iteri
        (fun i vpn -> Page_table.map pt ~vpn ~size:Tlb.Four_k (Pte.user_data ~pfn:i))
        vpns;
      let seen = ref [] in
      Page_table.iter pt ~f:(fun vpn _ _ -> seen := vpn :: !seen);
      List.sort compare !seen = vpns)

(* --- Tlb: after any op sequence, lookups never return flushed entries --- *)

type tlb_op =
  | Insert of int * int  (* vpn, pcid in {1,2} *)
  | Invlpg of int * int
  | Invpcid of int * int
  | Flush_pcid of int
  | Flush_all

let tlb_op_gen =
  QCheck.Gen.(
    oneof
      [
        map2 (fun v p -> Insert (v, 1 + (p land 1))) (0 -- 64) int;
        map2 (fun v p -> Invlpg (v, 1 + (p land 1))) (0 -- 64) int;
        map2 (fun v p -> Invpcid (v, 1 + (p land 1))) (0 -- 64) int;
        map (fun p -> Flush_pcid (1 + (p land 1))) int;
        return Flush_all;
      ])

(* A reference model: the live (pcid, vpn) keys, oldest first. INVLPG in
   our model flushes the addressed vpn in the current pcid and global
   entries; we only insert non-global 4K entries here. The capacity is
   small enough that inserts evict, so the model is FIFO: a new key at
   capacity pushes out the oldest, an overwrite keeps its place. *)
let tlb_model_capacity = 8

let prop_tlb_matches_model =
  QCheck.Test.make ~count ~name:"tlb agrees with a set model"
    (QCheck.make QCheck.Gen.(list_size (0 -- 200) tlb_op_gen))
    (fun ops ->
      let t = Tlb.create ~capacity:tlb_model_capacity () in
      let model = ref [] in
      let remove k = model := List.filter (fun k' -> k' <> k) !model in
      List.iter
        (fun op ->
          match op with
          | Insert (vpn, pcid) ->
              Tlb.insert t
                {
                  Tlb.vpn;
                  pfn = vpn;
                  pcid;
                  size = Tlb.Four_k;
                  global = false;
                  writable = true;
                  fractured = false;
              ck_ver = -1;
                };
              if not (List.mem (pcid, vpn) !model) then begin
                if List.length !model >= tlb_model_capacity then model := List.tl !model;
                model := !model @ [ (pcid, vpn) ]
              end
          | Invlpg (vpn, pcid) ->
              Tlb.invlpg t ~current_pcid:pcid ~vpn;
              remove (pcid, vpn)
          | Invpcid (vpn, pcid) ->
              Tlb.invpcid_addr t ~pcid ~vpn;
              remove (pcid, vpn)
          | Flush_pcid pcid ->
              Tlb.flush_pcid t ~pcid;
              model := List.filter (fun (p, _) -> p <> pcid) !model
          | Flush_all ->
              Tlb.flush_all t;
              model := [])
        ops;
      (* Exactly the model's keys are resident, in the model's order. *)
      let ok = ref (Tlb.occupancy t = List.length !model) in
      for pcid = 1 to 2 do
        for vpn = 0 to 64 do
          if Tlb.mem t ~pcid ~vpn <> List.mem (pcid, vpn) !model then ok := false
        done
      done;
      !ok
      && List.map (fun (e : Tlb.entry) -> (e.Tlb.pcid, e.Tlb.vpn)) (Tlb.entries t) = !model)

(* --- Flush_info: merge covers both inputs --- *)

let info_gen =
  QCheck.Gen.(
    map2
      (fun start pages ->
        Flush_info.ranged ~mm_id:1 ~start_vpn:start ~pages ~new_tlb_gen:1 ())
      (0 -- 1000) (1 -- 40))

let prop_flush_info_merge_covers =
  QCheck.Test.make ~count ~name:"flush_info merge covers both ranges"
    (QCheck.make QCheck.Gen.(pair info_gen info_gen))
    (fun (a, b) ->
      let m = Flush_info.merge a b in
      let covered_by_m (i : Flush_info.t) =
        i.Flush_info.full
        || List.for_all (fun vpn -> Flush_info.covers m ~vpn) (Flush_info.vpns i)
      in
      covered_by_m a && covered_by_m b)

(* --- Frame_alloc: arbitrary alloc/free sequences keep counts consistent --- *)

let prop_frames_consistent =
  QCheck.Test.make ~count ~name:"frame allocator counts consistent"
    (QCheck.make QCheck.Gen.(list_size (0 -- 100) bool))
    (fun ops ->
      let f = Frame_alloc.create ~frames:4096 in
      let live = ref [] in
      List.iter
        (fun do_alloc ->
          if do_alloc then live := Frame_alloc.alloc f :: !live
          else begin
            match !live with
            | [] -> ()
            | pfn :: rest ->
                Frame_alloc.free f pfn;
                live := rest
          end)
        ops;
      Frame_alloc.allocated f = List.length !live
      && List.for_all (Frame_alloc.is_allocated f) !live)

(* --- End-to-end coherence: random mm churn under every optimization --- *)

type churn_op = Touch of int | Madvise of int * int | Protect of int * bool

let churn_op_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun p -> Touch p) (0 -- 15);
        map2 (fun p n -> Madvise (p, 1 + (n mod 4))) (0 -- 12) int;
        map2 (fun p w -> Protect (p, w)) (0 -- 15) bool;
      ])

let run_churn ~opts ops =
  let m = Machine.create ~opts ~seed:99L () in
  let mm = Machine.new_mm m in
  let pages = 16 in
  let stop = ref false in
  let addr_box = ref 0 in
  let ready = Waitq.Completion.create m.Machine.engine in
  Kernel.spawn_user m ~cpu:14 ~mm ~name:"reader" (fun () ->
      Waitq.Completion.wait ready;
      let cpu_t = Machine.cpu m 14 in
      while not !stop do
        (try Access.touch_range m ~cpu:14 ~addr:!addr_box ~pages ~write:false
         with Fault.Segfault _ -> ());
        Cpu.compute cpu_t ~quantum:100 200
      done);
  Kernel.spawn_user m ~cpu:0 ~mm ~name:"mutator" (fun () ->
      let addr = Syscall.mmap m ~cpu:0 ~pages () in
      addr_box := addr;
      Access.touch_range m ~cpu:0 ~addr ~pages ~write:true;
      Waitq.Completion.fire ready;
      List.iter
        (fun op ->
          try
            match op with
            | Touch p -> Access.write m ~cpu:0 ~vaddr:(addr + (p * Addr.page_size))
            | Madvise (p, n) ->
                let n = Stdlib.min n (pages - p) in
                if n > 0 then
                  Syscall.madvise_dontneed m ~cpu:0 ~addr:(addr + (p * Addr.page_size))
                    ~pages:n
            | Protect (p, w) ->
                Syscall.mprotect m ~cpu:0 ~addr:(addr + (p * Addr.page_size)) ~pages:1
                  ~writable:w
          with Fault.Segfault _ -> ())
        ops;
      Machine.delay m 30_000;
      stop := true);
  Kernel.run m;
  Checker.violation_count m.Machine.checker = 0

let prop_coherence_under_random_churn_all_opts =
  QCheck.Test.make ~count:30 ~name:"coherence invariant under random churn (all opts)"
    (QCheck.make QCheck.Gen.(list_size (5 -- 30) churn_op_gen))
    (fun ops -> run_churn ~opts:(Opts.all ~safe:true) ops)

let prop_coherence_under_random_churn_baseline =
  QCheck.Test.make ~count:20 ~name:"coherence invariant under random churn (baseline)"
    (QCheck.make QCheck.Gen.(list_size (5 -- 30) churn_op_gen))
    (fun ops -> run_churn ~opts:(Opts.baseline ~safe:true) ops)

(* --- end-to-end kernel invariants under random op sequences --- *)

type mm_op = Map of int | Touch_all | Drop of int | Unmap of int | Remap of int

let mm_op_gen =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun n -> Map (1 + (abs n mod 6))) int);
        (3, return Touch_all);
        (2, map (fun i -> Drop i) (0 -- 10));
        (2, map (fun i -> Unmap i) (0 -- 10));
        (1, map (fun i -> Remap i) (0 -- 10));
      ])

(* Replay ops on a live machine, tracking mapped regions; returns
   (machine, leftover regions). *)
let replay_ops ops =
  let m = Machine.create ~opts:(Opts.all ~safe:true) ~seed:7L () in
  let mm = Machine.new_mm m in
  let regions = ref [] in
  (* (addr, pages) list *)
  Kernel.spawn_user m ~cpu:0 ~mm ~name:"driver" (fun () ->
      List.iter
        (fun op ->
          try
            match op with
            | Map pages ->
                let addr = Syscall.mmap m ~cpu:0 ~pages () in
                regions := (addr, pages) :: !regions
            | Touch_all ->
                List.iter
                  (fun (addr, pages) ->
                    Access.touch_range m ~cpu:0 ~addr ~pages ~write:true)
                  !regions
            | Drop i -> begin
                match List.nth_opt !regions i with
                | Some (addr, pages) ->
                    Syscall.madvise_dontneed m ~cpu:0 ~addr ~pages
                | None -> ()
              end
            | Unmap i -> begin
                match List.nth_opt !regions i with
                | Some (addr, pages) ->
                    Syscall.munmap m ~cpu:0 ~addr ~pages;
                    regions := List.filteri (fun j _ -> j <> i) !regions
                | None -> ()
              end
            | Remap i -> begin
                match List.nth_opt !regions i with
                | Some (addr, pages) ->
                    let addr' = Syscall.mremap m ~cpu:0 ~addr ~pages in
                    regions :=
                      List.mapi
                        (fun j r -> if j = i then (addr', pages) else r)
                        !regions
                | None -> ()
              end
          with Fault.Segfault _ -> ())
        ops);
  Kernel.run m;
  (m, mm, !regions)

let prop_frames_conserved_end_to_end =
  QCheck.Test.make ~count:25 ~name:"kernel: frames conserved after full teardown"
    (QCheck.make QCheck.Gen.(list_size (1 -- 25) mm_op_gen))
    (fun ops ->
      let m, mm, regions = replay_ops ops in
      (* Tear the rest down and require exact frame conservation. *)
      let leak = ref false in
      Kernel.spawn_user m ~cpu:0 ~mm ~name:"teardown" (fun () ->
          List.iter
            (fun (addr, pages) -> Syscall.munmap m ~cpu:0 ~addr ~pages)
            regions;
          leak := Frame_alloc.allocated m.Machine.frames <> 0);
      Kernel.run m;
      (not !leak) && Checker.violation_count m.Machine.checker = 0)

let prop_mapped_readable_unmapped_faults =
  QCheck.Test.make ~count:25 ~name:"kernel: mapped readable, unmapped faults"
    (QCheck.make QCheck.Gen.(list_size (1 -- 20) mm_op_gen))
    (fun ops ->
      let m, mm, regions = replay_ops ops in
      let ok = ref true in
      Kernel.spawn_user m ~cpu:0 ~mm ~name:"verify" (fun () ->
          (* Everything still in a live region must be readable... *)
          List.iter
            (fun (addr, pages) ->
              try Access.touch_range m ~cpu:0 ~addr ~pages ~write:false
              with Fault.Segfault _ -> ok := false)
            regions;
          (* ...and a far-away address must fault. *)
          match Access.read m ~cpu:0 ~vaddr:(Addr.addr_of_vpn (1 lsl 28)) with
          | () -> ok := false
          | exception Fault.Segfault _ -> ());
      Kernel.run m;
      !ok && Checker.violation_count m.Machine.checker = 0)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_stats_mean;
      prop_stats_percentile_bounds;
      prop_rng_bounds;
      prop_vma_remove_conserves_pages;
      prop_vma_remove_leaves_no_coverage;
      prop_pt_roundtrip;
      prop_pt_iter_complete;
      prop_tlb_matches_model;
      prop_flush_info_merge_covers;
      prop_frames_consistent;
      prop_coherence_under_random_churn_all_opts;
      prop_coherence_under_random_churn_baseline;
      prop_frames_conserved_end_to_end;
      prop_mapped_readable_unmapped_faults;
    ]
