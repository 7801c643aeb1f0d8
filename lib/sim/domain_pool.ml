(* tlblint: proven-bounds — workers read [order] at k in [base, stop] with
   stop < n = Array.length order, claimed via Atomic.fetch_and_add. *)
(* Fork-join execution of independent tasks over OCaml 5 domains.

   The bench harness uses this to run sim-run tasks in parallel: each task
   builds its own machines and engines, so tasks share no mutable state and
   the only cross-domain traffic is the atomic claim index and the per-slot
   result writes (distinct array cells, published by Domain.join before
   anyone reads them).

   Scheduling is longest-processing-time-first when [weights] are given:
   workers claim tasks in descending estimated-cost order, so the biggest
   runs start immediately and the tail of small tasks back-fills the gaps —
   the classic LPT bound keeps the makespan within 4/3 of optimal for
   independent tasks. Claim order is invisible to results: task [i]'s value
   always lands in slot [i], so any reduce that reads slots in index order
   is deterministic by construction, whatever the schedule. *)

type 'a outcome = Value of 'a | Raised of exn * Printexc.raw_backtrace

type gc_totals = {
  pool_minor_words : float;
  pool_major_words : float;
  pool_promoted_words : float;
  pool_minor_collections : int;
  pool_major_collections : int;
}

let zero_gc_totals =
  {
    pool_minor_words = 0.0;
    pool_major_words = 0.0;
    pool_promoted_words = 0.0;
    pool_minor_collections = 0;
    pool_major_collections = 0;
  }

let add_gc_totals a b =
  {
    pool_minor_words = a.pool_minor_words +. b.pool_minor_words;
    pool_major_words = a.pool_major_words +. b.pool_major_words;
    pool_promoted_words = a.pool_promoted_words +. b.pool_promoted_words;
    pool_minor_collections = a.pool_minor_collections + b.pool_minor_collections;
    pool_major_collections = a.pool_major_collections + b.pool_major_collections;
  }

(* Word counts are measured per worker domain: [Gc.counters] and
   [Gc.minor_words] read the calling domain's own counters, so sampling
   before and after each domain's stint and summing the deltas counts
   every word once. ([Gc.quick_stat] reports the whole program's words —
   summing it per domain would count each word once per live domain.)
   Collections are stop-the-world events the runtime counts program-wide,
   so they are one [quick_stat] delta around the whole call. *)
let words_around () =
  let mi0, pr0, ma0 = Gc.counters () in
  fun () ->
    let mi1, pr1, ma1 = Gc.counters () in
    {
      zero_gc_totals with
      pool_minor_words = mi1 -. mi0;
      pool_major_words = ma1 -. ma0;
      pool_promoted_words = pr1 -. pr0;
    }

let collections_around () =
  let s0 = Gc.quick_stat () in
  fun words ->
    let s1 = Gc.quick_stat () in
    {
      words with
      pool_minor_collections = s1.Gc.minor_collections - s0.Gc.minor_collections;
      pool_major_collections = s1.Gc.major_collections - s0.Gc.major_collections;
    }

(* fig10-class workloads allocate ~10⁹ minor words per run; the default
   256k-word minor heap turns that into tens of thousands of minor
   collections with heavy promotion. A larger per-domain minor arena and a
   laxer space_overhead trade memory for GC time. GC tuning can never
   change simulated results — the simulator is deterministic — only
   wall-clock. *)
let tuned_gc_params () =
  let g = Gc.get () in
  { g with Gc.minor_heap_size = 4 * 1024 * 1024; space_overhead = 200 }

let tune_current_domain () = Gc.set (tuned_gc_params ())

(* Claim order: indices sorted by descending weight (ties broken by index,
   so equal-weight tasks keep submission order and the order is a pure
   function of the weights). *)
let claim_order ~weights n =
  match weights with
  | None -> Array.init n (fun i -> i)
  | Some w ->
      if Array.length w <> n then
        invalid_arg "Domain_pool.run: weights length must match tasks";
      let order = Array.init n (fun i -> i) in
      Array.sort
        (fun a b ->
          let c = Float.compare w.(b) w.(a) in
          if c <> 0 then c else Int.compare a b)
        order;
      order

let run_parallel ~jobs ~order ~chunk ~tune_gc tasks =
  let n = Array.length tasks in
  let results = Array.make n None in
  let next = Atomic.make 0 in
  let worker () =
    let rec loop () =
      let base = Atomic.fetch_and_add next chunk in
      if base < n then begin
        let stop = Stdlib.min n (base + chunk) - 1 in
        for k = base to stop do
          let i = Array.unsafe_get order k in
          results.(i) <-
            (try Some (Value (tasks.(i) ()))
             with e -> Some (Raised (e, Printexc.get_raw_backtrace ())))
        done;
        loop ()
      end
    in
    loop ()
  in
  let spawned = Stdlib.min (jobs - 1) (n - 1) in
  let worker_gc = Array.make (spawned + 1) zero_gc_totals in
  let spawn k =
    Domain.spawn (fun () ->
        if tune_gc then tune_current_domain ();
        let finish = words_around () in
        worker ();
        worker_gc.(k + 1) <- finish ())
  in
  let collections = collections_around () in
  (* The calling domain is one of the workers; spawn the rest. *)
  let domains = Array.init spawned spawn in
  let finish = words_around () in
  worker ();
  worker_gc.(0) <- finish ();
  Array.iter Domain.join domains;
  let gc = collections (Array.fold_left add_gc_totals zero_gc_totals worker_gc) in
  ( Array.map
      (function
        | Some (Value v) -> v
        | Some (Raised (e, bt)) -> Printexc.raise_with_backtrace e bt
        | None -> assert false)
      results,
    gc )

let run ~jobs ?weights ?(chunk = 1) ?(tune_gc = false) ?gc_totals
    (tasks : (unit -> 'a) array) : 'a array =
  if chunk < 1 then invalid_arg "Domain_pool.run: chunk must be >= 1";
  (match weights with
  | Some w when Array.length w <> Array.length tasks ->
      invalid_arg "Domain_pool.run: weights length must match tasks"
  | _ -> ());
  if jobs <= 1 || Array.length tasks <= 1 then begin
    (* Inline sequential execution: no domains are spawned, so [jobs = 1]
       behaves exactly like a plain loop (same exception propagation, same
       evaluation order) — the parallel runner's byte-identical baseline. *)
    let collections = collections_around () in
    let finish = words_around () in
    let results = Array.map (fun f -> f ()) tasks in
    Option.iter (fun cell -> cell := collections (finish ())) gc_totals;
    results
  end
  else begin
    let order = claim_order ~weights (Array.length tasks) in
    let results, gc = run_parallel ~jobs ~order ~chunk ~tune_gc tasks in
    Option.iter (fun cell -> cell := gc) gc_totals;
    results
  end

let default_jobs () = Domain.recommended_domain_count ()
