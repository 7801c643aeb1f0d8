(* Sub-experiment sharding: the run/reduce split behind `bench -j N`.

   An experiment is flattened at *plan* time into self-contained sim-run
   cells — each cell owns its config (opts copied, seed fixed) and builds
   its machine inside the cell, so cells share no mutable state. Execution
   pushes every plan's cells onto one shared domain pool in
   longest-task-first order; each cell writes its value and measure into
   its own slot. Reduction then walks the plans in submission order,
   reading slots — so the printed output is a pure function of the cell
   values, i.e. byte-identical for every [-j], by construction.

   Measures ride along per cell: wall-clock, engine ops (read from the
   run's own engines via the result extractor — there is no process-wide
   ops counter to misattribute), and GC words. Every word count is a delta
   of the executing domain's own counters ([Gc.minor_words],
   [Gc.counters]; [Gc.quick_stat] would sum every domain's), taken around
   a cell that runs start to finish on that one domain. Minor words and
   direct major words (major minus promoted) are therefore the same at any
   [-j]; promoted words depend on how full the minor heap was and are not
   deterministic. *)

type measure = {
  wall_s : float;  (** summed run wall — CPU-seconds under [-j N] *)
  max_wall_s : float;  (** slowest single run: the shard-level critical path *)
  engine_ops : int option;  (** [None] = no engine-driven run (n/a, not 0) *)
  minor_words : float;
  major_words : float;
  promoted_words : float;
  runs : int;
}

let zero_measure =
  {
    wall_s = 0.0;
    max_wall_s = 0.0;
    engine_ops = None;
    minor_words = 0.0;
    major_words = 0.0;
    promoted_words = 0.0;
    runs = 0;
  }

let add_measure a b =
  {
    wall_s = a.wall_s +. b.wall_s;
    max_wall_s = Float.max a.max_wall_s b.max_wall_s;
    engine_ops =
      (match (a.engine_ops, b.engine_ops) with
      | None, o | o, None -> o
      | Some x, Some y -> Some (x + y));
    minor_words = a.minor_words +. b.minor_words;
    major_words = a.major_words +. b.major_words;
    promoted_words = a.promoted_words +. b.promoted_words;
    runs = a.runs + b.runs;
  }

type job = {
  label : string;
  weight : float;  (** estimated cost in engine-op units; drives LPT order *)
  exec : progress:bool -> unit;
  measure : measure option ref;
}

type plan = {
  name : string;
  jobs : job list;  (** cells this experiment *owns* (pays for, in perf) *)
  reused : int;  (** cells read from the memo, owned by an earlier plan *)
  reduce : unit -> unit;  (** prints tables via {!Report}; reads cells *)
}

let cell ?(label = "") ?ops ~weight f =
  let slot = ref None in
  let measure = ref None in
  let exec ~progress =
    let _, pw0, jw0 = Gc.counters () in
    let mw0 = Gc.minor_words () in
    let t0 = Unix.gettimeofday () in
    let v = f () in
    let wall = Unix.gettimeofday () -. t0 in
    let mw1 = Gc.minor_words () in
    let _, pw1, jw1 = Gc.counters () in
    slot := Some v;
    measure :=
      Some
        {
          wall_s = wall;
          max_wall_s = wall;
          engine_ops = Option.map (fun g -> g v) ops;
          minor_words = mw1 -. mw0;
          major_words = jw1 -. jw0;
          promoted_words = pw1 -. pw0;
          runs = 1;
        };
    if progress then Printf.eprintf "[bench]   %-32s %6.2fs\n%!" label wall
  in
  let get () =
    match !slot with
    | Some v -> v
    | None ->
        invalid_arg
          (Printf.sprintf "Shard: cell %S read before execution (reduce before run?)"
             label)
  in
  ({ label; weight; exec; measure }, get)

(* Cross-experiment cell memoization. Identical (config, seed) cells —
   e.g. an ablation row at the same scale as a fig10 point, or the micro
   matrices figs 5-8 and table 3 both consume — run once: the first plan
   to register a key owns the job (and its measure); later registrations
   get only the getter. Plan construction is sequential and deterministic,
   so ownership is stable run to run, and reading a shared slot is exactly
   reading any other cell's slot — reduced output stays byte-identical for
   every [-j]. Keys come from the workloads' [config_key] serializers,
   which cover every config field. *)
type 'a memo = (string, unit -> 'a) Hashtbl.t

let create_memo () : 'a memo = Hashtbl.create 64

(* A plan under construction: the jobs it owns, in registration order
   (reversed until [plan_of]), and how many memo cells it only reads. *)
type acc = { mutable owned : job list; mutable reads : int }

let acc () = { owned = []; reads = 0 }

let own acc (job, get) =
  acc.owned <- job :: acc.owned;
  get

let memo_cell acc memo ~key ?label ?ops ~weight f =
  match Hashtbl.find_opt memo key with
  | Some get ->
      acc.reads <- acc.reads + 1;
      get
  | None ->
      let get = own acc (cell ?label ?ops ~weight f) in
      Hashtbl.add memo key get;
      get

let plan_of acc ~name reduce =
  { name; jobs = List.rev acc.owned; reused = acc.reads; reduce }

type outcome = {
  out_name : string;
  output : string;
  out_measure : measure;
  out_reused : int;
}

let aggregate jobs ~reduce_wall =
  let m =
    List.fold_left
      (fun acc j ->
        match !(j.measure) with
        | Some jm -> add_measure acc jm
        | None -> acc)
      zero_measure jobs
  in
  { m with wall_s = m.wall_s +. reduce_wall }

let execute ?(progress = false) ~jobs plans =
  let all = Array.of_list (List.concat_map (fun p -> p.jobs) plans) in
  let weights = Array.map (fun j -> j.weight) all in
  let thunks = Array.map (fun j () -> j.exec ~progress) all in
  let gc = ref Domain_pool.zero_gc_totals in
  ignore
    (Domain_pool.run ~jobs ~weights ~tune_gc:true ~gc_totals:gc thunks : unit array);
  let outcomes =
    List.map
      (fun p ->
        let t0 = Unix.gettimeofday () in
        let output = Report.capture p.reduce in
        let reduce_wall = Unix.gettimeofday () -. t0 in
        {
          out_name = p.name;
          output;
          out_measure = aggregate p.jobs ~reduce_wall;
          out_reused = p.reused;
        })
      plans
  in
  (outcomes, !gc)
