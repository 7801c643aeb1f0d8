(* Unit tests for the simulation substrate: Rng, Stats, Engine,
   Process, Waitq, Trace. *)

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

(* --- Rng --- *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:99L and b = Rng.create ~seed:99L in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Rng.next a) (Rng.next b)
  done

let test_rng_seed_matters () =
  let a = Rng.create ~seed:1L and b = Rng.create ~seed:2L in
  check bool_t "different streams" true (Rng.next a <> Rng.next b)

let test_rng_int_bounds () =
  let r = Rng.create ~seed:5L in
  for _ = 1 to 1000 do
    let v = Rng.int r 17 in
    check bool_t "in range" true (v >= 0 && v < 17)
  done

let test_rng_int_rejects_nonpositive () =
  let r = Rng.create ~seed:5L in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int r 0))

let test_rng_float_range () =
  let r = Rng.create ~seed:6L in
  for _ = 1 to 1000 do
    let f = Rng.float r in
    check bool_t "in [0,1)" true (f >= 0.0 && f < 1.0)
  done

let test_rng_bool_probability () =
  let r = Rng.create ~seed:7L in
  let hits = ref 0 in
  let n = 10_000 in
  for _ = 1 to n do
    if Rng.bool r ~p:0.25 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  check bool_t "close to 0.25" true (rate > 0.22 && rate < 0.28)

let test_rng_split_independent () =
  let parent = Rng.create ~seed:1L in
  let child = Rng.split parent in
  (* Drawing from the child must not change the parent's future values. *)
  let parent2 = Rng.create ~seed:1L in
  let _ = Rng.split parent2 in
  ignore (Rng.next child);
  check Alcotest.int64 "parent unaffected by child draws" (Rng.next parent) (Rng.next parent2)

let test_rng_shuffle_permutation () =
  let r = Rng.create ~seed:9L in
  let a = Array.init 50 Fun.id in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check (Alcotest.array int_t) "still a permutation" (Array.init 50 Fun.id) sorted

let test_rng_exponential_mean () =
  let r = Rng.create ~seed:10L in
  let n = 20_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential r ~mean:100.0
  done;
  let mean = !sum /. float_of_int n in
  check bool_t "mean near 100" true (mean > 90.0 && mean < 110.0)

let test_rng_gaussian_moments () =
  let r = Rng.create ~seed:11L in
  let n = 20_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.gaussian r ~mean:5.0 ~stddev:2.0
  done;
  let mean = !sum /. float_of_int n in
  check bool_t "mean near 5" true (mean > 4.8 && mean < 5.2)

(* --- Stats --- *)

(* Readers for a non-empty series over the [_opt] accessors. *)
let smin s = Option.get (Stats.min_opt s)
let smax s = Option.get (Stats.max_opt s)
let pct s p = Option.get (Stats.percentile_opt s p)

let test_stats_empty () =
  let s = Stats.create () in
  check int_t "count" 0 (Stats.count s);
  check (Alcotest.float 0.0) "mean" 0.0 (Stats.mean s);
  check (Alcotest.float 0.0) "stddev" 0.0 (Stats.stddev s)

let test_stats_basic () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  check int_t "count" 8 (Stats.count s);
  check (Alcotest.float 1e-9) "mean" 5.0 (Stats.mean s);
  check (Alcotest.float 1e-9) "min" 2.0 (smin s);
  check (Alcotest.float 1e-9) "max" 9.0 (smax s);
  (* Sample stddev of this classic dataset: sqrt(32/7). *)
  check (Alcotest.float 1e-6) "stddev" (sqrt (32.0 /. 7.0)) (Stats.stddev s)

let test_stats_percentile () =
  let s = Stats.create () in
  for i = 1 to 100 do
    Stats.add s (float_of_int i)
  done;
  check (Alcotest.float 1e-9) "p0" 1.0 (pct s 0.0);
  check (Alcotest.float 1e-9) "p100" 100.0 (pct s 100.0);
  check (Alcotest.float 1e-9) "median" 50.5 (Option.get (Stats.median_opt s))

let test_stats_percentile_interpolates () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 10.0; 20.0 ];
  check (Alcotest.float 1e-9) "p50 between" 15.0 (pct s 50.0)

let test_stats_merge () =
  let a = Stats.create () and b = Stats.create () in
  List.iter (Stats.add a) [ 1.0; 2.0 ];
  List.iter (Stats.add b) [ 3.0; 4.0 ];
  Stats.merge_into a b;
  check int_t "count" 4 (Stats.count a);
  check (Alcotest.float 1e-9) "mean" 2.5 (Stats.mean a)

let test_histogram () =
  let h = Stats.Histogram.create ~lo:0.0 ~hi:100.0 ~buckets:10 in
  Stats.Histogram.add h 5.0;
  Stats.Histogram.add h 15.0;
  Stats.Histogram.add h 15.5;
  Stats.Histogram.add h 999.0;
  (* counted as overflow, not folded into the last bucket *)
  Stats.Histogram.add h (-5.0);
  (* counted as underflow, not folded into the first bucket *)
  let counts = Stats.Histogram.counts h in
  check int_t "bucket 0" 1 counts.(0);
  check int_t "bucket 1" 2 counts.(1);
  check int_t "bucket 9" 0 counts.(9);
  check int_t "underflow" 1 (Stats.Histogram.underflow h);
  check int_t "overflow" 1 (Stats.Histogram.overflow h);
  check int_t "total" 5 (Stats.Histogram.total h)

let test_stats_empty_options () =
  let s = Stats.create () in
  check (Alcotest.option (Alcotest.float 0.0)) "min_opt" None (Stats.min_opt s);
  check (Alcotest.option (Alcotest.float 0.0)) "max_opt" None (Stats.max_opt s);
  check
    (Alcotest.option (Alcotest.float 0.0))
    "p50_opt" None
    (Stats.percentile_opt s 50.0);
  check (Alcotest.option (Alcotest.float 0.0)) "median_opt" None (Stats.median_opt s);
  check Alcotest.string "pp marks empty" "n=0 (no samples)"
    (Format.asprintf "%a" Stats.pp s)

(* NaN must not poison min/max or make percentile order unspecified:
   Float.compare is total, NaN sorts below every number. Infinities pass
   through as ordinary extremes. *)
let test_stats_nan_inf () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 1.0; Float.nan; 3.0 ];
  check int_t "count includes nan" 3 (Stats.count s);
  check (Alcotest.float 1e-9) "min ignores nan" 1.0 (smin s);
  check (Alcotest.float 1e-9) "max ignores nan" 3.0 (smax s);
  (* sorted = [nan; 1; 3]: deterministic, so p100 = 3 and p50 = 1. *)
  check (Alcotest.float 1e-9) "p100 with nan present" 3.0 (pct s 100.0);
  check (Alcotest.float 1e-9) "p50 with nan present" 1.0 (pct s 50.0);
  let i = Stats.create () in
  List.iter (Stats.add i) [ 1.0; Float.infinity ];
  check Alcotest.bool "mean is +inf" true (Stats.mean i = Float.infinity);
  check Alcotest.bool "max is +inf" true (smax i = Float.infinity);
  let h = Stats.Histogram.create ~lo:0.0 ~hi:10.0 ~buckets:2 in
  Stats.Histogram.add h Float.nan;
  Stats.Histogram.add h Float.infinity;
  Stats.Histogram.add h Float.neg_infinity;
  check int_t "hist nan" 1 (Stats.Histogram.nan_count h);
  check int_t "hist +inf overflows" 1 (Stats.Histogram.overflow h);
  check int_t "hist -inf underflows" 1 (Stats.Histogram.underflow h);
  check (Alcotest.array int_t) "bins untouched" [| 0; 0 |] (Stats.Histogram.counts h)

(* Past [cap] retained samples the percentile buffer thins by systematic
   stride-doubling: bounded memory, still a pure function of the stream. *)
let test_stats_reservoir_bounded_deterministic () =
  let fill () =
    let s = Stats.create ~cap:8 () in
    for i = 1 to 1000 do
      Stats.add s (float_of_int i)
    done;
    s
  in
  let s = fill () in
  check int_t "count unbounded" 1000 (Stats.count s);
  check Alcotest.bool "retained bounded" true (Stats.retained s <= 8);
  check Alcotest.bool "marked subsampled" false (Stats.exact_percentiles s);
  check (Alcotest.float 1e-9) "moments stay exact: mean" 500.5 (Stats.mean s);
  check (Alcotest.float 1e-9) "min exact" 1.0 (smin s);
  check (Alcotest.float 1e-9) "max exact" 1000.0 (smax s);
  let s' = fill () in
  check (Alcotest.float 0.0) "same stream, same p50" (pct s 50.0)
    (pct s' 50.0);
  check (Alcotest.float 0.0) "same stream, same p99" (pct s 99.0)
    (pct s' 99.0);
  (* Below the cap nothing is dropped: percentiles stay exact. *)
  let e = Stats.create ~cap:8 () in
  List.iter (Stats.add e) [ 4.0; 1.0; 3.0; 2.0 ];
  check Alcotest.bool "exact below cap" true (Stats.exact_percentiles e);
  check (Alcotest.float 1e-9) "exact p50" 2.5 (pct e 50.0)

(* merge_into must agree with having streamed everything into one
   accumulator: exact for the moments (Chan's formula) and for the
   percentiles while both sides are below cap. *)
let test_stats_merge_matches_single_stream () =
  let a = Stats.create () and b = Stats.create () and whole = Stats.create () in
  for i = 1 to 50 do
    Stats.add a (float_of_int i);
    Stats.add whole (float_of_int i)
  done;
  for i = 51 to 100 do
    Stats.add b (float_of_int i);
    Stats.add whole (float_of_int i)
  done;
  Stats.merge_into a b;
  check int_t "count" (Stats.count whole) (Stats.count a);
  check (Alcotest.float 1e-9) "mean" (Stats.mean whole) (Stats.mean a);
  check (Alcotest.float 1e-6) "stddev" (Stats.stddev whole) (Stats.stddev a);
  check (Alcotest.float 0.0) "min" (smin whole) (smin a);
  check (Alcotest.float 0.0) "max" (smax whole) (smax a);
  List.iter
    (fun p ->
      check (Alcotest.float 1e-9)
        (Printf.sprintf "p%.0f" p)
        (pct whole p) (pct a p))
    [ 0.0; 25.0; 50.0; 90.0; 99.0; 100.0 ]

let test_histogram_merge () =
  let a = Stats.Histogram.create ~lo:0.0 ~hi:100.0 ~buckets:10 in
  let b = Stats.Histogram.create ~lo:0.0 ~hi:100.0 ~buckets:10 in
  List.iter (Stats.Histogram.add a) [ 5.0; 15.0; -1.0 ];
  List.iter (Stats.Histogram.add b) [ 5.0; 200.0; Float.nan ];
  Stats.Histogram.merge_into a b;
  let counts = Stats.Histogram.counts a in
  check int_t "bucket 0 summed" 2 counts.(0);
  check int_t "bucket 1" 1 counts.(1);
  check int_t "underflow" 1 (Stats.Histogram.underflow a);
  check int_t "overflow" 1 (Stats.Histogram.overflow a);
  check int_t "nan" 1 (Stats.Histogram.nan_count a);
  check int_t "total" 6 (Stats.Histogram.total a);
  let c = Stats.Histogram.create ~lo:0.0 ~hi:50.0 ~buckets:10 in
  Alcotest.check_raises "config mismatch rejected"
    (Invalid_argument "Histogram.merge_into: bucket configurations differ") (fun () ->
      Stats.Histogram.merge_into a c)

(* --- Engine --- *)

let test_engine_time_ordering () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~delay:30 (fun () -> log := 30 :: !log);
  Engine.schedule e ~delay:10 (fun () -> log := 10 :: !log);
  Engine.schedule e ~delay:20 (fun () -> log := 20 :: !log);
  Engine.run e;
  check (Alcotest.list int_t) "fired in time order" [ 10; 20; 30 ] (List.rev !log);
  check int_t "clock at last event" 30 (Engine.now e)

let test_engine_fifo_at_same_time () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    Engine.schedule e ~delay:7 (fun () -> log := i :: !log)
  done;
  Engine.run e;
  check (Alcotest.list int_t) "insertion order at ties" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_engine_nested_scheduling () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~delay:5 (fun () ->
      log := "a" :: !log;
      Engine.schedule e ~delay:5 (fun () -> log := "b" :: !log));
  Engine.run e;
  check (Alcotest.list Alcotest.string) "nested fires" [ "a"; "b" ] (List.rev !log);
  check int_t "time advanced" 10 (Engine.now e)

let test_engine_rejects_past () =
  let e = Engine.create () in
  Engine.schedule e ~delay:10 (fun () -> ());
  Engine.run e;
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Engine.schedule: negative delay") (fun () ->
      Engine.schedule e ~delay:(-5) (fun () -> ()));
  let tag = Engine.register_handler e (fun _ _ -> ()) in
  Alcotest.check_raises "negative tagged delay"
    (Invalid_argument "Engine.schedule_tag: negative delay") (fun () ->
      Engine.schedule_tag e ~delay:(-5) ~tag ~a:0 ~b:0)

let test_engine_step () =
  let e = Engine.create () in
  let fired = ref [] in
  List.iter
    (fun d -> Engine.schedule e ~delay:d (fun () -> fired := d :: !fired))
    [ 10; 20; 30 ];
  check bool_t "first step ran an event" true (Engine.step e);
  check bool_t "second step ran an event" true (Engine.step e);
  check (Alcotest.list int_t) "earliest two, in order" [ 10; 20 ] (List.rev !fired);
  check int_t "clock at the second event" 20 (Engine.now e);
  check bool_t "third step ran an event" true (Engine.step e);
  check bool_t "empty queue: no step" false (Engine.step e);
  check int_t "three events counted" 3 (Engine.events_run e)

(* --- Engine: packed-key boundaries --- *)

(* The priority key packs (time, seq) into one int; [max_time] is the last
   time the time field can hold. Scheduling past it must be rejected, and
   landing exactly on it must work. *)
let test_engine_clock_overflow_rejected () =
  let e = Engine.create () in
  check bool_t "max_time is the 38-bit boundary" true
    (Engine.max_time = max_int lsr 25);
  Alcotest.check_raises "schedule past max_time"
    (Invalid_argument
       (Printf.sprintf "Engine.schedule: delay %d from time 0 overflows the clock"
          (Engine.max_time + 1)))
    (fun () -> Engine.schedule e ~delay:(Engine.max_time + 1) (fun () -> ()));
  let tag = Engine.register_handler e (fun _ _ -> ()) in
  Alcotest.check_raises "schedule_tag past max_time"
    (Invalid_argument
       (Printf.sprintf "Engine.schedule_tag: delay %d from time 0 overflows the clock"
          max_int))
    (fun () -> Engine.schedule_tag e ~delay:max_int ~tag ~a:0 ~b:0);
  let ran = ref false in
  Engine.schedule e ~delay:Engine.max_time (fun () -> ran := true);
  Engine.run e;
  check bool_t "boundary event ran" true !ran;
  check int_t "clock lands on max_time" Engine.max_time (Engine.now e)

(* The suspend-free fast path must refuse to move [now] past [max_time]
   (the slow path then reports the overflow via [schedule]). *)
let test_engine_try_advance_clock_boundary () =
  let e = Engine.create () in
  Engine.schedule e ~delay:(Engine.max_time - 5) (fun () -> ());
  Engine.run e;
  check bool_t "advance inside the bound" true (Engine.try_advance e ~cycles:3);
  check int_t "advanced" (Engine.max_time - 2) (Engine.now e);
  check bool_t "advance past the bound declined" false
    (Engine.try_advance e ~cycles:10);
  check int_t "clock unchanged on decline" (Engine.max_time - 2) (Engine.now e);
  check bool_t "advance onto the boundary" true (Engine.try_advance e ~cycles:2);
  check int_t "at max_time" Engine.max_time (Engine.now e);
  check bool_t "no advance past max_time" false (Engine.try_advance e ~cycles:1);
  Alcotest.check_raises "negative cycles"
    (Invalid_argument "Engine.try_advance: negative cycles") (fun () ->
      ignore (Engine.try_advance e ~cycles:(-1) : bool))

(* Drive [seq] past its 25-bit field: renumbering must preserve FIFO order
   for same-time events and keep far-pending events intact. *)
let test_engine_seq_renumber_preserves_fifo () =
  let e = Engine.create () in
  let far = ref false in
  Engine.schedule e ~delay:1_000_000_000 (fun () -> far := true);
  let seq_limit = 1 lsl 25 in
  let ran = ref 0 in
  let batch = 4096 in
  let rounds = (seq_limit / batch) + 2 in
  for _ = 1 to rounds do
    for _ = 1 to batch do
      Engine.schedule e ~delay:1 (fun () -> incr ran)
    done;
    (* The batch precedes the far event: step exactly through it. *)
    for _ = 1 to batch do
      ignore (Engine.step e : bool)
    done
  done;
  check int_t "every event ran across the renumber" (rounds * batch) !ran;
  let log = ref [] in
  List.iter
    (fun i -> Engine.schedule e ~delay:5 (fun () -> log := i :: !log))
    [ 1; 2; 3 ];
  Engine.run e;
  check bool_t "far event survived the renumber" true !far;
  check (Alcotest.list int_t) "FIFO after renumber" [ 1; 2; 3 ] (List.rev !log)

(* --- Process / Waitq --- *)

let test_process_delay_advances_time () =
  let e = Engine.create () in
  let finished = ref (-1) in
  Process.spawn e ~name:"p" (fun () ->
      Process.delay e 100;
      Process.delay e 50;
      finished := Engine.now e);
  Engine.run e;
  check int_t "150 cycles" 150 !finished

let test_process_interleaving () =
  let e = Engine.create () in
  let log = ref [] in
  Process.spawn e ~name:"a" (fun () ->
      Process.delay e 10;
      log := ("a", Engine.now e) :: !log;
      Process.delay e 20;
      log := ("a2", Engine.now e) :: !log);
  Process.spawn e ~name:"b" (fun () ->
      Process.delay e 15;
      log := ("b", Engine.now e) :: !log);
  Engine.run e;
  check
    (Alcotest.list (Alcotest.pair Alcotest.string int_t))
    "interleaved order"
    [ ("a", 10); ("b", 15); ("a2", 30) ]
    (List.rev !log)

let test_process_failure_propagates () =
  let e = Engine.create () in
  Process.spawn e ~name:"boom" (fun () ->
      Process.delay e 5;
      failwith "bang");
  (match Engine.run e with
  | () -> Alcotest.fail "expected Process_failure"
  | exception Process.Process_failure (name, Failure msg) ->
      check Alcotest.string "process name" "boom" name;
      check Alcotest.string "message" "bang" msg
  | exception e -> raise e);
  ()

let test_process_self_name () =
  let e = Engine.create () in
  let seen = ref "" in
  Process.spawn e ~name:"worker-7" (fun () ->
      Process.delay e 1;
      seen := Process.self_name e);
  Engine.run e;
  check Alcotest.string "name visible after resume" "worker-7" !seen

let test_waitq_signal_all () =
  let e = Engine.create () in
  let q = Waitq.create e in
  let woken = ref [] in
  for i = 1 to 3 do
    Process.spawn e ~name:(Printf.sprintf "w%d" i) (fun () ->
        Waitq.wait q;
        woken := i :: !woken)
  done;
  Process.spawn e ~name:"signaller" (fun () ->
      Process.delay e 100;
      Waitq.signal_all q);
  Engine.run e;
  check int_t "all woken" 3 (List.length !woken);
  check int_t "no waiters left" 0 (Waitq.waiters q)

let test_waitq_signal_one_fifo () =
  let e = Engine.create () in
  let q = Waitq.create e in
  let woken = ref [] in
  for i = 1 to 3 do
    Process.spawn e ~name:(Printf.sprintf "w%d" i) (fun () ->
        Waitq.wait q;
        woken := i :: !woken)
  done;
  Process.spawn e ~name:"signaller" (fun () ->
      Process.delay e 10;
      Waitq.signal_one q;
      Process.delay e 10;
      Waitq.signal_one q);
  Engine.run e;
  check (Alcotest.list int_t) "FIFO wakeups" [ 1; 2 ] (List.rev !woken);
  check int_t "one still waiting" 1 (Waitq.waiters q)

let test_completion () =
  let e = Engine.create () in
  let c = Waitq.Completion.create e in
  let order = ref [] in
  Process.spawn e ~name:"waiter" (fun () ->
      Waitq.Completion.wait c;
      order := "woken" :: !order;
      (* A second wait after firing returns immediately. *)
      Waitq.Completion.wait c;
      order := "again" :: !order);
  Process.spawn e ~name:"firer" (fun () ->
      Process.delay e 42;
      Waitq.Completion.fire c);
  Engine.run e;
  check bool_t "fired" true (Waitq.Completion.is_fired c);
  check (Alcotest.list Alcotest.string) "ordering" [ "woken"; "again" ] (List.rev !order)

(* --- Trace --- *)

let test_trace_disabled_by_default () =
  let e = Engine.create () in
  let t = Trace.create e in
  Trace.emit t ~actor:"x" "hello";
  check int_t "no records" 0 (List.length (Trace.records t))

let test_trace_records_in_order () =
  let e = Engine.create () in
  let t = Trace.create ~enabled:true e in
  Process.spawn e ~name:"p" (fun () ->
      Trace.emit t ~actor:"p" "first";
      Process.delay e 10;
      Trace.emitf t ~actor:"p" "second at %d" (Engine.now e));
  Engine.run e;
  match Trace.records t with
  | [ r1; r2 ] ->
      check int_t "t0" 0 r1.Trace.time;
      check int_t "t10" 10 r2.Trace.time;
      check Alcotest.string "fmt" "second at 10" (Trace.event_text r2.Trace.event)
  | records -> Alcotest.failf "expected 2 records, got %d" (List.length records)

let test_trace_typed_events () =
  let e = Engine.create () in
  let t = Trace.create ~enabled:true e in
  Trace.event t ~cpu:3 (Trace.Ipi_send { seq = 7; target = 5 });
  Trace.event t ~cpu:5 (Trace.Ipi_ack { seq = 7; initiator = 3; early = true });
  (match Trace.records t with
  | [ s; a ] ->
      check int_t "sender cpu" 3 s.Trace.cpu;
      check Alcotest.string "send text" "IPI -> cpu5 (seq 7)" (Trace.event_text s.Trace.event);
      check Alcotest.string "ack text" "early ack to cpu3 (seq 7)"
        (Trace.event_text a.Trace.event)
  | rs -> Alcotest.failf "expected 2 records, got %d" (List.length rs));
  check bool_t "emitf is Msg" true
    (Trace.emitf t ~actor:"x" "n=%d" 4;
     match List.rev (Trace.records t) with
     | { Trace.event = Trace.Msg "n=4"; cpu = -1; _ } :: _ -> true
     | _ -> false)

let test_trace_ring_buffer_cap () =
  let e = Engine.create () in
  let t = Trace.create ~enabled:true ~max_records:4 e in
  for i = 1 to 10 do
    Trace.emitf t ~actor:"p" "ev%d" i
  done;
  check int_t "capped length" 4 (Trace.length t);
  check int_t "dropped count" 6 (Trace.dropped t);
  check
    (Alcotest.list Alcotest.string)
    "keeps newest, oldest-first"
    [ "ev7"; "ev8"; "ev9"; "ev10" ]
    (List.map (fun r -> Trace.event_text r.Trace.event) (Trace.records t));
  (* Lifting the cap resumes unbounded growth without losing the tail. *)
  Trace.set_max_records t None;
  Trace.emit t ~actor:"p" "ev11";
  check int_t "grows again" 5 (Trace.length t);
  Trace.clear t;
  check int_t "clear resets length" 0 (Trace.length t);
  check int_t "clear resets dropped" 0 (Trace.dropped t)

(* --- Event pool model test ---

   Randomized schedule / fire / recycle sequences against a simple model,
   checking the pooled-event invariants end to end:

   - every scheduled callback fires exactly once (exact multiset of ids,
     children included), across rounds that recycle every row of the
     previous round;
   - fire times are the scheduled times, delivered monotonically, and
     same-time top-level events keep insertion order.

   The rng only drives test-case generation; the engine itself stays
   deterministic, so a failure reproduces from the fixed seed. *)
let test_engine_pool_model () =
  let rng = Rng.create ~seed:0xd15ea5eL in
  let e = Engine.create () in
  let scheduled = ref [] (* (id, time) of everything ever scheduled *)
  and fired = ref [] (* (id, time) in fire order, newest first *)
  and live = Hashtbl.create 64 (* id -> scheduled fire time, pending only *)
  and top_seq = ref [] (* (time, insertion index, id) of top-level events *)
  and next_id = ref 0
  and gop = ref 0 (* global insertion counter, never reset *) in
  let fresh_id time =
    let id = !next_id in
    incr next_id;
    scheduled := (id, time) :: !scheduled;
    Hashtbl.replace live id time;
    id
  in
  let fire id =
    let time = Engine.now e in
    check bool_t "fires at its scheduled time" true (Hashtbl.find live id = time);
    Hashtbl.remove live id;
    fired := (id, time) :: !fired
  in
  (* Tagged dispatch: one shared handler, the event's [a] is the model id. *)
  let tag = Engine.register_handler e (fun a _b -> fire a) in
  for _round = 1 to 4 do
    for _op = 1 to 400 do
      incr gop;
      let op = !gop in
      let now = Engine.now e in
      let d = Rng.int rng 50 in
      let id = fresh_id (now + d) in
      top_seq := (now + d, op, id) :: !top_seq;
      match Rng.int rng 6 with
      | 0 | 1 | 2 -> Engine.schedule e ~delay:d (fun () -> fire id)
      | 3 | 4 -> Engine.schedule_tag e ~delay:d ~tag ~a:id ~b:0
      | _ ->
          (* A parent whose callback schedules children at fire time —
             delay 0 children land in the same-cycle batch path. *)
          let d1 = Rng.int rng 4 and d2 = Rng.int rng 4 in
          Engine.schedule e ~delay:d (fun () ->
              fire id;
              let c1 = fresh_id (Engine.now e + d1)
              and c2 = fresh_id (Engine.now e + d2) in
              Engine.schedule e ~delay:d1 (fun () -> fire c1);
              Engine.schedule_tag e ~delay:d2 ~tag ~a:c2 ~b:0)
    done;
    Engine.run e;
    (* Queue drained: this round's rows are recycled by the next round. *)
    check int_t "round drained" 0 (Hashtbl.length live)
  done;
  (* Exact multiset: every scheduled id fired exactly once. *)
  let sorted l = List.sort compare (List.map fst l) in
  check (Alcotest.list int_t) "fired exactly the schedule" (sorted !scheduled)
    (sorted !fired);
  (* Delivery order: monotone in time... *)
  let in_order = List.rev !fired in
  ignore
    (List.fold_left
       (fun prev (_, t) ->
         check bool_t "fire times monotone" true (t >= prev);
         t)
       0 in_order);
  (* ... and same-time top-level events keep insertion order. *)
  let pos = Hashtbl.create 64 in
  List.iteri (fun i (id, _) -> Hashtbl.replace pos id i) in_order;
  ignore
    (List.fold_left
       (fun prev (t, _, id) ->
         let i = Hashtbl.find pos id in
         (match prev with
         | Some (pt, pi) when pt = t ->
             check bool_t "FIFO among same-time top-level events" true (pi < i)
         | _ -> ());
         Some (t, i))
       None (List.sort compare !top_seq))

let suite =
  [
    Alcotest.test_case "rng: deterministic streams" `Quick test_rng_deterministic;
    Alcotest.test_case "rng: seed matters" `Quick test_rng_seed_matters;
    Alcotest.test_case "rng: int bounds" `Quick test_rng_int_bounds;
    Alcotest.test_case "rng: int rejects non-positive" `Quick test_rng_int_rejects_nonpositive;
    Alcotest.test_case "rng: float in [0,1)" `Quick test_rng_float_range;
    Alcotest.test_case "rng: bernoulli rate" `Quick test_rng_bool_probability;
    Alcotest.test_case "rng: split independence" `Quick test_rng_split_independent;
    Alcotest.test_case "rng: shuffle is a permutation" `Quick test_rng_shuffle_permutation;
    Alcotest.test_case "rng: exponential mean" `Quick test_rng_exponential_mean;
    Alcotest.test_case "rng: gaussian mean" `Quick test_rng_gaussian_moments;
    Alcotest.test_case "stats: empty" `Quick test_stats_empty;
    Alcotest.test_case "stats: mean/min/max/stddev" `Quick test_stats_basic;
    Alcotest.test_case "stats: percentiles" `Quick test_stats_percentile;
    Alcotest.test_case "stats: percentile interpolation" `Quick test_stats_percentile_interpolates;
    Alcotest.test_case "stats: merge" `Quick test_stats_merge;
    Alcotest.test_case "stats: histogram" `Quick test_histogram;
    Alcotest.test_case "stats: empty-series options" `Quick test_stats_empty_options;
    Alcotest.test_case "stats: nan/inf samples" `Quick test_stats_nan_inf;
    Alcotest.test_case "stats: bounded deterministic reservoir" `Quick
      test_stats_reservoir_bounded_deterministic;
    Alcotest.test_case "stats: merge = single stream" `Quick
      test_stats_merge_matches_single_stream;
    Alcotest.test_case "stats: histogram merge" `Quick test_histogram_merge;
    Alcotest.test_case "engine: time ordering" `Quick test_engine_time_ordering;
    Alcotest.test_case "engine: FIFO at ties" `Quick test_engine_fifo_at_same_time;
    Alcotest.test_case "engine: nested scheduling" `Quick test_engine_nested_scheduling;
    Alcotest.test_case "engine: rejects the past" `Quick test_engine_rejects_past;
    Alcotest.test_case "engine: step" `Quick test_engine_step;
    Alcotest.test_case "engine: clock overflow rejected" `Quick
      test_engine_clock_overflow_rejected;
    Alcotest.test_case "engine: try_advance clock boundary" `Quick
      test_engine_try_advance_clock_boundary;
    Alcotest.test_case "engine: seq renumber preserves FIFO" `Slow
      test_engine_seq_renumber_preserves_fifo;
    Alcotest.test_case "engine: randomized pool schedule/children/recycle model" `Quick
      test_engine_pool_model;
    Alcotest.test_case "process: delay advances time" `Quick test_process_delay_advances_time;
    Alcotest.test_case "process: interleaving" `Quick test_process_interleaving;
    Alcotest.test_case "process: failures propagate" `Quick test_process_failure_propagates;
    Alcotest.test_case "process: self name" `Quick test_process_self_name;
    Alcotest.test_case "waitq: signal_all" `Quick test_waitq_signal_all;
    Alcotest.test_case "waitq: signal_one FIFO" `Quick test_waitq_signal_one_fifo;
    Alcotest.test_case "waitq: completion" `Quick test_completion;
    Alcotest.test_case "trace: disabled is no-op" `Quick test_trace_disabled_by_default;
    Alcotest.test_case "trace: records in order" `Quick test_trace_records_in_order;
    Alcotest.test_case "trace: typed events" `Quick test_trace_typed_events;
    Alcotest.test_case "trace: ring-buffer cap" `Quick test_trace_ring_buffer_cap;
  ]
