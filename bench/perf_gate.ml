(* Perf regression gate over BENCH_PERF.json (bench/perf_row.ml).

     perf_gate.exe BASELINE.json CURRENT.json [--threshold 0.25]

   One loop over the baseline's rows. A row missing from the current file
   fails. For each gated metric of the row's family (Perf_row.gates) the
   gate compares the current value with the baseline's and fails when it
   moved the wrong way by more than the threshold. A metric that cannot
   be compared — its row did too little work, or either side lacks the
   value — prints a skip line with the reason.

   Simulated metrics (words/op, cycles, throughput, phase latencies) are
   deterministic, so they are compared raw. Host throughput varies from
   machine to machine, so engine_ops_per_s is compared as a share of the
   file's own total. Finally the current file's 1024-CPU bigmachine row
   must stay within 2x of the 56-CPU row's cycles/shootdown. *)

open Perf_row

let die msg =
  prerr_endline ("perf_gate: " ^ msg);
  exit 2

let find rows ~family ~key =
  List.find_opt
    (fun (r : row) -> String.equal r.family family && String.equal r.key key)
    rows

let metric (r : row) m =
  match List.assoc_opt m r.metrics with
  | None -> Error (m ^ " missing")
  | Some None -> Error (m ^ " null")
  | Some (Some v) -> Ok v

(* The value [g] compares in [r], or why there is none. *)
let gated_value g file r =
  let unmet =
    List.find_map
      (fun (m, bound) ->
        match metric r m with
        | Error why -> Some why
        | Ok v when v < bound -> Some (Printf.sprintf "%s %g < %g" m v bound)
        | Ok _ -> None)
      g.needs
  in
  match (unmet, metric r g.metric, g.kind) with
  | Some why, _, _ | None, Error why, _ -> Error why
  | None, Ok v, Raw -> Ok v
  | None, Ok v, Normalized -> (
      match find file.rows ~family:"total" ~key:"run" with
      | Some total -> (
          match metric total g.metric with
          | Ok t when t > 0.0 -> Ok (v /. t)
          | _ -> Error ("no total " ^ g.metric))
      | None -> Error "no total/run row")

let () =
  let threshold = ref 0.25 in
  let rec args acc = function
    | [] -> List.rev acc
    | "--threshold" :: t :: rest ->
        threshold := float_of_string t;
        args acc rest
    | f :: rest -> args (f :: acc) rest
  in
  let base_path, cur_path =
    match args [] (List.tl (Array.to_list Sys.argv)) with
    | [ b; c ] -> (b, c)
    | _ -> die "usage: perf_gate.exe BASELINE.json CURRENT.json [--threshold 0.25]"
  in
  let load path =
    match read path with
    | Error msg -> die msg
    | Ok f ->
        (* Rows of a newer schema are read, but only the families and
           metrics this gate's table names are gated: say so. *)
        if f.file_schema > schema then
          Printf.eprintf
            "perf_gate: %s declares schema %d (gate supports %d): unknown newer schema \
             rows present and not gated\n"
            path f.file_schema schema;
        f
  in
  let base = load base_path and cur = load cur_path in
  if List.is_empty base.rows then die ("no rows in " ^ base_path);
  let t = !threshold in
  let failed = ref 0 in
  let line verdict id what = Printf.printf "%s %-40s %s\n" verdict id what in
  let check ok id what =
    if not ok then incr failed;
    line (if ok then "ok  " else "FAIL") id what
  in
  List.iter
    (fun (b : row) ->
      let id = b.family ^ "/" ^ b.key in
      match find cur.rows ~family:b.family ~key:b.key with
      | None -> check false id "missing from current run"
      | Some c ->
          List.iter
            (fun g ->
              let skip why = line "skip" id (g.metric ^ ": " ^ why) in
              if String.equal g.family b.family then
                match (gated_value g base b, gated_value g cur c) with
                | Error why, _ -> skip ("baseline " ^ why)
                | _, Error why -> skip ("current " ^ why)
                | Ok bv, _ when bv <= 0.0 -> skip "baseline is 0"
                | Ok bv, Ok cv ->
                    let rel = cv /. bv in
                    let ok, limit =
                      match g.better with
                      | Lower -> (rel <= 1.0 +. t, 1.0 +. t)
                      | Higher -> (rel >= 1.0 -. t, 1.0 -. t)
                    in
                    check ok id
                      (Printf.sprintf "%s %.2fx of baseline%s (%.6g vs %.6g, limit %.2fx)"
                         g.metric rel
                         (match g.kind with Raw -> "" | Normalized -> " normalized")
                         cv bv limit))
            gates)
    base.rows;
  (* The O(active CPUs) property of the cpuset layer, checked within the
     current run whatever the baseline holds. *)
  let scale = List.find (fun g -> String.equal g.family "bigmachine") gates in
  let cycles n =
    Option.map (gated_value scale cur)
      (find cur.rows ~family:"bigmachine" ~key:(Printf.sprintf "bigmachine-%d" n))
  in
  (match (cycles 56, cycles 1024) with
  | Some (Ok small), Some (Ok big) when small > 0.0 ->
      let rel = big /. small in
      check (rel <= 2.0) "scaling"
        (Printf.sprintf "1024-CPU cycles/shootdown %.2fx of 56-CPU (limit 2.00x)" rel)
  | _ -> ());
  if !failed > 0 then begin
    Printf.printf "%d check(s) regressed more than %.0f%%\n" !failed (t *. 100.0);
    exit 1
  end;
  print_endline "perf gate passed"
