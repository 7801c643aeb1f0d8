(* Tests for the experiment registry (lib/workloads/experiments.ml): every
   name and group selects plans, and an experiment's output does not depend
   on whether it owns its cells (planned alone) or reads them from an
   earlier entry (planned inside `all`). *)

let check = Alcotest.check
let int_t = Alcotest.int

let plans ctx entries =
  List.map (fun e -> (e.Experiments.name, fst (e.Experiments.build ctx))) entries

let test_every_name_selects_a_plan () =
  check
    Alcotest.(list string)
    "groups" [ "figs5-8"; "ablation"; "all" ] Experiments.groups;
  List.iter
    (fun name ->
      match Experiments.select name with
      | None -> Alcotest.failf "%S selects nothing" name
      | Some entries ->
          check Alcotest.bool (name ^ " selects a non-empty plan list") true
            (List.length (plans (Experiments.context ~quick:true ()) entries) > 0))
    (Experiments.names @ Experiments.groups);
  List.iter
    (fun name ->
      check
        Alcotest.(option (list string))
        (name ^ " selects exactly itself")
        (Some [ name ])
        (Option.map (List.map (fun e -> e.Experiments.name)) (Experiments.select name)))
    Experiments.names;
  check int_t "figs5-8 is four figures" 4
    (List.length (Option.get (Experiments.select "figs5-8")));
  check int_t "ablation is A-E and paravirt" 6
    (List.length (Option.get (Experiments.select "ablation")));
  check int_t "all is the whole registry"
    (List.length Experiments.registry)
    (List.length (Option.get (Experiments.select "all")));
  check Alcotest.bool "unknown name selects nothing" true
    (Option.is_none (Experiments.select "ablation-Z"))

(* Execute the named plans (in registry order) and return [target]'s
   output. *)
let output_of planned ~names ~target =
  let outcomes, _gc =
    Shard.execute ~jobs:1
      (List.filter_map
         (fun (n, p) -> if List.mem n (target :: names) then Some p else None)
         planned)
  in
  (List.find (fun o -> String.equal o.Shard.out_name target) outcomes).Shard.output

(* [target] alone owns every cell it reads; inside `all` it reads at least
   one cell that [owners] own, and its output is byte-identical either
   way. Executing only [owners] and [target] from the `all` planning fails
   (a cell read before execution) if the registry moves those cells to
   another owner. *)
let check_owned_alone_read_in_all ~target ~owners () =
  let alone =
    plans (Experiments.context ~quick:true ()) (Option.get (Experiments.select target))
  in
  let alone_plan = List.assoc target alone in
  check int_t (target ^ " alone reuses nothing") 0 alone_plan.Shard.reused;
  let in_all = plans (Experiments.context ~quick:true ()) Experiments.registry in
  let all_plan = List.assoc target in_all in
  check Alcotest.bool (target ^ " in all reads cells it does not own") true
    (all_plan.Shard.reused > 0);
  check int_t
    (target ^ " owns in all only what it does not read")
    (List.length alone_plan.Shard.jobs)
    (List.length all_plan.Shard.jobs + all_plan.Shard.reused);
  check Alcotest.string
    (target ^ " output identical alone and inside all")
    (output_of alone ~names:[] ~target)
    (output_of in_all ~names:owners ~target)

let suite =
  [
    Alcotest.test_case "every name and group selects a plan" `Quick
      test_every_name_selects_a_plan;
    Alcotest.test_case "table3 owns alone, reads figs5-8 in all" `Quick
      (check_owned_alone_read_in_all ~target:"table3"
         ~owners:[ "fig5"; "fig6"; "fig7"; "fig8" ]);
    Alcotest.test_case "ablation-E owns alone, reads ablation-C in all" `Quick
      (check_owned_alone_read_in_all ~target:"ablation-E" ~owners:[ "ablation-C" ]);
  ]
