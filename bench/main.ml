(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (sec 5), plus the ablations DESIGN.md calls out and a
   bechamel micro section.

   Usage:
     main.exe [-j N] [--quick]                 run everything
     main.exe [-j N] [--quick] fig1 fig10 ...  run selected experiments
   Experiments: table1 fig1 table2 fig6 fig7 fig8 fig10 fig11 ablations checker micro des faults cluster compartments explore fork
   (fig8 includes fig9; fig11 includes fig12). --quick selects CI
   sizes for the experiments that have one (cluster, compartments,
   explore, fork: the Sj_experiments specs, which write BENCH_*.json
   and exit 2 on any divergence or failed claim).

   -j N fans each experiment's independent trials across N domains
   (default: host cores). Every trial simulates its own machine, so the
   output is byte-identical to -j 1; only the wall clock changes. *)

let table1 () =
  Bench_common.section "Table 1: large-memory platforms (simulated)";
  List.iter
    (fun p -> Format.printf "  %a@." Sj_machine.Platform.pp p)
    [ Sj_machine.Platform.m1; Sj_machine.Platform.m2; Sj_machine.Platform.m3 ]

let experiments =
  [
    ("table1", table1);
    ("fig1", Fig1.run);
    ("table2", Table2.run);
    ("fig6", Fig6.run);
    ("fig7", Fig7.run);
    ("fig8", Fig8_9.run);
    ("fig10", Fig10.run);
    ("fig11", Fig11_12.run);
    ("ablations", Ablations.run);
    ("checker", Checker_eval.run);
    ("micro", Micro.run);
    ("des", Desbench.run);
    ("faults", Faultbench.run);
  ]
  @ List.map
      (fun spec ->
        ( Sj_bench.Experiment.name spec,
          fun () ->
            match
              Sj_bench.Experiment.execute ~quick:!Bench_common.quick ~jobs:!Bench_common.jobs spec
            with
            | 0 -> ()
            | code -> exit code ))
      Sj_experiments.all

let () =
  let jobs = ref (Sj_util.Par.default_size ()) in
  let rec parse_jobs = function
    | "-j" :: n :: rest -> (
      match int_of_string_opt n with
      | Some n when n >= 1 ->
        jobs := n;
        parse_jobs rest
      | _ ->
        Printf.eprintf "main: -j expects a positive integer (got %s)\n" n;
        exit 1)
    | "--quick" :: rest ->
      Bench_common.quick := true;
      parse_jobs rest
    | args -> args
  in
  let requested =
    match parse_jobs (List.tl (Array.to_list Sys.argv)) with
    | [] -> List.map fst experiments
    | names -> names
  in
  Bench_common.jobs := !jobs;
  print_endline "SpaceJMP reproduction benchmarks (simulated cycles unless noted)";
  Printf.printf "(-j %d: trials fan across %d domain(s); output is order-stable)\n"
    !jobs !jobs;
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some f -> f ()
      | None ->
        Printf.eprintf "unknown experiment %S; known: %s\n" name
          (String.concat " " (List.map fst experiments));
        exit 1)
    requested
