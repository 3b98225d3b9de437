(* `explore`: the invariant-exploration harness (lib/explore) end to
   end: enumerate the fault-plan x schedule x backend sweep, run every
   config, check every global invariant after every run, and replay
   each violation from its (backend, seed, plan) key. Report schema
   "spacejmp-bench/6-explore"; the plain "violations" count is the line
   CI greps for zero. A report that faithfully records reproduced
   violations is valid: only an unreproduced one fails a claim. *)

module Explore = Sj_explore.Explore
module Invariant = Sj_explore.Invariant
module Json = Sj_util.Json
module Plan = Sj_fault.Plan

type detail = { res : Explore.result; invariant : string; message : string; reproduced : bool }
type r = { cfgs : Explore.config list; results : Explore.result list; details : detail list }

let distinct cfgs = List.length (List.sort_uniq compare (List.map Explore.key cfgs))
let fuzzed r = List.length (List.filter (fun (c : Explore.config) -> c.seed >= 1000) r.cfgs)
let sorted f r = List.sort_uniq compare (List.concat_map f r.cfgs)
let backends = sorted (fun c -> [ Explore.backend_name c.backend ])
let plan_kinds = sorted (fun c -> List.map Plan.kind_name c.plan)
let mechanisms = sorted (fun c -> [ Explore.mechanism_name c ])

let run { Sj_bench.Experiment.quick; map; progress } =
  let cfgs = Explore.enumerate ~quick in
  progress
    (Printf.sprintf "sweep: %d configs (%d distinct) over fault plan x schedule x backend"
       (List.length cfgs) (distinct cfgs));
  let results = map Explore.run cfgs in
  let violating = List.filter (fun (r : Explore.result) -> r.violations <> []) results in
  progress
    (Printf.sprintf "invariants: %d checked per run; %d violating run(s)"
       (List.length Invariant.all) (List.length violating));
  (* Replay every violating config from its key alone; a violation that
     does not reproduce byte-identically is itself a finding (of
     nondeterminism) and fails the replay claim. *)
  if violating <> [] then
    progress
      (Printf.sprintf "replay: %d violating config(s) from (backend, seed, plan)"
         (List.length violating));
  let details =
    List.concat_map
      (fun (res : Explore.result) ->
        let reproduced = Explore.equal_result res (Explore.run res.cfg) in
        List.map (fun (invariant, message) -> { res; invariant; message; reproduced }) res.violations)
      violating
  in
  { cfgs; results; details }

let enumeration_ok r =
  let n = distinct r.cfgs in
  List.concat
    [
      (if n < 100 then [ Printf.sprintf "only %d distinct configs (floor 100)" n ] else []);
      List.filter_map
        (fun k ->
          if List.mem k (plan_kinds r) then None else Some (Printf.sprintf "plan kind %s never swept" k))
        Plan.all_kinds;
      (if List.length (backends r) < 2 then [ "only one backend swept" ] else []);
      (if List.length (mechanisms r) < 3 then
         [ "mechanism coverage incomplete (" ^ String.concat "," (mechanisms r) ^ ")" ]
       else []);
    ]

let invariants_ok _ =
  let n = List.length Invariant.all in
  if n < 6 then [ Printf.sprintf "only %d invariants checked (floor 6)" n ] else []

let replay_ok r =
  List.filter_map (fun d -> if d.reproduced then None else Some (Explore.key d.res.cfg)) r.details

let to_json r =
  [
    ( "sweep",
      Json.Obj
        [
          ("configs_run", Json.int (List.length r.cfgs));
          ("distinct_configs", Json.int (distinct r.cfgs));
          ("fuzz_configs", Json.int (fuzzed r));
          ("backends", Json.strings (backends r));
          ("plan_kinds", Json.strings (plan_kinds r));
          ("mechanisms", Json.strings (mechanisms r));
        ] );
    ( "invariants",
      Json.Arr
        (List.map
           (fun (i : Invariant.t) -> Json.Row [ ("name", Json.Str i.name); ("doc", Json.Str i.doc) ])
           Invariant.all) );
    ("violations", Json.int (List.length r.details));
    ( "violation_details",
      Json.Arr
        (List.map
           (fun d ->
             let c = d.res.cfg in
             Json.Row
               [
                 ("backend", Json.Str (Explore.backend_name c.backend));
                 ("seed", Json.int c.seed);
                 ("plan", Json.Str (Sj_fault.Plan.to_string c.plan));
                 ("invariant", Json.Str d.invariant);
                 ("message", Json.Str d.message);
                 ("reproduced", Json.Bool d.reproduced);
               ])
           r.details) );
  ]

let required =
  List.map (( ^ ) "sweep.")
    [ "configs_run"; "distinct_configs"; "fuzz_configs"; "backends"; "plan_kinds"; "mechanisms" ]
  @ [ "invariants.*.name"; "invariants.*.doc"; "violations" ]
  @ List.map (( ^ ) "violation_details.*.")
      [ "backend"; "seed"; "plan"; "invariant"; "message"; "reproduced=true" ]

let rows r =
  let p fmt = Printf.printf (fmt ^^ "\n") in
  p "  sweep: %d configs (%d distinct, %d fuzzed)" (List.length r.cfgs) (distinct r.cfgs) (fuzzed r);
  p "  backends:   %s" (String.concat ", " (backends r));
  p "  plan kinds: %s" (String.concat ", " (plan_kinds r));
  p "  mechanisms: %s" (String.concat ", " (mechanisms r));
  p "";
  p "  invariants checked after every run:";
  List.iter (fun (i : Invariant.t) -> p "    %-16s %s" i.name i.doc) Invariant.all;
  p "";
  p "  violations: %d" (List.length r.details);
  List.iter
    (fun d ->
      let c = d.res.cfg in
      p "    [%s] %s seed=%d plan=[%s]%s" d.invariant (Explore.backend_name c.backend) c.seed
        (Sj_fault.Plan.to_string c.plan)
        (if d.reproduced then "" else " (NOT REPRODUCED)");
      p "      %s" d.message)
    r.details

(* Audit a composed-plan config (all the injector machinery lit up at
   once) under every host condition. *)
let audit ~quick =
  let cfgs = Explore.enumerate ~quick in
  let acfg =
    match List.find_opt (fun (c : Explore.config) -> List.length c.plan >= 2) cfgs with
    | Some c -> c
    | None -> List.hd cfgs
  in
  fun () ->
    let r = Explore.run acfg in
    (r.fingerprint, r.fired, r.violations)

(* A replay sample of the sweep's head, so replay fidelity is exercised
   even on a clean run. *)
let replay_sample r () =
  List.for_all2
    (fun cfg r0 -> Explore.equal_result r0 (Explore.run cfg))
    (List.filteri (fun i _ -> i < 3) r.cfgs)
    (List.filteri (fun i _ -> i < 3) r.results)

let spec =
  Sj_bench.Experiment.Spec
    {
      name = "explore";
      doc = "Explore: invariant sweep over fault plans x schedules x backends";
      schema = "spacejmp-bench/6-explore";
      out_path = "BENCH_explore.json";
      run;
      audit;
      extra_audits = (fun ~quick:_ r -> [ ("replay-sample", replay_sample r) ]);
      claims =
        [ ("enumeration_ok", enumeration_ok); ("invariants_ok", invariants_ok); ("replay_ok", replay_ok) ];
      claims_doc =
        ">=100 distinct configs, all plan kinds x backends x mechanisms swept, >=6 invariants, \
         violations replay from their keys";
      to_json;
      required;
      rows;
    }
