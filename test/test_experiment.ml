(* The shared experiment runner and the report checkers.

   - Refusal: the runner returns exit status 2 and leaves no file behind
     when an audit diverges or a claim fails.
   - Checkers: a fresh --quick report of each schema (written by the
     test/dune rules) is accepted, and so is the same report with a
     string ending in an escaped backslash; every mutant that breaks a
     rule, changes the schema, truncates the text or strips its commas
     is rejected.
   - Committed reports: every BENCH_*.json at the repository root
     passes its spec's checker and records the runner's standard audit
     battery, so a hand-edited or stale report fails here. *)

module Json = Sj_util.Json
module Experiment = Sj_bench.Experiment

(* -- refusal --------------------------------------------------------- *)

let fake ?(claim = fun () -> []) ~name audit =
  Experiment.Spec
    {
      name;
      doc = "Fake: " ^ name;
      schema = "spacejmp-bench/0-fake";
      out_path = "fake_" ^ name ^ ".json";
      run = (fun { Experiment.map; _ } -> map (fun x -> x * x) [ 1; 2; 3 ]);
      audit = (fun ~quick:_ -> audit);
      extra_audits = (fun ~quick:_ _ -> [ ("sum", fun () -> true) ]);
      claims = [ ("fake_claim", fun _ -> claim ()) ];
      claims_doc = "the fake claim";
      to_json = (fun squares -> [ ("squares", Json.ints squares) ]);
      required = [ "squares" ];
      rows = (fun squares -> List.iter (Printf.printf "  %d\n") squares);
    }

let execute spec =
  let out = Experiment.out_path spec in
  if Sys.file_exists out then Sys.remove out;
  let code = Experiment.execute ~quick:true ~jobs:2 spec in
  (code, out)

let test_refuses_divergence () =
  let n = Atomic.make 0 in
  let code, out = execute (fake ~name:"divergent" (fun () -> Atomic.fetch_and_add n 1)) in
  Alcotest.(check int) "exit status" 2 code;
  Alcotest.(check bool) "no report written" false (Sys.file_exists out)

let test_refuses_failed_claim () =
  let code, out =
    execute (fake ~name:"false_claim" ~claim:(fun () -> [ "a counterexample" ]) (fun () -> 7))
  in
  Alcotest.(check int) "exit status" 2 code;
  Alcotest.(check bool) "no report written" false (Sys.file_exists out)

let test_writes_when_sound () =
  let spec = fake ~name:"sound" (fun () -> 7) in
  let code, out = execute spec in
  Alcotest.(check int) "exit status" 0 code;
  Alcotest.(check bool) "report checks" true (Experiment.check_file spec out = Ok ());
  Alcotest.(check int) "refuses -j 0" 2 (Experiment.execute ~out ~quick:true ~jobs:0 spec);
  Sys.remove out

(* -- checkers -------------------------------------------------------- *)

let read path = In_channel.with_open_bin path In_channel.input_all

(* Apply [f] to the member at [path] (a rule's key path), in the first
   element wherever the path says "*"; [f] returning [None] drops it. *)
let rec update path f v =
  match (path, v) with
  | [ k ], Json.Obj kvs ->
    Json.Obj
      (List.filter_map
         (fun (k', x) -> if k' = k then Option.map (fun y -> (k', y)) (f x) else Some (k', x))
         kvs)
  | "*" :: rest, Json.Arr (x :: tl) -> Json.Arr (update rest f x :: tl)
  | k :: rest, Json.Obj kvs ->
    Json.Obj (List.map (fun (k', x) -> if k' = k then (k', update rest f x) else (k', x)) kvs)
  | _ -> v

let path_of rule =
  String.split_on_char '.'
    (match String.index_opt rule '=' with Some i -> String.sub rule 0 i | None -> rule)

let checker_no_weaker ~check ~rules ~claims path () =
  let text = read path in
  let accepts what s =
    match check s with
    | Ok () -> ()
    | Error es -> Alcotest.failf "%s: %s rejected: %s" path what (String.concat "; " es)
  in
  let rejects what s =
    Alcotest.(check bool) (Printf.sprintf "%s: %s rejected" path what) true (Result.is_error (check s))
  in
  let v = match Json.parse text with Ok v -> v | Error e -> Alcotest.fail e in
  accepts "the fresh report" text;
  let ver = Json.Str (Sys.ocaml_version ^ "\\") in
  accepts "an escaped backslash"
    (Json.to_string (update [ "host"; "ocaml_version" ] (fun _ -> Some ver) v));
  (* Every claim the spec names is in the report, so flipping it below
     is a real mutant. *)
  List.iter
    (fun c ->
      Alcotest.(check bool) ("claim " ^ c ^ " present") true
        (Option.bind (Json.member "claims" v) (Json.member c) = Some (Json.Bool true)))
    claims;
  let mutants = ref 0 in
  let mutant what v' =
    if v' <> v then begin
      incr mutants;
      rejects what (Json.to_string v')
    end
  in
  List.iter
    (fun rule ->
      let p = path_of rule in
      mutant ("dropped " ^ rule) (update p (fun _ -> None) v);
      if String.ends_with ~suffix:"=true" rule then
        mutant ("flipped " ^ rule) (update p (fun _ -> Some (Json.Bool false)) v))
    rules;
  Alcotest.(check bool) "mutants built" true (!mutants >= 10);
  mutant "schema changed" (update [ "schema" ] (fun _ -> Some (Json.Str "spacejmp-bench/0")) v);
  let n = String.length text in
  List.iter (fun cut -> rejects (Printf.sprintf "truncated to %d" cut) (String.sub text 0 cut)) [ n / 2; n - 3 ];
  rejects "commas stripped" (String.concat "" (String.split_on_char ',' text))

let spec_named name = List.find (fun s -> Experiment.name s = name) Sj_experiments.all

let spec_case name =
  let spec = spec_named name in
  Alcotest.test_case ("checker rejects mutants: " ^ name) `Quick
    (checker_no_weaker ~check:(Experiment.check_string spec) ~rules:(Experiment.rules spec)
       ~claims:(Experiment.claim_names spec) (Experiment.out_path spec))

(* An explore report that faithfully records a reproduced violation is
   valid; the same violation marked unreproduced is not. *)
let test_explore_violations () =
  let spec = spec_named "explore" in
  let v = match Json.read_file "BENCH_explore.json" with Ok v -> v | Error e -> Alcotest.fail e in
  let with_violation reproduced =
    let detail =
      Json.Obj
        [
          ("backend", Json.Str "dragonfly"); ("seed", Json.int 7); ("plan", Json.Str "grow_fail(nth=1)");
          ("invariant", Json.Str "lock-balance"); ("message", Json.Str "a held lock \"s1\"\\");
          ("reproduced", Json.Bool reproduced);
        ]
    in
    update [ "violations" ] (fun _ -> Some (Json.int 1))
      (update [ "violation_details" ] (fun _ -> Some (Json.Arr [ detail ])) v)
    |> Json.to_string |> Experiment.check_string spec
  in
  Alcotest.(check bool) "reproduced violation accepted" true (with_violation true = Ok ());
  Alcotest.(check bool) "unreproduced violation rejected" true (Result.is_error (with_violation false))

(* -- committed reports ----------------------------------------------- *)

let test_committed_reports () =
  let files =
    Sys.readdir ".." |> Array.to_list
    |> List.filter (fun f -> String.starts_with ~prefix:"BENCH_" f && Filename.check_suffix f ".json")
    |> List.sort compare
  in
  Alcotest.(check bool) "reports found" true (List.length files >= 4);
  let strings = function
    | Some (Json.Arr xs) -> List.filter_map (function Json.Str s -> Some s | _ -> None) xs
    | _ -> []
  in
  let rec starts_with prefix xs =
    match (prefix, xs) with
    | [], _ -> true
    | p :: ps, x :: xs -> p = x && starts_with ps xs
    | _ :: _, [] -> false
  in
  List.iter
    (fun f ->
      let path = Filename.concat ".." f in
      let verdict =
        match List.find_opt (fun s -> Experiment.out_path s = f) Sj_experiments.all with
        | Some spec -> (
          match (Experiment.check_file spec path, Json.read_file path) with
          | (Error _ as e), _ -> e
          | Ok (), Error e -> Error [ e ]
          | Ok (), Ok v ->
            (* The checker proves every claim the spec registers is
               recorded true; the converse catches a claim dropped
               from the spec while the committed report still makes
               it. A report written before the standard battery
               changed does not record it, so it is stale. *)
            let recorded =
              match Json.member "claims" v with Some (Obj kv) -> List.map fst kv | _ -> []
            in
            let audits = strings (Option.bind (Json.member "determinism" v) (Json.member "audits")) in
            if List.sort compare recorded <> List.sort compare (Experiment.claim_names spec)
            then
              Error
                [
                  Printf.sprintf "claims recorded [%s] but the spec registers [%s]"
                    (String.concat "," recorded)
                    (String.concat "," (Experiment.claim_names spec));
                ]
            else if not (starts_with Experiment.standard_audits audits) then
              Error
                [
                  Printf.sprintf "audits recorded [%s] do not start with the standard battery [%s]"
                    (String.concat "," audits)
                    (String.concat "," Experiment.standard_audits);
                ]
            else Ok ())
        | None -> Error [ "no experiment writes " ^ f ]
      in
      match verdict with
      | Ok () -> ()
      | Error es -> Alcotest.failf "%s: %s" f (String.concat "; " es))
    files

let suite =
  [
    Alcotest.test_case "runner refuses a divergent audit" `Quick test_refuses_divergence;
    Alcotest.test_case "runner refuses a failed claim" `Quick test_refuses_failed_claim;
    Alcotest.test_case "runner writes a sound report" `Quick test_writes_when_sound;
  ]
  @ List.map spec_case [ "cluster"; "compartments"; "explore"; "fork" ]
  @ [
      Alcotest.test_case "explore report keeps reproduced violations" `Quick test_explore_violations;
      Alcotest.test_case "committed reports pass their checkers" `Quick test_committed_reports;
    ]
