(* The shared experiment runner: grid fan-out, the audit battery, named
   claims, the report's host and determinism blocks, and the
   write-then-check discipline. Specs supply only what is their own. *)

module Json = Sj_util.Json
module Par = Sj_util.Par

type ctx = {
  quick : bool;
  map : 'a 'b. ('a -> 'b) -> 'a list -> 'b list;
  progress : string -> unit;
}

type ('r, 'fp) spec = {
  name : string;
  doc : string;
  schema : string;
  out_path : string;
  run : ctx -> 'r;
  audit : quick:bool -> unit -> 'fp;
  extra_audits : quick:bool -> 'r -> (string * (unit -> bool)) list;
  claims : (string * ('r -> string list)) list;
  claims_doc : string;
  to_json : 'r -> (string * Json.t) list;
  required : string list;
  rows : 'r -> unit;
}

type t = Spec : ('r, 'fp) spec -> t

let name (Spec s) = s.name
let doc (Spec s) = s.doc
let schema (Spec s) = s.schema
let out_path (Spec s) = s.out_path
let claim_names (Spec s) = List.map fst s.claims

let rules (Spec s as t) =
  [ "schema=" ^ Json.to_line (Json.Str s.schema); "mode"; "host.cores";
    "host.ocaml_version"; "host.jobs" ]
  @ s.required
  @ List.map (fun c -> "claims." ^ c ^ "=true") (claim_names t)
  @ [ "determinism.audits"; "determinism.equal=true" ]

let check t = function
  | Error m -> Error [ m ]
  | Ok v -> ( match Json.check (rules t) v with [] -> Ok () | es -> Error es)

let check_string t s = check t (Json.parse s)
let check_file t path = check t (Json.read_file path)

let standard_audits = [ "rerun"; "trace-on"; "empty-fault-plan"; "domains" ]

(* The battery every experiment runs: the audit config must reproduce
   its reference fingerprint under each host-side condition that must
   not leak into simulated results ([standard_audits], in order), then
   under the spec's own audits. Returns the audit names and the ones
   that diverged, in run order. *)
let audits ~quick ~jobs s r =
  let run = s.audit ~quick in
  let reference = run () in
  let same fp = fp = reference in
  let battery =
    List.combine standard_audits
      [
        (fun () -> same (run ()));
        (fun () -> same (Sj_obs.Recorder.with_tracing true run));
        (fun () -> same (Sj_fault.Injector.with_plan [] run));
        (fun () ->
          Par.with_pool ~size:(max 2 jobs) (fun pool ->
              List.for_all same (Par.map_list pool run [ (); () ])));
      ]
    @ s.extra_audits ~quick r
  in
  (List.map fst battery, List.filter_map (fun (n, ok) -> if ok () then None else Some n) battery)

let note fmt = Printf.ksprintf print_endline fmt

let execute ?out ~quick ~jobs (Spec s as t) =
  let out = Option.value out ~default:s.out_path in
  if jobs < 1 then begin
    Printf.eprintf "%s: --jobs must be >= 1\n" s.name;
    2
  end
  else begin
    let title = s.doc ^ if quick then " (quick)" else "" in
    Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=');
    let map f xs =
      if jobs <= 1 then List.map f xs
      else Par.with_pool ~size:jobs (fun pool -> Par.map_list pool f xs)
    in
    let progress = note "  -- %s" in
    let r = s.run { quick; map; progress } in
    progress "determinism audits";
    let names, divergences = audits ~quick ~jobs s r in
    let verdicts = List.map (fun (c, counterexamples) -> (c, counterexamples r)) s.claims in
    note "";
    s.rows r;
    note "";
    let refuse fmt =
      Printf.ksprintf
        (fun m ->
          Printf.eprintf "%s: %s\n%!" s.name m;
          2)
        fmt
    in
    match List.filter (fun (_, ws) -> ws <> []) verdicts with
    | _ :: _ as failed ->
      refuse "acceptance claims failed:\n%s"
        (String.concat "\n"
           (List.concat_map
              (fun (c, ws) -> List.map (Printf.sprintf "  - %s: %s" c) ws)
              failed))
    | [] when divergences <> [] ->
      refuse "determinism audit divergence (%s); refusing to write %s"
        (String.concat ", " divergences) out
    | [] -> (
      if s.claims <> [] then note "  claims: %s -> all hold" s.claims_doc;
      note "  determinism audits: %s -> identical" (String.concat ", " names);
      let report =
        Json.Obj
          ([
             ("schema", Json.Str s.schema);
             ("mode", Json.Str (if quick then "quick" else "full"));
             ( "host",
               Json.Obj
                 [
                   ("cores", Json.int (Domain.recommended_domain_count ()));
                   ("ocaml_version", Json.Str Sys.ocaml_version);
                   ("jobs", Json.int jobs);
                 ] );
           ]
          @ s.to_json r
          @ (if verdicts = [] then []
             else [ ("claims", Json.Obj (List.map (fun (c, ws) -> (c, Json.Bool (ws = []))) verdicts)) ])
          @ [
              ( "determinism",
                Json.Obj [ ("audits", Json.strings names); ("equal", Json.Bool true) ] );
            ])
      in
      Out_channel.with_open_bin out (fun oc -> output_string oc (Json.to_string report));
      match check_file t out with
      | Ok () ->
        note "  wrote %s (schema %s)" out s.schema;
        0
      | Error es ->
        Sys.remove out;
        refuse "emitted report failed validation:\n%s"
          (String.concat "\n" (List.map (( ^ ) "  - ") es)))
  end
