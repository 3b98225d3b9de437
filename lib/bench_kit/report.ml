(* BENCH report, schema "spacejmp-bench/4".

   v2 extended PR 1's fastpath schema with host metadata (cores, OCaml
   version, -j) and the serial-vs-parallel comparison: aggregate wall
   times for the suite run serially and fanned across the domain pool,
   plus a per-bench equivalence bit for each comparison. v3 added, per
   bench: the shard count, the wall spent on it during the parallel
   batch, and the host GC allocation it caused (minor/major words,
   serial fast-path run) — the counters the zero-allocation work is
   held to. v4 fixes the host block, which recorded only the domain
   count and -j: it now also records the detected core count, and each
   bench carries the shard -> pool-slot placement of the reported
   parallel batch, so a reader can tell a genuinely spread batch from
   one that serialized on a loaded host. Placement is a host artifact —
   it never feeds the fingerprints. The emitter never writes a
   divergent report — the harness exits 2 first — but the checker still
   refuses any report that records one, so a report that exists and
   checks is trustworthy. Both go through {!Sj_util.Json}: the emitter
   builds one value, and the checker parses the full grammar and then
   applies {!rules}. *)

type bench_report = {
  name : string;
  shards : int;  (* parallel-phase tasks this bench contributes *)
  placement : int array;  (* pool slot of each shard, reported batch *)
  equal_between_modes : bool;  (* fast path on vs off *)
  equal_serial_parallel : bool;  (* serial vs domain pool *)
  wall_slow : float;  (* serial, fast path off *)
  wall_fast : float;  (* serial, fast path on *)
  wall_parallel : float;  (* shard walls summed, parallel phase, fast *)
  minor_words : float;  (* Gc minor words, serial fast run *)
  major_words : float;  (* Gc major words, serial fast run *)
  simulated : Suite.fingerprint;
}

type t = {
  quick : bool;
  jobs : int;
  cores : int;  (* Domain.recommended_domain_count *)
  detected_cores : int;  (* OS-reported online processors *)
  ocaml_version : string;
  benches : bench_report list;
  wall_serial : float;  (* fast path on, whole suite, serial *)
  wall_parallel : float;  (* fast path on, whole suite, pool batch wall *)
}

let schema = "spacejmp-bench/4"

(* Online processors as the OS reports them, as opposed to the runtime
   heuristic in [cores]: on a cgroup-limited or SMT host the two
   disagree, and a surprising parallel_speedup is only interpretable
   with both on record. *)
let detected_cores () =
  try
    let ic = open_in "/proc/cpuinfo" in
    let n = ref 0 in
    (try
       while true do
         let line = input_line ic in
         if String.length line >= 9 && String.sub line 0 9 = "processor" then
           incr n
       done
     with End_of_file -> ());
    close_in ic;
    if !n > 0 then !n else Domain.recommended_domain_count ()
  with Sys_error _ -> Domain.recommended_domain_count ()

module Json = Sj_util.Json

let to_json r =
  let bench br =
    Json.Obj
      [
        ("name", Json.Str br.name);
        ("shards", Json.int br.shards);
        ("placement", Json.ints (Array.to_list br.placement));
        ("equal_between_modes", Json.Bool br.equal_between_modes);
        ("equal_serial_parallel", Json.Bool br.equal_serial_parallel);
        ("wall_slow_s", Json.float 6 br.wall_slow);
        ("wall_fast_s", Json.float 6 br.wall_fast);
        ("wall_parallel_s", Json.float 6 br.wall_parallel);
        ("speedup", Json.float 3 (br.wall_slow /. br.wall_fast));
        ("minor_words", Json.float 0 br.minor_words);
        ("major_words", Json.float 0 br.major_words);
        ("simulated", Json.counts br.simulated);
      ]
  in
  let tot_slow = List.fold_left (fun a br -> a +. br.wall_slow) 0. r.benches in
  let tot_fast = List.fold_left (fun a br -> a +. br.wall_fast) 0. r.benches in
  Json.to_string
    (Json.Obj
       [
         ("schema", Json.Str schema);
         ("mode", Json.Str (if r.quick then "quick" else "full"));
         ( "host",
           Json.Obj
             [
               ("cores", Json.int r.cores);
               ("detected_cores", Json.int r.detected_cores);
               ("ocaml_version", Json.Str r.ocaml_version);
               ("jobs", Json.int r.jobs);
             ] );
         ("benches", Json.Arr (List.map bench r.benches));
         ( "aggregate",
           Json.Obj
             [
               ("wall_slow_s", Json.float 6 tot_slow);
               ("wall_fast_s", Json.float 6 tot_fast);
               ("speedup", Json.float 3 (tot_slow /. tot_fast));
               ("wall_serial_s", Json.float 6 r.wall_serial);
               ("wall_parallel_s", Json.float 6 r.wall_parallel);
               (* Four decimals: on a single-core host this ratio's
                  honest ceiling is ~1.0, and whether sharding overhead
                  is above or below zero lives in the fourth digit. *)
               ("parallel_speedup", Json.float 4 (r.wall_serial /. r.wall_parallel));
             ] );
       ])

let rules =
  let each p = List.map (fun k -> p ^ "." ^ k) in
  (("schema=" ^ Json.to_line (Json.Str schema)) :: "mode"
   :: each "host" [ "cores"; "detected_cores"; "ocaml_version"; "jobs" ])
  @ each "benches.*"
      [
        "name"; "shards"; "placement"; "equal_between_modes=true";
        "equal_serial_parallel=true"; "wall_slow_s"; "wall_fast_s";
        "wall_parallel_s"; "speedup"; "minor_words"; "major_words"; "simulated";
      ]
  @ each "aggregate"
      [
        "wall_slow_s"; "wall_fast_s"; "speedup"; "wall_serial_s"; "wall_parallel_s";
        "parallel_speedup";
      ]

let check v = match Json.check rules v with [] -> Ok () | es -> Error es

let check_string s =
  match Json.parse s with Ok v -> check v | Error m -> Error [ m ]

let check_file path =
  match Json.read_file path with Ok v -> check v | Error m -> Error [ m ]
