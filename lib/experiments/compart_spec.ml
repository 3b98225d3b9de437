(* `compartments`: the three-way crossing-mechanism comparison
   (lib/compart) end to end: a headline trio (one run per mechanism at
   the same shape), the mechanism x compartments x crossing-frequency
   sweep, and three claims: pkey crossings strictly cheaper than both
   alternatives at every sweep shape, zero TLB flushes during pkey
   crossing loops, and hostile probes contained as typed faults. Report
   schema "spacejmp-bench/5-compartments". *)

module Compart = Sj_compart.Compart
module Json = Sj_util.Json
module Size = Sj_util.Size

let mechanisms = [ Compart.Vas_reload; Compart.Cap_invoke; Compart.Pkey ]

(* Headline shape: enough crossings that the per-crossing mean is
   stable, at the default 4-compartment / 8-loads shape. *)
let headline_cfg ~quick =
  if quick then { Compart.default with crossings = 400 }
  else { Compart.default with crossings = 4_000; seg_size = Size.kib 256 }

(* The sweep is about the *shape* of the surface: where the crossing
   mechanism stops dominating (loads_per_crossing), and whether the
   pkey advantage survives at every compartment count up to the full
   15-key register. *)
let grid_cfg ~quick =
  if quick then { Compart.default with crossings = 200 }
  else { Compart.default with crossings = 2_000 }

let grid_cfgs ~quick =
  let comps_l, loads_l = if quick then ([ 2; 8 ], [ 1; 16 ]) else ([ 2; 4; 8; 15 ], [ 1; 8; 64 ]) in
  let g = grid_cfg ~quick in
  List.concat_map
    (fun mechanism ->
      List.concat_map
        (fun compartments ->
          List.map
            (fun loads_per_crossing -> { g with Compart.mechanism; compartments; loads_per_crossing })
            loads_l)
        comps_l)
    mechanisms

type point = { cfg : Compart.config; res : Compart.result }
type r = { headline : point list; grid : point list }

let run { Sj_bench.Experiment.quick; map; progress } =
  let point cfg = { cfg; res = Compart.run cfg } in
  let hcfg = headline_cfg ~quick in
  progress "headline: one run per crossing mechanism, same shape";
  let headline = List.map (fun mechanism -> point { hcfg with Compart.mechanism }) mechanisms in
  let cfgs = grid_cfgs ~quick in
  progress
    (Printf.sprintf "grid: %d points (mechanism x compartments x crossing frequency)"
       (List.length cfgs));
  let grid = map point cfgs in
  progress "claims: pkey strictly cheapest, zero flushes, probes contained";
  { headline; grid }

(* The claims range over every shape, headline included. *)
let points r = r.headline @ r.grid
let pkey_points r = List.filter (fun p -> p.cfg.mechanism = Compart.Pkey) (points r)
let at p = Printf.sprintf "compartments=%d,loads=%d" p.cfg.compartments p.cfg.loads_per_crossing

let shape p = (p.cfg.compartments, p.cfg.loads_per_crossing, p.cfg.crossings)

let pkey_strictly_cheapest r =
  List.concat_map
    (fun p ->
      List.filter_map
        (fun mech ->
          let name = Compart.mechanism_name mech in
          match List.find_opt (fun q -> q.cfg.mechanism = mech && shape q = shape p) (points r) with
          | Some q when p.res.per_crossing < q.res.per_crossing -> None
          | Some q ->
            Some (Printf.sprintf "%s: %.2f >= %.2f vs %s" (at p) p.res.per_crossing q.res.per_crossing name)
          | None -> Some (Printf.sprintf "%s: no %s run" (at p) name))
        [ Compart.Vas_reload; Compart.Cap_invoke ])
    (pkey_points r)

let zero_flush r =
  List.filter_map
    (fun p ->
      let s = p.res in
      if s.flushes <> 0 || s.page_invalidations <> 0 then
        Some (Printf.sprintf "%s: %d flushes, %d invalidations" (at p) s.flushes s.page_invalidations)
      else if s.pkey_switches <> s.crossings then
        Some (Printf.sprintf "%s: %d pkey switches for %d crossings" (at p) s.pkey_switches s.crossings)
      else None)
    (pkey_points r)

let contained r =
  List.filter_map
    (fun p ->
      let v = p.res.violations in
      match p.cfg.mechanism with
      | Compart.Pkey when p.cfg.compartments >= 2 && v <> 2 ->
        Some (Printf.sprintf "%s: %d of 2 probes denied" (at p) v)
      | (Compart.Vas_reload | Compart.Cap_invoke) when v <> 0 ->
        Some (Printf.sprintf "%s: %d unexpected violations" (Compart.mechanism_name p.cfg.mechanism) v)
      | _ -> None)
    (points r)

let point_fields : (string * (point -> Json.t)) list =
  [
    ("mechanism", fun p -> Json.Str (Compart.mechanism_name p.cfg.mechanism));
    ("compartments", fun p -> Json.int p.cfg.compartments);
    ("crossings", fun p -> Json.int p.cfg.crossings);
    ("loads_per_crossing", fun p -> Json.int p.cfg.loads_per_crossing);
    ("tags", fun p -> Json.Bool p.cfg.tags);
    ("total_cycles", fun p -> Json.int p.res.total_cycles);
    ("crossing_cycles", fun p -> Json.int p.res.crossing_cycles);
    ("per_crossing_cycles", fun p -> Json.float 2 p.res.per_crossing);
    ("flushes", fun p -> Json.int p.res.flushes);
    ("page_invalidations", fun p -> Json.int p.res.page_invalidations);
    ("pkey_switches", fun p -> Json.int p.res.pkey_switches);
    ("vas_switches", fun p -> Json.int p.res.vas_switches);
    ("violations", fun p -> Json.int p.res.violations);
    ("simulated", fun p -> Json.counts p.res.fingerprint);
  ]

let point_json p = Json.Obj (List.map (fun (k, f) -> (k, f p)) point_fields)
let point_keys prefix = List.map (fun (k, _) -> prefix ^ "." ^ k) point_fields

let to_json r =
  [
    ( "headline",
      Json.Obj (List.map (fun p -> (Compart.mechanism_name p.cfg.mechanism, point_json p)) r.headline) );
    ("grid", Json.Arr (List.map (fun p -> Json.Obj [ ("point", point_json p) ]) r.grid));
  ]

let required =
  List.concat_map (fun m -> point_keys ("headline." ^ Compart.mechanism_name m)) mechanisms
  @ point_keys "grid.*.point"

let rows r =
  let header () =
    Printf.printf "  %-10s %-11s %5s %6s %6s %12s %10s %8s %8s %6s\n" "run" "mechanism" "comps"
      "loads" "cross" "cycles" "per_cross" "flushes" "wrpkru" "viol"
  in
  let row label p =
    let c = p.cfg and s = p.res in
    Printf.printf "  %-10s %-11s %5d %6d %6d %12d %10.2f %8d %8d %6d\n" label
      (Compart.mechanism_name c.mechanism) c.compartments c.loads_per_crossing s.crossings
      s.total_cycles s.per_crossing s.flushes s.pkey_switches s.violations
  in
  Printf.printf "  headline (same shape, three mechanisms):\n";
  header ();
  List.iter (row "headline") r.headline;
  Printf.printf "\n  sweep grid:\n";
  header ();
  List.iter (row "grid") r.grid

let spec =
  Sj_bench.Experiment.Spec
    {
      name = "compartments";
      doc = "Compartments: crossing mechanisms compared (vas/cap/pkey)";
      schema = "spacejmp-bench/5-compartments";
      out_path = "BENCH_compartments.json";
      run;
      (* Audit the pkey path (the novel one) under every host condition,
         plus a plain rerun of a CR3-reload config. *)
      audit =
        (fun ~quick () ->
          (Compart.run { (grid_cfg ~quick) with mechanism = Compart.Pkey }).fingerprint);
      extra_audits =
        (fun ~quick _ ->
          let vcfg = { (grid_cfg ~quick) with mechanism = Compart.Vas_reload } in
          [ ("rerun-vas", fun () -> (Compart.run vcfg).fingerprint = (Compart.run vcfg).fingerprint) ]);
      claims =
        [
          ("pkey_strictly_cheapest", pkey_strictly_cheapest);
          ("zero_flush_pkey_crossings", zero_flush);
          ("violations_contained", contained);
        ];
      claims_doc =
        "pkey strictly cheapest, zero flushes during pkey crossings, probes contained";
      to_json;
      required;
      rows;
    }
