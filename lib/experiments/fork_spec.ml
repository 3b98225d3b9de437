(* `fork`: the fork-serving KV comparison (lib/kvstore's kv_fork) end
   to end: a headline pair (prefork pool vs fork-per-connection at the
   same shape), the serving-mode x connections x write-fraction sweep,
   and six claims: fork-per-connection runs show a measurable CoW fault
   storm, the prefork pool takes zero steady-state CoW faults, the
   parent's store is unwritten by any connection, every forked family
   shares >90% of its page-table nodes pre-write, the page-table
   refcount audit is leak-free and balanced after every run, and the
   prefork pool out-serves fork-per-connection. Report schema
   "spacejmp-bench/7-fork". *)

module Kv_fork = Sj_kvstore.Kv_fork
module Json = Sj_util.Json

let modes = [ Kv_fork.Prefork { workers = 4 }; Kv_fork.Fork_per_conn ]

(* Headline shape: enough connections that the p99 sits inside the
   storm, at the default 25%-write mix. *)
let headline_cfg ~quick =
  if quick then { Kv_fork.default with connections = 8; requests_per_conn = 16 }
  else { Kv_fork.default with connections = 32; requests_per_conn = 32 }

(* The sweep is about the *shape* of the surface: how the storm scales
   with connection count, and whether a read-only mix still pays it
   (it does: connection bookkeeping breaks the child's CoW pages even
   when no SET touches the snapshot). *)
let grid_cfg ~quick =
  if quick then { Kv_fork.default with connections = 4; requests_per_conn = 8 }
  else { Kv_fork.default with connections = 12; requests_per_conn = 16 }

let grid_cfgs ~quick =
  let conns_l, sets_l = if quick then ([ 4; 8 ], [ 0.0; 0.5 ]) else ([ 4; 12; 24 ], [ 0.0; 0.25; 0.5 ]) in
  let g = grid_cfg ~quick in
  List.concat_map
    (fun mode ->
      List.concat_map
        (fun connections ->
          List.map (fun set_fraction -> { g with Kv_fork.mode; connections; set_fraction }) sets_l)
        conns_l)
    modes

type point = { cfg : Kv_fork.config; res : Kv_fork.result }
type r = { headline : point list; grid : point list }

let run { Sj_bench.Experiment.quick; map; progress } =
  let point cfg = { cfg; res = Kv_fork.run cfg } in
  let hcfg = headline_cfg ~quick in
  progress "headline: one run per serving mode, same shape";
  let headline = List.map (fun mode -> point { hcfg with Kv_fork.mode }) modes in
  let cfgs = grid_cfgs ~quick in
  progress
    (Printf.sprintf "grid: %d points (serving mode x connections x write fraction)"
       (List.length cfgs));
  let grid = map point cfgs in
  progress "claims: storm present, prefork steady-state clean, store unwritten";
  { headline; grid }

(* Each claim ranges over every shape, headline included, and names the
   shapes that break it. *)
let failing pred r =
  List.filter_map
    (fun p ->
      let c = p.cfg in
      let at =
        Printf.sprintf "%s(connections=%d,sets=%.2f)" (Kv_fork.mode_name c.mode) c.connections
          c.set_fraction
      in
      Option.map (fun why -> at ^ why) (pred p))
    (r.headline @ r.grid)

(* Every connection is two Fork events: the proc_fork of the worker and
   the vas_fork of its snapshot. *)
let fault_storm =
  failing (fun { cfg = c; res = s } ->
      match c.mode with
      | Kv_fork.Prefork _ -> None
      | Kv_fork.Fork_per_conn when s.cow_faults = 0 -> Some ": no CoW fault storm"
      | Kv_fork.Fork_per_conn when s.forks <> 2 * c.connections ->
        Some (Printf.sprintf ": %d of %d forks" s.forks (2 * c.connections))
      | Kv_fork.Fork_per_conn -> None)

let prefork_steady =
  failing (fun { cfg = c; res = s } ->
      match c.mode with
      | Kv_fork.Prefork _ when s.steady_cow_faults <> 0 ->
        Some (Printf.sprintf ": %d steady-state faults" s.steady_cow_faults)
      | _ -> None)

let store_unwritten =
  failing (fun { cfg = c; res = s } ->
      if c.mode = Kv_fork.Fork_per_conn && s.checksum_before <> s.checksum_after then
        Some ": store written"
      else None)

let sharing =
  failing (fun { res = s; _ } ->
      if float_of_int s.share_shared <= 0.9 *. float_of_int (max 1 s.share_total) then
        Some (Printf.sprintf ": %d/%d nodes shared" s.share_shared s.share_total)
      else None)

let leak_free =
  failing (fun { res = s; _ } ->
      if s.pt_leaked <> 0 || s.pt_imbalanced <> 0 then
        Some (Printf.sprintf ": %d leaked, %d imbalanced" s.pt_leaked s.pt_imbalanced)
      else None)

let prefork_faster r =
  let find m = List.find_opt (fun p -> Kv_fork.mode_name p.cfg.mode = m) r.headline in
  match (find "prefork", find "fork_per_conn") with
  | Some pf, Some fc when pf.res.throughput > fc.res.throughput -> []
  | Some pf, Some fc ->
    [ Printf.sprintf "%.1f <= %.1f rps" pf.res.throughput fc.res.throughput ]
  | _ -> [ "a headline mode is missing" ]

let point_fields : (string * (point -> Json.t)) list =
  [
    ("mode", fun p -> Json.Str (Kv_fork.mode_name p.cfg.mode));
    ("connections", fun p -> Json.int p.cfg.connections);
    ("requests_per_conn", fun p -> Json.int p.cfg.requests_per_conn);
    ("set_fraction", fun p -> Json.float 2 p.cfg.set_fraction);
    ("store_bytes", fun p -> Json.int p.cfg.store_size);
    ("requests", fun p -> Json.int p.res.requests);
    ("throughput_rps", fun p -> Json.float 1 p.res.throughput);
    ("latency_p50_cycles", fun p -> Json.float 1 p.res.p50);
    ("latency_p99_cycles", fun p -> Json.float 1 p.res.p99);
    ("forks", fun p -> Json.int p.res.forks);
    ("cow_faults", fun p -> Json.int p.res.cow_faults);
    ("steady_cow_faults", fun p -> Json.int p.res.steady_cow_faults);
    ("cow_copies", fun p -> Json.int p.res.cow_copies);
    ("pt_nodes_total", fun p -> Json.int p.res.share_total);
    ("pt_nodes_shared", fun p -> Json.int p.res.share_shared);
    ("checksum_stable", fun p -> Json.Bool (p.res.checksum_before = p.res.checksum_after));
    ("pt_leaked", fun p -> Json.int p.res.pt_leaked);
    ("pt_imbalanced", fun p -> Json.int p.res.pt_imbalanced);
    ("simulated", fun p -> Json.counts p.res.fingerprint);
  ]

let point_json p = Json.Obj (List.map (fun (k, f) -> (k, f p)) point_fields)
let point_keys prefix = List.map (fun (k, _) -> prefix ^ "." ^ k) point_fields

let to_json r =
  [
    ("headline", Json.Obj (List.map (fun p -> (Kv_fork.mode_name p.cfg.mode, point_json p)) r.headline));
    ("grid", Json.Arr (List.map (fun p -> Json.Obj [ ("point", point_json p) ]) r.grid));
  ]

let required =
  List.concat_map (fun m -> point_keys ("headline." ^ Kv_fork.mode_name m)) modes
  @ point_keys "grid.*.point"

let rows r =
  let header () =
    Printf.printf "  %-10s %-13s %5s %5s %5s %10s %8s %9s %6s %6s %6s %7s\n" "run" "mode" "conns"
      "reqs" "sets" "thr(rps)" "p50" "p99" "forks" "cow" "copies" "share"
  in
  let row label p =
    let c = p.cfg and s = p.res in
    Printf.printf "  %-10s %-13s %5d %5d %5.2f %10.0f %8.0f %9.0f %6d %6d %6d %7s\n" label
      (Kv_fork.mode_name c.mode) c.connections c.requests_per_conn c.set_fraction s.throughput
      s.p50 s.p99 s.forks s.cow_faults s.cow_copies
      (Printf.sprintf "%d/%d" s.share_shared s.share_total)
  in
  Printf.printf "  headline (same shape, both serving modes):\n";
  header ();
  List.iter (row "headline") r.headline;
  Printf.printf "\n  sweep grid:\n";
  header ();
  List.iter (row "grid") r.grid

let spec =
  Sj_bench.Experiment.Spec
    {
      name = "fork";
      doc = "Fork: prefork pool vs fork-per-connection KV serving";
      schema = "spacejmp-bench/7-fork";
      out_path = "BENCH_fork.json";
      run;
      (* Audit the fork-per-connection path (the novel one) under every
         host condition, plus a plain rerun of a prefork config. *)
      audit =
        (fun ~quick () ->
          (Kv_fork.run { (grid_cfg ~quick) with mode = Kv_fork.Fork_per_conn }).fingerprint);
      extra_audits =
        (fun ~quick _ ->
          let pcfg = { (grid_cfg ~quick) with mode = Kv_fork.Prefork { workers = 4 } } in
          [ ("rerun-prefork", fun () -> (Kv_fork.run pcfg).fingerprint = (Kv_fork.run pcfg).fingerprint) ]);
      claims =
        [
          ("fault_storm_measured", fault_storm);
          ("prefork_steady_zero", prefork_steady);
          ("parent_store_unwritten", store_unwritten);
          ("sharing_over_90", sharing);
          ("refcounts_leak_free", leak_free);
          ("prefork_faster", prefork_faster);
        ];
      claims_doc =
        "storm measured, prefork steady-state clean, store unwritten, sharing >90%, refcounts \
         leak-free";
      to_json;
      required;
      rows;
    }
