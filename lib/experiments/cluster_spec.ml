(* `cluster`: the sharded multi-machine KV cluster (lib/cluster) end to
   end: a headline single-op-vs-batched pair (a million simulated
   clients in full mode), the shards x batch x pipeline x backend sweep,
   and availability through a shard crash. Report schema
   "spacejmp-bench/4-cluster". *)

module Cluster = Sj_cluster.Cluster
module Json = Sj_util.Json
module Size = Sj_util.Size

(* Headline scale: full mode is the million-client storm; quick mode
   keeps the same shape at a few-second size for CI. Both compare
   batch=1/pipeline=1 (every request its own ring crossing and switch)
   against the batched+pipelined path at identical scale. *)
let headline_cfg ~quick =
  if quick then
    { Cluster.default with clients = 5_000; requests_per_client = 2; window_cycles = 2_000_000 }
  else
    {
      Cluster.default with
      clients = 1_000_000;
      requests_per_client = 2;
      keys_per_shard = 2_048;
      store_size = Size.mib 32;
      window_cycles = 50_000_000;
    }

(* Grid points are smaller than the headline: the sweep is about the
   *shape* of the surface (where batching stops paying, what pipelining
   buys, Dragonfly vs Barrelfish), not peak scale. *)
let grid_cfg ~quick =
  if quick then
    {
      Cluster.default with
      clients = 1_500;
      requests_per_client = 2;
      keys_per_shard = 128;
      store_size = Size.mib 8;
      window_cycles = 1_000_000;
    }
  else { Cluster.default with clients = 20_000; requests_per_client = 2; window_cycles = 5_000_000 }

let grid_cfgs ~quick =
  let shards_l, batch_l, pipe_l =
    if quick then ([ 4; 8 ], [ 1; 16 ], [ 2 ]) else ([ 4; 8; 16 ], [ 1; 4; 16 ], [ 1; 4 ])
  in
  let g = grid_cfg ~quick in
  List.concat_map
    (fun shards ->
      List.concat_map
        (fun batch ->
          List.concat_map
            (fun pipeline ->
              List.map
                (fun backend -> { g with Cluster.shards; batch; pipeline; backend })
                [ Sj_core.Api.Dragonfly; Sj_core.Api.Barrelfish ])
            pipe_l)
        batch_l)
    shards_l

(* Fault composition: kill shard 1's server mid-storm (it dies holding
   the store's lock, mid-burst), respawn after the delay, and let the
   timeline show the outage against the other shards' steady service.
   kill_at and respawn_delay are sized so crash and full recovery both
   land well inside the run. *)
let victim_shard = 1

let fault_cfg ~quick =
  let kill_at, respawn_delay, window_cycles =
    if quick then (400_000, 1_500_000, 400_000) else (6_000_000, 8_000_000, 2_000_000)
  in
  {
    (grid_cfg ~quick) with
    Cluster.window_cycles;
    fault = Some { Cluster.kill_at; victim_shard; respawn_delay };
  }

type point = { cfg : Cluster.config; res : Cluster.result }
type r = { baseline : point; batched : point; grid : point list; fault : point }

let run { Sj_bench.Experiment.quick; map; progress } =
  let point cfg = { cfg; res = Cluster.run cfg } in
  let hcfg = headline_cfg ~quick in
  progress "headline: single-op baseline (batch=1, pipeline=1)";
  let baseline = point { hcfg with Cluster.batch = 1; pipeline = 1 } in
  progress "headline: batched + pipelined, same scale";
  let batched = point hcfg in
  let cfgs = grid_cfgs ~quick in
  progress
    (Printf.sprintf "grid: %d points (shards x batch x pipeline x backend)" (List.length cfgs));
  let grid = map point cfgs in
  progress "fault: kill shard 1 mid-storm, watch the timeline";
  { baseline; batched; grid; fault = point (fault_cfg ~quick) }

let backend_name = function
  | Sj_core.Api.Dragonfly -> "dragonfly"
  | Sj_core.Api.Barrelfish -> "barrelfish"

let point_fields : (string * (point -> Json.t)) list =
  [
    ("machines", fun p -> Json.int p.cfg.machines);
    ("shards", fun p -> Json.int p.cfg.shards);
    ("batch", fun p -> Json.int p.cfg.batch);
    ("pipeline", fun p -> Json.int p.cfg.pipeline);
    ("backend", fun p -> Json.Str (backend_name p.cfg.backend));
    ("tags", fun p -> Json.Bool p.cfg.tags);
    ("clients", fun p -> Json.int p.cfg.clients);
    ("requests", fun p -> Json.int p.res.requests);
    ("duration_cycles", fun p -> Json.int p.res.duration_cycles);
    ("seconds", fun p -> Json.float 6 p.res.seconds);
    ("throughput_rps", fun p -> Json.float 0 p.res.throughput);
    ("p50_cycles", fun p -> Json.int p.res.p50);
    ("p99_cycles", fun p -> Json.int p.res.p99);
    ("p999_cycles", fun p -> Json.int p.res.p999);
    ("mean_latency_cycles", fun p -> Json.float 0 p.res.mean_latency);
    ("switches", fun p -> Json.int p.res.switches);
    ("batches", fun p -> Json.int p.res.batches);
    ("avg_batch", fun p -> Json.float 2 p.res.avg_batch);
    ("ring_stalls", fun p -> Json.int p.res.ring_stalls);
    ("server_backlog_peak", fun p -> Json.int p.res.server_backlog_peak);
    ("edge_backlog_peak", fun p -> Json.int p.res.edge_backlog_peak);
    ("simulated", fun p -> Json.counts p.res.fingerprint);
  ]

let point_json p = Json.Obj (List.map (fun (k, f) -> (k, f p)) point_fields)
let point_keys prefix = List.map (fun (k, _) -> prefix ^ "." ^ k) point_fields
let speedup r = r.batched.res.throughput /. r.baseline.res.throughput

let to_json r =
  let f = r.fault in
  [
    ( "headline",
      Json.Obj
        [
          ("baseline", point_json r.baseline);
          ("batched", point_json r.batched);
          ("speedup", Json.float 3 (speedup r));
        ] );
    ("grid", Json.Arr (List.map (fun p -> Json.Obj [ ("point", point_json p) ]) r.grid));
    ( "fault",
      Json.Obj
        [
          ("run", point_json f);
          ( "outage",
            match f.res.outage with
            | None -> Json.Null
            | Some o ->
              Json.Obj
                [
                  ("crashed_at", Json.int o.crashed_at);
                  ("recovered_at", Json.int o.recovered_at);
                  ("outage_cycles", Json.int o.outage_cycles);
                ] );
          ("window_cycles", Json.int f.cfg.window_cycles);
          ( "timeline",
            Json.Arr (Array.to_list (Array.map (fun row -> Json.ints (Array.to_list row)) f.res.timeline)) );
        ] );
  ]

let required =
  point_keys "headline.baseline" @ point_keys "headline.batched" @ [ "headline.speedup" ]
  @ point_keys "grid.*.point" @ point_keys "fault.run"
  @ [ "fault.outage"; "fault.window_cycles"; "fault.timeline" ]

let rows r =
  let header () =
    Printf.printf "  %-10s %3s %5s %5s  %-10s %12s %10s %10s %10s %8s %8s\n" "run" "K" "batch"
      "pipe" "backend" "rps" "p50" "p99" "p999" "avg_b" "stalls"
  in
  let row label p =
    let c = p.cfg and s = p.res in
    Printf.printf "  %-10s %3d %5d %5d  %-10s %12.0f %10d %10d %10d %8.2f %8d\n" label c.shards
      c.batch c.pipeline (backend_name c.backend) s.throughput s.p50 s.p99 s.p999 s.avg_batch
      s.ring_stalls
  in
  Printf.printf "  headline (%d clients x %d requests):\n" r.baseline.cfg.clients
    r.baseline.cfg.requests_per_client;
  header ();
  row "single-op" r.baseline;
  row "batched" r.batched;
  Printf.printf "  batching+pipelining speedup: %.2fx\n" (speedup r);
  Printf.printf "\n  sweep grid:\n";
  header ();
  List.iter (row "grid") r.grid;
  let f = r.fault.res in
  Printf.printf "\n  fault: shard %d killed mid-storm\n" victim_shard;
  (match f.outage with
  | None -> Printf.printf "  (no outage recorded)\n"
  | Some o ->
    Printf.printf "  crashed at %d, recovered at %d: %d cycles of outage\n" o.crashed_at
      o.recovered_at o.outage_cycles);
  Printf.printf "  %-8s %12s %12s %12s\n" "window" "served" "victim" "others";
  Array.iteri
    (fun w row ->
      let total = Array.fold_left ( + ) 0 row in
      Printf.printf "  %-8d %12d %12d %12d\n" w total row.(victim_shard) (total - row.(victim_shard)))
    f.timeline

let spec =
  Sj_bench.Experiment.Spec
    {
      name = "cluster";
      doc = "Cluster: sharded KV, batched+pipelined request path";
      schema = "spacejmp-bench/4-cluster";
      out_path = "BENCH_cluster.json";
      run;
      audit = (fun ~quick () -> (Cluster.run (grid_cfg ~quick)).fingerprint);
      extra_audits =
        (fun ~quick r ->
          [ ("fault-rerun", fun () -> (Cluster.run (fault_cfg ~quick)).fingerprint = r.fault.res.fingerprint) ]);
      claims = [];
      claims_doc = "";
      to_json;
      required;
      rows;
    }
