(* Benchmark worker: set up and run one workload once in this fresh,
   single-domain process, then print one JSON object on stdout.

     sjbench.exe WORKLOAD --seed N [--trace FILE --run-id ID]
     sjbench.exe probe

   The worker calls only the library's public entry points. Untraced,
   it reports host time, GC words, peak heap and the simulated outputs
   (metrics, fingerprint, output checks). With --trace it also records
   spans around its own calls into each layer, attaches an Sj_obs
   recorder to the machines it owns, and writes spans and recorder
   metrics to FILE at exit. run.py starts many workers, takes medians
   and compares fingerprints. *)

module Machine = Sj_machine.Machine
module Core = Machine.Core
module Platform = Sj_machine.Platform
module Cost_model = Sj_machine.Cost_model
module Phys_mem = Sj_mem.Phys_mem
module Page_table = Sj_paging.Page_table
module Prot = Sj_paging.Prot
module Tlb = Sj_tlb.Tlb
module Process = Sj_kernel.Process
module Layout = Sj_kernel.Layout
module Vmspace = Sj_kernel.Vmspace
module Abi = Sj_abi.Sys
module Api = Sj_core.Api
module Segment = Sj_core.Segment
module Registry = Sj_core.Registry
module Recorder = Sj_obs.Recorder
module Metrics = Sj_obs.Metrics
module Cluster = Sj_cluster.Cluster
module Gups = Sj_gups.Gups
module Rng = Sj_util.Rng
module Size = Sj_util.Size

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* ---------- spans ---------- *)

(* Spans live off-heap (Bigarray), so tracing leaves the OCaml heap
   figures of the run alone. Nesting is strict: a span's parent is the
   innermost span open when it started. *)
module Spans = struct
  open Bigarray

  type buf = (int, int_elt, c_layout) Array1.t

  let names = ref [||]

  let register name =
    names := Array.append !names [| name |];
    Array.length !names - 1

  let on = ref false
  let n = ref 0
  let mk len : buf = Array1.create int c_layout len
  let name_a = ref (mk 0)
  let parent_a = ref (mk 0)
  let start_a = ref (mk 0)
  let stop_a = ref (mk 0)
  let stack = Array.make 16 (-1)
  let depth = ref 0

  let grow () =
    let len = max 4096 (2 * Array1.dim !name_a) in
    let copy a =
      let b = mk len in
      Array1.blit !a (Array1.sub b 0 (Array1.dim !a));
      a := b
    in
    List.iter copy [ name_a; parent_a; start_a; stop_a ]

  let enable () =
    on := true;
    grow ()

  (* Returns the span's index, or -1 when tracing is off. *)
  let enter id =
    if not !on then -1
    else begin
      if !n = Array1.dim !name_a then grow ();
      let i = !n in
      incr n;
      !name_a.{i} <- id;
      !parent_a.{i} <- (if !depth = 0 then -1 else stack.(!depth - 1));
      stack.(!depth) <- i;
      incr depth;
      !start_a.{i} <- now_ns ();
      i
    end

  let leave i =
    if i >= 0 then begin
      !stop_a.{i} <- now_ns ();
      decr depth
    end

  let rename i id = if i >= 0 then !name_a.{i} <- id

  (* Per span name: (total self ns, span count). A span's self time is
     its duration minus the durations of its direct children. *)
  let self_times () =
    let dur i = !stop_a.{i} - !start_a.{i} in
    let child = Array.make !n 0 in
    for i = 0 to !n - 1 do
      let p = !parent_a.{i} in
      if p >= 0 then child.(p) <- child.(p) + dur i
    done;
    let tot = Array.make (Array.length !names) 0 and cnt = Array.make (Array.length !names) 0 in
    for i = 0 to !n - 1 do
      let id = !name_a.{i} in
      tot.(id) <- tot.(id) + dur i - child.(i);
      cnt.(id) <- cnt.(id) + 1
    done;
    List.filter_map
      (fun id -> if cnt.(id) = 0 then None else Some (!names.(id), tot.(id), cnt.(id)))
      (List.init (Array.length !names) Fun.id)

  (* The first [limit] spans, one JSON object per line; times in ns
     from the first span's start. *)
  let write oc ~run_id ~limit =
    let t0 = if !n = 0 then 0 else !start_a.{0} in
    for i = 0 to min !n limit - 1 do
      Printf.fprintf oc
        "{\"span\":%d,\"name\":%S,\"start\":%d,\"end\":%d,\"parent\":%d,\"run\":%S}\n" i
        !names.(!name_a.{i}) (!start_a.{i} - t0) (!stop_a.{i} - t0) !parent_a.{i} run_id
    done
end

let sp_setup = Spans.register "bench.setup"
let sp_op = Spans.register "bench.op"
let sp_conn = Spans.register "bench.conn"
let sp_lib_call = Spans.register "bench.library_call"
let sp_create = Spans.register "machine.create"
let sp_load_bytes = Spans.register "machine.load_bytes"
let sp_store_bytes = Spans.register "machine.store_bytes"
let sp_load64 = Spans.register "machine.load64"
let sp_store64 = Spans.register "machine.store64"
let sp_cow_store = Spans.register "paging.cow_store"
let sp_vas_switch = Spans.register "core.vas_switch"
let sp_switch_home = Spans.register "core.switch_home"
let sp_proc_fork = Spans.register "core.proc_fork"
let sp_vas_attach = Spans.register "core.vas_attach"
let sp_vas_fork = Spans.register "core.vas_fork"
let sp_teardown = Spans.register "core.snapshot_teardown"
let sp_exit = Spans.register "core.exit_process"

let create_machine platform =
  let s = Spans.enter sp_create in
  let m = Machine.create platform in
  Spans.leave s;
  m

(* Tracing attaches a recorder to the machine the benchmark owns (the
   newest one, when set-up runs more than once), so the obs metrics can
   be read back. Simulated results do not change. *)
let recorder = ref None

let observe machine =
  if !Spans.on then begin
    let r = Recorder.create () in
    Recorder.attach (Machine.sim_ctx machine) r;
    recorder := Some r
  end

let obs_count f = match !recorder with Some r -> f (Recorder.metrics r) | None -> 0

(* ---------- host-speed probe ---------- *)

(* Other tenants of the host slow every worker by up to 1.8x for minutes
   at a time (README.md, "Noise and host speed"). The probe is a fixed
   pure-OCaml kernel that shares no code with the simulator; run.py runs
   it in its own process between workers and scales each worker's host
   times by how much slower than its reference the probes on either side
   ran. It mixes the kinds of work the simulator's host time is made of:
   hashing with live allocation, random access to a table larger than
   the L2 cache, and short-lived allocation. *)
let probe () =
  let tbl = Bigarray.Array1.init Bigarray.int Bigarray.c_layout (1 lsl 20) Fun.id in
  let t0 = now_ns () in
  let h = Hashtbl.create 1024 and x = ref 12345 in
  for i = 0 to 120_000 do
    x := ((!x * 1103515245) + 12345) land 0x3FFFFFFF;
    Hashtbl.replace h (!x land 0xFFFFF) (i, [ i; !x ]);
    ignore (Hashtbl.find_opt h ((!x lsr 7) land 0xFFFFF))
  done;
  let acc = ref [] in
  for i = 0 to 800_000 do
    x := ((!x * 1103515245) + 12345) land 0x3FFFFFFF;
    let j = !x land 0xFFFFF in
    tbl.{j} <- tbl.{j} + i;
    acc := if i land 63 = 0 then [] else i :: !acc
  done;
  let sum = ref 0 in
  for _ = 0 to 12_000 do
    let l = List.init 100 (fun i -> i * 3) in
    sum := !sum + List.fold_left ( + ) 0 (List.rev_map succ l)
  done;
  ignore (Sys.opaque_identity (!sum, !acc));
  float_of_int (now_ns () - t0) *. 1e-9

(* ---------- workload plumbing ---------- *)

type outcome = {
  ops : int;
  sim_seconds : float;  (** simulated time of the measured work *)
  mean_cycles : float;
  p50_cycles : int;
  p99_cycles : int;
  fingerprint : (string * int) list;
  checks : (string * bool) list;
  counters : (string * float) list;  (** per-layer simulated counts *)
}

(* [setup ~seed] builds everything the measured call needs and returns
   it; calling the result runs the measured work (timed) and returns
   the thunk that derives the outcome (untimed). *)
type workload = {
  planned_ops : int;
  setup : seed:int -> unit -> unit -> outcome;
}

(* Exact nearest-rank percentile of observed values. *)
let percentile sorted p =
  let n = Array.length sorted in
  sorted.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n /. 100.0)) - 1)))

let latency_summary lat =
  let sorted = Array.copy lat in
  Array.sort Int.compare sorted;
  let sum = Array.fold_left ( + ) 0 lat in
  (sum, float_of_int sum /. float_of_int (Array.length lat), percentile sorted 50.0,
   percentile sorted 99.0)

let syscalls sys =
  List.fold_left (fun acc (_, calls, _) -> acc + calls) 0 (Abi.snapshot (Api.syscalls sys))

(* (hits, misses, flushes) summed over every core's TLB. *)
let tlb_totals machine =
  Array.fold_left
    (fun (h, m, f) c ->
      let s = Tlb.stats (Core.tlb c) in
      (h + s.Tlb.hits, m + s.Tlb.misses, f + s.Tlb.flushes))
    (0, 0, 0) (Machine.cores machine)

let seconds machine cycles = Cost_model.cycles_to_seconds (Machine.cost machine) cycles
let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* MD5 of a byte buffer, folded into an OCaml int. *)
let digest_bytes b = Int64.to_int (String.get_int64_le (Digest.bytes b) 0) land max_int

(* ---------- cluster ---------- *)

let cluster_clients = 40_000
let cluster_requests = 2

let cluster_cfg ~seed ~requests =
  {
    Cluster.default with
    clients = cluster_clients;
    requests_per_client = requests;
    pipeline = 2;
    seed;
  }

(* Machine creation happens inside Cluster.run and Gups.run; the traced
   run times the same Machine.create calls on the same platforms. *)
let time_creates platforms =
  if !Spans.on then List.iter (fun p -> ignore (create_machine p)) platforms

let cluster =
  {
    planned_ops = cluster_clients * cluster_requests;
    setup =
      (fun ~seed ->
        let s = Spans.enter sp_setup in
        time_creates [ Platform.m1; Platform.m2; Platform.m3 ];
        ignore (Cluster.run (cluster_cfg ~seed ~requests:0));
        Spans.leave s;
        fun () ->
          let cfg = cluster_cfg ~seed ~requests:cluster_requests in
          let c = Spans.enter sp_lib_call in
          let r = Cluster.run cfg in
          Spans.leave c;
          fun () ->
            let attempted = cfg.clients * cfg.requests_per_client in
            let req = r.Cluster.requests in
            {
              ops = req;
              sim_seconds = r.Cluster.seconds;
              mean_cycles = r.Cluster.mean_latency;
              p50_cycles = r.Cluster.duration_cycles;
              p99_cycles = r.Cluster.duration_cycles;
              fingerprint = r.Cluster.fingerprint;
              checks =
                [
                  ("completed_equals_attempted", req = attempted);
                  ("every_shard_served", Array.for_all (fun n -> n > 0) r.Cluster.shard_served);
                  ("no_crash", not r.Cluster.crashed);
                ];
              counters =
                [
                  ("cluster.avg_batch", r.Cluster.avg_batch);
                  ("cluster.switches_per_req", ratio r.Cluster.switches req);
                  ("ipc.ring_stalls_per_req", ratio r.Cluster.ring_stalls req);
                  ("des.server_backlog_peak", float_of_int r.Cluster.server_backlog_peak);
                  ("des.edge_backlog_peak", float_of_int r.Cluster.edge_backlog_peak);
                ];
            });
  }

(* ---------- switch_storm ---------- *)

let storm_iters = 250_000
let storm_seg_size = Size.kib 64

let switch_storm =
  {
    planned_ops = storm_iters;
    setup =
      (fun ~seed ->
        let s = Spans.enter sp_setup in
        let machine = create_machine Platform.m2 in
        observe machine;
        let sys = Api.boot machine in
        let core = Machine.core machine 0 in
        let ctx = Api.context sys (Process.create ~name:"storm" machine) core in
        let vas = Api.vas_create ctx ~name:"storm" ~mode:0o600 in
        Api.vas_ctl ctx (`Request_tag vas);
        let seg = Api.seg_alloc_anywhere ctx ~name:"storm.seg" ~size:storm_seg_size ~mode:0o600 in
        Api.seg_attach ctx vas seg ~prot:Prot.rw;
        let vh = Api.vas_attach ctx vas in
        let base = Segment.base seg in
        Spans.leave s;
        fun () ->
          let rng = Rng.create ~seed in
          let shadow = Bytes.make storm_seg_size '\000' in
          let lat = Array.make storm_iters 0 in
          let mismatches = ref 0 in
          let reg = Api.registry sys in
          let sw0 = Registry.switch_count reg and sys0 = syscalls sys in
          let h0, m0, f0 = tlb_totals machine in
          let c_start = Core.cycles core in
          for i = 0 to storm_iters - 1 do
            let op = Spans.enter sp_op in
            let c0 = Core.cycles core in
            let off = 8 * Rng.int rng (storm_seg_size / 8) in
            let x = Rng.bits64 rng in
            let s = Spans.enter sp_vas_switch in
            Api.vas_switch ctx vh;
            Spans.leave s;
            let s = Spans.enter sp_load_bytes in
            let b = Core.load_bytes core ~va:(base + off) ~len:8 in
            Spans.leave s;
            let old = Bytes.get_int64_le b 0 in
            if old <> Bytes.get_int64_le shadow off then incr mismatches;
            let v = Int64.logxor old x in
            Bytes.set_int64_le b 0 v;
            Bytes.set_int64_le shadow off v;
            let s = Spans.enter sp_store_bytes in
            Core.store_bytes core ~va:(base + off) b;
            Spans.leave s;
            let s = Spans.enter sp_switch_home in
            Api.switch_home ctx;
            Spans.leave s;
            lat.(i) <- Core.cycles core - c0;
            Spans.leave op
          done;
          let cycles = Core.cycles core - c_start in
          fun () ->
            let switches = Registry.switch_count reg - sw0 and calls = syscalls sys - sys0 in
            let h1, m1, f1 = tlb_totals machine in
            (* Read the whole segment back once and compare it with the
               shadow (after the switch count was taken). *)
            Api.vas_switch ctx vh;
            let final = Core.load_bytes core ~va:base ~len:storm_seg_size in
            Api.switch_home ctx;
            let sum, mean, p50, p99 = latency_summary lat in
            {
              ops = storm_iters;
              sim_seconds = seconds machine cycles;
              mean_cycles = mean;
              p50_cycles = p50;
              p99_cycles = p99;
              fingerprint =
                [
                  ("iterations", storm_iters);
                  ("cycles", cycles);
                  ("latency_sum", sum);
                  ("p50", p50);
                  ("p99", p99);
                  ("switches", switches);
                  ("syscalls", calls);
                  ("tlb_hits", h1 - h0);
                  ("tlb_misses", m1 - m0);
                  ("tlb_flushes", f1 - f0);
                  ("segment_digest", digest_bytes final);
                ];
              checks =
                [
                  ("reads_match_shadow", !mismatches = 0);
                  ("segment_matches_shadow", Bytes.equal final shadow);
                  ("switches_twice_iterations", switches = 2 * storm_iters);
                ];
              counters =
                [
                  ("tlb.hit_ratio", ratio (h1 - h0) (h1 - h0 + m1 - m0));
                  ("tlb.flushes_per_op", ratio (f1 - f0) storm_iters);
                  ("abi.syscalls_per_op", ratio calls storm_iters);
                ];
            });
  }

(* ---------- fork_serve ---------- *)

let fork_conns = 16
let fork_reqs = 64
let fork_store_size = Size.mib 256
let fork_keys = 2_048
let slot_bytes = 64
let words = slot_bytes / 8
let ring_slots = 256
let set_fraction = 0.25

(* The child's response ring sits in the process's private data
   region, which every attachment maps: each response write is a CoW
   break in the child's replica. *)
let ring_base = Layout.data_base + Size.kib 64

let fork_serve =
  {
    planned_ops = fork_conns * fork_reqs;
    setup =
      (fun ~seed ->
        let s = Spans.enter sp_setup in
        let machine = create_machine Platform.m2 in
        observe machine;
        let mem = Machine.mem machine in
        let sys = Api.boot machine in
        let pcore = Machine.core machine 0 in
        let parent = Api.context sys (Process.create ~name:"fs" machine) pcore in
        let vas = Api.vas_create parent ~name:"fs.store" ~mode:0o600 in
        let seg = Api.seg_alloc_anywhere parent ~name:"fs.data" ~size:fork_store_size ~mode:0o600 in
        Api.seg_attach parent vas seg ~prot:Prot.rw;
        let vh = Api.vas_attach parent vas in
        let base = Segment.base seg in
        let va slot w = base + (slot * slot_bytes) + (8 * w) in
        let rng = Rng.create ~seed in
        let store = Array.init (fork_keys * words) (fun _ -> Rng.bits64 rng) in
        (* Every word of the keyspace, read from [ctx]'s current space. *)
        let checksum ctx =
          let acc = ref 17 in
          for slot = 0 to fork_keys - 1 do
            for w = 0 to words - 1 do
              let v = Int64.to_int (Api.load64 ctx ~va:(va slot w)) in
              acc := ((!acc * 1_000_003) + v) land max_int
            done
          done;
          !acc
        in
        Api.vas_switch parent vh;
        Array.iteri (fun i v -> Api.store64 parent ~va:(va (i / words) (i mod words)) v) store;
        let checksum_before = checksum parent in
        Api.switch_home parent;
        Spans.leave s;
        let ncores = Platform.total_cores Platform.m2 in
        fun () ->
          let rng = Rng.create ~seed:(seed + 1) in
          let lat = Array.make (fork_conns * fork_reqs) 0 in
          let get_mismatch = ref 0 and own_mismatch = ref 0 and get_sum = ref 0 in
          let frames = ref 0 and nodes = ref 0 and shared = ref 0 and sim_cycles = ref 0 in
          let sys0 = syscalls sys in
          let h0, m0, f0 = tlb_totals machine in
          let cow0 = obs_count Metrics.cow_faults and copies0 = obs_count Metrics.cow_copies in
          let store64 ctx ~va:a v =
            let before = obs_count Metrics.cow_faults in
            let s = Spans.enter sp_store64 in
            Api.store64 ctx ~va:a v;
            Spans.leave s;
            if s >= 0 && obs_count Metrics.cow_faults > before then Spans.rename s sp_cow_store
          in
          let load64 ctx ~va:a =
            let s = Spans.enter sp_load64 in
            let v = Api.load64 ctx ~va:a in
            Spans.leave s;
            v
          in
          for conn = 0 to fork_conns - 1 do
            let cs = Spans.enter sp_conn in
            let core = Machine.core machine (1 + (conn mod (ncores - 1))) in
            let p0 = Core.cycles pcore and k0 = Core.cycles core in
            let fr0 = Phys_mem.frames_allocated mem in
            let s = Spans.enter sp_proc_fork in
            let child = Api.proc_fork ~name:(Printf.sprintf "conn%d" conn) parent ~core in
            Spans.leave s;
            let s = Spans.enter sp_vas_attach in
            let vh_c = Api.vas_attach child vas in
            Spans.leave s;
            let s = Spans.enter sp_vas_fork in
            let snap = Api.vas_fork child vh_c ~name:(Printf.sprintf "snap%d" conn) in
            Spans.leave s;
            let t, sh = Page_table.count_nodes (Vmspace.page_table (Api.vmspace_of_vh snap)) in
            nodes := !nodes + t;
            shared := !shared + sh;
            let s = Spans.enter sp_vas_switch in
            Api.vas_switch child snap;
            Spans.leave s;
            (* This connection's SETs: slot -> words written. *)
            let own = Hashtbl.create 16 in
            for r = 0 to fork_reqs - 1 do
              let op = Spans.enter sp_op in
              let t0 = Core.cycles core in
              let slot = Rng.int rng fork_keys in
              let sink = ref 0L in
              if Rng.float rng 1.0 < set_fraction then begin
                let vals = Array.init words (fun _ -> Rng.bits64 rng) in
                Array.iteri (fun w v -> store64 child ~va:(va slot w) v) vals;
                Hashtbl.replace own slot vals
              end
              else begin
                let expect w =
                  match Hashtbl.find_opt own slot with
                  | Some vals -> vals.(w)
                  | None -> store.((slot * words) + w)
                in
                for w = 0 to words - 1 do
                  let v = load64 child ~va:(va slot w) in
                  if v <> expect w then incr get_mismatch;
                  sink := Int64.add !sink v
                done
              end;
              let entry = ring_base + ((r mod ring_slots) * slot_bytes) in
              for w = 0 to words - 1 do
                store64 child ~va:(entry + (8 * w)) !sink
              done;
              get_sum := (!get_sum + Int64.to_int !sink) land max_int;
              lat.((conn * fork_reqs) + r) <- Core.cycles core - t0;
              Spans.leave op
            done;
            Hashtbl.iter
              (fun slot vals ->
                Array.iteri
                  (fun w v -> if load64 child ~va:(va slot w) <> v then incr own_mismatch)
                  vals)
              own;
            frames := !frames + Phys_mem.frames_allocated mem - fr0;
            let s = Spans.enter sp_switch_home in
            Api.switch_home child;
            Spans.leave s;
            (* The snapshot, with every SET the connection made, is
               discarded; then the child exits. *)
            let s = Spans.enter sp_teardown in
            Api.vas_detach child snap;
            let shadow_seg = Api.seg_find child ~name:(Printf.sprintf "fs.data@snap%d" conn) in
            Api.vas_ctl child (`Destroy (Api.vas_of_vh snap));
            Api.seg_ctl child (`Destroy shadow_seg);
            Spans.leave s;
            let s = Spans.enter sp_exit in
            Api.exit_process child;
            Spans.leave s;
            sim_cycles := !sim_cycles + (Core.cycles pcore - p0) + (Core.cycles core - k0);
            Spans.leave cs
          done;
          fun () ->
            let calls = syscalls sys - sys0 in
            let h1, m1, f1 = tlb_totals machine in
            (* Fault counts come from the recorder, so only traced runs
               report them. *)
            let cow =
              if !recorder = None then []
              else
                [
                  ( "paging.cow_faults_per_conn",
                    ratio (obs_count Metrics.cow_faults - cow0) fork_conns );
                  ( "paging.cow_copies_per_conn",
                    ratio (obs_count Metrics.cow_copies - copies0) fork_conns );
                ]
            in
            Api.vas_switch parent vh;
            let checksum_after = checksum parent in
            Api.switch_home parent;
            let audit = Page_table.audit mem in
            let imbalanced = List.length audit.Page_table.a_imbalanced in
            let sum, mean, p50, p99 = latency_summary lat in
            let ops = fork_conns * fork_reqs in
            {
              ops;
              sim_seconds = seconds machine !sim_cycles;
              mean_cycles = mean;
              p50_cycles = p50;
              p99_cycles = p99;
              fingerprint =
                [
                  ("requests", ops);
                  ("cycles", !sim_cycles);
                  ("latency_sum", sum);
                  ("p50", p50);
                  ("p99", p99);
                  ("get_sum", !get_sum);
                  ("checksum_before", checksum_before);
                  ("checksum_after", checksum_after);
                  ("frames", !frames);
                  ("pt_nodes", !nodes);
                  ("pt_shared", !shared);
                  ("pt_leaked", audit.Page_table.a_leaked);
                  ("pt_imbalanced", imbalanced);
                  ("syscalls", calls);
                  ("tlb_hits", h1 - h0);
                  ("tlb_misses", m1 - m0);
                  ("tlb_flushes", f1 - f0);
                ];
              checks =
                [
                  ("parent_checksum_unchanged", checksum_after = checksum_before);
                  ("gets_match_shadow", !get_mismatch = 0);
                  ("child_reads_own_sets", !own_mismatch = 0);
                  ("pt_no_leaks", audit.Page_table.a_leaked = 0);
                  ("pt_balanced", imbalanced = 0);
                ];
              counters =
                [
                  ("mem.frames_per_conn", ratio !frames fork_conns);
                  ("paging.shared_node_ratio", ratio !shared !nodes);
                  ("tlb.hit_ratio", ratio (h1 - h0) (h1 - h0 + m1 - m0));
                  ("tlb.flushes_per_op", ratio (f1 - f0) ops);
                  ("abi.syscalls_per_op", ratio calls ops);
                ]
                @ cow;
            });
  }

(* ---------- gups ---------- *)

let gups_visits = 1_500

let gups_cfg ~seed ~visits =
  {
    Gups.default_config with
    windows = 8;
    window_size = Size.mib 64;
    tags = true;
    window_visits = visits;
    seed;
  }

let gups =
  {
    planned_ops = gups_visits * Gups.default_config.updates_per_set;
    setup =
      (fun ~seed ->
        let s = Spans.enter sp_setup in
        time_creates [ Gups.default_config.platform ];
        ignore (Gups.run (gups_cfg ~seed ~visits:0) ~design:Gups.Spacejmp);
        Spans.leave s;
        fun () ->
          let cfg = gups_cfg ~seed ~visits:gups_visits in
          let c = Spans.enter sp_lib_call in
          let r = Gups.run cfg ~design:Gups.Spacejmp in
          Spans.leave c;
          fun () ->
            let updates = r.Gups.updates in
            let bits x = Int64.to_int (Int64.bits_of_float x) in
            {
              ops = updates;
              sim_seconds = r.Gups.seconds;
              mean_cycles = float_of_int r.Gups.cycles /. float_of_int updates;
              p50_cycles = r.Gups.cycles;
              p99_cycles = r.Gups.cycles;
              fingerprint =
                [
                  ("updates", updates);
                  ("cycles", r.Gups.cycles);
                  ("mups_bits", bits r.Gups.mups);
                  ("switches_per_sec_bits", bits r.Gups.switches_per_sec);
                  ("tlb_misses_per_sec_bits", bits r.Gups.tlb_misses_per_sec);
                ];
              checks =
                [
                  ( "updates_equal_visits_times_set",
                    updates = cfg.window_visits * cfg.updates_per_set );
                ];
              counters =
                [
                  ( "gups.tlb_misses_per_update",
                    r.Gups.tlb_misses_per_sec *. r.Gups.seconds /. float_of_int updates );
                ];
            });
  }

let workloads =
  [
    ("cluster", cluster);
    ("switch_storm", switch_storm);
    ("fork_serve", fork_serve);
    ("gups", gups);
  ]

(* ---------- main ---------- *)

let json_float x = Printf.sprintf "%.17g" x

let json_obj fields =
  "{" ^ String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%S:%s" k v) fields) ^ "}"

(* Keeps an exception message a valid JSON string under %S. *)
let printable c = if c = '"' || c = '\\' || c < ' ' || c > '~' then '?' else c

(* Set-ups per worker, each timed for setup_s; the measured run uses
   the last one. *)
let setups = 3

let usage () =
  prerr_endline
    "usage: sjbench.exe WORKLOAD --seed N [--trace FILE --run-id ID] | sjbench.exe probe\n\
     workloads: cluster switch_storm fork_serve gups";
  exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  if args = [ "probe" ] then begin
    Printf.printf "{\"probe_s\":%s}\n" (json_float (probe ()));
    exit 0
  end;
  let name, rest = match args with n :: rest -> (n, rest) | [] -> usage () in
  let w = match List.assoc_opt name workloads with Some w -> w | None -> usage () in
  let seed = ref None and trace = ref None and run_id = ref "" in
  let rec parse = function
    | "--seed" :: v :: r -> seed := int_of_string_opt v; parse r
    | "--trace" :: v :: r -> trace := Some v; parse r
    | "--run-id" :: v :: r -> run_id := v; parse r
    | [] -> ()
    | _ -> usage ()
  in
  parse rest;
  let seed = match !seed with Some s -> s | None -> usage () in
  if !trace <> None then Spans.enable ();
  match
    let setup_s =
      List.init setups (fun _ ->
          let t0 = now_ns () in
          let run = w.setup ~seed in
          (float_of_int (now_ns () - t0) *. 1e-9, run))
    in
    let run = snd (List.nth setup_s (List.length setup_s - 1)) in
    let g0 = Gc.quick_stat () in
    let t0 = now_ns () in
    let finish = run () in
    let run_s = float_of_int (now_ns () - t0) *. 1e-9 in
    let g1 = Gc.quick_stat () in
    let o = finish () in
    (List.map fst setup_s, run_s, g0, g1, o)
  with
  | exception e ->
    print_endline
      (json_obj
         [
           ("planned_ops", string_of_int w.planned_ops);
           ("error", Printf.sprintf "%S" (String.map printable (Printexc.to_string e)));
         ]);
    exit 3
  | setup_s, run_s, g0, g1, o ->
    let g2 = Gc.quick_stat () in
    let self_ns =
      json_obj
        (List.map (fun (n, t, c) -> (n, Printf.sprintf "[%d,%d]" t c)) (Spans.self_times ()))
    in
    let one_line = function '\n' -> ' ' | c -> c in
    (match !trace with
    | None -> ()
    | Some file ->
      let oc = open_out file in
      output_string oc
        (json_obj
           [
             ("run", Printf.sprintf "%S" !run_id);
             ("workload", Printf.sprintf "%S" name);
             ("seed", string_of_int seed);
             ("spans", string_of_int !Spans.n);
             ( "obs_metrics",
               match !recorder with
               | Some r -> String.map one_line (Metrics.to_json (Recorder.metrics r))
               | None -> "null" );
             ("self_ns", self_ns);
           ]);
      output_char oc '\n';
      Spans.write oc ~run_id:!run_id ~limit:20_000;
      close_out oc);
    let ints l = json_obj (List.map (fun (k, v) -> (k, string_of_int v)) l) in
    let floats l = "[" ^ String.concat "," (List.map json_float l) ^ "]" in
    print_endline
      (json_obj
         [
           ("workload", Printf.sprintf "%S" name);
           ("seed", string_of_int seed);
           ("traced", string_of_bool (!trace <> None));
           ("planned_ops", string_of_int w.planned_ops);
           ("ops", string_of_int o.ops);
           ("setup_s", floats setup_s);
           ("run_s", json_float run_s);
           ("minor_words", json_float (g1.Gc.minor_words -. g0.Gc.minor_words));
           ("major_words", json_float (g1.Gc.major_words -. g0.Gc.major_words));
           ("top_heap_words", string_of_int g2.Gc.top_heap_words);
           ("sim_seconds", json_float o.sim_seconds);
           ("mean_cycles", json_float o.mean_cycles);
           ("p50_cycles", string_of_int o.p50_cycles);
           ("p99_cycles", string_of_int o.p99_cycles);
           ("fingerprint", ints o.fingerprint);
           ("checks", json_obj (List.map (fun (k, b) -> (k, string_of_bool b)) o.checks));
           ("counters", json_obj (List.map (fun (k, v) -> (k, json_float v)) o.counters));
           ("self_ns", self_ns);
         ])
