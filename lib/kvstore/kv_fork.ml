(* Fork-serving KV store: the same request stream served by two process
   architectures, so the cost of forking in a multi-VAS world is
   directly measurable.

   - [Prefork]        W workers are [proc_fork]ed once at boot, each on
                      its own core, and kept for the whole run. A
                      request is: switch into the store VAS, touch the
                      slot, write the response into the worker's
                      private data ring, switch home. After the warmup
                      pass privatized the ring, steady state takes ZERO
                      copy-on-write faults.
   - [Fork_per_conn]  every connection [proc_fork]s a fresh child which
                      then [vas_fork]s the store VAS and serves its
                      whole batch against that snapshot: GETs read
                      through the shared subtrees, SETs break-and-copy
                      into the snapshot (discarded with it), the
                      child's connection bookkeeping breaks pages of
                      its CoW primary space, and response writes fault
                      in the attachment replica — the per-connection
                      fault storm the bench quantifies. The parent's
                      store is never written.

   Each run builds its own machine and recorder (enabled regardless of
   ambient tracing, so the trace-on audit cannot change behaviour). The
   measured per-request service cycles come from the simulated core;
   the DES engine then replays connection arrivals against a bounded
   core pool for throughput. All claims the fork experiment checks
   (fault-storm presence/absence, parent-checksum stability, >90%
   page-table sharing) are computed here, next to the workload. *)

open Sj_util
module Machine = Sj_machine.Machine
module Core = Machine.Core
module Platform = Sj_machine.Platform
module Process = Sj_kernel.Process
module Layout = Sj_kernel.Layout
module Page_table = Sj_paging.Page_table
module Prot = Sj_paging.Prot
module Api = Sj_core.Api
module Segment = Sj_core.Segment
module Vas = Sj_core.Vas
module Recorder = Sj_obs.Recorder
module Metrics = Sj_obs.Metrics
module Engine = Sj_des.Engine
module Resource = Sj_des.Resource

type mode = Prefork of { workers : int } | Fork_per_conn

let mode_name = function
  | Prefork _ -> "prefork"
  | Fork_per_conn -> "fork_per_conn"

type config = {
  platform : Platform.t;
  mode : mode;
  connections : int;
  requests_per_conn : int;
  set_fraction : float;
  keyspace : int;  (* slots actually seeded and addressed *)
  store_size : int;  (* segment size: the page-table-sharing axis *)
  ring_slots : int;  (* response ring entries (64 B each) per worker *)
  cores : int;  (* DES service-core pool *)
  interarrival : int;  (* cycles between connection arrivals *)
  seed : int;
}

(* 256 MiB store: big enough that a forked family shares >90% of its
   page-table nodes even after the private region is re-replicated. *)
let default =
  {
    platform = Platform.m2;
    mode = Fork_per_conn;
    connections = 24;
    requests_per_conn = 24;
    set_fraction = 0.25;
    keyspace = 2_048;
    store_size = Size.mib 256;
    ring_slots = 256;
    cores = 8;
    interarrival = 25_000;
    seed = 0xF0F;
  }

type result = {
  requests : int;
  connections : int;
  seconds : float;
  throughput : float;  (* requests per simulated second *)
  p50 : float;  (* per-request service cycles *)
  p99 : float;
  forks : int;
  cow_faults : int;
  steady_cow_faults : int;  (* prefork: faults after the warmup pass *)
  cow_copies : int;
  share_total : int;  (* fork page-table census (first fork) *)
  share_shared : int;
  checksum_before : int;
  checksum_after : int;
  pt_leaked : int;
  pt_imbalanced : int;
  fingerprint : (string * int) list;
}

let slot_bytes = 64
let words_per_slot = slot_bytes / 8

(* Deterministic slot contents: a mix of (seed, slot, word) so the GET
   checksums prove the reads hit real per-slot data. *)
let word_value ~seed ~slot ~word =
  let x = (seed * 0x9E3779B1) lxor (slot * 0x85EBCA77) lxor (word * 0xC2B2AE35) in
  Int64.of_int (x land 0x3FFF_FFFF)

let run cfg =
  if cfg.keyspace * slot_bytes > cfg.store_size then
    invalid_arg "Kv_fork.run: keyspace does not fit the store";
  let machine = Machine.create cfg.platform in
  let rec_ = Recorder.create () in
  Recorder.attach (Machine.sim_ctx machine) rec_;
  let mets = Recorder.metrics rec_ in
  let sys = Api.boot ~backend:Api.Dragonfly machine in
  let ncores = Platform.total_cores cfg.platform in
  let parent_proc = Process.create ~name:"kvf" machine in
  let parent = Api.context sys parent_proc (Machine.core machine 0) in
  (* The store: one big segment in one VAS, seeded over the keyspace. *)
  let vas = Api.vas_create parent ~name:"kvf.store" ~mode:0o600 in
  let seg = Api.seg_alloc_anywhere parent ~name:"kvf.data" ~size:cfg.store_size ~mode:0o600 in
  Api.seg_attach parent vas seg ~prot:Prot.rw;
  let vh = Api.vas_attach parent vas in
  let base = Segment.base seg in
  let slot_va slot = base + (slot * slot_bytes) in
  Api.vas_switch parent vh;
  for s = 0 to cfg.keyspace - 1 do
    for w = 0 to words_per_slot - 1 do
      Api.store64 parent ~va:(slot_va s + (8 * w)) (word_value ~seed:cfg.seed ~slot:s ~word:w)
    done
  done;
  (* Sampled store checksum, from the parent's own live view. *)
  let store_checksum () =
    let acc = ref 17 in
    for s = 0 to cfg.keyspace - 1 do
      acc :=
        ((!acc * 1_000_003) + Int64.to_int (Api.load64 parent ~va:(slot_va s))) land max_int
    done;
    !acc
  in
  let checksum_before = store_checksum () in
  Api.switch_home parent;
  let rng = Rng.create ~seed:cfg.seed in
  let total_requests = cfg.connections * cfg.requests_per_conn in
  let latencies = Array.make total_requests 0.0 in
  let setups = Array.make cfg.connections 0 in
  let share_total = ref 0 and share_shared = ref 0 in
  let steady0 = ref 0 in
  (* One request on [ctx]'s simulated core: touch the slot (GET folds
     its words; SET overwrites them), then write an 8-word response
     into the private data ring — the CoW-storm surface. *)
  let ring_base = Layout.data_base + Size.kib 64 in
  (* Per-connection bookkeeping the worker writes in its own (CoW)
     primary space before serving: each page is a guaranteed
     break-and-copy, so even a read-only request mix pays the storm. *)
  let scratch_base = Layout.data_base + Size.kib 128 in
  let scratch_pages = 4 in
  let do_request ctx ~req =
    let slot = Rng.int rng cfg.keyspace in
    let is_set = Rng.float rng 1.0 < cfg.set_fraction in
    let sink = ref 0L in
    if is_set then
      for w = 0 to words_per_slot - 1 do
        Api.store64 ctx ~va:(slot_va slot + (8 * w))
          (word_value ~seed:(cfg.seed + 1) ~slot ~word:w)
      done
    else
      for w = 0 to words_per_slot - 1 do
        sink := Int64.add !sink (Api.load64 ctx ~va:(slot_va slot + (8 * w)))
      done;
    let entry = ring_base + (req mod cfg.ring_slots * slot_bytes) in
    for w = 0 to words_per_slot - 1 do
      Api.store64 ctx ~va:(entry + (8 * w)) !sink
    done
  in
  (match cfg.mode with
  | Fork_per_conn ->
    for conn = 0 to cfg.connections - 1 do
      let core = Machine.core machine (1 + (conn mod (ncores - 1))) in
      let c0 = Core.cycles core in
      let child = Api.proc_fork ~name:(Printf.sprintf "conn%d" conn) parent ~core in
      for pg = 0 to scratch_pages - 1 do
        Api.store64 child
          ~va:(scratch_base + (pg * Addr.page_size))
          (Int64.of_int (conn + pg))
      done;
      let vh_c = Api.vas_attach child vas in
      let snap = Api.vas_fork child vh_c ~name:(Printf.sprintf "snap%d" conn) in
      if conn = 0 then begin
        let total, shared =
          Page_table.count_nodes (Sj_kernel.Vmspace.page_table (Api.vmspace_of_vh snap))
        in
        share_total := total;
        share_shared := shared
      end;
      Api.vas_switch child snap;
      setups.(conn) <- Core.cycles core - c0;
      for r = 0 to cfg.requests_per_conn - 1 do
        let t0 = Core.cycles core in
        do_request child ~req:r;
        latencies.((conn * cfg.requests_per_conn) + r) <- float_of_int (Core.cycles core - t0)
      done;
      (* Connection over: the snapshot (with every SET the connection
         made) is discarded; the child exits. *)
      Api.switch_home child;
      Api.vas_detach child snap;
      let snap_vas = Api.vas_of_vh snap in
      let shadow = Api.seg_find child ~name:(Printf.sprintf "kvf.data@snap%d" conn) in
      Api.vas_ctl child (`Destroy snap_vas);
      Api.seg_ctl child (`Destroy shadow);
      Api.exit_process child
    done
  | Prefork { workers } ->
    let workers = max 1 (min workers (ncores - 1)) in
    let pool =
      Array.init workers (fun w ->
          let core = Machine.core machine (1 + w) in
          let child = Api.proc_fork ~name:(Printf.sprintf "worker%d" w) parent ~core in
          let vh_w = Api.vas_attach child vas in
          (child, vh_w, core))
    in
    (* Warmup: privatize each worker's response ring and fault in its
       CoW data pages once, so steady state is measurable. *)
    Array.iter
      (fun (child, vh_w, _) ->
        Api.vas_switch child vh_w;
        for r = 0 to cfg.ring_slots - 1 do
          Api.store64 child ~va:(ring_base + (r * slot_bytes)) 0L
        done;
        Api.switch_home child)
      pool;
    steady0 := Metrics.cow_faults mets;
    for conn = 0 to cfg.connections - 1 do
      let child, vh_w, core = pool.(conn mod workers) in
      let c0 = Core.cycles core in
      Api.vas_switch child vh_w;
      setups.(conn) <- Core.cycles core - c0;
      for r = 0 to cfg.requests_per_conn - 1 do
        let t0 = Core.cycles core in
        do_request child ~req:r;
        latencies.((conn * cfg.requests_per_conn) + r) <- float_of_int (Core.cycles core - t0)
      done;
      Api.switch_home child
    done;
    (* The prefork family shares its primary spaces with the parent:
       census the first worker. *)
    (match pool.(0) with
    | child, _, _ ->
      let total, shared =
        Page_table.count_nodes
          (Sj_kernel.Vmspace.page_table (Process.primary_vmspace (Api.process child)))
      in
      share_total := total;
      share_shared := shared);
    Array.iter (fun (child, _, _) -> Api.exit_process child) pool);
  let steady_cow_faults =
    match cfg.mode with
    | Prefork _ -> Metrics.cow_faults mets - !steady0
    | Fork_per_conn -> Metrics.cow_faults mets
  in
  (* The parent's live store after every connection: under
     [Fork_per_conn] all SETs landed in discarded snapshots, so this
     must equal [checksum_before]. *)
  Api.vas_switch parent vh;
  let checksum_after = store_checksum () in
  Api.switch_home parent;
  let audit = Page_table.audit (Machine.mem machine) in
  (* Replay the measured connections against a bounded service pool in
     simulated time: arrivals are evenly spaced, each connection holds
     one pool core for its setup plus its whole batch. *)
  let eng = Engine.create () in
  let pool = Resource.Cores.create eng ~n:cfg.cores in
  let completed = ref 0 in
  for conn = 0 to cfg.connections - 1 do
    Engine.schedule eng ~at:(conn * cfg.interarrival) (fun () ->
        let batch = ref setups.(conn) in
        for r = 0 to cfg.requests_per_conn - 1 do
          batch := !batch + int_of_float latencies.((conn * cfg.requests_per_conn) + r)
        done;
        Resource.Cores.exec pool ~cycles:!batch (fun () ->
            completed := !completed + cfg.requests_per_conn))
  done;
  Engine.run eng;
  let span = max 1 (Engine.now eng) in
  let seconds = Sj_machine.Cost_model.cycles_to_seconds (Machine.cost machine) span in
  let throughput = float_of_int !completed /. seconds in
  let p50 = Stats.percentile latencies 50.0 and p99 = Stats.percentile latencies 99.0 in
  let fingerprint =
    [
      ("requests", !completed);
      ("connections", cfg.connections);
      ("span_cycles", span);
      ("p50", int_of_float p50);
      ("p99", int_of_float p99);
      ("forks", Metrics.forks mets);
      ("cow_faults", Metrics.cow_faults mets);
      ("steady_cow_faults", steady_cow_faults);
      ("cow_copies", Metrics.cow_copies mets);
      ("share_total", !share_total);
      ("share_shared", !share_shared);
      ("checksum_before", checksum_before);
      ("checksum_after", checksum_after);
      ("pt_leaked", audit.Page_table.a_leaked);
      ("pt_imbalanced", List.length audit.Page_table.a_imbalanced);
    ]
  in
  {
    requests = !completed;
    connections = cfg.connections;
    seconds;
    throughput;
    p50;
    p99;
    forks = Metrics.forks mets;
    cow_faults = Metrics.cow_faults mets;
    steady_cow_faults;
    cow_copies = Metrics.cow_copies mets;
    share_total = !share_total;
    share_shared = !share_shared;
    checksum_before;
    checksum_after;
    pt_leaked = audit.Page_table.a_leaked;
    pt_imbalanced = List.length audit.Page_table.a_imbalanced;
    fingerprint;
  }
