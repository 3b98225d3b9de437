(* Fork & copy-on-write semantics: vas_fork / proc_fork share page-table
   subtrees instead of copying, first writes trap exactly once per page,
   the decided refusals are precise typed faults, and teardown of any
   family member leaves the others' mappings, locks and refcounts
   intact. The refcount ledger is re-derived from first principles with
   [Page_table.audit] after every scenario. *)

open Sj_util
open Sj_core
module Machine = Sj_machine.Machine
module Core = Machine.Core
module Platform = Sj_machine.Platform
module Process = Sj_kernel.Process
module Layout = Sj_kernel.Layout
module Vmspace = Sj_kernel.Vmspace
module Prot = Sj_paging.Prot
module Page_table = Sj_paging.Page_table
module Pkey = Sj_paging.Pkey
module Error = Sj_abi.Error
module Recorder = Sj_obs.Recorder
module Metrics = Sj_obs.Metrics
module Event = Sj_obs.Event

(* Enough RAM for the page-table-sharing census segments. *)
let roomy : Platform.t =
  { Platform.m2 with name = "forky"; mem_size = Size.gib 1; sockets = 2; cores_per_socket = 2 }

let setup ?backend () =
  let m = Machine.create roomy in
  let sys = Api.boot ?backend m in
  let p = Process.create ~name:"p0" m in
  let ctx = Api.context sys p (Machine.core m 0) in
  (m, sys, ctx)

let check_audit m what =
  let a = Page_table.audit (Machine.mem m) in
  Alcotest.(check int) (what ^ ": no leaked page-table nodes") 0 a.Page_table.a_leaked;
  Alcotest.(check int)
    (what ^ ": refcounts balance")
    0
    (List.length a.Page_table.a_imbalanced)

let metrics m =
  match Recorder.of_ctx (Machine.sim_ctx m) with
  | Some r -> Recorder.metrics r
  | None -> Alcotest.fail "recorder not attached"

(* vas_fork of a large VAS shares >90% of the fork's page-table nodes
   and isolates writes in both directions, each first write faulting
   exactly once per page. *)
let test_vas_fork_sharing_and_isolation () =
  Recorder.with_tracing true (fun () ->
      let m, _, ctx = setup () in
      let vas = Api.vas_create ctx ~name:"store" ~mode:0o600 in
      let seg = Api.seg_alloc_anywhere ctx ~name:"data" ~size:(Size.mib 256) ~mode:0o600 in
      Api.seg_attach ctx vas seg ~prot:Prot.rw;
      let vh = Api.vas_attach ctx vas in
      Api.vas_switch ctx vh;
      let base = Segment.base seg in
      Api.store64 ctx ~va:base 1L;
      Api.store64 ctx ~va:(base + Addr.page_size) 2L;
      Api.switch_home ctx;
      let fork = Api.vas_fork ctx vh ~name:"store-fork" in
      (* The fork shares the source's subtrees: >90% of its nodes. *)
      let total, shared = Page_table.count_nodes (Vmspace.page_table (Api.vmspace_of_vh fork)) in
      Alcotest.(check bool)
        (Printf.sprintf "fork shares >90%% of page-table nodes (%d/%d)" shared total)
        true
        (float_of_int shared > 0.9 *. float_of_int total);
      Alcotest.(check bool) "fork is a distinct VAS" true
        (Vas.vid (Api.vas_of_vh fork) <> Vas.vid vas);
      let before = Metrics.cow_faults (metrics m) in
      Api.vas_switch ctx fork;
      Alcotest.(check int64) "fork reads parent's pre-fork data" 1L (Api.load64 ctx ~va:base);
      Api.store64 ctx ~va:base 100L;
      Api.store64 ctx ~va:base 101L;
      (* Two stores to one page: exactly one CoW fault. *)
      Alcotest.(check int) "one CoW fault per page" (before + 1)
        (Metrics.cow_faults (metrics m));
      Alcotest.(check int64) "fork sees its own write" 101L (Api.load64 ctx ~va:base);
      Alcotest.(check int64) "untouched page still shared-visible" 2L
        (Api.load64 ctx ~va:(base + Addr.page_size));
      Api.switch_home ctx;
      (* Parent's view is untouched by the fork's write, and the
         parent's own first write faults once too. *)
      Api.vas_switch ctx vh;
      Alcotest.(check int64) "parent unaffected by fork write" 1L (Api.load64 ctx ~va:base);
      let before = Metrics.cow_faults (metrics m) in
      Api.store64 ctx ~va:(base + Addr.page_size) 200L;
      Alcotest.(check int) "parent write faults once" (before + 1)
        (Metrics.cow_faults (metrics m));
      Api.switch_home ctx;
      Api.vas_switch ctx fork;
      Alcotest.(check int64) "fork unaffected by parent write" 2L
        (Api.load64 ctx ~va:(base + Addr.page_size));
      Api.switch_home ctx;
      check_audit m "vas_fork")

(* Forking while holding a segment lock: the parent keeps its lock, the
   fork's attachment holds nothing, and the fork's shadow segment is
   separately lockable while the source stays contended. *)
let test_fork_while_holding_lock () =
  let m, sys, ctx = setup () in
  let vas = Api.vas_create ctx ~name:"locked" ~mode:0o666 in
  let seg = Api.seg_alloc_anywhere ctx ~name:"ls" ~size:(Size.mib 1) ~mode:0o666 in
  Api.seg_attach ctx vas seg ~prot:Prot.rw;
  let vh = Api.vas_attach ctx vas in
  Api.vas_switch ctx vh;
  (* Switched in writable => exclusive lock held. *)
  Alcotest.(check bool) "parent holds the lock" true
    (Segment.lock_state seg = Segment.Exclusive);
  let fork = Api.vas_fork ctx vh ~name:"locked-fork" in
  Alcotest.(check bool) "parent still holds the lock" true
    (Segment.lock_state seg = Segment.Exclusive);
  (* A second process can enter the fork while the parent still holds
     the source's lock: the shadow has its own lock. *)
  let p2 = Process.create ~name:"p2" m in
  let ctx2 = Api.context sys p2 (Machine.core m 1) in
  let vh2 = Api.vas_attach ctx2 (Api.vas_of_vh fork) in
  Api.vas_switch ctx2 vh2;
  Api.store64 ctx2 ~va:(Segment.base seg) 7L;
  Api.switch_home ctx2;
  (* But not the source VAS itself: its lock is taken. *)
  let vh3 = Api.vas_attach ctx2 vas in
  (match Api.Checked.vas_switch ctx2 vh3 with
  | Error f ->
    Alcotest.(check bool) "source lock contended" true
      (Error.equal_code f.code Error.Would_block)
  | Ok () -> Alcotest.fail "switch into locked source VAS must block");
  Api.switch_home ctx;
  check_audit m "fork under lock"

(* Key-tagged leaves survive a fork: the shared subtrees carry the tag,
   and the child of a proc_fork owns fresh keys (never the parent's),
   with a scrubbed register. *)
let test_fork_with_pkey_tags () =
  let m, _, ctx = setup () in
  let vas = Api.vas_create ctx ~name:"kv" ~mode:0o600 in
  let seg = Api.seg_alloc_anywhere ctx ~name:"tagged" ~size:(Size.mib 1) ~mode:0o600 in
  Api.seg_attach ctx vas seg ~prot:Prot.rw;
  let key = Api.pkey_alloc ctx vas in
  Api.pkey_assign ctx vas seg ~key;
  let vh = Api.vas_attach ctx vas in
  (* Touch the VAS so the tagged leaves exist before the fork. *)
  Api.vas_switch ctx vh;
  Api.store64 ctx ~va:(Segment.base seg) 3L;
  Api.switch_home ctx;
  let fork = Api.vas_fork ctx vh ~name:"kv-fork" in
  (* The fork's (shared) leaves still carry the tag. *)
  (match
     Page_table.walk (Vmspace.page_table (Api.vmspace_of_vh fork)) ~va:(Segment.base seg)
   with
  | Some mapping ->
    Alcotest.(check int) "key tag survives the fork" key mapping.Page_table.key;
    Alcotest.(check bool) "and the leaf is CoW" true mapping.Page_table.cow
  | None -> Alcotest.fail "fork lost the mapping");
  (* proc_fork: fresh keys for the child, same count, disjoint numbers. *)
  let child = Api.proc_fork ctx ~core:(Machine.core m 1) in
  let child_pid = Process.pid (Api.process child) in
  let owned pid =
    List.filter_map
      (fun (k, owner) -> if owner = pid then Some k else None)
      (Vas.key_allocations vas)
  in
  let parent_keys = owned (Process.pid (Api.process ctx)) in
  let child_keys = owned child_pid in
  Alcotest.(check int) "child key count mirrors parent" (List.length parent_keys)
    (List.length child_keys);
  Alcotest.(check bool) "child keys are fresh" true
    (List.for_all (fun k -> not (List.mem k parent_keys)) child_keys);
  Alcotest.(check bool) "child key register scrubbed" true
    (Core.pkru (Api.core child) = Pkey.default);
  Api.crash_process child;
  check_audit m "pkey fork"

(* The decided 2 MiB refusal: a write landing on a CoW-tagged huge leaf
   is a precise typed [Invalid] fault on either side of the fork. *)
let test_huge_cow_fault_refused () =
  let m, _, ctx = setup () in
  let vas = Api.vas_create ctx ~name:"hv" ~mode:0o600 in
  let seg = Api.seg_alloc_anywhere ~huge:true ctx ~name:"huge" ~size:(Size.mib 4) ~mode:0o600 in
  Api.seg_attach ctx vas seg ~prot:Prot.rw;
  let vh = Api.vas_attach ctx vas in
  Api.vas_switch ctx vh;
  Api.store64 ctx ~va:(Segment.base seg) 5L;
  Api.switch_home ctx;
  let fork = Api.vas_fork ctx vh ~name:"hv-fork" in
  let check_refused side f =
    match f () with
    | () -> Alcotest.failf "%s: huge CoW write must be refused" side
    | exception Error.Fault fault ->
      Alcotest.(check bool) (side ^ ": typed Invalid") true
        (Error.equal_code fault.code Error.Invalid)
  in
  Api.vas_switch ctx fork;
  Alcotest.(check int64) "fork reads through the shared huge leaf" 5L
    (Api.load64 ctx ~va:(Segment.base seg));
  check_refused "fork side" (fun () -> Api.store64 ctx ~va:(Segment.base seg) 6L);
  Api.switch_home ctx;
  Api.vas_switch ctx vh;
  check_refused "parent side" (fun () -> Api.store64 ctx ~va:(Segment.base seg) 6L);
  Api.switch_home ctx;
  check_audit m "huge refusal"

(* Double-fork chains: grandchild forks isolate all three generations,
   and tearing the fork family down leaves balanced refcounts and the
   original data intact. *)
let test_double_fork_chain () =
  let m, _, ctx = setup () in
  let vas = Api.vas_create ctx ~name:"gen0" ~mode:0o600 in
  let seg = Api.seg_alloc_anywhere ctx ~name:"g" ~size:(Size.mib 8) ~mode:0o600 in
  Api.seg_attach ctx vas seg ~prot:Prot.rw;
  let vh = Api.vas_attach ctx vas in
  let base = Segment.base seg in
  Api.vas_switch ctx vh;
  Api.store64 ctx ~va:base 0L;
  Api.switch_home ctx;
  let f1 = Api.vas_fork ctx vh ~name:"gen1" in
  let f2 = Api.vas_fork ctx f1 ~name:"gen2" in
  (* Each generation writes its own value to the same page. *)
  Api.vas_switch ctx f2;
  Api.store64 ctx ~va:base 2L;
  Api.switch_home ctx;
  Api.vas_switch ctx f1;
  Alcotest.(check int64) "gen1 unaffected by gen2" 0L (Api.load64 ctx ~va:base);
  Api.store64 ctx ~va:base 1L;
  Api.switch_home ctx;
  Api.vas_switch ctx vh;
  Alcotest.(check int64) "gen0 unaffected by gen1/gen2" 0L (Api.load64 ctx ~va:base);
  Api.switch_home ctx;
  Api.vas_switch ctx f2;
  Alcotest.(check int64) "gen2 keeps its write" 2L (Api.load64 ctx ~va:base);
  Api.switch_home ctx;
  check_audit m "double fork";
  (* Tear the forks down; the original VAS survives with its data. *)
  Api.vas_detach ctx f2;
  Api.vas_ctl ctx (`Destroy (Api.vas_of_vh f2));
  Api.vas_detach ctx f1;
  Api.vas_ctl ctx (`Destroy (Api.vas_of_vh f1));
  Api.vas_switch ctx vh;
  Alcotest.(check int64) "gen0 intact after fork teardown" 0L (Api.load64 ctx ~va:base);
  Api.switch_home ctx;
  check_audit m "after fork teardown"

(* proc_fork: CoW primary space, re-created attachments hold no locks,
   and a crash of the child leaves the parent's mappings, data, locks
   and page-table refcounts fully intact. *)
let test_proc_fork_crash_isolation () =
  let m, _, ctx = setup () in
  let vas = Api.vas_create ctx ~name:"pv" ~mode:0o600 in
  let seg = Api.seg_alloc_anywhere ctx ~name:"ps" ~size:(Size.mib 2) ~mode:0o600 in
  Api.seg_attach ctx vas seg ~prot:Prot.rw;
  (* Parent data in its primary space. *)
  Api.store64 ctx ~va:(Layout.data_base + 64) 11L;
  let vh = Api.vas_attach ctx vas in
  Api.vas_switch ctx vh;
  Api.store64 ctx ~va:(Segment.base seg) 12L;
  (* Fork while the parent is switched in and holding the lock. *)
  let child = Api.proc_fork ctx ~core:(Machine.core m 1) in
  Alcotest.(check bool) "child starts in its home space" true (Api.current child = None);
  (* Child's writes to its primary space are invisible to the parent. *)
  Api.store64 child ~va:(Layout.data_base + 64) 99L;
  Alcotest.(check int64) "child sees its write" 99L
    (Api.load64 child ~va:(Layout.data_base + 64));
  (* The child did not inherit the parent's segment lock: switching into
     the shared VAS still contends on the parent's exclusive hold. *)
  let vh_c = Api.vas_attach child vas in
  (match Api.Checked.vas_switch child vh_c with
  | Error f ->
    Alcotest.(check bool) "lock not inherited" true
      (Error.equal_code f.code Error.Would_block)
  | Ok () -> Alcotest.fail "child must contend on the parent's lock");
  (* Child dies violently; parent must be untouched. *)
  Api.crash_process child;
  Alcotest.(check int64) "parent data survives child crash" 11L
    (Api.load64 ctx ~va:(Layout.data_base + 64));
  Alcotest.(check bool) "parent still holds its lock" true
    (Segment.lock_state seg = Segment.Exclusive);
  Alcotest.(check int64) "parent's segment data intact" 12L
    (Api.load64 ctx ~va:(Segment.base seg));
  Api.switch_home ctx;
  check_audit m "proc_fork crash"

(* A deterministic fork workload must be byte-identical serially and
   under a domain pool (-j 1 vs -j N): all simulated state hangs off the
   machine's Sim_ctx, never off globals. *)
let fork_workload_fingerprint () =
  Recorder.with_tracing true (fun () ->
      let m, _, ctx = setup () in
      let vas = Api.vas_create ctx ~name:"par" ~mode:0o600 in
      let seg = Api.seg_alloc_anywhere ctx ~name:"pseg" ~size:(Size.mib 4) ~mode:0o600 in
      Api.seg_attach ctx vas seg ~prot:Prot.rw;
      let vh = Api.vas_attach ctx vas in
      Api.vas_switch ctx vh;
      for i = 0 to 15 do
        Api.store64 ctx ~va:(Segment.base seg + (i * Addr.page_size)) (Int64.of_int i)
      done;
      Api.switch_home ctx;
      let fork = Api.vas_fork ctx vh ~name:"par-fork" in
      Api.vas_switch ctx fork;
      for i = 0 to 7 do
        Api.store64 ctx
          ~va:(Segment.base seg + (i * Addr.page_size))
          (Int64.of_int (100 + i))
      done;
      Api.switch_home ctx;
      let child = Api.proc_fork ctx ~core:(Machine.core m 1) in
      Api.store64 child ~va:(Layout.data_base + 128) 5L;
      Api.crash_process child;
      let mets = metrics m in
      let a = Page_table.audit (Machine.mem m) in
      Printf.sprintf "forks=%d cow=%d copies=%d cycles=%d leaked=%d imb=%d"
        (Metrics.forks mets) (Metrics.cow_faults mets) (Metrics.cow_copies mets)
        (Core.cycles (Api.core ctx))
        a.Page_table.a_leaked
        (List.length a.Page_table.a_imbalanced))

(* Empty-fork identity: a repo that never calls vas_fork/proc_fork must
   behave exactly as it did before the subsystem existed. The baselines
   below are the metric-level fingerprints of the existing benches,
   captured from the predecessor commit (e083ae4, the PR 9 tip) by
   building this probe there — the CoW machinery (refcounted page-table
   nodes, the CoW PTE bit, the fault-path branch) must be invisible
   until the first fork. *)
let identity_baselines =
  [
    ( "fastpath load_bytes",
      "cycles=128824;tlb_hits=596;tlb_misses=4;tlb_insertions=4;checksum=12256" );
    ("fastpath memcpy", "cycles=67556;tlb_hits=1199;tlb_misses=4;tlb_insertions=4;checksum=32640");
    ( "fastpath memset",
      "cycles=257176;tlb_hits=1196;tlb_misses=4;tlb_insertions=4;checksum=543768" );
    ("fastpath gups", "cycles=119116;updates=2560");
    ( "fastpath switch_storm",
      "cycles=521272;tlb_hits=150;tlb_misses=150;tlb_insertions=150;checksum=11175;switches=300" );
    ( "fastpath kvstore",
      "requests=48;gets=43;sets=5;lock_wait_cycles=466790;switches=98;tlb_misses=121" );
    ( "fastpath kvstore_mt",
      "requests=97;gets=85;sets=12;lock_wait_cycles=1096232;switches=218;tlb_misses=266" );
    ( "cluster tiny",
      "requests=1200;sets=118;cycles=918386;p50=524287;p99=1048575;p999=1048575;switches=112;\
       batches=56;stalls=9;shard_mix=2889025326272483695;timeline_mix=3901586226468881749;\
       crashes=0" );
    ( "compart vas_reload",
      "crossings=400;total_cycles=351920;crossing_cycles=338800;flushes=0;page_invalidations=0;\
       pkey_switches=0;vas_switches=400;violations=0;checksum=3972203113068932433;\
       final_cycles=957004" );
    ( "compart cap_invoke",
      "crossings=400;total_cycles=213920;crossing_cycles=200800;flushes=0;page_invalidations=0;\
       pkey_switches=0;vas_switches=400;violations=0;checksum=3972203113068932433;\
       final_cycles=828850" );
    ( "compart pkey_switch",
      "crossings=400;total_cycles=36800;crossing_cycles=24000;flushes=0;page_invalidations=0;\
       pkey_switches=400;vas_switches=0;violations=2;checksum=3972203113068932433;\
       final_cycles=324801" );
  ]

let fpl fp = String.concat ";" (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) fp)

let test_empty_fork_identity () =
  let check label got =
    match List.assoc_opt label identity_baselines with
    | Some expected -> Alcotest.(check string) (label ^ " matches the PR 9 baseline") expected got
    | None -> Alcotest.failf "no stored baseline for %s" label
  in
  List.iter (fun (name, fp) -> check ("fastpath " ^ name) (fpl fp)) (Workloads.run_all ());
  let tiny =
    {
      Sj_cluster.Cluster.default with
      machines = 3;
      shards = 4;
      clients = 400;
      requests_per_client = 3;
      batch = 8;
      pipeline = 2;
      keys_per_shard = 64;
      store_size = Size.mib 4;
      window_cycles = 2_000_000;
    }
  in
  check "cluster tiny" (fpl (Sj_cluster.Cluster.run tiny).Sj_cluster.Cluster.fingerprint);
  List.iter
    (fun mech ->
      let cfg = { Sj_compart.Compart.default with Sj_compart.Compart.mechanism = mech } in
      check
        ("compart " ^ Sj_compart.Compart.mechanism_name mech)
        (fpl (Sj_compart.Compart.run cfg).Sj_compart.Compart.fingerprint))
    [ Sj_compart.Compart.Vas_reload; Sj_compart.Compart.Cap_invoke; Sj_compart.Compart.Pkey ]

let test_parallel_byte_identity () =
  let serial = fork_workload_fingerprint () in
  let results =
    Par.with_pool ~size:4 (fun pool ->
        Par.map_list pool (fun () -> fork_workload_fingerprint ()) [ (); (); () ])
  in
  List.iteri
    (fun i r -> Alcotest.(check string) (Printf.sprintf "domain run %d identical" i) serial r)
    results

(* Host allocation on the fork path must not grow with the segment: the
   CoW attach and the write-protect of the other attachment work one
   leaf table at a time and allocate nothing per page. Built like the
   DES engine's steady-state test: the calls under measurement are the
   only allocation [Gc.minor_words] sees. A first fork, torn down again,
   leaves the segment CoW-marked with unshared frames, so the attach
   installs writable leaves and the second fork has to clear them
   through shared-then-adopted tables — the fork_serve connection
   shape. *)
let fork_attach_minor_words size =
  let _, _, ctx = setup () in
  let vas = Api.vas_create ctx ~name:"store" ~mode:0o600 in
  let seg = Api.seg_alloc_anywhere ctx ~name:"data" ~size ~mode:0o600 in
  Api.seg_attach ctx vas seg ~prot:Prot.rw;
  let vh = Api.vas_attach ctx vas in
  let first = Api.vas_fork ctx vh ~name:"first" in
  let shadow = Api.seg_find ctx ~name:"data@first" in
  Api.vas_ctl ctx (`Destroy (Api.vas_of_vh first));
  Api.seg_ctl ctx (`Destroy shadow);
  let before = Gc.minor_words () in
  let vh2 = Api.vas_attach ctx vas in
  let second = Api.vas_fork ctx vh2 ~name:"second" in
  let words = Gc.minor_words () -. before in
  ignore (Sys.opaque_identity second);
  words

let test_fork_minor_words_flat () =
  let small = fork_attach_minor_words (Size.mib 4) in
  let large = fork_attach_minor_words (Size.mib 64) in
  (* Budget: 64 words per extra leaf table (table allocation allocates
     a little), i.e. under 1/8 word per extra page. Per-page walks
     allocate an option and a mapping record each: ~10 words a page. *)
  let extra_pages = float_of_int ((Size.mib 64 - Size.mib 4) / Addr.page_size) in
  Alcotest.(check bool)
    (Printf.sprintf "vas_attach + vas_fork: %.0f minor words at 4 MiB, %.0f at 64 MiB" small
       large)
    true
    (large -. small < extra_pages /. 8.)

(* The fork accounting promises, end to end: both fork entries are
   counted in the syscall table, each emits a Fork event under its wire
   name, a CoW write emits a Cow_fault, and the metrics accumulate
   forks, faults and copies. *)
let test_fork_wiring () =
  Recorder.with_tracing true (fun () ->
      let m, sys, ctx = setup () in
      let vas = Api.vas_create ctx ~name:"w" ~mode:0o600 in
      let seg = Api.seg_alloc_anywhere ctx ~name:"w.d" ~size:(Size.mib 1) ~mode:0o600 in
      Api.seg_attach ctx vas seg ~prot:Prot.rw;
      let vh = Api.vas_attach ctx vas in
      Api.vas_switch ctx vh;
      Api.store64 ctx ~va:(Segment.base seg) 1L;
      Api.switch_home ctx;
      let fh = Api.vas_fork ctx vh ~name:"w.fork" in
      Api.vas_switch ctx fh;
      Api.store64 ctx ~va:(Segment.base seg) 2L;
      Api.switch_home ctx;
      ignore (Api.proc_fork ctx ~core:(Machine.core m 1));
      List.iter
        (fun nr ->
          Alcotest.(check int) (Sj_abi.Sys.name nr ^ " counted") 1
            (fst (Sj_abi.Sys.counters (Api.syscalls sys) nr)))
        [ Sj_abi.Sys.Vas_fork; Proc_fork ];
      let r = Option.get (Recorder.of_ctx (Machine.sim_ctx m)) in
      let emitted =
        List.filter_map
          (fun (e : Event.t) ->
            match e.kind with Fork _ | Cow_fault _ -> Some (Event.name e.kind) | _ -> None)
          (Recorder.events r)
      in
      List.iter
        (fun name -> Alcotest.(check bool) (name ^ " event emitted") true (List.mem name emitted))
        [ "vas_fork"; "proc_fork"; "cow_fault" ];
      let mt = Recorder.metrics r in
      Alcotest.(check int) "Metrics.forks" 2 (Metrics.forks mt);
      Alcotest.(check bool) "Metrics.cow_faults" true (Metrics.cow_faults mt > 0);
      Alcotest.(check bool) "Metrics.cow_copies" true (Metrics.cow_copies mt > 0));
  (* ...and the fork workload reports what the metrics counted, and
     the fork report's storm claim reads those counters: it holds on
     the real run and names the shape when a fault or a fork is lost. *)
  let module K = Sj_kvstore.Kv_fork in
  let cfg = { K.default with connections = 4; requests_per_conn = 8; set_fraction = 0.5 } in
  let r = K.run cfg in
  (* Fork_per_conn: a proc_fork and a vas_fork per connection. *)
  Alcotest.(check int) "workload forks" 8 r.forks;
  Alcotest.(check bool) "workload cow_faults" true (r.cow_faults > 0);
  Alcotest.(check bool) "workload cow_copies" true (r.cow_copies > 0);
  let storm res =
    Sj_experiments.Fork_spec.fault_storm { headline = [ { cfg; res } ]; grid = [] }
  in
  Alcotest.(check (list string)) "the run holds the storm claim" [] (storm r);
  Alcotest.(check (list string)) "no CoW fault is a storm counterexample"
    [ "fork_per_conn(connections=4,sets=0.50): no CoW fault storm" ]
    (storm { r with cow_faults = 0 });
  Alcotest.(check (list string)) "a lost fork is a storm counterexample"
    [ "fork_per_conn(connections=4,sets=0.50): 7 of 8 forks" ]
    (storm { r with forks = 7 })

let suite =
  [
    Alcotest.test_case "vas_fork shares >90% and isolates writes" `Quick
      test_vas_fork_sharing_and_isolation;
    Alcotest.test_case "fork while holding a segment lock" `Quick test_fork_while_holding_lock;
    Alcotest.test_case "fork of key-tagged leaves; fresh child keys" `Quick
      test_fork_with_pkey_tags;
    Alcotest.test_case "2 MiB CoW write is a typed refusal" `Quick test_huge_cow_fault_refused;
    Alcotest.test_case "double-fork chains isolate and balance" `Quick test_double_fork_chain;
    Alcotest.test_case "proc_fork: child crash leaves parent intact" `Quick
      test_proc_fork_crash_isolation;
    Alcotest.test_case "-j1 vs -jN byte identity" `Quick test_parallel_byte_identity;
    Alcotest.test_case "empty-fork identity: PR 9 bench baselines" `Quick
      test_empty_fork_identity;
    Alcotest.test_case "fork path minor words flat in segment size" `Quick
      test_fork_minor_words_flat;
    Alcotest.test_case "fork syscalls, events and metrics wired" `Quick test_fork_wiring;
  ]
