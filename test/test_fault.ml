(* Fault injection and crash recovery (lib/fault).

   Covers every injectable fault kind in Plan, the kernel's
   crash-teardown path (lock reclamation, orphaned VASes, ASID reuse),
   the bounded retry loop, and the subsystem's two contracts: zero cost
   when no plan is installed, and bit-reproducibility of an injected
   run across domains. *)
open Sj_util
open Sj_core
module Machine = Sj_machine.Machine
module Core = Machine.Core
module Platform = Sj_machine.Platform
module Process = Sj_kernel.Process
module Prot = Sj_paging.Prot
module Sys = Sj_abi.Sys
module Error = Sj_abi.Error
module Plan = Sj_fault.Plan
module Injector = Sj_fault.Injector
module Recorder = Sj_obs.Recorder
module Metrics = Sj_obs.Metrics
module Trace = Sj_obs.Trace
module Persist = Sj_persist.Persist

let tiny : Platform.t =
  { Platform.m2 with name = "tiny"; mem_size = Size.mib 256; sockets = 2; cores_per_socket = 2 }

let boot ?(backend = Api.Dragonfly) () =
  let m = Machine.create tiny in
  let sys = Api.boot ~backend m in
  let p = Process.create ~name:"victim" m in
  let ctx = Api.context sys p (Machine.core m 0) in
  (m, sys, ctx)

let arm m plan = Injector.attach (Machine.sim_ctx m) (Injector.create plan)

let make_locked_world ctx =
  let vas = Api.vas_create ctx ~name:"shared" ~mode:0o666 in
  let seg = Api.seg_alloc_anywhere ctx ~name:"shared.data" ~size:(Size.mib 1) ~mode:0o666 in
  Api.seg_attach ctx vas seg ~prot:Prot.rw;
  (vas, seg)

(* ---- Kill_at_syscall ---- *)

let test_kill_at_syscall () =
  let m, sys, ctx = boot () in
  let pid = Process.pid (Api.process ctx) in
  arm m [ Plan.kill_at_syscall ~pid ~nr:(Sys.number Seg_find) ~occurrence:3 () ];
  let _ = Api.seg_alloc_anywhere ctx ~name:"a" ~size:(Size.kib 64) ~mode:0o600 in
  (* Two lookups pass; the third fires. *)
  ignore (Api.seg_find ctx ~name:"a");
  ignore (Api.seg_find ctx ~name:"a");
  Alcotest.(check bool) "third call kills" true
    (try
       ignore (Api.seg_find ctx ~name:"a");
       false
     with Injector.Killed k -> k.pid = pid);
  Alcotest.(check bool) "process is dead" false (Process.is_live (Api.process ctx));
  (* The rest of the system is untouched: a new process still works. *)
  let p2 = Process.create ~name:"other" m in
  let ctx2 = Api.context sys p2 (Machine.core m 1) in
  ignore (Api.seg_find ctx2 ~name:"a")

(* ---- Kill_holding_lock: crash inside the critical section ---- *)

let kill_holding_lock backend () =
  let m, sys, ctx = boot ~backend () in
  let rec_ = Recorder.create () in
  Recorder.attach (Machine.sim_ctx m) rec_;
  let vas, seg = make_locked_world ctx in
  let vh = Api.vas_attach ctx vas in
  Api.vas_switch ctx vh;
  Api.store64 ctx ~va:(Segment.base seg) 7L;
  Alcotest.(check bool) "lock held exclusively" true
    (Segment.lock_state seg = Segment.Exclusive);
  arm m [ Plan.kill_holding_lock ~pid:(Process.pid (Api.process ctx)) ~sid:(Segment.sid seg) ];
  (* A second process cannot get in while the doomed holder lives. *)
  let p2 = Process.create ~name:"second" m in
  let ctx2 = Api.context sys p2 (Machine.core m 1) in
  let vh2 = Api.vas_attach ctx2 vas in
  Alcotest.(check bool) "switch blocked by wedged lock" true
    (match Api.Checked.vas_switch ctx2 vh2 with
    | Error f -> f.code = Error.Would_block
    | Ok () -> false);
  (* The victim's next syscall, issued while holding the lock, kills it. *)
  Alcotest.(check bool) "killed at next syscall" true
    (try
       Api.switch_home ctx;
       false
     with Injector.Killed _ -> true);
  Alcotest.(check bool) "lock reclaimed" true (Segment.lock_state seg = Segment.Unlocked);
  Alcotest.(check bool) "victim dead" false (Process.is_live (Api.process ctx));
  (* The orphaned VAS survives its creator: the second process attaches
     and sees the data written before the crash. *)
  Api.vas_switch ctx2 vh2;
  Alcotest.(check int64) "orphan data survives" 7L (Api.load64 ctx2 ~va:(Segment.base seg));
  Api.switch_home ctx2;
  let met = Recorder.metrics rec_ in
  Alcotest.(check int) "one crash recorded" 1 (Metrics.crashes met);
  Alcotest.(check bool) "lock reclaim recorded" true (Metrics.lock_reclaims met >= 1)

(* ---- Crash during vas_switch itself ---- *)

let crash_during_switch backend () =
  let m, _, ctx = boot ~backend () in
  let vas, seg = make_locked_world ctx in
  let vh = Api.vas_attach ctx vas in
  arm m
    [ Plan.kill_at_syscall ~pid:(Process.pid (Api.process ctx)) ~nr:(Sys.number Vas_switch) () ];
  Alcotest.(check bool) "killed entering the switch" true
    (try
       Api.vas_switch ctx vh;
       false
     with Injector.Killed _ -> true);
  (* Died before acquiring anything: nothing to reclaim, nothing held. *)
  Alcotest.(check bool) "lock never taken" true (Segment.lock_state seg = Segment.Unlocked);
  Alcotest.(check bool) "victim dead" false (Process.is_live (Api.process ctx))

(* ---- A surviving thread of the same attachment keeps the locks ---- *)

let test_surviving_thread_keeps_locks () =
  let m = Machine.create tiny in
  let sys = Api.boot m in
  let p = Process.create ~name:"mt" m in
  let t1 = Api.context sys p (Machine.core m 0) in
  let _thread = Process.spawn_thread p in
  let t2 = Api.context sys p (Machine.core m 1) in
  let vas, seg = make_locked_world t1 in
  let vh = Api.vas_attach t1 vas in
  Api.vas_switch t1 vh;
  Api.vas_switch t2 vh;
  Api.store64 t1 ~va:(Segment.base seg) 9L;
  (* Thread 2 dies. Thread 1 is still inside the attachment, so the
     locks must NOT be reclaimed out from under it. *)
  Api.crash_thread t2;
  Alcotest.(check bool) "lock still held by survivor" true
    (Segment.lock_state seg = Segment.Exclusive);
  Alcotest.(check int64) "survivor still reads its data" 9L
    (Api.load64 t1 ~va:(Segment.base seg));
  Alcotest.(check bool) "process still live" true (Process.is_live p);
  (* Last thread out releases as usual. *)
  Api.switch_home t1;
  Alcotest.(check bool) "released on last exit" true
    (Segment.lock_state seg = Segment.Unlocked)

(* ---- Would_block storms and the bounded retry loop ---- *)

let test_storm_and_retry () =
  let m, _, ctx = boot () in
  let vas, _ = make_locked_world ctx in
  let vh = Api.vas_attach ctx vas in
  arm m
    [
      Plan.would_block_storm ~pid:(Process.pid (Api.process ctx)) ~nr:(Sys.number Vas_switch)
        ~count:3;
    ];
  let before = Core.cycles (Api.core ctx) in
  Alcotest.(check bool) "retry rides out the storm" true
    (Api.Checked.switch_retry ~attempts:5 ~backoff_cycles:1_000 ctx vh = Ok ());
  (* Three failed attempts charged linear backoff: 1k + 2k + 3k. *)
  Alcotest.(check bool) "backoff charged" true (Core.cycles (Api.core ctx) - before >= 6_000);
  Api.switch_home ctx

let test_storm_exhausts_budget () =
  let m, _, ctx = boot () in
  let vas, _ = make_locked_world ctx in
  let vh = Api.vas_attach ctx vas in
  arm m
    [
      Plan.would_block_storm ~pid:(Process.pid (Api.process ctx)) ~nr:(Sys.number Vas_switch)
        ~count:5;
    ];
  Alcotest.(check bool) "budget of 2 is not enough for a storm of 5" true
    (match Api.Checked.switch_retry ~attempts:2 ctx vh with
    | Error f -> f.code = Error.Would_block
    | Ok () -> false);
  Alcotest.(check bool) "victim survives a transient fault" true
    (Process.is_live (Api.process ctx))

(* ---- Grow_fail ---- *)

let test_grow_fail () =
  let m, _, ctx = boot () in
  let seg = Api.seg_alloc_anywhere ctx ~name:"g" ~size:(Size.kib 256) ~mode:0o600 in
  arm m [ Plan.grow_fail ~nth:1 ];
  Alcotest.(check bool) "first grow fails with Capacity" true
    (match Api.Checked.seg_ctl ctx (`Grow (seg, Size.kib 256)) with
    | Error f -> f.code = Error.Capacity
    | Ok () -> false);
  Alcotest.(check int) "size unchanged" (Size.kib 256) (Segment.size seg);
  (* The plan is spent: the second grow succeeds. *)
  Api.seg_ctl ctx (`Grow (seg, Size.kib 256));
  Alcotest.(check int) "second grow lands" (Size.kib 512) (Segment.size seg)

(* ---- Torn writes, CRC, and journal recovery ---- *)

let build_persist_world () =
  let m, sys, ctx = boot () in
  let vas, seg = make_locked_world ctx in
  ignore vas;
  let vh = Api.vas_attach ctx (Api.vas_find ctx ~name:"shared") in
  Api.vas_switch ctx vh;
  Api.store64 ctx ~va:(Segment.base seg) 123L;
  Api.switch_home ctx;
  (m, sys, ctx)

let test_torn_write_detected () =
  let m, sys, _ = build_persist_world () in
  let inj = Injector.create [ Plan.torn_write ~save:1 () ] in
  Injector.attach (Machine.sim_ctx m) inj;
  let good = ref Bytes.empty in
  (* First save is torn; note the plan only affects save #1. *)
  let torn = Persist.save sys in
  good := Persist.save sys;
  Alcotest.(check bool) "torn image is shorter" true
    (Bytes.length torn < Bytes.length !good);
  Alcotest.(check bool) "torn image is not committed" false (Persist.committed torn);
  Alcotest.(check bool) "good image is committed" true (Persist.committed !good);
  Alcotest.(check bool) "restore of a torn image faults with Invalid" true
    (let _, sys2, _ = boot () in
     try
       Persist.restore sys2 torn;
       false
     with Error.Fault f -> f.code = Error.Invalid);
  (* The resolved offset is recorded for replay. *)
  Alcotest.(check bool) "fired plan records the resolved offset" true
    (match Injector.fired inj with
    | [ Plan.Torn_write { at_byte; _ } ] -> at_byte >= 0 && at_byte < Bytes.length !good
    | _ -> false)

let test_bitflip_detected () =
  let _, sys, _ = build_persist_world () in
  let image = Persist.save sys in
  let evil = Bytes.copy image in
  let at = Bytes.length evil / 2 in
  Bytes.set evil at (Char.chr (Char.code (Bytes.get evil at) lxor 0x40));
  Alcotest.(check bool) "flipped image is not committed" false (Persist.committed evil);
  Alcotest.(check bool) "restore of a flipped image faults with Invalid" true
    (let _, sys2, _ = boot () in
     try
       Persist.restore sys2 evil;
       false
     with Error.Fault f -> f.code = Error.Invalid);
  (* The pristine image still restores. *)
  let _, sys3, ctx3 = boot () in
  Persist.restore sys3 image;
  let vh = Api.vas_attach ctx3 (Api.vas_find ctx3 ~name:"shared") in
  Api.vas_switch ctx3 vh;
  let seg = Api.seg_find ctx3 ~name:"shared.data" in
  Alcotest.(check int64) "data back" 123L (Api.load64 ctx3 ~va:(Segment.base seg))

let test_journal_recovers_last_committed () =
  let m, sys, _ = build_persist_world () in
  let img1 = Persist.save sys in
  Injector.attach (Machine.sim_ctx m) (Injector.create [ Plan.torn_write ~save:1 () ]);
  let torn = Persist.save sys in
  let j = Persist.Journal.append (Persist.Journal.append Persist.Journal.empty img1) torn in
  Alcotest.(check int) "both entries structurally present" 2 (Persist.Journal.entries j);
  Alcotest.(check bool) "recovery skips the torn entry" true
    (Persist.Journal.recover j = Some img1);
  (* A torn journal tail (writer died mid-append) is also survivable. *)
  let j2 = Bytes.sub j 0 (Bytes.length j - 7) in
  Alcotest.(check bool) "torn tail ignored" true (Persist.Journal.recover j2 = Some img1);
  Alcotest.(check bool) "empty journal has nothing to offer" true
    (Persist.Journal.recover Persist.Journal.empty = None)

(* ---- ASID recycling through the registry free-list ---- *)

let test_asid_recycled_after_destroy () =
  let _, _, ctx = boot () in
  let vas = Api.vas_create ctx ~name:"tagged" ~mode:0o600 in
  Api.vas_ctl ctx (`Request_tag vas);
  let tag = Option.get (Vas.tag vas) in
  Api.vas_ctl ctx (`Destroy vas);
  let vas2 = Api.vas_create ctx ~name:"tagged2" ~mode:0o600 in
  Api.vas_ctl ctx (`Request_tag vas2);
  Alcotest.(check (option int)) "released tag is reused" (Some tag) (Vas.tag vas2)

(* ---- Zero-cost and determinism contracts ---- *)

(* One small deterministic workload; returns the full text trace plus
   the final core cycle counter. [plan] is built once the process
   exists, so it can name the real pid. *)
let workload ~plan () =
  let m = Machine.create tiny in
  let rec_ = Recorder.create () in
  Recorder.attach (Machine.sim_ctx m) rec_;
  let sys = Api.boot m in
  let p = Process.create ~name:"w" m in
  let ctx = Api.context sys p (Machine.core m 0) in
  (match plan with
  | Some (mk, seed) ->
    Injector.attach (Machine.sim_ctx m) (Injector.create ~seed (mk ~pid:(Process.pid p)))
  | None -> ());
  let vas, seg = make_locked_world ctx in
  let vh = Api.vas_attach ctx vas in
  (match Api.Checked.switch_retry ~attempts:6 ~backoff_cycles:500 ctx vh with
  | Ok () -> ()
  | Error f -> raise (Error.Fault f));
  Api.store64 ctx ~va:(Segment.base seg) 55L;
  Api.switch_home ctx;
  ignore (Api.seg_find ctx ~name:"shared.data");
  Printf.sprintf "%s\ncycles=%d" (Trace.to_text (Recorder.events rec_))
    (Core.cycles (Api.core ctx))

let test_empty_plan_is_free () =
  (* The injector hooks charge nothing and emit nothing unless a fault
     actually fires: an installed-but-empty plan leaves the trace and
     the cycle counters byte-identical to no injector at all. *)
  Alcotest.(check string) "empty plan = no plan" (workload ~plan:None ())
    (workload ~plan:(Some ((fun ~pid:_ -> []), 1)) ())

let test_injected_run_is_reproducible () =
  (* Same plan + same seed => byte-identical trace, serially and across
     domains (-j 1 vs -j 4). The storm makes the injector actually fire
     on the measured path. *)
  let mk ~pid = [ Plan.would_block_storm ~pid ~nr:(Sys.number Vas_switch) ~count:3 ] in
  let serial = workload ~plan:(Some (mk, 7)) () in
  let pool = Par.create ~size:4 () in
  let results = Par.map_list pool (fun () -> workload ~plan:(Some (mk, 7)) ()) [ (); (); (); () ] in
  List.iteri
    (fun i r -> Alcotest.(check string) (Printf.sprintf "domain %d matches serial" i) serial r)
    results

(* ---- Composed-plan replay fidelity (Injector.fired) ---- *)

(* A storm, a torn write and a kill all firing in one run.
   [Injector.fired] must capture the whole crop in firing order with
   resolved values, and replaying that fired plan under the same seed
   must be byte-identical to the original run — the contract the
   exploration harness's violation keys stand on. *)
let composed_workload ~plan ~seed () =
  let m = Machine.create tiny in
  let rec_ = Recorder.create () in
  Recorder.attach (Machine.sim_ctx m) rec_;
  let sys = Api.boot m in
  let p = Process.create ~name:"w" m in
  let ctx = Api.context sys p (Machine.core m 0) in
  let inj = Injector.create ~seed (plan ~pid:(Process.pid p)) in
  Injector.attach (Machine.sim_ctx m) inj;
  let _vas, seg = make_locked_world ctx in
  let vh = Api.vas_attach ctx (Api.vas_find ctx ~name:"shared") in
  (match Api.Checked.switch_retry ~attempts:6 ~backoff_cycles:500 ctx vh with
  | Ok () ->
    Api.store64 ctx ~va:(Segment.base seg) 55L;
    Api.switch_home ctx
  | Error _ -> ());
  let image = Persist.save sys in
  (try ignore (Api.seg_find ctx ~name:"shared.data") with Injector.Killed _ -> ());
  let text =
    Printf.sprintf "%s\nimage=%d committed=%b cycles=%d"
      (Trace.to_text (Recorder.events rec_))
      (Bytes.length image) (Persist.committed image)
      (Core.cycles (Api.core ctx))
  in
  (text, Injector.fired inj)

let test_composed_plan_replay () =
  let plan ~pid =
    [
      Plan.would_block_storm ~pid ~nr:(Sys.number Vas_switch) ~count:2;
      Plan.torn_write ~save:1 ();
      Plan.kill_at_syscall ~pid ~nr:(Sys.number Seg_find) ~occurrence:1 ();
    ]
  in
  let t1, fired = composed_workload ~plan ~seed:11 () in
  Alcotest.(check int) "all three composed faults fired" 3 (List.length fired);
  Alcotest.(check bool) "storm recorded once with its full count" true
    (List.exists
       (function Plan.Would_block_storm { count; _ } -> count = 2 | _ -> false)
       fired);
  Alcotest.(check bool) "torn write recorded with a resolved offset" true
    (List.exists (function Plan.Torn_write { at_byte; _ } -> at_byte >= 0 | _ -> false) fired);
  let t2, fired2 = composed_workload ~plan:(fun ~pid:_ -> fired) ~seed:11 () in
  Alcotest.(check string) "replaying the fired plan is byte-identical" t1 t2;
  Alcotest.(check string) "the fired crop is a fixed point under replay"
    (Plan.to_string fired) (Plan.to_string fired2)

(* ---- Every kind arms and fires ---- *)

(* [Plan.templates] holds one fault per kind. [fire] rebuilds a
   template against a live world by an exhaustive, wildcard-free match,
   so a new fault constructor cannot compile without a scenario here. *)
let fire template =
  let m, sys, ctx = boot () in
  let pid = Process.pid (Api.process ctx) in
  let vas, seg = make_locked_world ctx in
  let vh = Api.vas_attach ctx vas in
  let fault, provoke =
    match (template : Plan.fault) with
    | Kill_at_syscall _ ->
      ( Plan.kill_at_syscall ~pid ~nr:(Sys.number Seg_find) (),
        fun () -> ignore (Api.Checked.seg_find ctx ~name:"shared.data") )
    | Kill_holding_lock _ ->
      ( Plan.kill_holding_lock ~pid ~sid:(Segment.sid seg),
        fun () ->
          Api.vas_switch ctx vh;
          ignore (Api.Checked.seg_find ctx ~name:"shared.data") )
    | Would_block_storm _ ->
      ( Plan.would_block_storm ~pid ~nr:(Sys.number Vas_switch) ~count:1,
        fun () -> ignore (Api.Checked.vas_switch ctx vh) )
    | Grow_fail _ ->
      (Plan.grow_fail ~nth:1, fun () -> ignore (Api.Checked.seg_ctl ctx (`Grow (seg, Size.kib 64))))
    | Torn_write _ -> (Plan.torn_write ~save:1 (), fun () -> ignore (Persist.save sys))
  in
  let inj = Injector.create [ fault ] in
  Injector.attach (Machine.sim_ctx m) inj;
  (try provoke () with Injector.Killed _ -> ());
  Injector.fired inj

let test_every_kind_fires () =
  Alcotest.(check int) "one template per kind" (List.length Plan.all_kinds)
    (List.length (List.sort_uniq compare Plan.all_kinds));
  List.iter
    (fun t ->
      let kind = Plan.kind_name t in
      Alcotest.(check (list string)) (kind ^ " fires once") [ kind ]
        (List.map Plan.kind_name (fire t)))
    Plan.templates

let suite =
  [
    Alcotest.test_case "kill at nth syscall" `Quick test_kill_at_syscall;
    Alcotest.test_case "kill holding lock (dragonfly)" `Quick (kill_holding_lock Api.Dragonfly);
    Alcotest.test_case "kill holding lock (barrelfish)" `Quick (kill_holding_lock Api.Barrelfish);
    Alcotest.test_case "crash during vas_switch (dragonfly)" `Quick
      (crash_during_switch Api.Dragonfly);
    Alcotest.test_case "crash during vas_switch (barrelfish)" `Quick
      (crash_during_switch Api.Barrelfish);
    Alcotest.test_case "surviving thread keeps locks" `Quick test_surviving_thread_keeps_locks;
    Alcotest.test_case "storm ridden out by switch_retry" `Quick test_storm_and_retry;
    Alcotest.test_case "storm outlasting the retry budget" `Quick test_storm_exhausts_budget;
    Alcotest.test_case "injected grow failure" `Quick test_grow_fail;
    Alcotest.test_case "torn write detected by commit record" `Quick test_torn_write_detected;
    Alcotest.test_case "single bit flip detected by CRC" `Quick test_bitflip_detected;
    Alcotest.test_case "journal falls back to last committed" `Quick
      test_journal_recovers_last_committed;
    Alcotest.test_case "ASID recycled after vas destroy" `Quick test_asid_recycled_after_destroy;
    Alcotest.test_case "empty plan is zero-cost" `Quick test_empty_plan_is_free;
    Alcotest.test_case "composed plan replays byte-identically from fired" `Quick
      test_composed_plan_replay;
    Alcotest.test_case "injected run reproducible across domains" `Quick
      test_injected_run_is_reproducible;
    Alcotest.test_case "every plan kind arms and fires" `Quick test_every_kind_fires;
  ]
