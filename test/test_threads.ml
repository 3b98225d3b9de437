(* Multi-threaded processes: the paper's switching unit is the thread —
   "threads of that process can switch between these VASes in a
   lightweight manner" (sec 1), with per-thread stacks in the common
   region (Fig. 2). *)
open Sj_util
open Sj_core
module Machine = Sj_machine.Machine
module Core = Machine.Core
module Platform = Sj_machine.Platform
module Process = Sj_kernel.Process
module Layout = Sj_kernel.Layout
module Prot = Sj_paging.Prot

let tiny : Platform.t =
  { Platform.m2 with name = "tiny"; mem_size = Size.mib 256; sockets = 2; cores_per_socket = 2 }

let setup () =
  let m = Machine.create tiny in
  let sys = Api.boot m in
  let p = Process.create ~name:"mt" m in
  (m, sys, p)

let make_vas ctx name =
  let vas = Api.vas_create ctx ~name ~mode:0o600 in
  let seg = Api.seg_alloc_anywhere ctx ~name:(name ^ ".data") ~size:(Size.mib 1) ~mode:0o600 in
  Api.seg_attach ctx vas seg ~prot:Prot.rw;
  (vas, seg)

let test_threads_in_different_vases () =
  (* Two threads of ONE process sit in two different VASes at once. *)
  let m, sys, p = setup () in
  let t1 = Api.context sys p (Machine.core m 0) in
  let _thread = Process.spawn_thread p in
  let t2 = Api.context sys p (Machine.core m 1) in
  let _, seg_a = make_vas t1 "A" in
  let _, seg_b = make_vas t1 "B" in
  let vh_a = Api.vas_attach t1 (Api.vas_find t1 ~name:"A") in
  let vh_b = Api.vas_attach t2 (Api.vas_find t2 ~name:"B") in
  Api.vas_switch t1 vh_a;
  Api.vas_switch t2 vh_b;
  Api.store64 t1 ~va:(Segment.base seg_a) 1L;
  Api.store64 t2 ~va:(Segment.base seg_b) 2L;
  (* Each thread sees only its own VAS's segment. *)
  Alcotest.(check int64) "t1 reads A" 1L (Api.load64 t1 ~va:(Segment.base seg_a));
  Alcotest.(check int64) "t2 reads B" 2L (Api.load64 t2 ~va:(Segment.base seg_b));
  Alcotest.(check bool) "t1 cannot see B" true
    (try
       ignore (Api.load64 t1 ~va:(Segment.base seg_b));
       false
     with Machine.Page_fault _ -> true);
  Alcotest.(check bool) "t2 cannot see A" true
    (try
       ignore (Api.load64 t2 ~va:(Segment.base seg_a));
       false
     with Machine.Page_fault _ -> true)

let test_late_thread_stack_visible () =
  (* A thread spawned AFTER an attachment exists: its stack must become
     usable inside that attachment (runtime bookkeeping, sec 4.1). *)
  let m, sys, p = setup () in
  let t1 = Api.context sys p (Machine.core m 0) in
  let vas, _seg = make_vas t1 "A" in
  let vh = Api.vas_attach t1 vas in
  (* Spawn the thread after the attach. *)
  let th = Process.spawn_thread p in
  let t2 = Api.context sys p (Machine.core m 1) in
  Api.vas_switch t2 vh;
  (* The new thread writes to its own stack while inside the VAS. *)
  let sp = th.stack_base + th.stack_size - 128 in
  Api.store64 t2 ~va:sp 0xABCDL;
  Alcotest.(check int64) "stack usable inside VAS" 0xABCDL (Api.load64 t2 ~va:sp);
  Api.switch_home t2;
  Alcotest.(check int64) "stack consistent at home" 0xABCDL (Api.load64 t2 ~va:sp)

let test_threads_share_heap_state () =
  (* Two threads switched into the same VAS allocate from the same
     mspace: no overlap, both allocations usable. *)
  let m, sys, p = setup () in
  let t1 = Api.context sys p (Machine.core m 0) in
  let _thread = Process.spawn_thread p in
  let t2 = Api.context sys p (Machine.core m 1) in
  let vas, _ = make_vas t1 "shared" in
  (* One attachment per process; both threads switch into it (the
     exclusive lock belongs to the attaching process). *)
  let vh = Api.vas_attach t1 vas in
  Api.vas_switch t1 vh;
  Api.vas_switch t2 vh;
  let a = Api.malloc t1 256 in
  let b = Api.malloc t2 256 in
  Alcotest.(check bool) "disjoint allocations" true (abs (a - b) >= 256);
  Api.store64 t1 ~va:a 10L;
  Api.store64 t2 ~va:b 20L;
  Alcotest.(check int64) "t2 sees t1's write" 10L (Api.load64 t2 ~va:a);
  Api.free t2 a;
  Api.free t1 b

let test_lock_modes_across_threads () =
  (* Two read-only attachments from two threads share the lock; a
     writer thread is excluded while they are inside. *)
  let m, sys, p = setup () in
  let t1 = Api.context sys p (Machine.core m 0) in
  let _th = Process.spawn_thread p in
  let t2 = Api.context sys p (Machine.core m 1) in
  let seg = Api.seg_alloc_anywhere t1 ~name:"locked" ~size:(Size.mib 1) ~mode:0o600 in
  let vas_ro = Api.vas_create t1 ~name:"ro" ~mode:0o600 in
  Api.seg_attach t1 vas_ro seg ~prot:Prot.r;
  let vas_rw = Api.vas_create t1 ~name:"rw" ~mode:0o600 in
  Api.seg_attach t1 vas_rw seg ~prot:Prot.rw;
  let r1 = Api.vas_attach t1 vas_ro in
  let r2 = Api.vas_attach t2 vas_ro in
  let w = Api.vas_attach t1 vas_rw in
  Api.vas_switch t1 r1;
  Api.vas_switch t2 r2;
  Alcotest.(check bool) "two reader threads inside" true
    (Segment.lock_state seg = Segment.Shared 2);
  Api.switch_home t1;
  Alcotest.(check bool) "writer blocked by the other thread" true
    (try
       Api.vas_switch t1 w;
       false
     with Sj_abi.Error.Fault { code = Would_block; _ } -> true);
  Api.switch_home t2;
  Api.vas_switch t1 w;
  Alcotest.(check bool) "writer enters when readers leave" true
    (Segment.lock_state seg = Segment.Exclusive)

let test_exit_frees_thread_stacks () =
  let m, sys, p = setup () in
  let before = Sj_mem.Phys_mem.frames_allocated (Machine.mem m) in
  ignore before;
  let _t1 = Api.context sys p (Machine.core m 0) in
  let _ = Process.spawn_thread p in
  let _ = Process.spawn_thread p in
  Alcotest.(check int) "three threads" 3 (List.length (Process.threads p));
  ignore sys

let suite =
  [
    Alcotest.test_case "threads in different VASes" `Quick test_threads_in_different_vases;
    Alcotest.test_case "late thread stack visible in attachment" `Quick
      test_late_thread_stack_visible;
    Alcotest.test_case "threads share heap state" `Quick test_threads_share_heap_state;
    Alcotest.test_case "lock modes across threads" `Quick test_lock_modes_across_threads;
    Alcotest.test_case "thread accounting" `Quick test_exit_frees_thread_stacks;
  ]
