(* Integration tests for the SpaceJMP core API (Fig. 3 semantics). *)
open Sj_util
open Sj_core
module Machine = Sj_machine.Machine
module Core = Machine.Core
module Platform = Sj_machine.Platform
module Process = Sj_kernel.Process
module Acl = Sj_kernel.Acl
module Layout = Sj_kernel.Layout
module Prot = Sj_paging.Prot
module Error = Sj_abi.Error

let tiny : Platform.t =
  { Platform.m2 with name = "tiny"; mem_size = Size.mib 256; sockets = 2; cores_per_socket = 2 }

let setup ?backend () =
  let m = Machine.create tiny in
  let sys = Api.boot ?backend m in
  let p = Process.create ~name:"p0" m in
  let ctx = Api.context sys p (Machine.core m 0) in
  (m, sys, ctx)

let test_fig4_usage () =
  (* The paper's Fig. 4 example: create a VAS, a segment, attach,
     switch, malloc, store 42. *)
  let _, _, ctx = setup () in
  let vid = Api.vas_create ctx ~name:"v0" ~mode:0o660 in
  let sid = Api.seg_alloc_anywhere ctx ~name:"s0" ~size:(Size.mib 32) ~mode:0o660 in
  Api.seg_attach ctx vid sid ~prot:Prot.rw;
  let vid' = Api.vas_find ctx ~name:"v0" in
  Alcotest.(check int) "find returns same VAS" (Vas.vid vid) (Vas.vid vid');
  let vh = Api.vas_attach ctx vid' in
  Api.vas_switch ctx vh;
  let t = Api.malloc ctx 8 in
  Api.store64 ctx ~va:t 42L;
  Alcotest.(check int64) "The Answer" 42L (Api.load64 ctx ~va:t)

let test_malloc_requires_attachment () =
  let _, _, ctx = setup () in
  Alcotest.(check bool) "malloc outside VAS rejected" true
    (try
       ignore (Api.malloc ctx 8);
       false
     with Error.Fault f -> Error.equal_code f.code Error.Invalid)

let test_data_persists_across_processes () =
  (* Process A writes a value; exits; process B switches into the same
     VAS and reads it back — no serialization (§5.4 motivation). *)
  let m, sys, ctx_a = setup () in
  let vas = Api.vas_create ctx_a ~name:"shared" ~mode:0o666 in
  let seg = Api.seg_alloc_anywhere ctx_a ~name:"data" ~size:(Size.mib 4) ~mode:0o666 in
  Api.seg_attach ctx_a vas seg ~prot:Prot.rw;
  let vh_a = Api.vas_attach ctx_a vas in
  Api.vas_switch ctx_a vh_a;
  let p = Api.malloc ctx_a 64 in
  Api.store_bytes ctx_a ~va:p (Bytes.of_string "persistent!");
  Api.switch_home ctx_a;
  Process.exit (Api.process ctx_a);
  (* New process, new core. *)
  let pb = Process.create ~name:"pB" m in
  let ctx_b = Api.context sys pb (Machine.core m 1) in
  let vas' = Api.vas_find ctx_b ~name:"shared" in
  let vh_b = Api.vas_attach ctx_b vas' in
  Api.vas_switch ctx_b vh_b;
  Alcotest.(check string) "data visible in process B" "persistent!"
    (Bytes.to_string (Api.load_bytes ctx_b ~va:p ~len:11))

let test_common_region_valid_after_switch () =
  (* Stacks/globals (private segments) must stay accessible inside any
     attached VAS (Fig. 2). *)
  let _, _, ctx = setup () in
  let vas = Api.vas_create ctx ~name:"v" ~mode:0o600 in
  let seg = Api.seg_alloc_anywhere ctx ~name:"s" ~size:(Size.mib 1) ~mode:0o600 in
  Api.seg_attach ctx vas seg ~prot:Prot.rw;
  let th = Process.main_thread (Api.process ctx) in
  let stack_va = th.stack_base + th.stack_size - 64 in
  Api.store64 ctx ~va:stack_va 0xBEEFL;
  let vh = Api.vas_attach ctx vas in
  Api.vas_switch ctx vh;
  Alcotest.(check int64) "stack readable inside VAS" 0xBEEFL (Api.load64 ctx ~va:stack_va);
  Api.store64 ctx ~va:(Layout.data_base + 128) 7L;
  Api.switch_home ctx;
  Alcotest.(check int64) "globals written inside VAS visible at home" 7L
    (Api.load64 ctx ~va:(Layout.data_base + 128))

let test_lock_modes () =
  (* Writable attachment takes the exclusive lock; read-only attachments
     share. *)
  let m, sys, ctx_w = setup () in
  let vas_rw = Api.vas_create ctx_w ~name:"rw" ~mode:0o666 in
  let seg = Api.seg_alloc_anywhere ctx_w ~name:"locked" ~size:(Size.mib 1) ~mode:0o666 in
  Api.seg_attach ctx_w vas_rw seg ~prot:Prot.rw;
  let vas_ro = Api.vas_create ctx_w ~name:"ro" ~mode:0o666 in
  Api.seg_attach ctx_w vas_ro seg ~prot:Prot.r;
  let vh_w = Api.vas_attach ctx_w vas_rw in
  Api.vas_switch ctx_w vh_w;
  Alcotest.(check bool) "exclusive held" true (Segment.lock_state seg = Segment.Exclusive);
  (* A second process trying to enter read-only blocks. *)
  let p2 = Process.create ~name:"reader" m in
  let ctx_r = Api.context sys p2 (Machine.core m 1) in
  let vh_r = Api.vas_attach ctx_r (Api.vas_find ctx_r ~name:"ro") in
  Alcotest.(check bool) "reader blocks while writer inside" true
    (try
       Api.vas_switch ctx_r vh_r;
       false
     with Sj_abi.Error.Fault { code = Would_block; _ } -> true);
  (* Writer leaves; reader can now enter; second reader shares. *)
  Api.switch_home ctx_w;
  Api.vas_switch ctx_r vh_r;
  Alcotest.(check bool) "shared by one reader" true (Segment.lock_state seg = Segment.Shared 1);
  let p3 = Process.create ~name:"reader2" m in
  let ctx_r2 = Api.context sys p3 (Machine.core m 2) in
  let vh_r2 = Api.vas_attach ctx_r2 (Api.vas_find ctx_r2 ~name:"ro") in
  Api.vas_switch ctx_r2 vh_r2;
  Alcotest.(check bool) "two readers" true (Segment.lock_state seg = Segment.Shared 2);
  (* Writer cannot re-enter while readers inside. *)
  Alcotest.(check bool) "writer blocks on readers" true
    (try
       Api.vas_switch ctx_w vh_w;
       false
     with Sj_abi.Error.Fault { code = Would_block; _ } -> true)

let test_acl_enforcement () =
  let m, sys, ctx_root = setup () in
  let vas = Api.vas_create ctx_root ~name:"private" ~mode:0o600 in
  let seg = Api.seg_alloc_anywhere ctx_root ~name:"secret" ~size:(Size.mib 1) ~mode:0o600 in
  Api.seg_attach ctx_root vas seg ~prot:Prot.rw;
  let mallory = Process.create ~name:"mallory" ~cred:(Acl.cred ~uid:666 ~gids:[ 666 ]) m in
  let ctx_m = Api.context sys mallory (Machine.core m 1) in
  Alcotest.(check bool) "attach denied" true
    (try
       ignore (Api.vas_attach ctx_m (Api.vas_find ctx_m ~name:"private"));
       false
     with Sj_abi.Error.Fault { code = Permission_denied; _ } -> true);
  (* vas_ctl chmod opens it up. *)
  Api.vas_ctl ctx_root (`Chmod (vas, 0o604));
  Segment.set_acl seg (Acl.chmod (Segment.acl seg) ~mode:0o604);
  let vh = Api.vas_attach ctx_m (Api.vas_find ctx_m ~name:"private") in
  Api.vas_switch ctx_m vh;
  Api.switch_home ctx_m

let test_vas_clone () =
  let _, _, ctx = setup () in
  let vas = Api.vas_create ctx ~name:"orig" ~mode:0o600 in
  let seg = Api.seg_alloc_anywhere ctx ~name:"segc" ~size:(Size.mib 1) ~mode:0o600 in
  Api.seg_attach ctx vas seg ~prot:Prot.rw;
  let clone = Api.vas_clone ctx vas ~name:"copy" in
  Alcotest.(check int) "segment list copied" 1 (List.length (Vas.segments clone));
  Alcotest.(check bool) "distinct identity" true (Vas.vid clone <> Vas.vid vas)

let test_seg_clone_copies_contents () =
  let _, _, ctx = setup () in
  let vas = Api.vas_create ctx ~name:"v" ~mode:0o600 in
  let seg = Api.seg_alloc_anywhere ctx ~name:"src" ~size:(Size.mib 1) ~mode:0o600 in
  Api.seg_attach ctx vas seg ~prot:Prot.rw;
  let vh = Api.vas_attach ctx vas in
  Api.vas_switch ctx vh;
  Api.store64 ctx ~va:(Segment.base seg + 512) 99L;
  Api.switch_home ctx;
  let clone = Api.seg_clone ctx seg ~name:"copy" in
  Alcotest.(check int) "same base (alias window)" (Segment.base seg) (Segment.base clone);
  (* Attach the clone to a fresh VAS and read through it. *)
  let vas2 = Api.vas_create ctx ~name:"v2" ~mode:0o600 in
  Api.seg_attach ctx vas2 clone ~prot:Prot.rw;
  let vh2 = Api.vas_attach ctx vas2 in
  Api.vas_switch ctx vh2;
  Alcotest.(check int64) "contents copied" 99L (Api.load64 ctx ~va:(Segment.base seg + 512));
  (* Writes to the clone do not affect the original. *)
  Api.store64 ctx ~va:(Segment.base seg + 512) 1L;
  Api.switch_home ctx;
  Api.vas_switch ctx vh;
  Alcotest.(check int64) "original untouched" 99L (Api.load64 ctx ~va:(Segment.base seg + 512))

(* seg_clone copies into a plain 4 KiB-backed segment, so sources whose
   backing it cannot reproduce are refused with typed Invalid faults
   instead of silently cloning wrong: pre-built (cached) page tables
   and 2 MiB-backed segments. COW sources are supported by
   break-and-copy on the read side: the clone reads the shared frames
   (reads never split a CoW page) into fresh frames of its own, so the
   source keeps sharing with its snapshot and the clone is private. *)
let test_seg_clone_refusals () =
  let _, _, ctx = setup () in
  let check_refused what r =
    match r with
    | Ok _ -> Alcotest.failf "%s: clone succeeded but must be refused" what
    | Error (f : Sj_abi.Error.t) ->
      Alcotest.(check bool) (what ^ ": Invalid") true (f.code = Sj_abi.Error.Invalid)
  in
  let cached =
    Api.seg_alloc_anywhere ctx ~name:"cached" ~size:(Size.mib 1) ~mode:0o600
  in
  Api.seg_ctl ctx (`Cache_translations cached);
  check_refused "cached source" (Api.Checked.seg_clone ctx cached ~name:"cached-copy");
  let huge =
    Api.seg_alloc_anywhere ~huge:true ctx ~name:"huge" ~size:(Size.mib 2) ~mode:0o600
  in
  check_refused "huge source" (Api.Checked.seg_clone ctx huge ~name:"huge-copy");
  (* COW source: clone succeeds, reads current bytes, leaves the source
     still COW (its sharing with the snapshot is untouched). *)
  let cow = Api.seg_alloc_anywhere ctx ~name:"cow" ~size:(Size.mib 1) ~mode:0o600 in
  let vas = Api.vas_create ctx ~name:"cowv" ~mode:0o600 in
  Api.seg_attach ctx vas cow ~prot:Prot.rw;
  let vh = Api.vas_attach ctx vas in
  Api.vas_switch ctx vh;
  Api.store64 ctx ~va:(Segment.base cow + 64) 42L;
  Api.switch_home ctx;
  ignore (Api.seg_snapshot ctx cow ~name:"cow-snap");
  let copy = Api.seg_clone ctx cow ~name:"cow-copy" in
  Alcotest.(check bool) "source still COW" true (Segment.is_cow cow);
  Alcotest.(check bool) "clone not COW" false (Segment.is_cow copy);
  let vas2 = Api.vas_create ctx ~name:"cowv2" ~mode:0o600 in
  Api.seg_attach ctx vas2 copy ~prot:Prot.rw;
  let vh2 = Api.vas_attach ctx vas2 in
  Api.vas_switch ctx vh2;
  Alcotest.(check int64) "clone carries contents" 42L
    (Api.load64 ctx ~va:(Segment.base cow + 64));
  Api.switch_home ctx

let test_seg_attach_propagates () =
  (* Attaching a segment VAS-globally becomes visible to existing
     attachments at their next switch (DragonFly propagation). *)
  let _, _, ctx = setup () in
  let vas = Api.vas_create ctx ~name:"v" ~mode:0o600 in
  let s1 = Api.seg_alloc_anywhere ctx ~name:"s1" ~size:(Size.mib 1) ~mode:0o600 in
  Api.seg_attach ctx vas s1 ~prot:Prot.rw;
  let vh = Api.vas_attach ctx vas in
  Api.vas_switch ctx vh;
  Api.switch_home ctx;
  let s2 = Api.seg_alloc_anywhere ctx ~name:"s2" ~size:(Size.mib 1) ~mode:0o600 in
  Api.seg_attach ctx vas s2 ~prot:Prot.rw;
  Api.vas_switch ctx vh;
  Api.store64 ctx ~va:(Segment.base s2) 5L;
  Alcotest.(check int64) "new segment usable" 5L (Api.load64 ctx ~va:(Segment.base s2));
  (* Detach: gone after next switch. *)
  Api.switch_home ctx;
  Api.seg_detach ctx vas s2;
  Api.vas_switch ctx vh;
  Alcotest.(check bool) "detached segment faults" true
    (try
       ignore (Api.load64 ctx ~va:(Segment.base s2));
       false
     with Machine.Page_fault _ -> true)

let test_local_scratch_segment () =
  (* §5.3: per-client scratch heaps attached process-locally. *)
  let m, sys, ctx1 = setup () in
  let vas = Api.vas_create ctx1 ~name:"v" ~mode:0o666 in
  let shared = Api.seg_alloc_anywhere ctx1 ~name:"shared" ~size:(Size.mib 1) ~mode:0o666 in
  Api.seg_attach ctx1 vas shared ~prot:Prot.r;
  let scratch1 = Api.seg_alloc_anywhere ctx1 ~name:"scratch1" ~size:(Size.mib 1) ~mode:0o600 in
  let vh1 = Api.vas_attach ctx1 vas in
  Api.seg_attach_local ctx1 vh1 scratch1 ~prot:Prot.rw;
  Api.vas_switch ctx1 vh1;
  let x = Api.malloc ctx1 ~seg:scratch1 32 in
  Api.store64 ctx1 ~va:x 11L;
  Alcotest.(check int64) "scratch usable" 11L (Api.load64 ctx1 ~va:x);
  (* Another process attaching the same VAS does NOT see the scratch. *)
  let p2 = Process.create ~name:"c2" m in
  let ctx2 = Api.context sys p2 (Machine.core m 1) in
  let vh2 = Api.vas_attach ctx2 (Api.vas_find ctx2 ~name:"v") in
  Api.vas_switch ctx2 vh2;
  Alcotest.(check bool) "scratch private to client 1" true
    (try
       ignore (Api.load64 ctx2 ~va:x);
       false
     with Machine.Page_fault _ -> true)

let test_address_conflict_detected () =
  let m, _, ctx = setup () in
  let vas = Api.vas_create ctx ~name:"v" ~mode:0o600 in
  let base = Sj_kernel.Layout.next_global_base (Machine.sim_ctx m) ~size:(Size.mib 2) in
  let s1 = Api.seg_alloc ctx ~name:"a" ~base ~size:(Size.mib 2) ~mode:0o600 in
  let s2 = Api.seg_alloc ctx ~name:"b" ~base:(base + Size.mib 1) ~size:(Size.mib 2) ~mode:0o600 in
  Api.seg_attach ctx vas s1 ~prot:Prot.rw;
  Alcotest.(check bool) "overlap rejected" true
    (try
       Api.seg_attach ctx vas s2 ~prot:Prot.rw;
       false
     with Sj_abi.Error.Fault { code = Address_conflict; _ } -> true)

let test_switch_costs_by_backend () =
  (* Table 2: switching costs differ by OS and tagging. The segment is
     non-lockable so the measured path is exactly syscall+CR3+bookkeeping. *)
  let measure ~backend ~tagged =
    let m = Machine.create tiny in
    let sys = Api.boot ~backend m in
    let p = Process.create ~name:"bench" m in
    let ctx = Api.context sys p (Machine.core m 0) in
    let vas = Api.vas_create ctx ~name:"v" ~mode:0o600 in
    if tagged then Api.vas_ctl ctx (`Request_tag vas);
    let seg =
      Segment.create ~lockable:false ~charge_to:None ~machine:m ~name:"s"
        ~base:(Layout.next_global_base (Machine.sim_ctx m) ~size:(Size.mib 1))
        ~size:(Size.mib 1) ~prot:Prot.rw ()
    in
    Registry.register_seg (Api.registry sys) seg;
    Api.seg_attach ctx vas seg ~prot:Prot.rw;
    let vh = Api.vas_attach ctx vas in
    Api.vas_switch ctx vh;
    Api.switch_home ctx;
    (* Steady-state switch cost. *)
    let core = Api.core ctx in
    let c0 = Core.cycles core in
    Api.vas_switch ctx vh;
    Core.cycles core - c0
  in
  Alcotest.(check int) "DragonFly untagged" 1127 (measure ~backend:Api.Dragonfly ~tagged:false);
  Alcotest.(check int) "DragonFly tagged" 807 (measure ~backend:Api.Dragonfly ~tagged:true);
  Alcotest.(check int) "Barrelfish untagged" 664 (measure ~backend:Api.Barrelfish ~tagged:false);
  Alcotest.(check int) "Barrelfish tagged" 462 (measure ~backend:Api.Barrelfish ~tagged:true)

let test_barrelfish_revocation () =
  let _, _, ctx = setup ~backend:Api.Barrelfish () in
  let vas = Api.vas_create ctx ~name:"v" ~mode:0o600 in
  let seg = Api.seg_alloc_anywhere ctx ~name:"s" ~size:(Size.mib 1) ~mode:0o600 in
  Api.seg_attach ctx vas seg ~prot:Prot.rw;
  let vh = Api.vas_attach ctx vas in
  Api.vas_switch ctx vh;
  Api.switch_home ctx;
  Api.vas_ctl ctx (`Revoke vas);
  Alcotest.(check bool) "switch after revoke denied" true
    (try
       Api.vas_switch ctx vh;
       false
     with Sj_abi.Error.Fault { code = Permission_denied; _ } -> true)

let test_detach_invalidates_handle () =
  let _, _, ctx = setup () in
  let vas = Api.vas_create ctx ~name:"v" ~mode:0o600 in
  let seg = Api.seg_alloc_anywhere ctx ~name:"s" ~size:(Size.mib 1) ~mode:0o600 in
  Api.seg_attach ctx vas seg ~prot:Prot.rw;
  let vh = Api.vas_attach ctx vas in
  Api.vas_switch ctx vh;
  Api.vas_detach ctx vh;
  Alcotest.(check bool) "back home after detach" true (Api.current ctx = None);
  Alcotest.(check bool) "stale handle rejected" true
    (try
       Api.vas_switch ctx vh;
       false
     with Sj_abi.Error.Fault { code = Stale_handle; _ } -> true)

let test_translation_cache_speeds_attach () =
  let _, _, ctx = setup () in
  let vas1 = Api.vas_create ctx ~name:"v1" ~mode:0o600 in
  let vas2 = Api.vas_create ctx ~name:"v2" ~mode:0o600 in
  let seg = Api.seg_alloc_anywhere ctx ~name:"big" ~size:(Size.mib 64) ~mode:0o600 in
  Api.seg_attach ctx vas1 seg ~prot:Prot.rw;
  Api.seg_attach ctx vas2 seg ~prot:Prot.rw;
  let core = Api.core ctx in
  let c0 = Core.cycles core in
  let vh1 = Api.vas_attach ctx vas1 in
  let uncached_cost = Core.cycles core - c0 in
  Api.seg_ctl ctx (`Cache_translations seg);
  let c1 = Core.cycles core in
  let vh2 = Api.vas_attach ctx vas2 in
  let cached_cost = Core.cycles core - c1 in
  Alcotest.(check bool) "cached attach at least 5x cheaper" true
    (cached_cost * 5 < uncached_cost);
  (* Both attachments translate correctly. *)
  Api.vas_switch ctx vh2;
  Api.store64 ctx ~va:(Segment.base seg + Size.mib 63) 3L;
  Api.switch_home ctx;
  Api.vas_switch ctx vh1;
  Alcotest.(check int64) "same physical data" 3L (Api.load64 ctx ~va:(Segment.base seg + Size.mib 63))

let test_heap_shared_across_processes () =
  (* The mspace state is keyed to the segment: allocations made by one
     process are visible (and freeable) by another. *)
  let m, sys, ctx1 = setup () in
  let vas = Api.vas_create ctx1 ~name:"v" ~mode:0o666 in
  let seg = Api.seg_alloc_anywhere ctx1 ~name:"heap" ~size:(Size.mib 4) ~mode:0o666 in
  Api.seg_attach ctx1 vas seg ~prot:Prot.rw;
  let vh1 = Api.vas_attach ctx1 vas in
  Api.vas_switch ctx1 vh1;
  let a = Api.malloc ctx1 128 in
  Api.switch_home ctx1;
  let p2 = Process.create ~name:"p2" m in
  let ctx2 = Api.context sys p2 (Machine.core m 1) in
  let vh2 = Api.vas_attach ctx2 (Api.vas_find ctx2 ~name:"v") in
  Api.vas_switch ctx2 vh2;
  let b = Api.malloc ctx2 128 in
  Alcotest.(check bool) "no overlap across processes" true (b <> a);
  Api.free ctx2 a;
  Api.switch_home ctx2

let test_switch_counting () =
  let _, sys, ctx = setup () in
  Registry.reset_stats (Api.registry sys);
  let vas = Api.vas_create ctx ~name:"v" ~mode:0o600 in
  let seg = Api.seg_alloc_anywhere ctx ~name:"s" ~size:(Size.mib 1) ~mode:0o600 in
  Api.seg_attach ctx vas seg ~prot:Prot.rw;
  let vh = Api.vas_attach ctx vas in
  for _ = 1 to 5 do
    Api.vas_switch ctx vh;
    Api.switch_home ctx
  done;
  Alcotest.(check int) "10 switches counted" 10 (Registry.switch_count (Api.registry sys))

let test_vas_destroy_lifecycle () =
  let _, _sys, ctx = setup () in
  let vas = Api.vas_create ctx ~name:"doomed" ~mode:0o600 in
  let seg = Api.seg_alloc_anywhere ctx ~name:"s" ~size:(Size.mib 1) ~mode:0o600 in
  Api.seg_attach ctx vas seg ~prot:Prot.rw;
  let vh = Api.vas_attach ctx vas in
  Api.vas_switch ctx vh;
  Api.store64 ctx ~va:(Segment.base seg) 1L;
  Api.switch_home ctx;
  Api.vas_ctl ctx (`Destroy vas);
  (* Gone from the namespace... *)
  Alcotest.(check bool) "find fails" true
    (try
       ignore (Api.vas_find ctx ~name:"doomed");
       false
     with Sj_abi.Error.Fault { code = Unknown_name; _ } -> true);
  (* ...new attaches are refused... *)
  Alcotest.(check bool) "attach refused" true
    (try
       ignore (Api.vas_attach ctx vas);
       false
     with Sj_abi.Error.Fault { code = Stale_handle; _ } -> true);
  (* ...but existing attachments keep working (unlink semantics). *)
  Api.vas_switch ctx vh;
  Alcotest.(check int64) "existing attachment still works" 1L
    (Api.load64 ctx ~va:(Segment.base seg));
  Api.switch_home ctx;
  Api.vas_detach ctx vh

let test_seg_destroy_lifecycle () =
  let m, sys, ctx = setup () in
  ignore sys;
  let before = Sj_mem.Phys_mem.frames_allocated (Machine.mem m) in
  let seg = Api.seg_alloc_anywhere ctx ~name:"temp" ~size:(Size.mib 1) ~mode:0o600 in
  Api.seg_ctl ctx (`Destroy seg);
  Alcotest.(check int) "frames reclaimed" before
    (Sj_mem.Phys_mem.frames_allocated (Machine.mem m));
  Alcotest.(check bool) "name free for reuse" true
    (let seg2 = Api.seg_alloc_anywhere ctx ~name:"temp" ~size:(Size.mib 1) ~mode:0o600 in
     Segment.sid seg2 <> Segment.sid seg)

let test_exit_process_reclaims () =
  let m, sys, _ = setup () in
  let baseline = Sj_mem.Phys_mem.frames_allocated (Machine.mem m) in
  (* One persistent segment created by a bootstrap context so its frames
     are expected to survive. *)
  let boot = Process.create ~name:"boot" m in
  let bctx = Api.context sys boot (Machine.core m 1) in
  let vas = Api.vas_create bctx ~name:"durable" ~mode:0o666 in
  let seg = Api.seg_alloc_anywhere bctx ~name:"data" ~size:(Size.mib 1) ~mode:0o666 in
  Api.seg_attach bctx vas seg ~prot:Prot.rw;
  let with_seg = Sj_mem.Phys_mem.frames_allocated (Machine.mem m) in
  (* A short-lived process attaches, works, and exits. *)
  let p = Process.create ~name:"worker" m in
  let ctx = Api.context sys p (Machine.core m 0) in
  let vh = Api.vas_attach ctx vas in
  Api.vas_switch ctx vh;
  let a = Api.malloc ctx 64 in
  Api.store64 ctx ~va:a 99L;
  Api.exit_process ctx;
  (* Everything process-private is back: only boot's footprint remains. *)
  Alcotest.(check int) "worker memory fully reclaimed" with_seg
    (Sj_mem.Phys_mem.frames_allocated (Machine.mem m));
  Alcotest.(check bool) "segment lock released" true
    (Segment.lock_state seg = Segment.Unlocked);
  Alcotest.(check int) "no stale mapping records" 0
    (List.length (Registry.mappings (Api.registry sys) ~sid:(Segment.sid seg)));
  (* The data outlives its writer. *)
  let p2 = Process.create ~name:"reader" m in
  let ctx2 = Api.context sys p2 (Machine.core m 0) in
  let vh2 = Api.vas_attach ctx2 (Api.vas_find ctx2 ~name:"durable") in
  Api.vas_switch ctx2 vh2;
  Alcotest.(check int64) "data survives its writer" 99L (Api.load64 ctx2 ~va:a);
  ignore baseline

(* Regression: once the 12-bit tag space wrapped, alloc_tag handed the
   same ASID to a new VAS without flushing the previous owner's
   translations — a switch into the new VAS could hit stale entries and
   silently read the wrong address space. A recycled tag is now flushed
   from every core's TLB before reuse. *)
let test_tag_recycle_flushes_stale () =
  let m, sys, _ctx = setup () in
  let reg = Api.registry sys in
  let tlb = Core.tlb (Machine.core m 0) in
  (* Occupy a tag with a translation, as its first owner would. *)
  let first = Registry.alloc_tag reg in
  Sj_tlb.Tlb.insert tlb ~tag:first ~va:0x9000 ~pa:0x70000 ~prot:Prot.rw
    ~size:Sj_paging.Page_table.P4K ~global:false;
  (* Fresh (never-recycled) allocations must not flush anyone. *)
  ignore (Registry.alloc_tag reg);
  Alcotest.(check bool) "fresh tags don't flush" true
    (Sj_tlb.Tlb.lookup tlb ~tag:first ~va:0x9000 <> None);
  (* Exhaust the 4095-tag space until [first] is handed out again. *)
  let reissued = ref (Registry.alloc_tag reg) in
  let guard = ref 0 in
  while !reissued <> first && !guard < 8192 do
    incr guard;
    reissued := Registry.alloc_tag reg
  done;
  Alcotest.(check int) "tag space wrapped back around" first !reissued;
  Alcotest.(check bool) "stale translation flushed on recycle" true
    (Sj_tlb.Tlb.lookup tlb ~tag:first ~va:0x9000 = None)

(* Lock state machine: random try_lock/unlock sequences agree with a
   reader-count model and never corrupt state. *)
let prop_segment_lock_model =
  QCheck.Test.make ~name:"segment lock agrees with reader/writer model" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 100) (int_bound 3))
    (fun ops ->
      let m = Machine.create tiny in
      let seg =
        Segment.create ~charge_to:None ~machine:m ~name:"lk"
          ~base:(Layout.next_global_base (Machine.sim_ctx m) ~size:Size.(kib 4))
          ~size:(Size.kib 4) ~prot:Prot.rw ()
      in
      let readers = ref 0 and writer = ref false in
      List.for_all
        (fun op ->
          match op with
          | 0 ->
            let got = Segment.try_lock seg ~mode:`Shared in
            let expect = not !writer in
            if got then incr readers;
            got = expect
          | 1 ->
            let got = Segment.try_lock seg ~mode:`Exclusive in
            let expect = (not !writer) && !readers = 0 in
            if got then writer := true;
            got = expect
          | 2 ->
            if !readers > 0 then begin
              Segment.unlock seg ~mode:`Shared;
              decr readers;
              true
            end
            else ( (* unlocking what we don't hold must be rejected *)
              try
                Segment.unlock seg ~mode:`Shared;
                false
              with Error.Fault f -> Error.equal_code f.code Error.Invalid)
          | _ ->
            if !writer then begin
              Segment.unlock seg ~mode:`Exclusive;
              writer := false;
              true
            end
            else (
              try
                Segment.unlock seg ~mode:`Exclusive;
                false
              with Error.Fault f -> Error.equal_code f.code Error.Invalid))
        ops
      && Segment.lock_state seg
         = (if !writer then Segment.Exclusive
            else if !readers = 0 then Segment.Unlocked
            else Segment.Shared !readers))

let suite =
  [
    Alcotest.test_case "Fig. 4 canonical usage" `Quick test_fig4_usage;
    Alcotest.test_case "malloc requires attachment" `Quick test_malloc_requires_attachment;
    Alcotest.test_case "data persists across processes" `Quick test_data_persists_across_processes;
    Alcotest.test_case "common region valid after switch" `Quick test_common_region_valid_after_switch;
    Alcotest.test_case "lock modes (shared/exclusive)" `Quick test_lock_modes;
    Alcotest.test_case "ACL enforcement" `Quick test_acl_enforcement;
    Alcotest.test_case "vas_clone" `Quick test_vas_clone;
    Alcotest.test_case "seg_clone copies contents" `Quick test_seg_clone_copies_contents;
    Alcotest.test_case "seg_clone refusals (cached/COW/huge)" `Quick
      test_seg_clone_refusals;
    Alcotest.test_case "seg_attach propagates to attachments" `Quick test_seg_attach_propagates;
    Alcotest.test_case "process-local scratch segments" `Quick test_local_scratch_segment;
    Alcotest.test_case "address conflicts detected" `Quick test_address_conflict_detected;
    Alcotest.test_case "Table 2 switch costs via API" `Quick test_switch_costs_by_backend;
    Alcotest.test_case "Barrelfish capability revocation" `Quick test_barrelfish_revocation;
    Alcotest.test_case "detach invalidates handle" `Quick test_detach_invalidates_handle;
    Alcotest.test_case "translation cache speeds attach" `Quick test_translation_cache_speeds_attach;
    Alcotest.test_case "heap shared across processes" `Quick test_heap_shared_across_processes;
    Alcotest.test_case "switch counting" `Quick test_switch_counting;
    Alcotest.test_case "vas destroy lifecycle" `Quick test_vas_destroy_lifecycle;
    Alcotest.test_case "segment destroy lifecycle" `Quick test_seg_destroy_lifecycle;
    Alcotest.test_case "exit_process reclaims everything" `Quick test_exit_process_reclaims;
    Alcotest.test_case "tag recycle flushes stale entries" `Quick test_tag_recycle_flushes_stale;
    QCheck_alcotest.to_alcotest prop_segment_lock_model;
  ]
