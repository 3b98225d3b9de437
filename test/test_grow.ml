(* Growable shared segments (sec 2.3: traditional shared memory makes
   "growing the shared region" a coordination problem; SpaceJMP grows
   the segment once and attachments pick it up at their next switch). *)
open Sj_util
open Sj_core
module Machine = Sj_machine.Machine
module Platform = Sj_machine.Platform
module Process = Sj_kernel.Process
module Layout = Sj_kernel.Layout
module Mspace = Sj_alloc.Mspace
module Prot = Sj_paging.Prot

let tiny : Platform.t =
  { Platform.m2 with name = "tiny"; mem_size = Size.mib 256; sockets = 2; cores_per_socket = 2 }

let setup () =
  let m = Machine.create tiny in
  let sys = Api.boot m in
  let p = Process.create ~name:"p" m in
  let ctx = Api.context sys p (Machine.core m 0) in
  (m, sys, ctx)

(* --- Mspace.extend unit behaviour --- *)

let test_mspace_extend () =
  let h = Mspace.create ~base:0 ~size:1024 in
  (* Fill completely. *)
  let a = Option.get (Mspace.malloc h 1024) in
  Alcotest.(check bool) "full" true (Mspace.malloc h 16 = None);
  Mspace.extend h ~by:512;
  Alcotest.(check int) "size grew" 1536 (Mspace.size h);
  let b = Option.get (Mspace.malloc h 256) in
  Alcotest.(check bool) "new space usable" true (b >= 1024);
  Mspace.check_invariants h;
  (* Extension coalesces with a trailing free chunk. *)
  Mspace.free h b;
  Mspace.extend h ~by:512;
  Alcotest.(check int) "coalesced tail" 1024 (Mspace.largest_free h);
  Mspace.check_invariants h;
  Mspace.free h a;
  Mspace.check_invariants h

let test_mspace_extend_bad_args () =
  let h = Mspace.create ~base:0 ~size:1024 in
  Alcotest.(check bool) "unaligned rejected" true
    (try
       Mspace.extend h ~by:10;
       false
     with Invalid_argument _ -> true)

(* --- segment growth through the API --- *)

let test_grow_propagates_to_attachments () =
  let m, sys, ctx1 = setup () in
  let vas = Api.vas_create ctx1 ~name:"v" ~mode:0o666 in
  let seg = Api.seg_alloc_anywhere ctx1 ~name:"shared" ~size:(Size.kib 64) ~mode:0o666 in
  Api.seg_attach ctx1 vas seg ~prot:Prot.rw;
  let vh1 = Api.vas_attach ctx1 vas in
  (* A second process is already attached before the growth. *)
  let p2 = Process.create ~name:"peer" m in
  let ctx2 = Api.context sys p2 (Machine.core m 1) in
  let vh2 = Api.vas_attach ctx2 (Api.vas_find ctx2 ~name:"v") in
  Api.vas_switch ctx2 vh2;
  Api.switch_home ctx2;
  let beyond = Segment.base seg + Size.kib 64 in
  (* Before growth: past-the-end faults everywhere. *)
  Api.vas_switch ctx1 vh1;
  Alcotest.(check bool) "beyond end faults before growth" true
    (try
       ignore (Api.load64 ctx1 ~va:beyond);
       false
     with Machine.Page_fault _ -> true);
  Api.switch_home ctx1;
  (* One client grows the segment; nobody else does anything. *)
  Api.seg_ctl ctx1 (`Grow (seg, Size.kib 64));
  Alcotest.(check int) "segment doubled" (Size.kib 128) (Segment.size seg);
  (* Both attachments see the new range at their next switch. *)
  Api.vas_switch ctx1 vh1;
  Api.store64 ctx1 ~va:beyond 77L;
  Alcotest.(check int64) "grower writes the new range" 77L (Api.load64 ctx1 ~va:beyond);
  Api.switch_home ctx1;
  Api.vas_switch ctx2 vh2;
  Alcotest.(check int64) "peer sees it after its next switch" 77L
    (Api.load64 ctx2 ~va:beyond);
  Api.switch_home ctx2

let test_grow_extends_heap () =
  let _, _, ctx = setup () in
  let vas = Api.vas_create ctx ~name:"v" ~mode:0o600 in
  let seg = Api.seg_alloc_anywhere ctx ~name:"heap" ~size:(Size.kib 64) ~mode:0o600 in
  Api.seg_attach ctx vas seg ~prot:Prot.rw;
  let vh = Api.vas_attach ctx vas in
  Api.vas_switch ctx vh;
  (* Exhaust the heap. *)
  let a = Api.malloc ctx (Size.kib 60) in
  Alcotest.(check bool) "heap exhausted" true
    (try
       ignore (Api.malloc ctx (Size.kib 16));
       false
     with Sj_abi.Error.Fault { code = Capacity; _ } -> true);
  Api.switch_home ctx;
  Api.seg_ctl ctx (`Grow (seg, Size.kib 64));
  Api.vas_switch ctx vh;
  let b = Api.malloc ctx (Size.kib 16) in
  Api.store64 ctx ~va:b 5L;
  Alcotest.(check int64) "allocation in grown space works" 5L (Api.load64 ctx ~va:b);
  Api.free ctx a;
  Api.free ctx b

let test_grow_refused_for_special_segments () =
  let _, _, ctx = setup () in
  let cached = Api.seg_alloc_anywhere ctx ~name:"cached" ~size:(Size.mib 1) ~mode:0o600 in
  Api.seg_ctl ctx (`Cache_translations cached);
  Alcotest.(check bool) "cached refused" true
    (try
       Api.seg_ctl ctx (`Grow (cached, Size.kib 64));
       false
     with Sj_abi.Error.Fault f -> f.code = Sj_abi.Error.Invalid);
  let huge = Api.seg_alloc_anywhere ~huge:true ctx ~name:"huge" ~size:(Size.mib 2) ~mode:0o600 in
  Alcotest.(check bool) "huge refused" true
    (try
       Api.seg_ctl ctx (`Grow (huge, Size.mib 2));
       false
     with Sj_abi.Error.Fault f -> f.code = Sj_abi.Error.Invalid);
  let snapped = Api.seg_alloc_anywhere ctx ~name:"snapped" ~size:(Size.mib 1) ~mode:0o600 in
  let _ = Api.seg_snapshot ctx snapped ~name:"frozen" in
  Alcotest.(check bool) "cow refused" true
    (try
       Api.seg_ctl ctx (`Grow (snapped, Size.kib 64));
       false
     with Sj_abi.Error.Fault f -> f.code = Sj_abi.Error.Invalid)

let test_grown_segment_persists () =
  let _, sys, ctx = setup () in
  let vas = Api.vas_create ctx ~name:"v" ~mode:0o600 in
  let seg = Api.seg_alloc_anywhere ctx ~name:"g" ~size:(Size.kib 64) ~mode:0o600 in
  Api.seg_attach ctx vas seg ~prot:Prot.rw;
  Api.seg_ctl ctx (`Grow (seg, Size.kib 64));
  let vh = Api.vas_attach ctx vas in
  Api.vas_switch ctx vh;
  Api.store64 ctx ~va:(Segment.base seg + Size.kib 100) 9L;
  Api.switch_home ctx;
  let image = Sj_persist.Persist.save sys in
  let m2 = Machine.create tiny in
  let sys2 = Api.boot m2 in
  let p2 = Process.create ~name:"p" m2 in
  let ctx2 = Api.context sys2 p2 (Machine.core m2 0) in
  Sj_persist.Persist.restore sys2 image;
  let vh2 = Api.vas_attach ctx2 (Api.vas_find ctx2 ~name:"v") in
  Api.vas_switch ctx2 vh2;
  Alcotest.(check int64) "grown range survives reboot" 9L
    (Api.load64 ctx2 ~va:(Segment.base seg + Size.kib 100))

let suite =
  [
    Alcotest.test_case "mspace extend" `Quick test_mspace_extend;
    Alcotest.test_case "mspace extend arg checks" `Quick test_mspace_extend_bad_args;
    Alcotest.test_case "growth propagates to attachments" `Quick
      test_grow_propagates_to_attachments;
    Alcotest.test_case "growth extends the shared heap" `Quick test_grow_extends_heap;
    Alcotest.test_case "growth refused for special segments" `Quick
      test_grow_refused_for_special_segments;
    Alcotest.test_case "grown segment persists" `Quick test_grown_segment_persists;
  ]
