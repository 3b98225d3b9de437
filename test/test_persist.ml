(* Tests for VAS persistence across "reboots" (sec 7). *)
open Sj_util
open Sj_core
module Machine = Sj_machine.Machine
module Platform = Sj_machine.Platform
module Process = Sj_kernel.Process
module Layout = Sj_kernel.Layout
module Prot = Sj_paging.Prot
module Persist = Sj_persist.Persist

let tiny : Platform.t =
  { Platform.m2 with name = "tiny"; mem_size = Size.mib 256; sockets = 2; cores_per_socket = 2 }

let boot () =
  let m = Machine.create tiny in
  let sys = Api.boot m in
  let p = Process.create ~name:"init" m in
  let ctx = Api.context sys p (Machine.core m 0) in
  (m, sys, ctx)

(* Build a world: one VAS, a data segment with heap allocations and a
   raw-data segment; return the image plus facts to check later. *)
let build_world () =
  let _, sys, ctx = boot () in
  let vas = Api.vas_create ctx ~name:"world" ~mode:0o640 in
  Api.vas_ctl ctx (`Request_tag vas);
  let heap_seg = Api.seg_alloc_anywhere ctx ~name:"heap" ~size:(Size.mib 2) ~mode:0o666 in
  let raw_seg = Api.seg_alloc_anywhere ctx ~name:"raw" ~size:(Size.mib 1) ~mode:0o600 in
  Api.seg_attach ctx vas heap_seg ~prot:Prot.rw;
  Api.seg_attach ctx vas raw_seg ~prot:Prot.r;
  let vh = Api.vas_attach ctx vas in
  Api.vas_switch ctx vh;
  let a = Api.malloc ctx 64 in
  let b = Api.malloc ctx 128 in
  Api.store_bytes ctx ~va:a (Bytes.of_string "persisted heap data");
  Api.store64 ctx ~va:b 424242L;
  Api.free ctx b;
  Api.switch_home ctx;
  (sys, ctx, a, b)

let reboot () =
  (* A new machine entirely: nothing survives but the image. *)
  boot ()

let test_roundtrip_data () =
  let sys, _, a, _ = build_world () in
  let image = Persist.save sys in
  let _, sys2, ctx2 = reboot () in
  Persist.restore sys2 image;
  let vas = Api.vas_find ctx2 ~name:"world" in
  let vh = Api.vas_attach ctx2 vas in
  Api.vas_switch ctx2 vh;
  Alcotest.(check string) "heap data survives at the same VA" "persisted heap data"
    (Bytes.to_string (Api.load_bytes ctx2 ~va:a ~len:19))

let test_allocator_state_survives () =
  let sys, _, a, b = build_world () in
  let image = Persist.save sys in
  let _, sys2, ctx2 = reboot () in
  Persist.restore sys2 image;
  let vh = Api.vas_attach ctx2 (Api.vas_find ctx2 ~name:"world") in
  Api.vas_switch ctx2 vh;
  (* [a] is still allocated: a new malloc must not reuse it. [b] was
     freed: its space is available again. *)
  let c = Api.malloc ctx2 128 in
  Alcotest.(check bool) "no clobber of live allocation" true (c <> a);
  Alcotest.(check int) "freed chunk reused" b c;
  (* Double-free of a freed-and-reallocated chunk is caught. *)
  Api.free ctx2 c;
  Alcotest.(check bool) "free bookkeeping restored" true
    (try
       Api.free ctx2 c;
       false
     with Sj_abi.Error.Fault f -> f.code = Sj_abi.Error.Invalid)

let test_metadata_survives () =
  let sys, _, _, _ = build_world () in
  let image = Persist.save sys in
  let _, sys2, ctx2 = reboot () in
  Persist.restore sys2 image;
  let vas = Api.vas_find ctx2 ~name:"world" in
  Alcotest.(check bool) "tag restored" true (Vas.tag vas <> None);
  Alcotest.(check int) "two segments" 2 (List.length (Vas.segments vas));
  let raw = Api.seg_find ctx2 ~name:"raw" in
  (match Vas.find_segment_by_sid vas (Segment.sid raw) with
  | Some (_, prot) -> Alcotest.(check bool) "raw is read-only in VAS" false prot.write
  | None -> Alcotest.fail "raw not attached");
  Alcotest.(check int) "acl mode" 0o640 (Sj_kernel.Acl.mode (Vas.acl vas))

let test_image_deterministic () =
  let sys, _, _, _ = build_world () in
  let i1 = Persist.save sys in
  let i2 = Persist.save sys in
  Alcotest.(check bool) "same bytes" true (Bytes.equal i1 i2)

let test_image_compresses () =
  let sys, _, _, _ = build_world () in
  let image = Persist.save sys in
  (* 3 MiB of segments, mostly zero: the image must be far smaller. *)
  Alcotest.(check bool) "compressed" true (Bytes.length image < Size.mib 1)

let test_corrupt_image_rejected () =
  let _, sys2, _ = reboot () in
  Alcotest.(check bool) "bad magic" true
    (try
       Persist.restore sys2 (Bytes.of_string "not an image");
       false
     with Sj_abi.Error.Fault f -> f.code = Sj_abi.Error.Invalid)

(* A colliding image is rejected before anything is allocated: no
   frame is taken, whether the clash is a segment name or only a VAS
   name (checked after every segment in the image). *)
let test_name_collision_rejected () =
  let sys, _, _, _ = build_world () in
  let image = Persist.save sys in
  let rejected_cleanly what sys =
    let mem = Machine.mem (Api.machine sys) in
    let before = Sj_mem.Phys_mem.frames_allocated mem in
    Alcotest.(check bool) (what ^ ": Name_exists") true
      (try
         Persist.restore sys image;
         false
       with Sj_abi.Error.Fault { code = Name_exists; _ } -> true);
    Alcotest.(check int) (what ^ ": no frame taken") before
      (Sj_mem.Phys_mem.frames_allocated mem)
  in
  (* Restoring into the same (still-populated) system collides. *)
  rejected_cleanly "segment clash" sys;
  let _, sys2, ctx2 = reboot () in
  ignore (Api.vas_create ctx2 ~name:"world" ~mode:0o600);
  rejected_cleanly "VAS clash" sys2

let test_image_info () =
  let sys, _, _, _ = build_world () in
  let info = Persist.image_info (Persist.save sys) in
  Alcotest.(check bool) "summarizes" true
    (String.length info > 10 && String.sub info 0 9 = "2 segment")

(* Property: arbitrary store/free/malloc traffic, then save+restore on a
   fresh machine, then every live cell must read back identically. *)
let prop_persist_roundtrip =
  QCheck.Test.make ~name:"persist roundtrip preserves arbitrary data" ~count:25
    QCheck.(list_of_size Gen.(int_range 1 60) (pair (int_bound 3) (int_bound 100_000)))
    (fun ops ->
      let _, sys, ctx = boot () in
      let vas = Api.vas_create ctx ~name:"w" ~mode:0o600 in
      let seg = Api.seg_alloc_anywhere ctx ~name:"s" ~size:(Size.mib 1) ~mode:0o600 in
      Api.seg_attach ctx vas seg ~prot:Prot.rw;
      let vh = Api.vas_attach ctx vas in
      Api.vas_switch ctx vh;
      let live = ref [] in
      List.iter
        (fun (op, v) ->
          match op with
          | 0 | 1 ->
            let va = Api.malloc ctx 32 in
            Api.store64 ctx ~va (Int64.of_int v);
            live := (va, Int64.of_int v) :: !live
          | 2 -> (
            match !live with
            | (va, _) :: rest ->
              Api.free ctx va;
              live := rest
            | [] -> ())
          | _ -> (
            match !live with
            | (va, _) :: rest ->
              Api.store64 ctx ~va (Int64.of_int v);
              live := (va, Int64.of_int v) :: rest
            | [] -> ()))
        ops;
      Api.switch_home ctx;
      let image = Persist.save sys in
      let _, sys2, ctx2 = boot () in
      Persist.restore sys2 image;
      let vh2 = Api.vas_attach ctx2 (Api.vas_find ctx2 ~name:"w") in
      Api.vas_switch ctx2 vh2;
      List.for_all (fun (va, v) -> Api.load64 ctx2 ~va = v) !live)

let suite =
  [
    Alcotest.test_case "data roundtrip across reboot" `Quick test_roundtrip_data;
    Alcotest.test_case "allocator state survives" `Quick test_allocator_state_survives;
    Alcotest.test_case "metadata survives" `Quick test_metadata_survives;
    Alcotest.test_case "image deterministic" `Quick test_image_deterministic;
    Alcotest.test_case "image compresses" `Quick test_image_compresses;
    Alcotest.test_case "corrupt image rejected" `Quick test_corrupt_image_rejected;
    Alcotest.test_case "name collision rejected" `Quick test_name_collision_rejected;
    Alcotest.test_case "image info" `Quick test_image_info;
    QCheck_alcotest.to_alcotest prop_persist_roundtrip;
  ]
