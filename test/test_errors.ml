(* The typed fault model and the numbered dispatch table (kernel ABI).

   Every error code must be constructible through the public API, under
   both OS personalities; the per-syscall counters must track calls and
   simulated cycles; the numbering and exit-code mappings are part of
   the ABI and must stay stable. *)
open Sj_util
open Sj_core
module Machine = Sj_machine.Machine
module Platform = Sj_machine.Platform
module Process = Sj_kernel.Process
module Layout = Sj_kernel.Layout
module Acl = Sj_kernel.Acl
module Prot = Sj_paging.Prot
module Error = Sj_abi.Error
module Sys = Sj_abi.Sys
module C = Api.Checked

let tiny : Platform.t =
  { Platform.m2 with name = "tiny"; mem_size = Size.mib 256; sockets = 2; cores_per_socket = 2 }

let boot backend =
  let m = Machine.create tiny in
  let sys = Api.boot ~backend m in
  let p = Process.create ~name:"errs" m in
  let ctx = Api.context sys p (Machine.core m 0) in
  (m, sys, ctx)

let code = Alcotest.testable Error.pp_code Error.equal_code

let check_code name expect = function
  | Ok _ -> Alcotest.failf "%s: expected %s but the call succeeded" name (Error.code_name expect)
  | Error (f : Error.t) -> Alcotest.check code name expect f.code

(* Which step of the all-codes world provokes each code. Exhaustive and
   wildcard-free: a new code does not compile until it has a step here,
   and the world must then provoke it (the set check at its end). *)
let step_of : Error.code -> string = function
  | Permission_denied -> "vas_attach of a 0o600 VAS under a foreign uid"
  | Would_block -> "vas_switch while a writer holds the segment lock"
  | Name_exists -> "vas_create of a taken name"
  | Unknown_name -> "vas_find of a missing name"
  | Stale_handle -> "seg_attach to a destroyed VAS"
  | Address_conflict -> "seg_attach of a segment already attached"
  | Layout_exhausted -> "seg_alloc_anywhere with the global range used up"
  | Invalid -> "free of an address inside an allocation"
  | Capacity -> "malloc beyond the segment's mspace"
  | Key_violation -> "load under a key the compartment does not hold"

(* One world per backend that visits all ten codes. *)
let exercise_all_codes backend () =
  let m, sys, ctx = boot backend in
  let provoked = ref [] in
  let check_code name expect r =
    check_code name expect r;
    provoked := expect :: !provoked
  in
  let vas = Api.vas_create ctx ~name:"v" ~mode:0o666 in
  check_code "Name_exists" Error.Name_exists (C.vas_create ctx ~name:"v" ~mode:0o666);
  check_code "Unknown_name" Error.Unknown_name (C.vas_find ctx ~name:"nope");
  (* A foreign credential fails the ACL check. *)
  let priv = Api.vas_create ctx ~name:"priv" ~mode:0o600 in
  let mallory = Process.create ~name:"mallory" ~cred:(Acl.cred ~uid:666 ~gids:[ 666 ]) m in
  let ctx_m = Api.context sys mallory (Machine.core m 1) in
  check_code "Permission_denied" Error.Permission_denied (C.vas_attach ctx_m priv);
  let seg = Api.seg_alloc_anywhere ctx ~name:"s" ~size:(Size.mib 1) ~mode:0o666 in
  Api.seg_attach ctx vas seg ~prot:Prot.rw;
  check_code "Address_conflict" Error.Address_conflict (C.seg_attach ctx vas seg ~prot:Prot.rw);
  (* Writer inside the VAS holds the segment lock exclusively. *)
  let ro = Api.vas_create ctx ~name:"ro" ~mode:0o666 in
  Api.seg_attach ctx ro seg ~prot:Prot.r;
  let vh_w = Api.vas_attach ctx vas in
  Api.vas_switch ctx vh_w;
  let reader = Process.create ~name:"reader" m in
  let ctx_r = Api.context sys reader (Machine.core m 2) in
  let vh_r = Api.vas_attach ctx_r (Api.vas_find ctx_r ~name:"ro") in
  check_code "Would_block" Error.Would_block (C.vas_switch ctx_r vh_r);
  (* Heap faults while switched in: exhaustion and a bad free. *)
  let a = Api.malloc ctx (Size.kib 16) in
  check_code "Capacity" Error.Capacity (C.malloc ctx (Size.mib 2));
  check_code "Invalid" Error.Invalid (C.free ctx (a + 8));
  (* The tenth code: tag the segment with one key, then cross into a
     compartment that does not hold it — the data access is denied by
     the key register, identically under both backends. *)
  let key = Api.pkey_alloc ctx vas in
  Api.pkey_assign ctx vas seg ~key;
  let stranger = Api.pkey_alloc ctx vas in
  Api.pkey_switch ctx ~key:stranger;
  check_code "Key_violation" Error.Key_violation
    (try
       ignore (Api.load64 ctx ~va:(Segment.base seg));
       Ok ()
     with Error.Fault f -> Error f);
  Api.pkey_switch ctx ~key:0;
  Api.switch_home ctx;
  let dead = Api.vas_create ctx ~name:"dead" ~mode:0o666 in
  Api.vas_ctl ctx (`Destroy dead);
  check_code "Stale_handle" Error.Stale_handle (C.seg_attach ctx dead seg ~prot:Prot.r);
  (* Burn the rest of the global range, then ask for more. *)
  Layout.reserve_global (Machine.sim_ctx m) ~base:(Addr.va_limit - Size.gib 1)
    ~size:(Size.gib 1);
  check_code "Layout_exhausted" Error.Layout_exhausted
    (C.seg_alloc_anywhere ctx ~name:"none" ~size:(Size.mib 1) ~mode:0o600);
  (* The provoked set equals [Error.all_codes]: none is missing, and
     none is provoked that the list leaves out. *)
  Alcotest.(check (list string)) "codes the world never provoked" []
    (List.filter_map
       (fun c ->
         if List.mem c !provoked then None
         else Some (Printf.sprintf "%s (step: %s)" (Error.code_name c) (step_of c)))
       Error.all_codes);
  Alcotest.(check (list string)) "provoked codes missing from Error.all_codes" []
    (List.filter_map
       (fun c -> if List.mem c Error.all_codes then None else Some (Error.code_name c))
       !provoked)

(* Checked is total: physical exhaustion inside an entry is a Capacity
   fault named after the entry, not a raw exception, and the refused
   allocation takes no frame — the machine keeps serving. *)
let test_physical_exhaustion_is_capacity () =
  let small = { tiny with Platform.name = "small"; mem_size = Size.mib 64 } in
  let m = Machine.create small in
  let sys = Api.boot m in
  let ctx = Api.context sys (Process.create ~name:"hog" m) (Machine.core m 0) in
  let mem = Machine.mem m in
  let before = Sj_mem.Phys_mem.frames_allocated mem in
  (match C.seg_alloc_anywhere ctx ~name:"huge" ~size:(Size.mib 128) ~mode:0o600 with
  | Ok _ -> Alcotest.fail "128 MiB on a 64 MiB machine succeeded"
  | Error f ->
    Alcotest.check code "code" Error.Capacity f.code;
    Alcotest.(check string) "op" "seg_alloc" f.op);
  Alcotest.(check int) "refusal takes no frame" before (Sj_mem.Phys_mem.frames_allocated mem);
  (match C.seg_alloc_anywhere ctx ~name:"fits" ~size:(Size.mib 16) ~mode:0o600 with
  | Ok _ -> ()
  | Error f -> Alcotest.failf "16 MiB after the refusal: %s" (Error.to_string f));
  Alcotest.(check bool) "the raising surface raises the same fault" true
    (try
       ignore (Api.seg_alloc_anywhere ctx ~name:"huge" ~size:(Size.mib 128) ~mode:0o600);
       false
     with Error.Fault { code = Capacity; op = "seg_alloc"; _ } -> true)

(* A taken name is refused before the segment takes any frame. *)
let test_taken_name_takes_no_frame () =
  let m, _, ctx = boot Sj_abi.Sys.Dragonfly in
  let mem = Machine.mem m in
  (match C.seg_alloc_anywhere ctx ~name:"dup" ~size:(Size.mib 4) ~mode:0o600 with
  | Ok _ -> ()
  | Error f -> Alcotest.failf "first \"dup\": %s" (Error.to_string f));
  let before = Sj_mem.Phys_mem.frames_allocated mem in
  check_code "second \"dup\"" Error.Name_exists
    (C.seg_alloc_anywhere ctx ~name:"dup" ~size:(Size.mib 4) ~mode:0o600);
  Alcotest.(check int) "refusal takes no frame" before (Sj_mem.Phys_mem.frames_allocated mem)

(* A refused allocation leaves the global layout cursor where it was,
   so the next segment still gets the first 1 GiB slot. *)
let test_refusal_keeps_layout_slot () =
  let small = { tiny with Platform.name = "small"; mem_size = Size.mib 64 } in
  let m = Machine.create small in
  let sys = Api.boot m in
  let ctx = Api.context sys (Process.create ~name:"hog" m) (Machine.core m 0) in
  let sim = Machine.sim_ctx m in
  check_code "128 MiB on a 64 MiB machine" Error.Capacity
    (C.seg_alloc_anywhere ctx ~name:"huge" ~size:(Size.mib 128) ~mode:0o600);
  Alcotest.(check int) "layout offset after the refusal" 0 (Sim_ctx.layout_offset sim);
  match C.seg_alloc_anywhere ctx ~name:"fits" ~size:(Size.mib 1) ~mode:0o600 with
  | Ok seg -> Alcotest.(check int) "first slot" Layout.global_base (Segment.base seg)
  | Error f -> Alcotest.failf "1 MiB after the refusal: %s" (Error.to_string f)

let test_counters_track_calls_and_cycles () =
  let measure backend =
    let _, sys, ctx = boot backend in
    let tab = Api.syscalls sys in
    let calls0, cycles0 = Sys.counters tab Sys.Vas_create in
    Alcotest.(check (pair int int)) "fresh table" (0, 0) (calls0, cycles0);
    ignore (Api.vas_create ctx ~name:"v" ~mode:0o600);
    let calls, cycles = Sys.counters tab Sys.Vas_create in
    Alcotest.(check int) "one call" 1 calls;
    Alcotest.(check bool) "cycles accounted" true (cycles > 0);
    cycles
  in
  let df = measure Sj_abi.Sys.Dragonfly in
  let bf = measure Sj_abi.Sys.Barrelfish in
  (* Same body, different boundary crossing: one syscall trap vs an RPC
     round trip to the user-space service (Table 2). *)
  Alcotest.(check bool) (Printf.sprintf "trap cost differs (df %d, bf %d)" df bf) true (df <> bf)

let test_failed_calls_still_counted () =
  let _, sys, ctx = boot Sj_abi.Sys.Dragonfly in
  let tab = Api.syscalls sys in
  ignore (Api.vas_create ctx ~name:"v" ~mode:0o600);
  check_code "duplicate" Error.Name_exists (C.vas_create ctx ~name:"v" ~mode:0o600);
  let calls, _ = Sys.counters tab Sys.Vas_create in
  Alcotest.(check int) "both attempts counted" 2 calls

let test_numbering_roundtrip () =
  Alcotest.(check int) "table size" (Array.length Sys.all) Sys.nr_count;
  Array.iteri
    (fun i nr ->
      Alcotest.(check int) (Sys.name nr) i (Sys.number nr);
      Alcotest.(check bool) "of_number inverts" true (Sys.of_number i = Some nr))
    Sys.all;
  Alcotest.(check bool) "out of range" true (Sys.of_number Sys.nr_count = None);
  Alcotest.(check bool) "negative" true (Sys.of_number (-1) = None)

(* The tenth code's ABI numbers are frozen: EKEY is errno 10, so sjctl
   maps a key violation to exit 20. *)
let test_key_violation_numbering () =
  Alcotest.(check int) "ten codes" 10 (List.length Error.all_codes);
  Alcotest.(check int) "EKEY errno" 10 (Error.errno Error.Key_violation);
  Alcotest.(check int) "EKEY exit code" 20 (Error.exit_code Error.Key_violation);
  Alcotest.(check string) "EKEY name" "EKEY" (Error.code_name Error.Key_violation)

let test_exit_codes_distinct () =
  let exits = List.map Error.exit_code Error.all_codes in
  Alcotest.(check int) "all distinct" (List.length Error.all_codes)
    (List.length (List.sort_uniq compare exits));
  List.iter
    (fun c ->
      Alcotest.(check bool) "leaves 0..10 to the tool and stays a valid status" true
        (c > 10 && c < 128))
    exits

let suite =
  [
    Alcotest.test_case "all codes via API (DragonFly)" `Quick
      (exercise_all_codes Sj_abi.Sys.Dragonfly);
    Alcotest.test_case "all codes via API (Barrelfish)" `Quick
      (exercise_all_codes Sj_abi.Sys.Barrelfish);
    Alcotest.test_case "counters track calls and cycles" `Quick
      test_counters_track_calls_and_cycles;
    Alcotest.test_case "failed calls still counted" `Quick test_failed_calls_still_counted;
    Alcotest.test_case "ABI numbering roundtrip" `Quick test_numbering_roundtrip;
    Alcotest.test_case "Key_violation numbering frozen" `Quick
      test_key_violation_numbering;
    Alcotest.test_case "exit codes distinct" `Quick test_exit_codes_distinct;
    Alcotest.test_case "physical exhaustion is a Capacity fault" `Quick
      test_physical_exhaustion_is_capacity;
    Alcotest.test_case "taken name takes no frame" `Quick test_taken_name_takes_no_frame;
    Alcotest.test_case "refusal keeps the layout slot" `Quick test_refusal_keeps_layout_slot;
  ]
