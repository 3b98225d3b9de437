(* Sandboxing with address spaces (sec 7: "using different address
   spaces to limit access only to trusted code").

   A host process prepares a VAS exposing exactly one read-only segment
   to an untrusted plugin. The plugin process can read its input, but:
   - writing the input faults (protection),
   - touching the host's private segment faults (not mapped),
   - attaching the private VAS is denied (ACL),
   and everything it computes goes into its own scratch segment.

   Run with: dune exec examples/sandbox.exe *)

open Sj_core
module Machine = Sj_machine.Machine
module Platform = Sj_machine.Platform
module Process = Sj_kernel.Process
module Acl = Sj_kernel.Acl
module Prot = Sj_paging.Prot

let () =
  let machine = Machine.create Platform.m2 in
  let sys = Api.boot machine in

  (* Host: private state plus a deliberately exposed input. *)
  let host = Process.create ~name:"host" machine in
  let hctx = Api.context sys host (Machine.core machine 0) in
  let private_vas = Api.vas_create hctx ~name:"host-private" ~mode:0o600 in
  let secret = Api.seg_alloc_anywhere hctx ~name:"secrets" ~size:(Sj_util.Size.mib 1) ~mode:0o600 in
  Api.seg_attach hctx private_vas secret ~prot:Prot.rw;
  let hvh = Api.vas_attach hctx private_vas in
  Api.vas_switch hctx hvh;
  Api.store_bytes hctx ~va:(Segment.base secret) (Bytes.of_string "launch codes");
  Api.switch_home hctx;

  let sandbox_vas = Api.vas_create hctx ~name:"sandbox" ~mode:0o644 in
  let input = Api.seg_alloc_anywhere hctx ~name:"plugin-input" ~size:(Sj_util.Size.mib 1) ~mode:0o644 in
  Api.seg_attach hctx sandbox_vas input ~prot:Prot.r;
  (* Fill the input while we still can (the host owns it). *)
  let fill_vas = Api.vas_create hctx ~name:"host-fill" ~mode:0o600 in
  Api.seg_attach hctx fill_vas input ~prot:Prot.rw;
  let fvh = Api.vas_attach hctx fill_vas in
  Api.vas_switch hctx fvh;
  Api.store_bytes hctx ~va:(Segment.base input) (Bytes.of_string "untrusted input: 6 x 7");
  Api.switch_home hctx;
  print_endline "host prepared: private VAS (0600) + sandbox VAS (0644, read-only input)";

  (* Plugin: unprivileged uid. *)
  let plugin = Process.create ~name:"plugin" ~cred:(Acl.cred ~uid:1001 ~gids:[ 1001 ]) machine in
  let pctx = Api.context sys plugin (Machine.core machine 1) in
  let pvh = Api.vas_attach pctx (Api.vas_find pctx ~name:"sandbox") in
  (* The plugin's own scratch space, attached process-locally. *)
  let scratch = Api.seg_alloc_anywhere pctx ~name:"plugin-scratch" ~size:(Sj_util.Size.mib 1) ~mode:0o600 in
  Api.seg_attach_local pctx pvh scratch ~prot:Prot.rw;
  Api.vas_switch pctx pvh;
  let data = Api.load_bytes pctx ~va:(Segment.base input) ~len:22 in
  Format.printf "plugin read its input: %S@." (Bytes.to_string data);
  let out = Api.malloc pctx ~seg:scratch 16 in
  Api.store64 pctx ~va:out 42L;
  Format.printf "plugin computed 42 into its scratch segment@.";

  (* Escape attempt 1: write the read-only input. *)
  (try
     Api.store64 pctx ~va:(Segment.base input) 0L;
     print_endline "BUG: write to read-only input succeeded"
   with Machine.Protection_fault _ ->
     print_endline "write to the input -> Protection_fault (as it should)");

  (* Escape attempt 2: read the host's secret address. *)
  (try
     ignore (Api.load64 pctx ~va:(Segment.base secret));
     print_endline "BUG: secret readable"
   with Machine.Page_fault _ ->
     print_endline "read of the host's secret -> Page_fault (not mapped here)");

  (* Escape attempt 3: attach the host's private VAS. *)
  (try
     ignore (Api.vas_attach pctx (Api.vas_find pctx ~name:"host-private"));
     print_endline "BUG: private VAS attached"
   with Sj_abi.Error.Fault { code = Permission_denied; _ } ->
     print_endline "attach of host-private -> Permission_denied (ACL)");

  (* The host can still read the plugin's published result. *)
  Api.switch_home pctx;
  Segment.set_acl scratch (Acl.chmod (Segment.acl scratch) ~mode:0o644);
  let rvas = Api.vas_create hctx ~name:"host-read-result" ~mode:0o600 in
  Api.seg_attach hctx rvas scratch ~prot:Prot.r;
  let rvh = Api.vas_attach hctx rvas in
  Api.vas_switch hctx rvh;
  Format.printf "host collected the plugin's result: %Ld@." (Api.load64 hctx ~va:out)
