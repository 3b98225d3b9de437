(* Model-based fuzzing of the SpaceJMP API.

   Random sequences of Fig. 3 calls run against the real system and a
   tiny reference model of what should be visible where:
   - a segment's cells are readable/writable exactly when the current
     attachment's *synced* segment list contains the segment (VAS-global
     attach/detach propagates lazily, at the next switch — the model
     tracks per-attachment synced sets just like the kernel does);
   - values stored through any attachment are seen by every later
     reader of that segment (single physical backing);
   - outside any VAS, segment addresses fault.

   Each discrepancy — wrong value, unexpected success, unexpected
   fault — fails the property. *)

open Sj_util
open Sj_core
module Machine = Sj_machine.Machine
module Platform = Sj_machine.Platform
module Process = Sj_kernel.Process
module Layout = Sj_kernel.Layout
module Prot = Sj_paging.Prot

let tiny : Platform.t =
  { Platform.m2 with name = "tiny"; mem_size = Size.mib 256; sockets = 2; cores_per_socket = 2 }

let n_vases = 3
let n_segs = 3
let cells_per_seg = 4

type model = {
  mutable vas_segs : int list array; (* vas -> attached seg indices (current, global) *)
  mutable attachments : (int * int list ref) list; (* vh id -> (vas, synced segs) *)
  mutable current : int option; (* vh id *)
  cells : int64 option array array; (* seg -> cell -> last value *)
}

type world = {
  ctx : Api.ctx;
  vases : Vas.t array;
  segs : Segment.t array;
  mutable vhs : (int * Api.vh) list;
  mutable next_vh : int;
  model : model;
}

let build_world () =
  let m = Machine.create tiny in
  let sys = Api.boot m in
  let p = Process.create ~name:"fuzz" m in
  let ctx = Api.context sys p (Machine.core m 0) in
  let vases =
    Array.init n_vases (fun i -> Api.vas_create ctx ~name:(Printf.sprintf "v%d" i) ~mode:0o600)
  in
  let segs =
    Array.init n_segs (fun i ->
        Api.seg_alloc_anywhere ctx ~name:(Printf.sprintf "s%d" i) ~size:(Size.kib 64) ~mode:0o600)
  in
  {
    ctx;
    vases;
    segs;
    vhs = [];
    next_vh = 0;
    model =
      {
        vas_segs = Array.make n_vases [];
        attachments = [];
        current = None;
        cells = Array.make_matrix n_segs cells_per_seg None;
      };
  }

let cell_va w seg cell = Segment.base w.segs.(seg) + (cell * 64)

(* The typed-fault ABI guarantees no raw [Failure]/[Invalid_argument]
   leaks out of the API — errors surface as [Sj_abi.Error.Fault]. Every
   API call in the fuzz goes through
   this guard; the model's own [failwith] diagnostics stay outside it,
   so a raw escape is distinguishable from a model discrepancy. *)
let api f =
  try f () with
  | Failure m -> Alcotest.failf "raw Failure escaped the API: %s" m
  | Invalid_argument m -> Alcotest.failf "raw Invalid_argument escaped the API: %s" m

(* Can the current model state see [seg]? *)
let visible w seg =
  match w.model.current with
  | None -> false
  | Some vh -> (
    match List.assoc_opt vh w.model.attachments with
    | Some synced -> List.mem seg !synced
    | None -> false)

(* Which VAS each attachment id belongs to (model side-table). *)
let vh_vas : (int, int) Hashtbl.t = Hashtbl.create 16

type op =
  | Attach_seg of int * int (* seg, vas *)
  | Detach_seg of int * int
  | Vas_attach of int
  | Switch of int (* index into live vhs, modulo *)
  | Switch_home
  | Detach_vh of int
  | Store of int * int * int (* seg, cell, value *)
  | Load of int * int

let apply w op =
  let ctx = w.ctx in
  match op with
  | Attach_seg (seg, vas) ->
    let already = List.mem seg w.model.vas_segs.(vas) in
    (try
       api (fun () -> Api.seg_attach ctx w.vases.(vas) w.segs.(seg) ~prot:Prot.rw);
       if already then failwith "model: double attach should conflict";
       w.model.vas_segs.(vas) <- seg :: w.model.vas_segs.(vas)
     with Sj_abi.Error.Fault { code = Address_conflict; _ } ->
       if not already then failwith "model: attach unexpectedly conflicted")
  | Detach_seg (seg, vas) ->
    let present = List.mem seg w.model.vas_segs.(vas) in
    (try
       api (fun () -> Api.seg_detach ctx w.vases.(vas) w.segs.(seg));
       if not present then failwith "model: detach of absent segment succeeded";
       w.model.vas_segs.(vas) <- List.filter (fun s -> s <> seg) w.model.vas_segs.(vas)
     with Sj_abi.Error.Fault { code = Unknown_name; _ } ->
       if present then failwith "model: detach unexpectedly failed")
  | Vas_attach vas ->
    let vh = api (fun () -> Api.vas_attach ctx w.vases.(vas)) in
    let id = w.next_vh in
    w.next_vh <- id + 1;
    w.vhs <- (id, vh) :: w.vhs;
    (* Attach syncs immediately. *)
    w.model.attachments <- (id, ref w.model.vas_segs.(vas)) :: w.model.attachments;
    Hashtbl.replace vh_vas id vas
  | Switch k -> (
    match w.vhs with
    | [] -> ()
    | vhs ->
      let id, vh = List.nth vhs (k mod List.length vhs) in
      api (fun () -> Api.vas_switch ctx vh);
      (* Switching re-syncs the attachment to the VAS's current list. *)
      let vas = Hashtbl.find vh_vas id in
      (match List.assoc_opt id w.model.attachments with
      | Some synced -> synced := w.model.vas_segs.(vas)
      | None -> failwith "model: switch into untracked attachment");
      w.model.current <- Some id)
  | Switch_home ->
    api (fun () -> Api.switch_home ctx);
    w.model.current <- None
  | Detach_vh k -> (
    match w.vhs with
    | [] -> ()
    | vhs ->
      let id, vh = List.nth vhs (k mod List.length vhs) in
      api (fun () -> Api.vas_detach ctx vh);
      w.vhs <- List.filter (fun (i, _) -> i <> id) w.vhs;
      w.model.attachments <- List.remove_assoc id w.model.attachments;
      if w.model.current = Some id then w.model.current <- None)
  | Store (seg, cell, v) -> (
    let va = cell_va w seg cell in
    let expect = visible w seg in
    match api (fun () -> Api.store64 ctx ~va (Int64.of_int v)) with
    | () ->
      if not expect then failwith "model: store succeeded while segment invisible";
      w.model.cells.(seg).(cell) <- Some (Int64.of_int v)
    | exception Machine.Page_fault _ ->
      if expect then failwith "model: store faulted while segment visible")
  | Load (seg, cell) -> (
    let va = cell_va w seg cell in
    let expect = visible w seg in
    match api (fun () -> Api.load64 ctx ~va) with
    | got ->
      if not expect then failwith "model: load succeeded while segment invisible";
      (match w.model.cells.(seg).(cell) with
      | Some v when v <> got -> failwith "model: read wrong value"
      | Some _ -> ()
      | None -> if got <> 0L then failwith "model: fresh cell not zero")
    | exception Machine.Page_fault _ ->
      if expect then failwith "model: load faulted while segment visible")

let op_of_ints (a, b, c) =
  match a mod 8 with
  | 0 -> Attach_seg (b mod n_segs, c mod n_vases)
  | 1 -> Detach_seg (b mod n_segs, c mod n_vases)
  | 2 -> Vas_attach (b mod n_vases)
  | 3 -> Switch b
  | 4 -> Switch_home
  | 5 -> Detach_vh b
  | 6 -> Store (b mod n_segs, c mod cells_per_seg, (b * 31) + c + 1)
  | _ -> Load (b mod n_segs, c mod cells_per_seg)

let prop_api_matches_model =
  QCheck.Test.make ~name:"API agrees with the visibility model" ~count:60
    QCheck.(
      list_of_size Gen.(int_range 5 120)
        (triple (int_bound 1000) (int_bound 1000) (int_bound 1000)))
    (fun raw_ops ->
      Hashtbl.reset vh_vas;
      let w = build_world () in
      List.iter (fun triple -> apply w (op_of_ints triple)) raw_ops;
      true)

(* A directed regression covering the lazy-propagation corner the model
   encodes: detach globally, old attachment still sees the segment
   until its next switch. *)
let test_lazy_detach_visibility () =
  Hashtbl.reset vh_vas;
  let w = build_world () in
  apply w (Attach_seg (0, 0));
  apply w (Vas_attach 0);
  apply w (Switch 0);
  apply w (Store (0, 0, 7));
  (* Global detach while switched in: the mapping stays until re-switch
     (the kernel propagates at the next switch). The model mirrors this:
     visibility comes from the attachment's synced list. *)
  apply w (Detach_seg (0, 0));
  apply w (Load (0, 0));
  (* Re-switch: now it must fault. *)
  apply w (Switch 0);
  apply w (Load (0, 0));
  ()

let suite =
  [
    QCheck_alcotest.to_alcotest prop_api_matches_model;
    Alcotest.test_case "lazy detach visibility (directed)" `Quick test_lazy_detach_visibility;
  ]
