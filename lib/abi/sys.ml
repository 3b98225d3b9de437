module Core = Sj_machine.Machine.Core
module Cost_model = Sj_machine.Cost_model

type backend = Dragonfly | Barrelfish

type nr =
  | Vas_create
  | Vas_find
  | Vas_clone
  | Vas_attach
  | Vas_detach
  | Vas_switch
  | Vas_switch_home
  | Vas_ctl
  | Vas_delete
  | Seg_alloc
  | Seg_find
  | Seg_attach
  | Seg_attach_local
  | Seg_detach
  | Seg_detach_local
  | Seg_clone
  | Seg_snapshot
  | Seg_ctl
  | Seg_delete
  | Seg_lock
  | Seg_unlock
  | Heap_malloc
  | Heap_free
  | Proc_exit
  | Persist_save
  | Persist_restore
  | Proc_crash
  | Pkey_alloc
  | Pkey_assign
  | Pkey_switch
  | Vas_fork
  | Proc_fork

let all =
  [|
    Vas_create; Vas_find; Vas_clone; Vas_attach; Vas_detach; Vas_switch;
    Vas_switch_home; Vas_ctl; Vas_delete; Seg_alloc; Seg_find; Seg_attach;
    Seg_attach_local; Seg_detach; Seg_detach_local; Seg_clone; Seg_snapshot;
    Seg_ctl; Seg_delete; Seg_lock; Seg_unlock; Heap_malloc; Heap_free;
    Proc_exit; Persist_save; Persist_restore; Proc_crash; Pkey_alloc;
    Pkey_assign; Pkey_switch; Vas_fork; Proc_fork;
  |]

let nr_count = Array.length all

let number = function
  | Vas_create -> 0
  | Vas_find -> 1
  | Vas_clone -> 2
  | Vas_attach -> 3
  | Vas_detach -> 4
  | Vas_switch -> 5
  | Vas_switch_home -> 6
  | Vas_ctl -> 7
  | Vas_delete -> 8
  | Seg_alloc -> 9
  | Seg_find -> 10
  | Seg_attach -> 11
  | Seg_attach_local -> 12
  | Seg_detach -> 13
  | Seg_detach_local -> 14
  | Seg_clone -> 15
  | Seg_snapshot -> 16
  | Seg_ctl -> 17
  | Seg_delete -> 18
  | Seg_lock -> 19
  | Seg_unlock -> 20
  | Heap_malloc -> 21
  | Heap_free -> 22
  | Proc_exit -> 23
  | Persist_save -> 24
  | Persist_restore -> 25
  | Proc_crash -> 26
  | Pkey_alloc -> 27
  | Pkey_assign -> 28
  | Pkey_switch -> 29
  | Vas_fork -> 30
  | Proc_fork -> 31

let of_number n = if n >= 0 && n < nr_count then Some all.(n) else None

let name = function
  | Vas_create -> "vas_create"
  | Vas_find -> "vas_find"
  | Vas_clone -> "vas_clone"
  | Vas_attach -> "vas_attach"
  | Vas_detach -> "vas_detach"
  | Vas_switch -> "vas_switch"
  | Vas_switch_home -> "vas_switch_home"
  | Vas_ctl -> "vas_ctl"
  | Vas_delete -> "vas_delete"
  | Seg_alloc -> "seg_alloc"
  | Seg_find -> "seg_find"
  | Seg_attach -> "seg_attach"
  | Seg_attach_local -> "seg_attach_local"
  | Seg_detach -> "seg_detach"
  | Seg_detach_local -> "seg_detach_local"
  | Seg_clone -> "seg_clone"
  | Seg_snapshot -> "seg_snapshot"
  | Seg_ctl -> "seg_ctl"
  | Seg_delete -> "seg_delete"
  | Seg_lock -> "seg_lock"
  | Seg_unlock -> "seg_unlock"
  | Heap_malloc -> "malloc"
  | Heap_free -> "free"
  | Proc_exit -> "proc_exit"
  | Persist_save -> "persist_save"
  | Persist_restore -> "persist_restore"
  | Proc_crash -> "proc_crash"
  | Pkey_alloc -> "pkey_alloc"
  | Pkey_assign -> "pkey_assign"
  | Pkey_switch -> "pkey_switch"
  | Vas_fork -> "vas_fork"
  | Proc_fork -> "proc_fork"

type crossing = Trap | Lock_path | Inline

let crossing = function
  | Vas_create | Vas_find | Vas_clone | Vas_attach | Vas_detach | Vas_ctl
  | Vas_delete | Seg_alloc | Seg_find | Seg_attach | Seg_attach_local
  | Seg_detach | Seg_detach_local | Seg_clone | Seg_snapshot | Seg_ctl
  | Seg_delete | Pkey_alloc | Pkey_assign | Vas_fork | Proc_fork ->
    Trap
  | Seg_lock | Heap_malloc | Heap_free -> Lock_path
  (* Pkey_switch is the point of the mechanism: a pure user-space
     register write, no kernel entry. Its WRPKRU cost is charged by the
     crossing layer (Api), like vas_switch's CR3 cost. *)
  | Vas_switch | Vas_switch_home | Seg_unlock | Proc_exit | Persist_save
  | Persist_restore | Proc_crash | Pkey_switch ->
    Inline

(* DragonFly fields a call as one kernel syscall; Barrelfish as an RPC
   round trip to the user-space service — a syscall each way plus a
   cache-line handoff each way (§4.2). *)
let entry_cost (c : Cost_model.t) backend nr =
  match (crossing nr, backend) with
  | Inline, _ -> 0
  | Lock_path, _ -> c.lock_uncontended
  | Trap, Dragonfly -> c.syscall_dragonfly
  | Trap, Barrelfish -> (2 * c.syscall_barrelfish) + (2 * c.cacheline_intra)

type t = { backend : backend; counts : int array; cycles : int array }

let create backend =
  { backend; counts = Array.make nr_count 0; cycles = Array.make nr_count 0 }

let backend t = t.backend

let count t nr =
  let i = number nr in
  t.counts.(i) <- t.counts.(i) + 1

(* Observability: every dispatched entry brackets itself with
   Syscall_enter/Syscall_exit events (a test_obs case dispatches every
   entry and holds this invariant). The recorder guard keeps the
   disabled path allocation-free: no event record exists unless
   tracing is on. *)
module Recorder = Sj_obs.Recorder

let emit_enter core nr =
  match Recorder.active (Core.sim_ctx core) with
  | Some r ->
    Recorder.emit r ~core:(Core.id core) ~cycles:(Core.cycles core)
      (Sj_obs.Event.Syscall_enter { nr = number nr; sname = name nr })
  | None -> ()

let emit_exit core nr ~c0 ~ok =
  match Recorder.active (Core.sim_ctx core) with
  | Some r ->
    let now = Core.cycles core in
    Recorder.emit r ~core:(Core.id core) ~cycles:now
      (Sj_obs.Event.Syscall_exit
         { nr = number nr; sname = name nr; cycles = now - c0; ok })
  | None -> ()

let charge_entry t ~cost core nr =
  let i = number nr in
  t.counts.(i) <- t.counts.(i) + 1;
  let c0 = Core.cycles core in
  emit_enter core nr;
  (match entry_cost cost t.backend nr with
  | 0 -> ()
  | e ->
    Core.charge core e;
    t.cycles.(i) <- t.cycles.(i) + e);
  emit_exit core nr ~c0 ~ok:true

let invoke t ~cost core nr body =
  let i = number nr in
  t.counts.(i) <- t.counts.(i) + 1;
  let c0 = Core.cycles core in
  emit_enter core nr;
  (match entry_cost cost t.backend nr with 0 -> () | e -> Core.charge core e);
  let finish ok =
    t.cycles.(i) <- t.cycles.(i) + (Core.cycles core - c0);
    emit_exit core nr ~c0 ~ok
  in
  match body () with
  | v ->
    finish true;
    Ok v
  | exception Error.Fault f ->
    finish false;
    Error f
  | exception Sj_machine.Machine.Out_of_memory ->
    finish false;
    Error (Error.make Capacity ~op:(name nr) "out of physical memory")
  | exception e ->
    finish false;
    raise e

let counters t nr =
  let i = number nr in
  (t.counts.(i), t.cycles.(i))

let snapshot t =
  Array.to_list all
  |> List.filter_map (fun nr ->
         let calls, cyc = counters t nr in
         if calls = 0 && cyc = 0 then None else Some (nr, calls, cyc))

let reset t =
  Array.fill t.counts 0 nr_count 0;
  Array.fill t.cycles 0 nr_count 0

let describe t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "syscalls (%s backend):\n"
       (match t.backend with Dragonfly -> "DragonFly" | Barrelfish -> "Barrelfish"));
  Buffer.add_string buf (Printf.sprintf "  %3s %-18s %10s %14s\n" "nr" "name" "calls" "cycles");
  List.iter
    (fun (nr, calls, cyc) ->
      Buffer.add_string buf
        (Printf.sprintf "  %3d %-18s %10d %14d\n" (number nr) (name nr) calls cyc))
    (snapshot t);
  Buffer.contents buf
