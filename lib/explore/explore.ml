module Machine = Sj_machine.Machine
module Platform = Sj_machine.Platform
module Core = Machine.Core
module Process = Sj_kernel.Process
module Error = Sj_abi.Error
module Sys = Sj_abi.Sys
module Api = Sj_core.Api
module Checked = Api.Checked
module Vas = Sj_core.Vas
module Segment = Sj_core.Segment
module Registry = Sj_core.Registry
module Prot = Sj_paging.Prot
module Plan = Sj_fault.Plan
module Injector = Sj_fault.Injector
module Recorder = Sj_obs.Recorder
module Trace = Sj_obs.Trace
module Metrics = Sj_obs.Metrics
module Persist = Sj_persist.Persist
module Size = Sj_util.Size
module Layout = Sj_kernel.Layout
module Page_table = Sj_paging.Page_table

let sp = Printf.sprintf

type mechanism = Switch | Pkey_loop

type config = {
  backend : Api.backend;
  seed : int;
  plan : Plan.t;
  fork : bool;
}

let mechanism cfg = if cfg.seed land 1 = 1 then Pkey_loop else Switch

let backend_name = function Api.Dragonfly -> "dragonfly" | Api.Barrelfish -> "barrelfish"

let mechanism_name cfg =
  match (mechanism cfg, cfg.backend) with
  | Pkey_loop, _ -> "pkey"
  | Switch, Api.Dragonfly -> "vas_reload"
  | Switch, Api.Barrelfish -> "cap_invoke"

let key cfg =
  sp "%s seed=%d%s plan=[%s]" (backend_name cfg.backend) cfg.seed
    (if cfg.fork then " fork" else "")
    (Plan.to_string cfg.plan)

type result = {
  cfg : config;
  fingerprint : int;
  fired : string;
  notes : string list;
  violations : (string * string) list;
  world : World.t;
}

let equal_result a b =
  a.fingerprint = b.fingerprint && a.fired = b.fired && a.violations = b.violations

(* A small platform so each of the hundreds of sweep points is cheap:
   4 cores over 2 sockets (cross-socket IPIs stay observable). *)
let platform =
  { Platform.m2 with Platform.name = "explore"; mem_size = Size.mib 256 }

let platform =
  { platform with Platform.sockets = 2; cores_per_socket = 2 }

(* -- the workload ----------------------------------------------------- *)

(* The harness manages its own recorder and injector; ambient tracing
   (Recorder.with_tracing) also installs per-core TLB flush hooks at
   Machine.create that would feed extra events into whatever recorder
   is attached, so they are cleared — a run must fingerprint
   identically whether or not a host-side audit turned tracing on. *)
let own_machine () =
  let m = Machine.create platform in
  Array.iter (fun c -> Sj_tlb.Tlb.set_obs (Core.tlb c) None) (Machine.cores m);
  m

let run cfg =
  let m = own_machine () in
  let recorder = Recorder.create () in
  Recorder.attach (Machine.sim_ctx m) recorder;
  let inj = Injector.create ~seed:cfg.seed cfg.plan in
  Injector.attach (Machine.sim_ctx m) inj;
  let sys = Api.boot ~backend:cfg.backend m in
  let p1 = Process.create ~name:"alice" m in
  let ctx1 = Api.context sys p1 (Machine.core m 0) in
  let p2 = Process.create ~name:"bob" m in
  let ctx2 = Api.context sys p2 (Machine.core m 1) in
  let notes = ref [] in
  let note name msg = notes := sp "%s: %s" name msg :: !notes in
  let live ctx = Process.is_live (Api.process ctx) in
  (* Every workload step is guarded: a planned kill, a typed API fault,
     or a hardware-level consequence of an earlier injected fault (page
     fault on a never-attached segment) ends the step — noted,
     deterministically — instead of the run, so the sweep always
     reaches teardown and the invariant checks. Anything else is a
     harness bug and propagates. *)
  let fault_note name e =
    match e with
    | Injector.Killed k -> note name (sp "killed pid %d in %s" k.pid k.op)
    | Machine.Page_fault { va; _ } -> note name (sp "page fault at %#x" va)
    | Machine.Protection_fault { va; _ } -> note name (sp "protection fault at %#x" va)
    | Machine.Key_fault { va; _ } -> note name (sp "key fault at %#x" va)
    | Error.Fault f -> note name (Error.to_string f)
    | e -> raise e
  in
  let guard ctx name f = if live ctx then try f () with e -> fault_note name e in
  (* Bounded retry over transient Would_block — the storm counts the
     sweep enumerates (<= 6) always drain within the budget, so
     teardown cannot wedge. *)
  let attempt ctx name f =
    if live ctx then begin
      let rec go n =
        match f () with
        | Ok () -> ()
        | Error e when e.Error.code = Error.Would_block && n > 0 -> go (n - 1)
        | Error e -> note name (Error.to_string e)
        | exception e -> fault_note name e
      in
      go 8
    end
  in
  let snaps = ref [] in
  let restored = ref None in
  let restored_machine = ref None in
  let snap phase =
    let systems =
      World.capture_sys ~id:"main" sys
      :: (match !restored with
         | Some (sys2, _) -> [ World.capture_sys ~id:"restored" sys2 ]
         | None -> [])
    in
    snaps := { World.phase; systems } :: !snaps
  in
  let vas = ref None and data = ref None and sand = ref None in
  let vh1 = ref None and vh2 = ref None in
  let on r f = Option.iter f !r in
  (* Switch into [vhref], run [f] inside, switch home — each leg
     guarded, so a kill mid-flight leaves crash teardown to clean up. *)
  let with_vas ctx vhref name f =
    on vhref (fun vh ->
        if live ctx then begin
          match Checked.switch_retry ~attempts:8 ctx vh with
          | Ok () ->
            guard ctx name f;
            attempt ctx (name ^ "/home") (fun () -> Checked.switch_home ctx)
          | Error e -> note (name ^ "/switch") (Error.to_string e)
          | exception e -> fault_note (name ^ "/switch") e
        end)
  in

  (* setup: one VAS, two segments (data plain, sand for compartments),
     a TLB tag, the first growth point, both processes attached. *)
  guard ctx1 "vas_create" (fun () -> vas := Some (Api.vas_create ctx1 ~name:"w" ~mode:0o666));
  guard ctx1 "seg_alloc data" (fun () ->
      data := Some (Api.seg_alloc_anywhere ctx1 ~name:"w.data" ~size:(Size.kib 256) ~mode:0o666));
  guard ctx1 "seg_alloc sand" (fun () ->
      sand := Some (Api.seg_alloc_anywhere ctx1 ~name:"w.sand" ~size:(Size.kib 64) ~mode:0o666));
  on vas (fun v ->
      on data (fun d -> guard ctx1 "attach data" (fun () -> Api.seg_attach ctx1 v d ~prot:Prot.rw));
      on sand (fun s -> guard ctx1 "attach sand" (fun () -> Api.seg_attach ctx1 v s ~prot:Prot.rw));
      guard ctx1 "request_tag" (fun () -> Api.vas_ctl ctx1 (`Request_tag v));
      guard ctx1 "vas_find" (fun () -> ignore (Api.vas_find ctx1 ~name:"w")));
  on data (fun d -> guard ctx1 "grow-1" (fun () -> Api.seg_ctl ctx1 (`Grow (d, Size.kib 16))));
  on vas (fun v -> guard ctx1 "vas_attach p1" (fun () -> vh1 := Some (Api.vas_attach ctx1 v)));
  on vas (fun v -> guard ctx2 "vas_attach p2" (fun () -> vh2 := Some (Api.vas_attach ctx2 v)));
  snap "setup";

  (* hot loop: the mechanism under test, alternating both processes. *)
  (match mechanism cfg with
  | Switch ->
    for i = 1 to 3 do
      with_vas ctx1 vh1 (sp "hot-w%d" i) (fun () ->
          on data (fun d ->
              Api.store64 ctx1 ~va:(Segment.base d) (Int64.of_int i);
              if i = 1 then begin
                let p = Api.malloc ctx1 ~seg:d 64 in
                Api.store64 ctx1 ~va:p 7L;
                Api.free ctx1 p
              end));
      with_vas ctx2 vh2 (sp "hot-r%d" i) (fun () ->
          on data (fun d -> ignore (Api.load64 ctx2 ~va:(Segment.base d))))
    done
  | Pkey_loop ->
    let hotkey = ref None in
    with_vas ctx1 vh1 "hot-pk-setup" (fun () ->
        on vas (fun v ->
            on sand (fun s ->
                let k = Api.pkey_alloc ctx1 v in
                Api.pkey_assign ctx1 v s ~key:k;
                hotkey := Some k)));
    for i = 1 to 3 do
      with_vas ctx1 vh1 (sp "hot-pk%d" i) (fun () ->
          on hotkey (fun k ->
              on sand (fun s ->
                  Api.pkey_switch ctx1 ~key:k;
                  ignore (Api.load64 ctx1 ~va:(Segment.base s));
                  Api.pkey_switch ctx1 ~key:0));
          on data (fun d -> Api.store64 ctx1 ~va:(Segment.base d) (Int64.of_int i)));
      with_vas ctx2 vh2 (sp "hot-pkr%d" i) (fun () ->
          on data (fun d -> ignore (Api.load64 ctx2 ~va:(Segment.base d))))
    done);
  on data (fun d -> guard ctx1 "grow-2" (fun () -> Api.seg_ctl ctx1 (`Grow (d, Size.kib 16))));
  snap "hot";

  (* μFork phase (fork-bearing configs only): P1 marks a home-space page
     and a VAS page, CoW-forks its process onto the spare core, then
     CoW-forks the VAS. Both sides write behind each fork; every read
     lands in [cow_probes] as a (probe, expected, observed) triple and
     the cow-isolation invariant does the comparing. A planned kill
     mid-phase (the kill-forked-child plans) truncates the probe list —
     whatever probes did run must still agree. The child stays live
     into teardown so later snapshots see its pid, keys and register. *)
  let cow_probes = ref [] in
  let kid = ref None and kvh = ref None and fvh = ref None in
  if cfg.fork then begin
    let read ctx name va =
      if live ctx then (
        try Some (Api.load64 ctx ~va)
        with e ->
          fault_note name e;
          None)
      else None
    in
    let probe name expected = function
      | Some observed -> cow_probes := (name, expected, observed) :: !cow_probes
      | None -> ()
    in
    let hva = Layout.data_base + 192 in
    guard ctx1 "fork-mark-home" (fun () -> Api.store64 ctx1 ~va:hva 0xA11CEL);
    with_vas ctx1 vh1 "fork-mark-vas" (fun () ->
        on data (fun d -> Api.store64 ctx1 ~va:(Segment.base d + 128) 0xBEEFL));
    guard ctx1 "proc_fork" (fun () ->
        kid := Some (Api.proc_fork ~name:"kid" ctx1 ~core:(Machine.core m 3)));
    (* Home-space CoW: the child privatizes its data page; the parent's
       must not move, and the parent's later write must not reach the
       child's already-broken copy. *)
    on kid (fun k ->
        guard k "kid-home-write" (fun () -> Api.store64 k ~va:hva 0x6B1DL);
        probe "kid-own-home" 0x6B1DL (read k "kid-own-home" hva));
    probe "parent-home-after-kid" 0xA11CEL (read ctx1 "parent-home-after-kid" hva);
    guard ctx1 "parent-home-write" (fun () -> Api.store64 ctx1 ~va:hva 0x0DADL);
    on kid (fun k ->
        probe "kid-home-after-parent" 0x6B1DL (read k "kid-home-after-parent" hva));
    (* proc_fork attachments are shared, not CoW: the child re-attaches
       the VAS and must read exactly what the parent reads there. *)
    let pval = ref None in
    with_vas ctx1 vh1 "fork-src-read" (fun () ->
        on data (fun d -> pval := read ctx1 "fork-src-read" (Segment.base d + 128)));
    on kid (fun k ->
        on vas (fun v -> guard k "kid-attach" (fun () -> kvh := Some (Api.vas_attach k v)));
        with_vas k kvh "kid-seg-read" (fun () ->
            on data (fun d ->
                on pval (fun e ->
                    probe "kid-shared-seg" e (read k "kid-seg-read" (Segment.base d + 128))))));
    (* VAS-side CoW: snapshot the whole VAS, write into the shadow; the
       source must keep its mark. *)
    on vh1 (fun vh ->
        guard ctx1 "vas_fork" (fun () -> fvh := Some (Api.vas_fork ctx1 vh ~name:"w.fork")));
    with_vas ctx1 fvh "fork-shadow" (fun () ->
        on data (fun d ->
            Api.store64 ctx1 ~va:(Segment.base d + 128) 0xF00DL;
            probe "shadow-own-write" 0xF00DL (read ctx1 "fork-shadow" (Segment.base d + 128))));
    with_vas ctx1 vh1 "fork-source-check" (fun () ->
        on data (fun d ->
            on pval (fun e ->
                probe "source-after-shadow" e
                  (read ctx1 "fork-source-check" (Segment.base d + 128)))));
    snap "fork"
  end;

  (* compartment window: P1 allocates a key and tags the sandbox; P2
     enters the compartment; P1 makes one more syscall while P2 is
     inside (the kill window the pkru-hygiene invariant watches); the
     snapshot lands before P2 leaves. *)
  let ckey = ref None in
  on vas (fun v ->
      on sand (fun s ->
          guard ctx1 "pkey_alloc" (fun () -> ckey := Some (Api.pkey_alloc ctx1 v));
          on ckey (fun k -> guard ctx1 "pkey_assign" (fun () -> Api.pkey_assign ctx1 v s ~key:k))));
  on vh2 (fun vh ->
      if live ctx2 then begin
        match Checked.switch_retry ~attempts:8 ctx2 vh with
        | Ok () ->
          on ckey (fun k ->
              guard ctx2 "compart-enter" (fun () ->
                  Api.pkey_switch ctx2 ~key:k;
                  on sand (fun s -> ignore (Api.load64 ctx2 ~va:(Segment.base s)))));
          guard ctx1 "window seg_find" (fun () -> ignore (Api.seg_find ctx1 ~name:"w.sand"));
          snap "compartment";
          guard ctx2 "compart-leave" (fun () -> Api.pkey_switch ctx2 ~key:0);
          attempt ctx2 "compart-home" (fun () -> Checked.switch_home ctx2)
        | Error e ->
          note "compart/switch" (Error.to_string e);
          snap "compartment"
        | exception e ->
          fault_note "compart/switch" e;
          snap "compartment"
      end
      else snap "compartment");
  if !vh2 = None then snap "compartment";

  (* persist: a third growth point, two journaled saves (torn-write
     targets), recovery. *)
  on data (fun d -> guard ctx1 "grow-3" (fun () -> Api.seg_ctl ctx1 (`Grow (d, Size.kib 16))));
  let img1 = Persist.save sys in
  let img2 = Persist.save sys in
  let journal = Persist.Journal.append (Persist.Journal.append Persist.Journal.empty img1) img2 in
  let committed_appends =
    (if Persist.committed img1 then 1 else 0) + if Persist.committed img2 then 1 else 0
  in
  let recovered_img = Persist.Journal.recover journal in
  let journal_info =
    Some
      {
        World.total_appends = 2;
        committed_appends;
        recovered = Option.map Persist.committed recovered_img;
      }
  in
  snap "persist";

  (* restore: rebuild the recovered image in a fresh system and probe
     its allocators (the window where a restored TLB tag must not be
     issued twice). The second machine carries no injector: restore is
     the recovery path, not the faulted one. *)
  (match recovered_img with
  | Some img when Persist.committed img ->
    let m2 = own_machine () in
    restored_machine := Some m2;
    let sys2 = Api.boot ~backend:cfg.backend m2 in
    let p3 = Process.create ~name:"carol" m2 in
    let ctx3 = Api.context sys2 p3 (Machine.core m2 0) in
    (try Persist.restore sys2 img with e -> fault_note "restore" e);
    restored := Some (sys2, ctx3);
    guard ctx3 "probe vas" (fun () ->
        let pv = Api.vas_create ctx3 ~name:"probe" ~mode:0o666 in
        Api.vas_ctl ctx3 (`Request_tag pv));
    snap "restore"
  | _ -> ());

  (* teardown: both workers exit, a reaper destroys every object on
     both systems. Completion is recorded, not assumed — invariants
     that need a drained world check the flag. *)
  attempt ctx2 "exit p2" (fun () -> Checked.exit_process ctx2);
  attempt ctx1 "exit p1" (fun () -> Checked.exit_process ctx1);
  on kid (fun k -> attempt k "exit kid" (fun () -> Checked.exit_process k));
  let reaper = Process.create ~name:"reaper" m in
  let ctxr = Api.context sys reaper (Machine.core m 2) in
  let reg = Api.registry sys in
  List.iter
    (fun v -> attempt ctxr (sp "destroy vas %s" (Vas.name v)) (fun () -> Checked.vas_ctl ctxr (`Destroy v)))
    (List.sort (fun a b -> compare (Vas.vid a) (Vas.vid b)) (Registry.list_vases reg));
  List.iter
    (fun s ->
      attempt ctxr (sp "destroy seg %s" (Segment.name s)) (fun () -> Checked.seg_ctl ctxr (`Destroy s)))
    (List.sort (fun a b -> compare (Segment.sid a) (Segment.sid b)) (Registry.list_segs reg));
  (match !restored with
  | Some (sys2, ctx3) ->
    let reg2 = Api.registry sys2 in
    List.iter
      (fun v ->
        attempt ctx3 (sp "destroy restored vas %s" (Vas.name v)) (fun () ->
            Checked.vas_ctl ctx3 (`Destroy v)))
      (List.sort (fun a b -> compare (Vas.vid a) (Vas.vid b)) (Registry.list_vases reg2));
    List.iter
      (fun s ->
        attempt ctx3 (sp "destroy restored seg %s" (Segment.name s)) (fun () ->
            Checked.seg_ctl ctx3 (`Destroy s)))
      (List.sort (fun a b -> compare (Segment.sid a) (Segment.sid b)) (Registry.list_segs reg2));
    attempt ctx3 "exit carol" (fun () -> Checked.exit_process ctx3)
  | None -> ());
  attempt ctxr "exit reaper" (fun () -> Checked.exit_process ctxr);
  let teardown_complete =
    Registry.list_vases reg = []
    && Registry.list_segs reg = []
    && (not (live ctx1))
    && (not (live ctx2))
    && match !kid with None -> true | Some k -> not (live k)
  in
  snap "final";

  (* Recompute every page-table refcount from first principles, on both
     machines — the refcount-balance invariant's evidence. *)
  let pt =
    let fold acc m' =
      let a = Page_table.audit (Machine.mem m') in
      {
        World.pt_nodes = acc.World.pt_nodes + a.Page_table.a_nodes;
        pt_shared = acc.World.pt_shared + a.Page_table.a_shared;
        pt_leaked = acc.World.pt_leaked + a.Page_table.a_leaked;
        pt_imbalanced = acc.World.pt_imbalanced + List.length a.Page_table.a_imbalanced;
      }
    in
    List.fold_left fold World.no_pt_audit
      (m :: (match !restored_machine with Some m2 -> [ m2 ] | None -> []))
  in
  let world =
    {
      World.snapshots = List.rev !snaps;
      counters = World.capture_counters (Recorder.metrics recorder) (Api.syscalls sys);
      journal = journal_info;
      pt;
      cow_probes = List.rev !cow_probes;
      teardown_complete;
    }
  in
  let violations = Invariant.check_all world in
  let fired = Plan.to_string (Injector.fired inj) in
  let buf = Buffer.create 8192 in
  Buffer.add_string buf (Trace.to_text (Recorder.events recorder));
  Buffer.add_string buf (Metrics.describe (Recorder.metrics recorder));
  Buffer.add_string buf (Sys.describe (Api.syscalls sys));
  Buffer.add_string buf (Registry.describe reg);
  (match !restored with
  | Some (sys2, _) ->
    Buffer.add_string buf (Sys.describe (Api.syscalls sys2));
    Buffer.add_string buf (Registry.describe (Api.registry sys2))
  | None -> ());
  Array.iter (fun c -> Buffer.add_string buf (sp "core:%d\n" (Core.cycles c))) (Machine.cores m);
  List.iter (fun n -> Buffer.add_string buf (n ^ "\n")) (List.rev !notes);
  Buffer.add_string buf fired;
  Buffer.add_string buf (World.describe world);
  {
    cfg;
    fingerprint = Sj_compress.Crc32.string (Buffer.contents buf);
    fired;
    notes = List.rev !notes;
    violations;
    world;
  }

(* -- the sweep -------------------------------------------------------- *)

let hot_nrs_p2 = [ 3; 5; 6; 19; 21; 23; 29 ]
let storm_nrs = [ 5; 3; 29; 17; 23 ]

let per_backend backend =
  let c ?(fork = false) seed plan = { backend; seed; plan; fork } in
  (* kills of pid 1 swept over the whole ABI; seed 40+nr alternates the
     mechanism axis with the entry number. *)
  let kill_sweep =
    List.init Sys.nr_count (fun nr ->
        c (40 + nr) [ Plan.kill_at_syscall ~pid:1 ~nr ~occurrence:1 () ])
  in
  let kill_p2 =
    List.map (fun nr -> c (80 + nr) [ Plan.kill_at_syscall ~pid:2 ~nr ~occurrence:1 () ]) hot_nrs_p2
  in
  let kill_locked =
    List.concat_map
      (fun pid ->
        List.map
          (fun seed -> c seed [ Plan.kill_holding_lock ~pid ~sid:1 ])
          [ 120 + (2 * pid); 121 + (2 * pid) ])
      [ 1; 2 ]
  in
  let storms =
    List.concat_map
      (fun nr ->
        List.map (fun count -> c (140 + nr + count) [ Plan.would_block_storm ~pid:1 ~nr ~count ]) [ 2; 5 ])
      storm_nrs
    @ List.map (fun nr -> c (160 + nr) [ Plan.would_block_storm ~pid:2 ~nr ~count:3 ]) [ 5; 29 ]
  in
  let grows = List.map (fun nth -> c (170 + nth) [ Plan.grow_fail ~nth ]) [ 1; 2; 3 ] in
  let torn =
    List.concat_map
      (fun save -> List.map (fun seed -> c seed [ Plan.torn_write ~save () ]) [ 13 + (10 * save); 14 + (10 * save) ])
      [ 1; 2 ]
  in
  let composed =
    [
      c 200
        [
          Plan.kill_at_syscall ~pid:1 ~nr:5 ~occurrence:2 ();
          Plan.would_block_storm ~pid:2 ~nr:5 ~count:2;
        ];
      c 201 [ Plan.torn_write ~save:1 (); Plan.grow_fail ~nth:1 ];
      c 202
        [
          Plan.would_block_storm ~pid:1 ~nr:5 ~count:3;
          Plan.torn_write ~save:2 ();
          Plan.kill_at_syscall ~pid:2 ~nr:23 ~occurrence:1 ();
        ];
    ]
  in
  let baselines = [ c 0 []; c 1 [] ] in
  (* μFork block: fork-bearing baselines on both mechanism parities,
     kills of pid 1 at the fork entries themselves, kills and a storm
     aimed at the forked child (pid 3 — alice and bob are 1 and 2),
     and a fork composed with a torn write. *)
  let forks =
    [ c ~fork:true 300 []; c ~fork:true 301 [] ]
    @ List.map
        (fun nr -> c ~fork:true (310 + nr) [ Plan.kill_at_syscall ~pid:1 ~nr ~occurrence:1 () ])
        [ Sys.number Sys.Vas_fork; Sys.number Sys.Proc_fork ]
    @ List.map
        (fun nr -> c ~fork:true (350 + nr) [ Plan.kill_at_syscall ~pid:3 ~nr ~occurrence:1 () ])
        [ 3; 5; 6; 23 ]
    @ [
        c ~fork:true 370 [ Plan.would_block_storm ~pid:3 ~nr:5 ~count:2 ];
        c ~fork:true 371
          [ Plan.torn_write ~save:1 (); Plan.kill_at_syscall ~pid:3 ~nr:6 ~occurrence:1 () ];
      ]
  in
  kill_sweep @ kill_p2 @ kill_locked @ storms @ grows @ torn @ composed @ baselines @ forks

(* Seeded LCG fuzz past the grid: 1–3 faults per plan, storm counts
   kept below the retry budget. Deterministic by construction. *)
let fuzz n =
  List.init n (fun i ->
      let state = ref ((i * 2654435761) + 0x9e3779b9) in
      let next m =
        state := ((!state * 25214903917) + 11) land 0x3FFFFFFFFFFF;
        !state mod m
      in
      let backend = if next 2 = 0 then Api.Dragonfly else Api.Barrelfish in
      let nfaults = 1 + next 3 in
      let fault _ =
        match next 5 with
        | 0 -> Plan.kill_at_syscall ~pid:(1 + next 2) ~nr:(next Sys.nr_count) ~occurrence:(1 + next 2) ()
        | 1 -> Plan.kill_holding_lock ~pid:(1 + next 2) ~sid:(1 + next 2)
        | 2 ->
          Plan.would_block_storm ~pid:(1 + next 2)
            ~nr:(List.nth [ 3; 5; 6; 29 ] (next 4))
            ~count:(1 + next 5)
        | 3 -> Plan.grow_fail ~nth:(1 + next 3)
        | _ -> Plan.torn_write ~save:(1 + next 2) ()
      in
      { backend; seed = 1000 + i; plan = List.init nfaults fault; fork = false })

let enumerate ~quick =
  per_backend Api.Dragonfly @ per_backend Api.Barrelfish @ fuzz (if quick then 16 else 64)
