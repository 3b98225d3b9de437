(* Tests for the invariant-exploration harness (lib/explore).

   Three layers:
   1. the invariant checkers themselves, each fed a deliberately broken
      World.t built by plain record construction (no simulator hooks) —
      a checker that cannot flag its own target invariant is dead code;
   2. regression tests for the bug crop the explorer surfaced (each
      verified failing before its fix), named by the invariant that
      caught it;
   3. a slice of the real sweep: sampled configs run clean and
      deterministically, and the enumeration covers the advertised
      dimensions. *)
open Sj_core
module W = Sj_explore.World
module Invariant = Sj_explore.Invariant
module Explore = Sj_explore.Explore
module Machine = Sj_machine.Machine
module Platform = Sj_machine.Platform
module Pkey = Sj_paging.Pkey
module Prot = Sj_paging.Prot
module Process = Sj_kernel.Process
module Error = Sj_abi.Error
module Plan = Sj_fault.Plan
module Persist = Sj_persist.Persist
module Size = Sj_util.Size

(* ---- fabricated worlds for the checker tests ---- *)

let seg ?(lock = W.Unlocked) sid name = { W.seg_name = name; sid; lock }

let vas ?vtag ?(keys = []) ?(seg_keys = []) vid name =
  { W.vas_name = name; vid; vtag; keys; seg_keys }

let core ?(live = true) ?cur_vid ?(pkru = Pkey.default) core_id pid =
  { W.core_id; pid; live; cur_vid; pkru }

let sys ?(id = "main") ?(segs = []) ?(vases = []) ?(free_tags = []) ?(cores = [])
    ?(live_pids = []) () =
  { W.sys_id = id; segs; vases; free_tags; cores; live_pids }

let counters ?(lock_acquires = 0) ?(lock_releases = 0) ?(lock_reclaims = 0) ?(crashes = 0)
    ?(tag_assigns = 0) ?(tag_recycles = 0) ?(forks = 0) ?(cow_faults = 0) ?(cow_copies = 0)
    ?(rows = []) () =
  {
    W.lock_acquires;
    lock_releases;
    lock_reclaims;
    crashes;
    tag_assigns;
    tag_recycles;
    forks;
    cow_faults;
    cow_copies;
    rows;
  }

let world ?(snapshots = []) ?(cnt = counters ()) ?journal ?(pt = W.no_pt_audit)
    ?(cow_probes = []) ?(teardown_complete = false) () =
  { W.snapshots; counters = cnt; journal; pt; cow_probes; teardown_complete }

(* A small world every invariant accepts: one busy phase, then a fully
   drained final phase with the issued tag back on the free list. *)
let clean_world =
  (* A restricted register whose only allowed key (1) is allocated in
     the VAS the core is switched into — hygienic. *)
  let compartment_pkru =
    Pkey.set
      (List.fold_left
         (fun r k -> Pkey.set r ~key:k Pkey.Denied)
         Pkey.default
         (List.init Pkey.max_key (fun i -> i + 1)))
      ~key:1 Pkey.Rw
  in
  let busy =
    sys
      ~segs:[ seg 1 "w.data" ]
      ~vases:[ vas ~vtag:1 ~keys:[ (1, 1) ] ~seg_keys:[ (1, 1) ] 1 "w" ]
      ~cores:[ core ~cur_vid:1 ~pkru:compartment_pkru 0 1 ]
      ~live_pids:[ 1 ] ()
  in
  let final = sys ~free_tags:[ 1 ] ~cores:[ core ~live:false 0 1 ] () in
  world
    ~snapshots:
      [ { W.phase = "main"; systems = [ busy ] }; { W.phase = "final"; systems = [ final ] } ]
    ~cnt:(counters ~lock_acquires:2 ~lock_releases:1 ~lock_reclaims:1 ~crashes:1 ~tag_assigns:1 ())
    ~journal:{ W.total_appends = 2; committed_appends = 1; recovered = Some true }
    ~teardown_complete:true ()

let violations_of name w =
  List.filter_map
    (fun (n, msg) -> if n = name then Some msg else None)
    (Invariant.check_all w)

let check_flags name w =
  Alcotest.(check bool)
    (Printf.sprintf "%s flags its broken world" name)
    true
    (violations_of name w <> [])

let test_clean_world_accepted () =
  Alcotest.(check (list (pair string string))) "no violations on the clean world" []
    (Invariant.check_all clean_world)

let test_lock_balance_flags () =
  (* An exclusively-held segment with no live holder left. *)
  check_flags "lock-balance"
    (world
       ~snapshots:
         [ { W.phase = "final"; systems = [ sys ~segs:[ seg ~lock:W.Exclusive 1 "s" ] () ] } ]
       ());
  (* Counter imbalance after a completed teardown. *)
  check_flags "lock-balance"
    (world ~cnt:(counters ~lock_acquires:3 ~lock_releases:1 ~lock_reclaims:1 ())
       ~teardown_complete:true ())

let test_tag_unique_flags () =
  (* The same TLB tag live in two VASes at once. *)
  check_flags "tag-unique"
    (world
       ~snapshots:
         [
           {
             W.phase = "main";
             systems = [ sys ~vases:[ vas ~vtag:7 1 "a"; vas ~vtag:7 2 "b" ] () ];
           };
         ]
       ());
  (* A live tag sitting on the free list. *)
  check_flags "tag-unique"
    (world
       ~snapshots:
         [ { W.phase = "main"; systems = [ sys ~vases:[ vas ~vtag:7 1 "a" ] ~free_tags:[ 7 ] () ] } ]
       ());
  (* Duplicates on the free list itself. *)
  check_flags "tag-unique"
    (world ~snapshots:[ { W.phase = "final"; systems = [ sys ~free_tags:[ 3; 3 ] () ] } ] ())

let test_tag_reclaim_flags () =
  (* Tag 2 was issued during the run but is neither live nor free after
     a teardown that claims to be complete. *)
  check_flags "tag-reclaim"
    (world
       ~snapshots:
         [
           { W.phase = "main"; systems = [ sys ~vases:[ vas ~vtag:2 1 "a" ] () ] };
           { W.phase = "final"; systems = [ sys () ] };
         ]
       ~teardown_complete:true ())

let test_pkey_owners_flags () =
  (* Key out of the 1..15 hardware range. *)
  check_flags "pkey-owners"
    (world
       ~snapshots:
         [ { W.phase = "main"; systems = [ sys ~vases:[ vas ~keys:[ (20, 1) ] 1 "a" ] ~live_pids:[ 1 ] () ] } ]
       ());
  (* Owner is not a live process. *)
  check_flags "pkey-owners"
    (world
       ~snapshots:
         [ { W.phase = "main"; systems = [ sys ~vases:[ vas ~keys:[ (1, 9) ] 1 "a" ] ~live_pids:[ 1 ] () ] } ]
       ());
  (* A tagged segment referencing a key nobody allocated. *)
  check_flags "pkey-owners"
    (world
       ~snapshots:
         [ { W.phase = "main"; systems = [ sys ~vases:[ vas ~seg_keys:[ (1, 2) ] 1 "a" ] () ] } ]
       ())

let test_pkru_hygiene_flags () =
  (* A compartment-style register: everything denied except key 3 (the
     default register is allow-all, which the invariant exempts). *)
  let armed =
    let deny_all =
      List.fold_left
        (fun r k -> Pkey.set r ~key:k Pkey.Denied)
        Pkey.default
        (List.init Pkey.max_key (fun i -> i + 1))
    in
    Pkey.set deny_all ~key:3 Pkey.Rw
  in
  (* Rights retained while switched into no VAS at all. *)
  check_flags "pkru-hygiene"
    (world
       ~snapshots:
         [ { W.phase = "main"; systems = [ sys ~cores:[ core ~pkru:armed 0 1 ] ~live_pids:[ 1 ] () ] } ]
       ());
  (* Rights to a key the current VAS never allocated (the reclaim bug's
     exact shape). *)
  check_flags "pkru-hygiene"
    (world
       ~snapshots:
         [
           {
             W.phase = "main";
             systems =
               [
                 sys ~vases:[ vas 1 "a" ]
                   ~cores:[ core ~cur_vid:1 ~pkru:armed 0 1 ]
                   ~live_pids:[ 1 ] ();
               ];
           };
         ]
       ())

let test_refcount_balance_flags () =
  (* A node whose refcount disagrees with its recomputed indegree. *)
  check_flags "refcount-balance"
    (world ~pt:{ W.no_pt_audit with W.pt_nodes = 4; pt_imbalanced = 1 } ());
  (* A live node no root or handle can reach. *)
  check_flags "refcount-balance"
    (world ~pt:{ W.no_pt_audit with W.pt_nodes = 4; pt_leaked = 2 } ());
  (* Balanced, reachable — but still live after a complete teardown. *)
  check_flags "refcount-balance"
    (world ~pt:{ W.no_pt_audit with W.pt_nodes = 3 } ~teardown_complete:true ());
  (* Residual nodes with teardown incomplete are fine (the run died). *)
  Alcotest.(check (list string)) "incomplete teardown tolerates residual nodes" []
    (violations_of "refcount-balance"
       (world ~pt:{ W.no_pt_audit with W.pt_nodes = 3 } ()))

let test_cow_isolation_flags () =
  (* A probe that saw a value cross the fork. *)
  check_flags "cow-isolation"
    (world ~cow_probes:[ ("kid-own-home", 0x6B1DL, 0xA11CEL) ] ());
  (* Agreeing probes are accepted. *)
  Alcotest.(check (list string)) "agreeing probes accepted" []
    (violations_of "cow-isolation" (world ~cow_probes:[ ("kid-own-home", 1L, 1L) ] ()))

let test_journal_commit_flags () =
  (* Recovery returned an uncommitted image. *)
  check_flags "journal-commit"
    (world ~journal:{ W.total_appends = 2; committed_appends = 1; recovered = Some false } ());
  (* Committed entries existed but recovery found nothing. *)
  check_flags "journal-commit"
    (world ~journal:{ W.total_appends = 2; committed_appends = 2; recovered = None } ())

let test_syscall_balance_flags () =
  let row nr obs tab =
    { W.nr; nr_name = Printf.sprintf "nr%d" nr; obs_calls = obs; obs_cycles = 100;
      tab_calls = tab; tab_cycles = 100 }
  in
  (* Event stream and table disagree on an ordinary entry. *)
  check_flags "syscall-balance" (world ~cnt:(counters ~rows:[ row 5 3 4 ] ()) ());
  (* Cycle disagreement is flagged even on count-only entries. *)
  check_flags "syscall-balance"
    (world
       ~cnt:
         (counters
            ~rows:
              [ { W.nr = 24; nr_name = "persist_save"; obs_calls = 0; obs_cycles = 7;
                  tab_calls = 1; tab_cycles = 9 } ]
            ())
       ())

let test_modal_agreement_flags () =
  Alcotest.(check (list string)) "correct probes agree" []
    (Invariant.check_modal ~clean:Invariant.modal_probe_clean
       ~broken:Invariant.modal_probe_broken);
  (* A "clean" probe that is actually broken must be flagged... *)
  Alcotest.(check bool) "broken clean probe flagged" true
    (Invariant.check_modal ~clean:Invariant.modal_probe_broken
       ~broken:Invariant.modal_probe_broken
    <> []);
  (* ...and so must a "broken" probe both legs accept. *)
  Alcotest.(check bool) "clean broken probe flagged" true
    (Invariant.check_modal ~clean:Invariant.modal_probe_clean
       ~broken:Invariant.modal_probe_clean
    <> [])

(* ---- regression tests for the explorer's bug crop ---- *)

let tiny : Platform.t =
  { Platform.m2 with name = "tiny"; mem_size = Size.mib 256; sockets = 2; cores_per_socket = 2 }

let boot () =
  let m = Machine.create tiny in
  let sys = Api.boot m in
  (m, sys)

(* Bug A (caught by pkru-hygiene): reclaim_pkeys freed a dead process's
   protection keys but left surviving cores' PKRU rights to them
   standing. The exact sweep config that surfaced it must run clean. *)
let test_bug_pkru_scrubbed_on_owner_death () =
  let cfg =
    {
      Explore.backend = Api.Dragonfly;
      seed = 50;
      plan = [ Plan.kill_at_syscall ~pid:1 ~nr:10 ~occurrence:1 () ];
      fork = false;
    }
  in
  let r = Explore.run cfg in
  Alcotest.(check (list (pair string string)))
    "key-owner death leaves no stale PKRU rights" [] r.Explore.violations

(* Bug B (caught by tag-unique): Persist.restore installed saved TLB
   tags without telling the registry, so the next Request_tag on the
   restored system issued a tag already live in a restored VAS. *)
let test_bug_restored_tag_not_reissued () =
  let _, sys1 = boot () in
  let m1 = Api.machine sys1 in
  let p1 = Process.create ~name:"a" m1 in
  let ctx1 = Api.context sys1 p1 (Machine.core m1 0) in
  let v = Api.vas_create ctx1 ~name:"saved" ~mode:0o666 in
  Api.vas_ctl ctx1 (`Request_tag v);
  let saved_tag = Option.get (Vas.tag v) in
  let img = Persist.save sys1 in
  let _, sys2 = boot () in
  let m2 = Api.machine sys2 in
  let p2 = Process.create ~name:"b" m2 in
  let ctx2 = Api.context sys2 p2 (Machine.core m2 0) in
  Persist.restore sys2 img;
  let restored = Api.vas_find ctx2 ~name:"saved" in
  Alcotest.(check (option int)) "restored VAS keeps its saved tag" (Some saved_tag)
    (Vas.tag restored);
  let probe = Api.vas_create ctx2 ~name:"probe" ~mode:0o666 in
  Api.vas_ctl ctx2 (`Request_tag probe);
  Alcotest.(check bool) "fresh tag differs from the restored one" true
    (Vas.tag probe <> Some saved_tag)

(* Bug C (unit probe riding the same fix): after the 4095-tag space
   wraps, alloc_tag must skip tags still held by live VASes instead of
   double-issuing them. *)
let test_bug_tag_wrap_skips_live () =
  let _, sys = boot () in
  let m = Api.machine sys in
  let p = Process.create ~name:"keeper" m in
  let ctx = Api.context sys p (Machine.core m 0) in
  let keeper = Api.vas_create ctx ~name:"keeper" ~mode:0o666 in
  Api.vas_ctl ctx (`Request_tag keeper);
  let held = Option.get (Vas.tag keeper) in
  let reg = Api.registry sys in
  (* Burn the rest of the tag space; these tags belong to no VAS, so
     only [held] is live when the allocator wraps. *)
  for _ = 1 to 4094 do
    ignore (Registry.alloc_tag reg)
  done;
  let post_wrap = Registry.alloc_tag reg in
  Alcotest.(check bool) "post-wrap tag skips the live keeper" true (post_wrap <> held);
  Alcotest.(check bool) "keeper still holds its tag" true (Registry.tag_in_use reg held)

(* Bug D (unit probe): vas_detach destroyed the attachment while a
   sibling thread was still switched into it, leaving that thread on a
   dead vmspace. Detach must refuse with Would_block until the sibling
   leaves, and exit_process must force its own siblings out first. *)
let test_bug_detach_refused_while_sibling_entered () =
  let _, sys = boot () in
  let m = Api.machine sys in
  let p = Process.create ~name:"t" m in
  let ctx1 = Api.context sys p (Machine.core m 0) in
  ignore (Process.spawn_thread p);
  let ctx2 = Api.context sys p (Machine.core m 1) in
  let v = Api.vas_create ctx1 ~name:"shared" ~mode:0o666 in
  let s = Api.seg_alloc_anywhere ctx1 ~name:"shared.d" ~size:(Size.kib 64) ~mode:0o666 in
  Api.seg_attach ctx1 v s ~prot:Prot.rw;
  let vh = Api.vas_attach ctx1 v in
  Api.vas_switch ctx2 vh;
  Alcotest.(check bool) "detach refused while a sibling is entered" true
    (match Api.Checked.vas_detach ctx1 vh with
    | Error f -> f.Error.code = Error.Would_block
    | Ok () -> false);
  Api.switch_home ctx2;
  Alcotest.(check bool) "detach succeeds once the sibling left" true
    (match Api.Checked.vas_detach ctx1 vh with Ok () -> true | Error _ -> false)

let test_bug_exit_forces_siblings_out () =
  let _, sys = boot () in
  let m = Api.machine sys in
  let p = Process.create ~name:"t" m in
  let ctx1 = Api.context sys p (Machine.core m 0) in
  ignore (Process.spawn_thread p);
  let ctx2 = Api.context sys p (Machine.core m 1) in
  let v = Api.vas_create ctx1 ~name:"shared" ~mode:0o666 in
  let vh = Api.vas_attach ctx1 v in
  Api.vas_switch ctx2 vh;
  (* Exit with the sibling still inside: must not raise, must leave the
     process dead and the VAS free of stragglers (destroyable). *)
  Api.exit_process ctx1;
  Alcotest.(check bool) "process is dead" false (Process.is_live p);
  let reaper = Process.create ~name:"r" m in
  let ctxr = Api.context sys reaper (Machine.core m 2) in
  Alcotest.(check bool) "VAS destroyable after the forced exit" true
    (match Api.Checked.vas_ctl ctxr (`Destroy v) with Ok () -> true | Error _ -> false)

(* The μFork phase end to end: a fork-bearing baseline runs clean on
   both mechanism parities, actually records its isolation probes, and
   counts both Fork events (proc_fork + vas_fork). *)
let test_fork_phase_runs_clean () =
  List.iter
    (fun seed ->
      let cfg = { Explore.backend = Api.Dragonfly; seed; plan = []; fork = true } in
      let r = Explore.run cfg in
      Alcotest.(check (list (pair string string)))
        (Explore.key cfg ^ " runs clean") [] r.Explore.violations;
      Alcotest.(check bool) "isolation probes recorded" true
        (List.length r.Explore.world.W.cow_probes >= 6);
      Alcotest.(check int) "both fork flavours counted" 2 r.Explore.world.W.counters.W.forks;
      Alcotest.(check bool) "the child's writes broke CoW pages" true
        (r.Explore.world.W.counters.W.cow_faults > 0))
    [ 300; 301 ]

(* ---- the sweep itself ---- *)

let test_enumeration_covers_dimensions () =
  let cfgs = Explore.enumerate ~quick:true in
  let keys = List.sort_uniq compare (List.map Explore.key cfgs) in
  Alcotest.(check bool) "at least 100 distinct configs" true (List.length keys >= 100);
  Alcotest.(check int) "no duplicate configs" (List.length cfgs) (List.length keys);
  let kinds =
    List.sort_uniq compare
      (List.concat_map (fun c -> List.map Plan.kind_name c.Explore.plan) cfgs)
  in
  Alcotest.(check (list string)) "all five plan kinds swept"
    (List.sort compare Plan.all_kinds) kinds;
  Alcotest.(check int) "both backends swept" 2
    (List.length
       (List.sort_uniq compare (List.map (fun c -> Explore.backend_name c.Explore.backend) cfgs)));
  Alcotest.(check int) "all three mechanisms swept" 3
    (List.length (List.sort_uniq compare (List.map Explore.mechanism_name cfgs)));
  List.iter
    (fun nr ->
      Alcotest.(check bool)
        (Sj_abi.Sys.name nr ^ " killed in a fork-bearing config")
        true
        (List.exists
           (fun (c : Explore.config) ->
             c.fork
             && List.exists
                  (function
                    | Plan.Kill_at_syscall k -> k.pid = 1 && k.nr = Sj_abi.Sys.number nr
                    | _ -> false)
                  c.plan)
           cfgs))
    [ Sj_abi.Sys.Vas_fork; Proc_fork ]

let test_sampled_sweep_clean_and_deterministic () =
  (* A spread sample of the quick sweep: every 23rd config. Each must
     run violation-free and replay byte-identically from its key. *)
  let cfgs = Explore.enumerate ~quick:true in
  let sample = List.filteri (fun i _ -> i mod 23 = 0) cfgs in
  List.iter
    (fun cfg ->
      let r = Explore.run cfg in
      Alcotest.(check (list (pair string string)))
        (Explore.key cfg ^ " runs clean") [] r.Explore.violations;
      Alcotest.(check bool) (Explore.key cfg ^ " replays identically") true
        (Explore.equal_result r (Explore.run cfg)))
    sample

(* One broken-world case per invariant, keyed by the invariant's name:
   the roster test below looks every name in [Invariant.all] up here,
   so an invariant added without a case that breaks it fails the
   suite. *)
let broken_worlds =
  [
    ("lock-balance", ("flags orphan locks and imbalance", test_lock_balance_flags));
    ("tag-unique", ("flags double-issued and free-listed tags", test_tag_unique_flags));
    ("tag-reclaim", ("flags leaked tags", test_tag_reclaim_flags));
    ("pkey-owners", ("flags range/owner/reference breaks", test_pkey_owners_flags));
    ("pkru-hygiene", ("flags stale key rights", test_pkru_hygiene_flags));
    ( "refcount-balance",
      ("flags imbalance, leaks and residue", test_refcount_balance_flags) );
    ("cow-isolation", ("flags writes that cross a fork", test_cow_isolation_flags));
    ("journal-commit", ("flags bad recovery", test_journal_commit_flags));
    ( "syscall-balance",
      ("flags stream/table disagreement", test_syscall_balance_flags) );
    ("modal-agreement", ("flags probe disagreement", test_modal_agreement_flags));
  ]

let test_every_invariant_has_broken_world () =
  List.iter
    (fun (i : Invariant.t) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s has a broken-world case" i.name)
        true
        (List.mem_assoc i.name broken_worlds))
    Invariant.all;
  Alcotest.(check (list string)) "no case for an invariant outside the roster"
    (List.sort compare Invariant.names)
    (List.sort compare (List.map fst broken_worlds))

let suite =
  [ Alcotest.test_case "clean world accepted by every invariant" `Quick test_clean_world_accepted ]
  @ List.map
      (fun (name, (what, test)) -> Alcotest.test_case (name ^ " " ^ what) `Quick test)
      broken_worlds
  @ [
    Alcotest.test_case "every invariant has a broken-world case" `Quick
      test_every_invariant_has_broken_world;
    Alcotest.test_case "bug A: PKRU scrubbed when key owner dies" `Quick
      test_bug_pkru_scrubbed_on_owner_death;
    Alcotest.test_case "bug B: restored tags never re-issued" `Quick
      test_bug_restored_tag_not_reissued;
    Alcotest.test_case "bug C: tag wraparound skips live tags" `Quick
      test_bug_tag_wrap_skips_live;
    Alcotest.test_case "bug D: detach refused while sibling entered" `Quick
      test_bug_detach_refused_while_sibling_entered;
    Alcotest.test_case "bug D: exit forces siblings out of the VAS" `Quick
      test_bug_exit_forces_siblings_out;
    Alcotest.test_case "fork phase runs clean on both mechanisms" `Quick
      test_fork_phase_runs_clean;
    Alcotest.test_case "enumeration covers the advertised dimensions" `Quick
      test_enumeration_covers_dimensions;
    Alcotest.test_case "sampled sweep clean and deterministic" `Slow
      test_sampled_sweep_clean_and_deterministic;
  ]
