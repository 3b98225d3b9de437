(* The seven small whole-simulation workloads the determinism tests
   share (test_obs, test_parallel, test_fork). Each is an isolated
   simulation (its own machine, RNGs and contexts) returning a
   fingerprint of its simulated outcome, so a run can be compared
   across tracing, domains and stored baselines. Sizes are unit-test
   sizes: the whole list runs in well under a second. *)

open Sj_util
module Machine = Sj_machine.Machine
module Core = Machine.Core
module Platform = Sj_machine.Platform
module Pm = Sj_mem.Phys_mem
module Page_table = Sj_paging.Page_table
module Prot = Sj_paging.Prot
module Tlb = Sj_tlb.Tlb
module Gups = Sj_gups.Gups
module Kv_sim = Sj_kvstore.Kv_sim

(* The simulated-side outcome of a workload: cycles, TLB stats, data
   checksums. *)
type fingerprint = (string * int) list

let core_fingerprint core extra : fingerprint =
  let s = Tlb.stats (Core.tlb core) in
  [
    ("cycles", Core.cycles core);
    ("tlb_hits", s.hits);
    ("tlb_misses", s.misses);
    ("tlb_insertions", s.insertions);
  ]
  @ extra

(* ---- micro benches: a hot 4-page region on a small machine ---- *)

let micro_platform : Platform.t =
  {
    Platform.m2 with
    name = "bench-micro";
    mem_size = Size.mib 128;
    sockets = 2;
    cores_per_socket = 2;
  }

(* The region fits the simulated L1, so after warm-up every line access
   is a hit: the runs exercise translation, per-line charging and byte
   copies rather than misses. *)
let micro_pages = 4
let micro_base = 0x4000_0000
let micro_bytes = micro_pages * Addr.page_size

let micro_setup () =
  let m = Machine.create micro_platform in
  let pt = Page_table.create (Machine.mem m) in
  let frames = Pm.alloc_frames (Machine.mem m) ~n:micro_pages in
  Page_table.map_range pt ~va:micro_base ~frames ~prot:Prot.rw;
  let core = Machine.core m 0 in
  Core.set_page_table core ~tag:1 (Some pt);
  core

let bench_load_bytes ~iters () =
  let core = micro_setup () in
  Core.store_bytes core ~va:micro_base
    (Bytes.init 4096 (fun i -> Char.chr (i land 0xff)));
  let span = 4096 in
  let sum = ref 0 in
  for i = 0 to iters - 1 do
    let off = (i * 4099 * 8) mod (micro_bytes - span) in
    let b = Core.load_bytes core ~va:(micro_base + off) ~len:span in
    sum := !sum + Char.code (Bytes.get b (i mod span))
  done;
  core_fingerprint core [ ("checksum", !sum) ]

let bench_memcpy ~iters () =
  let core = micro_setup () in
  Core.store_bytes core ~va:micro_base
    (Bytes.init 8192 (fun i -> Char.chr ((i * 7) land 0xff)));
  let half = micro_bytes / 2 in
  for i = 0 to iters - 1 do
    (* Ping-pong the two halves so both stay written-to. *)
    let src = micro_base + ((i land 1) * half) in
    let dst = micro_base + (((i + 1) land 1) * half) in
    Core.memcpy core ~dst ~src ~len:half
  done;
  let tail = Core.load_bytes core ~va:(micro_base + half) ~len:256 in
  let sum = ref 0 in
  Bytes.iter (fun ch -> sum := !sum + Char.code ch) tail;
  core_fingerprint core [ ("checksum", !sum) ]

let bench_memset ~iters () =
  let core = micro_setup () in
  let len = micro_bytes / 2 in
  for i = 0 to iters - 1 do
    let off = (i * 4099 * 8) mod (micro_bytes - len) in
    Core.memset core ~va:(micro_base + off) ~len (Char.chr (i land 0xff))
  done;
  let b = Core.load_bytes core ~va:micro_base ~len:4096 in
  let sum = ref 0 in
  Bytes.iter (fun ch -> sum := !sum + Char.code ch) b;
  core_fingerprint core [ ("checksum", !sum) ]

(* The kvstore's signature access pattern in isolation: alternate a
   vas_switch into a shared segment with one small op there and a
   switch back home. Every iteration pays the full jump price (switch
   syscall, page-table swap, TLB effects under the platform's tagging
   policy) against almost no useful work — the worst case the cluster's
   batched path amortizes away, and the pattern most sensitive to
   switch-cost regressions. *)
let bench_switch_storm ~iters () =
  let m = Machine.create micro_platform in
  let sys = Sj_core.Api.boot m in
  let proc = Sj_kernel.Process.create ~name:"storm" m in
  let ctx = Sj_core.Api.context sys proc (Machine.core m 0) in
  let open Sj_core in
  let vas = Api.vas_create ctx ~name:"storm" ~mode:0o666 in
  let seg =
    Api.seg_alloc_anywhere ctx ~name:"storm.data" ~size:(Size.kib 64) ~mode:0o666
  in
  Api.seg_attach ctx vas seg ~prot:Prot.rw;
  let vh = Api.vas_attach ctx vas in
  let base = Segment.base seg in
  let core = Api.core ctx in
  let sum = ref 0 in
  for i = 0 to iters - 1 do
    Api.vas_switch ctx vh;
    (* The small op: one line-sized read-modify-write in the segment. *)
    let va = base + (i * 64 mod Size.kib 64) in
    let b = Core.load_bytes core ~va ~len:8 in
    Bytes.set b 0 (Char.chr (i land 0xff));
    Core.store_bytes core ~va b;
    sum := !sum + Char.code (Bytes.get b 0);
    Api.switch_home ctx
  done;
  core_fingerprint core
    [ ("checksum", !sum); ("switches", Registry.switch_count (Api.registry sys)) ]

(* ---- workload benches: whole simulations ---- *)

let bench_gups ~visits () =
  let cfg =
    {
      Gups.default_config with
      platform = Platform.m1;
      windows = 4;
      (* Small windows keep setup (page-table population) off the
         measurement; the visit loop dominates the wall clock. *)
      window_size = Size.mib 2;
      updates_per_set = 64;
      window_visits = visits;
      tags = true;
    }
  in
  let r = Gups.run cfg ~design:Gups.Spacejmp in
  [ ("cycles", r.cycles); ("updates", r.updates) ]

let kv_fingerprint (r : Kv_sim.result) : fingerprint =
  [
    ("requests", r.requests);
    ("gets", r.gets);
    ("sets", r.sets);
    ("lock_wait_cycles", r.lock_wait_cycles);
    ("switches", r.switches);
    ("tlb_misses", r.tlb_misses);
  ]

(* One kvstore run of 8 clients at 20% SETs, seeded. *)
let kv_trial ~duration ~seed () =
  let cfg =
    {
      Kv_sim.default_config with
      clients = 8;
      set_fraction = 0.2;
      duration_cycles = duration;
      seed;
    }
  in
  kv_fingerprint (Kv_sim.run cfg)

let bench_kvstore ~duration () = kv_trial ~duration ~seed:Kv_sim.default_config.seed ()

(* Four kvstore trials, distinguished only by seed; the fingerprint is
   their elementwise sum (every trial emits the same keys in order). *)
let bench_kvstore_mt ~duration () =
  match List.init 4 (fun i -> kv_trial ~duration ~seed:(101 + (17 * i)) ()) with
  | fp0 :: rest ->
    List.fold_left (List.map2 (fun (k, a) (_, b) -> (k, a + b))) fp0 rest
  | [] -> assert false

let all : (string * (unit -> fingerprint)) list =
  [
    ("load_bytes", bench_load_bytes ~iters:300);
    ("memcpy", bench_memcpy ~iters:300);
    ("memset", bench_memset ~iters:400);
    ("gups", bench_gups ~visits:40);
    ("switch_storm", bench_switch_storm ~iters:150);
    ("kvstore", bench_kvstore ~duration:200_000);
    ("kvstore_mt", bench_kvstore_mt ~duration:100_000);
  ]

(* Every workload's fingerprint, in list order. *)
let run_all () = List.map (fun (name, w) -> (name, w ())) all
