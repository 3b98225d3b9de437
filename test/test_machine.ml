(* Tests for the machine layer: cores, caches, translation costs. *)
open Sj_util
open Sj_machine
module Core = Machine.Core
module Pm = Sj_mem.Phys_mem
module Page_table = Sj_paging.Page_table
module Prot = Sj_paging.Prot

(* A small bespoke platform to keep tests fast. *)
let tiny : Platform.t =
  {
    Platform.m2 with
    name = "tiny";
    mem_size = Size.mib 64;
    sockets = 2;
    cores_per_socket = 2;
  }

let setup () =
  let m = Machine.create tiny in
  let pt = Page_table.create (Machine.mem m) in
  let frames = Pm.alloc_frames (Machine.mem m) ~n:16 in
  Page_table.map_range pt ~va:0x10000 ~frames ~prot:Prot.rw;
  let core = Machine.core m 0 in
  Core.set_page_table core (Some pt);
  (m, pt, core)

let test_cr3_cost () =
  let m = Machine.create tiny in
  let core = Machine.core m 0 in
  let pt = Page_table.create (Machine.mem m) in
  let c0 = Core.cycles core in
  Core.set_page_table core (Some pt);
  Alcotest.(check int) "untagged CR3" (Machine.cost m).cr3_load (Core.cycles core - c0);
  let c1 = Core.cycles core in
  Core.set_page_table core ~tag:5 (Some pt);
  Alcotest.(check int) "tagged CR3" (Machine.cost m).cr3_load_tagged (Core.cycles core - c1)

let test_load_store_roundtrip () =
  let _, _, core = setup () in
  Core.store64 core ~va:0x10008 0xFACEFEEDL;
  Alcotest.(check int64) "value" 0xFACEFEEDL (Core.load64 core ~va:0x10008);
  Core.store8 core ~va:0x10000 0x7F;
  Alcotest.(check int) "byte" 0x7F (Core.load8 core ~va:0x10000)

let test_page_fault () =
  let _, _, core = setup () in
  Alcotest.(check bool) "fault on unmapped" true
    (try
       ignore (Core.load64 core ~va:0xDEAD0000);
       false
     with Machine.Page_fault _ -> true)

let test_protection_fault () =
  let m, pt, core = setup () in
  let f = Pm.alloc_frame (Machine.mem m) in
  Page_table.map pt ~va:0x80000 ~pa:(Pm.base_of_frame f) ~prot:Prot.r ~size:Page_table.P4K;
  ignore (Core.load64 core ~va:0x80000);
  Alcotest.(check bool) "write to read-only faults" true
    (try
       Core.store64 core ~va:0x80000 1L;
       false
     with Machine.Protection_fault _ -> true)

let test_no_page_table () =
  let m = Machine.create tiny in
  let core = Machine.core m 0 in
  Alcotest.check_raises "no pt" Machine.No_page_table (fun () ->
      ignore (Core.load64 core ~va:0x1000))

let test_tlb_warms_up () =
  let _, _, core = setup () in
  ignore (Core.load64 core ~va:0x10000);
  let misses = Core.tlb_misses core in
  ignore (Core.load64 core ~va:0x10010);
  Alcotest.(check int) "second access hits TLB" misses (Core.tlb_misses core)

let test_cache_locality_cheaper () =
  let _, _, core = setup () in
  (* First access: TLB miss + walk + DRAM. *)
  ignore (Core.load64 core ~va:0x10000);
  let c1 = Core.cycles core in
  ignore (Core.load64 core ~va:0x10000);
  let hot = Core.cycles core - c1 in
  Alcotest.(check bool) "hot access is L1-priced" true (hot <= 8);
  (* A cold page costs translation + memory. *)
  let c2 = Core.cycles core in
  ignore (Core.load64 core ~va:0x1C000);
  let cold = Core.cycles core - c2 in
  Alcotest.(check bool) "cold access much dearer" true (cold > 10 * hot)

let test_cross_page_store () =
  let _, _, core = setup () in
  let va = 0x10000 + Addr.page_size - 4 in
  Core.store64 core ~va 0x1122334455667788L;
  Alcotest.(check int64) "straddle" 0x1122334455667788L (Core.load64 core ~va)

let test_bytes_roundtrip () =
  let _, _, core = setup () in
  let msg = Bytes.of_string "virtual address spaces as first-class citizens" in
  Core.store_bytes core ~va:0x11f00 msg;
  Alcotest.(check string) "bytes" (Bytes.to_string msg)
    (Bytes.to_string (Core.load_bytes core ~va:0x11f00 ~len:(Bytes.length msg)))

let test_memset () =
  let _, _, core = setup () in
  Core.memset core ~va:0x10100 ~len:300 'q';
  let out = Core.load_bytes core ~va:0x10100 ~len:300 in
  Alcotest.(check bool) "filled" true (Bytes.for_all (fun c -> c = 'q') out);
  (* Neighbouring bytes untouched. *)
  Alcotest.(check int) "before untouched" 0 (Core.load8 core ~va:0x100ff);
  Alcotest.(check int) "after untouched" 0 (Core.load8 core ~va:(0x10100 + 300))

let test_memcpy () =
  let _, _, core = setup () in
  Core.store_bytes core ~va:0x10000 (Bytes.of_string "spacejmp!");
  Core.memcpy core ~dst:0x12000 ~src:0x10000 ~len:9;
  Alcotest.(check string) "copied" "spacejmp!"
    (Bytes.to_string (Core.load_bytes core ~va:0x12000 ~len:9))

let test_untagged_switch_flushes () =
  let m, pt, core = setup () in
  ignore (Core.load64 core ~va:0x10000);
  ignore m;
  let misses0 = Core.tlb_misses core in
  (* Untagged switch to the same table: TLB flushed, so next access misses. *)
  Core.set_page_table core (Some pt);
  ignore (Core.load64 core ~va:0x10000);
  Alcotest.(check int) "miss after untagged switch" (misses0 + 1) (Core.tlb_misses core)

let test_tagged_switch_preserves () =
  let m, pt, core = setup () in
  ignore m;
  Core.set_page_table core ~tag:3 (Some pt);
  ignore (Core.load64 core ~va:0x10000);
  let misses0 = Core.tlb_misses core in
  Core.set_page_table core ~tag:4 (Some pt);
  Core.set_page_table core ~tag:3 (Some pt);
  ignore (Core.load64 core ~va:0x10000);
  Alcotest.(check int) "no miss after tagged round trip" misses0 (Core.tlb_misses core)

let test_vas_switch_cost_table2 () =
  (* The cost model must reproduce Table 2 exactly on M2. *)
  let c = Cost_model.m2 in
  Alcotest.(check int) "DF untagged" 1127 (Cost_model.vas_switch_cost c ~os:`Dragonfly ~tagged:false);
  Alcotest.(check int) "DF tagged" 807 (Cost_model.vas_switch_cost c ~os:`Dragonfly ~tagged:true);
  Alcotest.(check int) "BF untagged" 664 (Cost_model.vas_switch_cost c ~os:`Barrelfish ~tagged:false);
  Alcotest.(check int) "BF tagged" 462 (Cost_model.vas_switch_cost c ~os:`Barrelfish ~tagged:true)

let test_numa_remote_dearer () =
  let m = Machine.create tiny in
  let mem = Machine.mem m in
  let pt = Page_table.create mem in
  let local = Pm.alloc_frame ~node:0 mem in
  let remote = Pm.alloc_frame ~node:1 mem in
  Page_table.map pt ~va:0x10000 ~pa:(Pm.base_of_frame local) ~prot:Prot.rw ~size:Page_table.P4K;
  Page_table.map pt ~va:0x20000 ~pa:(Pm.base_of_frame remote) ~prot:Prot.rw ~size:Page_table.P4K;
  let core = Machine.core m 0 in
  Core.set_page_table core (Some pt);
  (* Warm the TLB so only DRAM cost differs. *)
  ignore (Core.load64 core ~va:0x10000);
  ignore (Core.load64 core ~va:0x20000);
  Sj_tlb.Tlb.flush_all (Core.tlb core);
  let t0 = Core.cycles core in
  ignore (Core.load64 core ~va:0x10f00);
  let local_cost = Core.cycles core - t0 in
  let t1 = Core.cycles core in
  ignore (Core.load64 core ~va:0x20f00);
  let remote_cost = Core.cycles core - t1 in
  Alcotest.(check bool) "remote > local" true (remote_cost > local_cost)

(* Bulk data that crosses page boundaries lands byte for byte: one
   translation per page run, the data split between them. *)
let test_page_crossing_bulk () =
  let _, _, core = setup () in
  let va = 0x10000 + Addr.page_size - 100 in
  let data = Bytes.init 300 (fun i -> Char.chr ((i * 31) land 0xff)) in
  Core.store_bytes core ~va data;
  Alcotest.(check string) "store/load across a page" (Bytes.to_string data)
    (Bytes.to_string (Core.load_bytes core ~va ~len:300));
  Core.memset core ~va:(0x11000 - 7) ~len:20 '\xab';
  Alcotest.(check string) "memset across a page" (String.make 20 '\xab')
    (Bytes.to_string (Core.load_bytes core ~va:(0x11000 - 7) ~len:20));
  Alcotest.(check int) "byte before the memset" (Char.code (Bytes.get data 92))
    (Core.load8 core ~va:(0x11000 - 8));
  Alcotest.(check int) "one translation per page" 2 (Core.tlb_misses core)

(* memcpy copies through a 4 KiB bounce buffer, one chunk at a time:
   each chunk behaves like memmove, but a later chunk reads source bytes
   an earlier chunk already overwrote. *)
let test_overlapping_memcpy () =
  let _, _, core = setup () in
  let base = 0x14000 in
  let init = Bytes.init 9000 (fun i -> Char.chr ((i * 7) land 0xff)) in
  Core.store_bytes core ~va:base init;
  let model = Bytes.copy init in
  let copy ~dst ~src ~len =
    Core.memcpy core ~dst:(base + dst) ~src:(base + src) ~len;
    let pos = ref 0 in
    while !pos < len do
      let n = min 4096 (len - !pos) in
      Bytes.blit model (src + !pos) model (dst + !pos) n;
      pos := !pos + n
    done
  in
  copy ~dst:100 ~src:0 ~len:8192;
  Alcotest.(check string) "forward overlap across chunks" (Bytes.to_string model)
    (Bytes.to_string (Core.load_bytes core ~va:base ~len:9000));
  copy ~dst:0 ~src:50 ~len:5000;
  Alcotest.(check string) "backward overlap" (Bytes.to_string model)
    (Bytes.to_string (Core.load_bytes core ~va:base ~len:9000))

(* A 2 MiB leaf translates every offset inside it with one TLB entry. *)
let test_huge_page () =
  let m, pt, core = setup () in
  let mem = Machine.mem m in
  let frames = Pm.alloc_frames_contiguous ~align:512 mem ~n:512 in
  let pa = Pm.base_of_frame frames.(0) and va = 0x8000_0000 in
  Page_table.map pt ~va ~pa ~prot:Prot.rw ~size:Page_table.P2M;
  Core.store8 core ~va:(va + 123456) 0x5a;
  Alcotest.(check int) "data at the physical offset" 0x5a (Pm.read8 mem ~pa:(pa + 123456));
  let misses = Core.tlb_misses core in
  Alcotest.(check int) "load back" 0x5a (Core.load8 core ~va:(va + 123456));
  Alcotest.(check int) "last byte" 0 (Core.load8 core ~va:(va + Size.mib 2 - 1));
  Alcotest.(check int) "no further misses inside the leaf" misses (Core.tlb_misses core)

(* A read-only mapping admits loads, refuses stores; once unmapped and
   shot down, the address faults again. *)
let test_unmapped_faults () =
  let m, pt, core = setup () in
  let va = 0x40000 in
  let faults f =
    match f () with
    | _ -> "none"
    | exception Machine.Page_fault _ -> "page"
    | exception Machine.Protection_fault _ -> "prot"
  in
  Alcotest.(check string) "unmapped load" "page" (faults (fun () -> ignore (Core.load8 core ~va)));
  let f = Pm.alloc_frame (Machine.mem m) in
  Page_table.map pt ~va ~pa:(Pm.base_of_frame f) ~prot:Prot.r ~size:Page_table.P4K;
  Alcotest.(check string) "read-only load" "none" (faults (fun () -> ignore (Core.load8 core ~va)));
  Alcotest.(check string) "read-only store" "prot" (faults (fun () -> Core.store8 core ~va 1));
  Page_table.unmap_range pt ~va ~pages:1;
  Sj_tlb.Tlb.invalidate_page (Core.tlb core) ~va;
  Alcotest.(check string) "after unmap" "page" (faults (fun () -> ignore (Core.load8 core ~va)))

(* A protection change without a shootdown leaves the cached entry's
   rights in force until the TLB is flushed. *)
let test_protection_changes () =
  let _, pt, core = setup () in
  let va = 0x12000 in
  Core.store8 core ~va 42;
  Page_table.protect pt ~va ~size:Page_table.P4K ~prot:Prot.r;
  Core.store8 core ~va 43;
  Alcotest.(check int) "stale writable entry still admits the store" 43 (Core.load8 core ~va);
  Sj_tlb.Tlb.flush_nonglobal (Core.tlb core);
  Alcotest.(check bool) "store faults after the flush" true
    (try
       Core.store8 core ~va 44;
       false
     with Machine.Protection_fault _ -> true);
  Alcotest.(check int) "value unchanged" 43 (Core.load8 core ~va)

(* Key rights are checked against the current register at every TLB
   hit: narrowing the register faults a warm entry with no flush and no
   new miss, and widening it again lets the access through. *)
let test_pkey_switch_cached_hits () =
  let _, pt, core = setup () in
  let va = 0x13000 in
  Page_table.set_key pt ~va ~size:Page_table.P4K ~key:1;
  Core.store8 core ~va 42;
  let tlb = Core.tlb core in
  let misses = Core.tlb_misses core and flushes = (Sj_tlb.Tlb.stats tlb).flushes in
  let key_faults f = try f (); false with Machine.Key_fault _ -> true in
  Core.set_pkru core (Sj_paging.Pkey.set Sj_paging.Pkey.default ~key:1 Sj_paging.Pkey.Denied);
  Alcotest.(check bool) "warm load key-faults" true (key_faults (fun () -> ignore (Core.load8 core ~va)));
  Alcotest.(check bool) "warm store key-faults" true (key_faults (fun () -> Core.store8 core ~va 43));
  Core.set_pkru core (Sj_paging.Pkey.set Sj_paging.Pkey.default ~key:1 Sj_paging.Pkey.Ro);
  Alcotest.(check int) "read-only key admits the load" 42 (Core.load8 core ~va);
  Alcotest.(check bool) "and refuses the store" true (key_faults (fun () -> Core.store8 core ~va 43));
  Core.set_pkru core Sj_paging.Pkey.default;
  Core.store8 core ~va 44;
  Alcotest.(check int) "open register" 44 (Core.load8 core ~va);
  Alcotest.(check int) "no new misses" misses (Core.tlb_misses core);
  Alcotest.(check int) "no flushes" flushes (Sj_tlb.Tlb.stats tlb).flushes

let suite =
  [
    Alcotest.test_case "CR3 write costs" `Quick test_cr3_cost;
    Alcotest.test_case "load/store roundtrip" `Quick test_load_store_roundtrip;
    Alcotest.test_case "page fault" `Quick test_page_fault;
    Alcotest.test_case "protection fault" `Quick test_protection_fault;
    Alcotest.test_case "no page table" `Quick test_no_page_table;
    Alcotest.test_case "TLB warms up" `Quick test_tlb_warms_up;
    Alcotest.test_case "cache locality" `Quick test_cache_locality_cheaper;
    Alcotest.test_case "cross-page store" `Quick test_cross_page_store;
    Alcotest.test_case "bytes roundtrip" `Quick test_bytes_roundtrip;
    Alcotest.test_case "memset" `Quick test_memset;
    Alcotest.test_case "memcpy" `Quick test_memcpy;
    Alcotest.test_case "untagged switch flushes TLB" `Quick test_untagged_switch_flushes;
    Alcotest.test_case "tagged switch preserves TLB" `Quick test_tagged_switch_preserves;
    Alcotest.test_case "Table 2 switch costs" `Quick test_vas_switch_cost_table2;
    Alcotest.test_case "NUMA remote access dearer" `Quick test_numa_remote_dearer;
    Alcotest.test_case "page-crossing bulk ops" `Quick test_page_crossing_bulk;
    Alcotest.test_case "overlapping memcpy" `Quick test_overlapping_memcpy;
    Alcotest.test_case "2 MiB pages" `Quick test_huge_page;
    Alcotest.test_case "unmapped faults" `Quick test_unmapped_faults;
    Alcotest.test_case "protection changes" `Quick test_protection_changes;
    Alcotest.test_case "pkey switch on cached hits" `Quick test_pkey_switch_cached_hits;
  ]
