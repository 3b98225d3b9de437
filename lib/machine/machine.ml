open Sj_util
module Phys_mem = Sj_mem.Phys_mem
module Page_table = Sj_paging.Page_table
module Prot = Sj_paging.Prot
module Tlb = Sj_tlb.Tlb
module Pkey = Sj_paging.Pkey

type access = Read | Write

exception Page_fault of { va : int; access : access }
exception Protection_fault of { va : int; access : access }

exception Key_fault of { va : int; access : access }
(* Paging protections admit the access but the core's protection-key
   register denies the page's key. Deliberately NOT caught by the
   [translate] retry loop: the fault handler repairs *mappings* (COW
   splits), and a key denial is a property of the register, which no
   mapping repair can change. *)

exception No_page_table
exception Out_of_memory = Phys_mem.Out_of_memory

type core_state = {
  id : int;
  socket : int;
  machine : t;
  mutable cycles : int;
  tlb : Tlb.t;
  l1 : Cache.t;
  mutable pt : Page_table.t option;
  mutable tag : int;
  (* Protection-key permission register (PKRU). 0 permits every key, so
     key-free workloads never observe it; a pkey switch rewrites it
     without touching [pt], [tag], the TLB or any cache. *)
  mutable pkru : int;
  mutable fault_handler : (va:int -> access:access -> bool) option;
}

and t = {
  platform : Platform.t;
  mem : Phys_mem.t;
  cost : Cost_model.t;
  llcs : Cache.t array; (* one per socket *)
  mutable core_list : core_state array;
  (* Per-simulation world state: id generators and the layout cursor
     for everything built on this machine. Scoped here (not globally)
     so machines are independent of each other — bit-identical results
     no matter how many machines exist or which domain runs them. *)
  ctx : Sim_ctx.t;
}

let memcpy_chunk = 4096

let create (platform : Platform.t) =
  let mem =
    Phys_mem.create_tiered ~size:platform.mem_size ~numa_nodes:platform.sockets
      ~capacity_size:platform.capacity_size
  in
  let llcs =
    Array.init platform.sockets (fun _ ->
        Cache.create ~size:platform.llc_size ~ways:platform.llc_ways ~line:platform.line)
  in
  let t =
    { platform; mem; cost = platform.cost; llcs; core_list = [||];
      ctx = Sim_ctx.create () }
  in
  let cores =
    Array.init (Platform.total_cores platform) (fun i ->
        {
          id = i;
          socket = i / platform.cores_per_socket;
          machine = t;
          cycles = 0;
          tlb = Tlb.create platform.tlb;
          l1 = Cache.create ~size:platform.l1_size ~ways:platform.l1_ways ~line:platform.line;
          pt = None;
          tag = 0;
          pkru = Pkey.default;
          fault_handler = None;
        })
  in
  t.core_list <- cores;
  (* Ambient tracing (Recorder.with_tracing): give the machine its own
     enabled recorder and point every core's TLB flush hook at it. With
     tracing off nothing is attached and the TLB hooks stay None, so the
     simulation runs exactly the pre-obs code paths. *)
  (match Sj_obs.Recorder.ambient_capacity () with
  | None -> ()
  | Some capacity ->
    Sj_obs.Recorder.attach t.ctx (Sj_obs.Recorder.create ~capacity ());
    Array.iter
      (fun c ->
        Tlb.set_obs c.tlb
          (Some
             (fun flush entries ->
               match Sj_obs.Recorder.active t.ctx with
               | Some r ->
                 Sj_obs.Recorder.emit r ~core:c.id ~cycles:c.cycles
                   (Sj_obs.Event.Tlb_flush { flush; entries })
               | None -> ())))
      cores);
  (* Ambient fault plan (Injector.with_plan): give the machine its own
     injector for the plan. With no plan nothing is attached and every
     hook site short-circuits on [active = None]. *)
  (match Sj_fault.Injector.ambient_plan () with
  | None -> ()
  | Some (plan, seed) ->
    Sj_fault.Injector.attach t.ctx (Sj_fault.Injector.create ~seed plan));
  t

let platform t = t.platform
let mem t = t.mem
let cost t = t.cost
let sim_ctx t = t.ctx

module Core = struct
  type core = core_state

  let id c = c.id
  let socket c = c.socket
  let sim_ctx c = c.machine.ctx
  let set_fault_handler c h = c.fault_handler <- h
  let cycles c = c.cycles
  let charge c n = c.cycles <- c.cycles + n
  let tlb c = c.tlb
  let current_tag c = c.tag
  let pkru c = c.pkru

  (* A WRPKRU: no CR3 write, no flush, no cache traffic — the caller
     (the Crossing layer) charges the instruction's cost. *)
  let set_pkru c reg = c.pkru <- reg

  let set_page_table c ?(tag = 0) pt =
    let m = c.machine in
    if tag < 0 || tag > Tlb.max_tag c.tlb then invalid_arg "Core.set_page_table: bad tag";
    c.pt <- pt;
    c.tag <- tag;
    (match pt with
    | None -> ()
    | Some _ ->
      charge c (if tag = 0 then m.cost.cr3_load else m.cost.cr3_load_tagged));
    if tag = 0 then Tlb.flush_nonglobal c.tlb

  (* One data access of up to a cache line: L1 -> socket LLC -> DRAM. *)
  let line_access c ~pa =
    let m = c.machine in
    if Cache.access c.l1 ~pa then charge c m.cost.l1_hit
    else if Cache.access m.llcs.(c.socket) ~pa then charge c m.cost.llc_hit
    else begin
      let node = Phys_mem.node_of_frame m.mem (Phys_mem.frame_of_addr pa) in
      charge c
        (match Phys_mem.node_kind m.mem node with
        | Phys_mem.Capacity -> m.cost.dram_capacity
        | Phys_mem.Performance ->
          if node = c.socket then m.cost.dram_local else m.cost.dram_remote)
    end

  (* Charge for all lines overlapped by [pa, pa+len). *)
  let data_access c ~pa ~len =
    let line = c.machine.platform.line in
    for l = pa / line to (pa + len - 1) / line do
      line_access c ~pa:(l * line)
    done

  let prot_allows (prot : Prot.t) access =
    match access with Read -> prot.read | Write -> prot.write

  let translate_miss c pt ~va ~access =
    let m = c.machine in
    match Page_table.walk pt ~va with
    | None -> raise (Page_fault { va; access })
    | Some mapping ->
      (* The page walker touches one table entry per level; its
         accesses go through the cache hierarchy like data. *)
      charge c (mapping.levels * m.cost.walk_per_level);
      (* A copy-on-write page is inserted (and checked) with write
         masked off, exactly as real kernels clear the PTE W bit on
         fork: the first write takes a protection fault, the fault
         handler breaks the sharing, and the retry re-walks the now
         private, writable mapping. *)
      let eff_prot =
        if mapping.cow then { mapping.prot with Prot.write = false } else mapping.prot
      in
      (* The fill caches the key *tag* only; rights come from [pkru]
         at every hit, so entries survive pkey switches unflushed. *)
      Tlb.insert c.tlb ~key:mapping.key ~tag:c.tag ~va ~pa:mapping.pa ~prot:eff_prot
        ~size:mapping.size ~global:mapping.global;
      if not (prot_allows eff_prot access) then raise (Protection_fault { va; access });
      if
        mapping.key <> 0
        && not
             (Pkey.allows c.pkru ~key:mapping.key
                ~write:(match access with Write -> true | Read -> false))
      then raise (Key_fault { va; access });
      let page = Page_table.bytes_of_page_size mapping.size in
      mapping.pa + (va land (page - 1))

  let translate_once c ~va ~access =
    let m = c.machine in
    match c.pt with
    | None -> raise No_page_table
    | Some pt ->
      charge c m.cost.tlb_hit;
      match Tlb.lookup c.tlb ~tag:c.tag ~va with
      | Some hit ->
        if not (prot_allows hit.prot access) then raise (Protection_fault { va; access });
        if
          hit.key <> 0
          && not
               (Pkey.allows c.pkru ~key:hit.key
                  ~write:(match access with Write -> true | Read -> false))
        then raise (Key_fault { va; access });
        hit.pa
      | None -> translate_miss c pt ~va ~access

  (* A faulting translation gives the installed handler a chance to
     repair the mapping (demand splits, COW) and retry. [Key_fault]
     deliberately bypasses the handler: key rights live in the
     register, not the mapping, so no repair can make the retry pass. *)
  let translate c ~va ~access =
    let rec go attempts =
      try translate_once c ~va ~access
      with (Page_fault _ | Protection_fault _) as fault -> (
        match c.fault_handler with
        | Some handler when attempts > 0 ->
          (* A stale TLB entry may be what faulted; the handler will
             change the mapping, so drop it before retrying. *)
          if handler ~va ~access then begin
            Tlb.invalidate_page c.tlb ~va;
            go (attempts - 1)
          end
          else raise fault
        | Some _ | None -> raise fault)
    in
    go 4

  let load8 c ~va =
    let pa = translate c ~va ~access:Read in
    data_access c ~pa ~len:1;
    Phys_mem.read8 c.machine.mem ~pa

  let store8 c ~va v =
    let pa = translate c ~va ~access:Write in
    data_access c ~pa ~len:1;
    Phys_mem.write8 c.machine.mem ~pa v

  (* Multi-byte accesses may cross a page boundary; split per page. *)
  let split_pages ~va ~len f =
    let pos = ref 0 in
    while !pos < len do
      let a = va + !pos in
      let chunk = min (len - !pos) (Addr.page_size - Addr.offset_in_page a) in
      f ~va:a ~off:!pos ~len:chunk;
      pos := !pos + chunk
    done

  let load64 c ~va =
    if Addr.offset_in_page va <= Addr.page_size - 8 then begin
      let pa = translate c ~va ~access:Read in
      data_access c ~pa ~len:8;
      Phys_mem.read64 c.machine.mem ~pa
    end
    else begin
      let v = ref 0L in
      for i = 7 downto 0 do
        v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (load8 c ~va:(va + i)))
      done;
      !v
    end

  let store64 c ~va v =
    if Addr.offset_in_page va <= Addr.page_size - 8 then begin
      let pa = translate c ~va ~access:Write in
      data_access c ~pa ~len:8;
      Phys_mem.write64 c.machine.mem ~pa v
    end
    else
      for i = 0 to 7 do
        store8 c ~va:(va + i) (Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xff)
      done

  (* Read-xor-write of one word: [load64] then [store64] of the xored
     value. This is GUPS's inner loop (§5, Fig. 8). *)
  let xor64 c ~va mask = store64 c ~va (Int64.logxor (load64 c ~va) mask)

  (* Bulk operations translate once per page run. *)
  let load_bytes c ~va ~len =
    let out = Bytes.create len in
    split_pages ~va ~len (fun ~va ~off ~len ->
        let pa = translate c ~va ~access:Read in
        data_access c ~pa ~len;
        Bytes.blit (Phys_mem.read_bytes c.machine.mem ~pa ~len) 0 out off len);
    out

  let store_bytes c ~va src =
    split_pages ~va ~len:(Bytes.length src) (fun ~va ~off ~len ->
        let pa = translate c ~va ~access:Write in
        data_access c ~pa ~len;
        Phys_mem.write_bytes c.machine.mem ~pa (Bytes.sub src off len))

  let touch c ~va ~access =
    let pa = translate c ~va ~access in
    data_access c ~pa ~len:1

  let memset c ~va ~len x =
    split_pages ~va ~len (fun ~va ~off:_ ~len ->
        let pa = translate c ~va ~access:Write in
        data_access c ~pa ~len;
        Phys_mem.write_bytes c.machine.mem ~pa (Bytes.make len x))

  let memcpy c ~dst ~src ~len =
    (* Chunked through a bounce buffer; charges both streams. Copies
       are sequential, so hardware prefetching and write combining
       overlap most memory stalls: refund 7/8 of the serially
       accumulated cycles (a streaming bandwidth of roughly 8x the
       dependent-access rate, representative of rep-movsb copies). *)
    let before = c.cycles in
    let pos = ref 0 in
    while !pos < len do
      let n = min memcpy_chunk (len - !pos) in
      let data = load_bytes c ~va:(src + !pos) ~len:n in
      store_bytes c ~va:(dst + !pos) data;
      pos := !pos + n
    done;
    let delta = c.cycles - before in
    charge c (-(delta - ((delta + 7) / 8)))

  let tlb_misses c = (Tlb.stats c.tlb).misses
  let tlb_hits c = (Tlb.stats c.tlb).hits
end

let core t i = t.core_list.(i)
let cores t = t.core_list

let capacity_node t = Phys_mem.capacity_node t.mem

let cool_caches t =
  Array.iter (fun c -> Cache.clear c.l1) t.core_list;
  Array.iter Cache.clear t.llcs

let alloc_pages ?node ?(contiguous = false) t ~n ~charge_to =
  let frames =
    (* Contiguous runs are 2 MiB-aligned so they are mappable with huge
       pages. *)
    if contiguous then
      Phys_mem.alloc_frames_contiguous ?node ~align:(Size.mib 2 / Addr.page_size) t.mem ~n
    else Phys_mem.alloc_frames ?node t.mem ~n
  in
  (match charge_to with
  | Some c -> Core.charge c (n * t.cost.page_zero)
  | None -> ());
  frames
