open Sj_util
module Phys_mem = Sj_mem.Phys_mem
module Pt_store = Sj_mem.Pt_store

type page_size = P4K | P2M

let bytes_of_page_size = function P4K -> Size.kib 4 | P2M -> Size.mib 2

type mapping = {
  pa : int;
  prot : Prot.t;
  key : int;
  size : page_size;
  global : bool;
  levels : int;
  cow : bool;
}

type stats = {
  mutable tables_allocated : int;
  mutable tables_freed : int;
  mutable pte_writes : int;
  mutable pte_clears : int;
}

(* Nodes live in the flat arena owned by the physical memory
   (Phys_mem.pt_store); a "node" here is an int index into it and an
   entry is one packed int, so a walk is index arithmetic over two big
   arrays instead of a chase through per-node records:

     entry = 0                                     empty
     entry land 3 = 1: (child_index lsl 2) lor 1   interior table
     entry land 3 = 3: (child_index lsl 2) lor 3   CoW-shared interior
     entry land 3 = 2: leaf —
       bits 12..   page-aligned physical base (pa's low 12 bits are 0)
       bit 11      copy-on-write (first write must trap and break)
       bits 7..10  protection key (0 = default; key rights live in the
                   per-core register, never in the entry)
       bits 4..6   protection (read=1 / write=2 / exec=4)
       bit 3       page size (1 = 2 MiB)
       bit 2       global
       bits 0..1   tag 2

   A mapping is copy-on-write iff the walk that reached it crossed a
   tag-3 entry *or* the leaf carries bit 11. Tag 3 marks the sharing
   point a fork created: everything below it belongs to several tables
   at once, so mutators must take private ownership of the child
   ([own_child]) before descending, pushing the CoW marking one level
   down as they go. Tag-1 sharing (grafted translation caches) is
   intentionally mutable in place and stays tag 1.

   Protections decode through an 8-entry intern table, so unpacking
   allocates nothing and yields structurally equal Prot values. *)
type t = {
  mem : Phys_mem.t;
  store : Pt_store.t;
  root : int;
  stats : stats;
  (* Host-side memo of the last level-1 table written by a 4 KiB [map]:
     sequential attach loops install 512 leaves per table, and the memo
     turns 511 of those root-down descents into one array read. Valid
     while (a) the store has freed no node since it was recorded — node
     indices are only recycled through [Pt_store.free], so an unchanged
     count proves the index still names the same table — and (b) no
     [prune_subtree] detached part of *this* tree without freeing it
     (a shared subtree survives with refs > 0). Descending an existing
     chain touches no stats, so a memo hit is observably identical to
     the walk it skips. *)
  mutable memo_block : int; (* va lsr 21; -1 = empty *)
  mutable memo_node : int;
  mutable memo_frees : int;
}

type subtree = { s_idx : int; s_level : int }

let fresh_stats () = { tables_allocated = 0; tables_freed = 0; pte_writes = 0; pte_clears = 0 }

(* Structural-change epoch, kept per *physical memory*: interior
   subtrees may be shared between roots (grafting), so a mutation
   through one root can be visible in walks of another — but only among
   tables over the same [Phys_mem.t]. Walk caches self-invalidate
   whenever any table over that memory changed, which is trivially
   sound, costs nothing on the mutation-free hot loops the caches
   target, and keeps independent simulations (each with its own
   physical memory) from invalidating each other's caches. The epoch
   also covers node-index reuse: indices are only allocated or freed
   under a [dirty], so a cache can never see a recycled index as the
   node it once cached. *)
let dirty t = Phys_mem.bump_pt_epoch t.mem

let prot_index (p : Prot.t) =
  (if p.read then 1 else 0) lor (if p.write then 2 else 0) lor (if p.exec then 4 else 0)

let prots =
  Array.init 8 (fun i ->
      { Prot.read = i land 1 <> 0; write = i land 2 <> 0; exec = i land 4 <> 0 })

let e_table idx = (idx lsl 2) lor 1
let e_cow_table idx = (idx lsl 2) lor 3
let cow_bit = 2048 (* bit 11 of a leaf *)
let write_bit = 2 lsl 4 (* Prot.write within a leaf's bits 4..6 *)

let e_leaf ?(key = 0) ?(cow = false) ~pa ~prot ~size ~global () =
  pa
  lor (if cow then cow_bit else 0)
  lor (key lsl 7)
  lor (prot_index prot lsl 4)
  lor (match size with P2M -> 8 | P4K -> 0)
  lor (if global then 4 else 0)
  lor 2

let leaf_pa e = e land lnot 4095
let leaf_prot e = Array.unsafe_get prots ((e lsr 4) land 7)
let leaf_key e = (e lsr 7) land 15
let leaf_size e = if e land 8 <> 0 then P2M else P4K
let leaf_global e = e land 4 <> 0
let leaf_cow e = e land cow_bit <> 0

let check_key key name =
  if key < 0 || key > Pkey.max_key then
    invalid_arg (Printf.sprintf "Page_table.%s: key %d out of range" name key)

let alloc_node t ~level =
  t.stats.tables_allocated <- t.stats.tables_allocated + 1;
  let frame = Phys_mem.alloc_frame t.mem in
  Pt_store.alloc t.store ~level ~frame:(frame :> int)

let create mem =
  let stats = fresh_stats () in
  let store = Phys_mem.pt_store mem in
  let frame = Phys_mem.alloc_frame mem in
  let root = Pt_store.alloc store ~level:4 ~frame:(frame :> int) in
  stats.tables_allocated <- stats.tables_allocated + 1;
  Phys_mem.pt_register_root mem root;
  { mem; store; root; stats; memo_block = -1; memo_node = -1; memo_frees = 0 }

let frame_of_node t idx =
  Phys_mem.frame_of_addr (Pt_store.frame t.store idx * Addr.page_size)

let root_frame t = frame_of_node t t.root
let stats t = t.stats

let reset_stats t =
  t.stats.tables_allocated <- 0;
  t.stats.tables_freed <- 0;
  t.stats.pte_writes <- 0;
  t.stats.pte_clears <- 0

let index_at ~level va =
  match level with
  | 4 -> Addr.pml4_index va
  | 3 -> Addr.pdpt_index va
  | 2 -> Addr.pd_index va
  | 1 -> Addr.pt_index va
  | _ -> invalid_arg "Page_table.index_at: bad level"

(* Level at which a leaf for the given page size lives. *)
let leaf_level = function P4K -> 1 | P2M -> 2

(* [count_clears] makes freeing a table charge one [pte_clears] per
   live (non-Empty) slot, modelling the teardown walk that zeroes each
   PTE before the frame is returned. Incremental unmap/prune paths keep
   the default [false]: they already account for the single slot they
   clear, and the tables they release are empty by construction. *)
let rec decref ?(count_clears = false) t node =
  let store = t.store in
  Pt_store.set_refs store node (Pt_store.refs store node - 1);
  if Pt_store.refs store node = 0 then begin
    for i = 0 to Pt_store.slots - 1 do
      let e = Pt_store.get store node i in
      match e land 3 with
      | 1 | 3 ->
        if count_clears then t.stats.pte_clears <- t.stats.pte_clears + 1;
        decref ~count_clears t (e lsr 2)
      | 2 -> if count_clears then t.stats.pte_clears <- t.stats.pte_clears + 1
      | _ -> ()
    done;
    Phys_mem.free_frame t.mem (frame_of_node t node);
    Pt_store.free store node;
    t.stats.tables_freed <- t.stats.tables_freed + 1
  end

let destroy t =
  dirty t;
  Phys_mem.pt_unregister_root t.mem t.root;
  decref ~count_clears:true t t.root

let check_aligned va size name =
  if va land (bytes_of_page_size size - 1) <> 0 then
    invalid_arg (Printf.sprintf "Page_table.%s: address %s not %s-aligned" name
                   (Addr.to_string va) (Size.to_string (bytes_of_page_size size)))

(* Descend to the table holding the slot for [va] at [target_level],
   creating intermediate tables when [create_missing]; -1 = absent.
   Read-only callers only: a tag-3 (CoW-shared) crossing is followed in
   place, so the returned node may belong to several tables at once. *)
let rec descend t node ~va ~target_level ~create_missing =
  let level = Pt_store.level t.store node in
  if level = target_level then node
  else
    let i = index_at ~level va in
    let e = Pt_store.get t.store node i in
    match e land 3 with
    | 1 | 3 -> descend t (e lsr 2) ~va ~target_level ~create_missing
    | 2 ->
      invalid_arg
        (Printf.sprintf "Page_table: %s already covered by a larger mapping" (Addr.to_string va))
    | _ ->
      if not create_missing then -1
      else begin
        let child = alloc_node t ~level:(level - 1) in
        Pt_store.set t.store node i (e_table child);
        Pt_store.set_live t.store node (Pt_store.live t.store node + 1);
        t.stats.pte_writes <- t.stats.pte_writes + 1;
        descend t child ~va ~target_level ~create_missing
      end

(* Take private ownership of the CoW-shared child behind slot [i] of
   [node] (the entry must be tag 3). Returns the now-privately-owned
   child index, with the parent slot retagged to 1.

   Sole owner (refs = 1, the other family members are gone): adopt the
   node in place, but push the CoW marking one level down first — every
   interior entry becomes tag 3 and every leaf gains bit 11. A plain
   retag would be wrong: the *frames* under those leaves may still be
   shared through CoW-cloned objects, so first writes must keep
   trapping.

   Shared (refs > 1): allocate a private copy whose interior entries
   are tag-3 references to the original's children (each increffed) and
   whose leaves carry bit 11, then drop one reference on the original.
   Either way the charge is one PTE write per entry actually written,
   plus one for the parent slot — exactly the work a kernel would do. *)
let own_child t node i =
  let store = t.store in
  let e = Pt_store.get store node i in
  let child = e lsr 2 in
  if Pt_store.refs store child = 1 then begin
    Pt_store.set store node i (e_table child);
    t.stats.pte_writes <- t.stats.pte_writes + 1;
    for j = 0 to Pt_store.slots - 1 do
      let ej = Pt_store.get store child j in
      match ej land 3 with
      | 1 ->
        Pt_store.set store child j (ej lor 2);
        t.stats.pte_writes <- t.stats.pte_writes + 1
      | 2 when ej land cow_bit = 0 ->
        Pt_store.set store child j (ej lor cow_bit);
        t.stats.pte_writes <- t.stats.pte_writes + 1
      | _ -> ()
    done;
    child
  end
  else begin
    let copy = alloc_node t ~level:(Pt_store.level store child) in
    let live = ref 0 in
    for j = 0 to Pt_store.slots - 1 do
      let ej = Pt_store.get store child j in
      match ej land 3 with
      | 1 | 3 ->
        let g = ej lsr 2 in
        Pt_store.set_refs store g (Pt_store.refs store g + 1);
        Pt_store.set store copy j (e_cow_table g);
        incr live;
        t.stats.pte_writes <- t.stats.pte_writes + 1
      | 2 ->
        Pt_store.set store copy j (ej lor cow_bit);
        incr live;
        t.stats.pte_writes <- t.stats.pte_writes + 1
      | _ -> ()
    done;
    Pt_store.set_live store copy !live;
    Pt_store.set store node i (e_table copy);
    t.stats.pte_writes <- t.stats.pte_writes + 1;
    decref t child;
    copy
  end

(* [descend] for mutators: a tag-3 crossing takes private ownership of
   the child first, so structural changes never reach a shared node.
   Callers have already [dirty]'d the tree. *)
let rec descend_owned t node ~va ~target_level ~create_missing =
  let level = Pt_store.level t.store node in
  if level = target_level then node
  else
    let i = index_at ~level va in
    let e = Pt_store.get t.store node i in
    match e land 3 with
    | 1 -> descend_owned t (e lsr 2) ~va ~target_level ~create_missing
    | 3 -> descend_owned t (own_child t node i) ~va ~target_level ~create_missing
    | 2 ->
      invalid_arg
        (Printf.sprintf "Page_table: %s already covered by a larger mapping" (Addr.to_string va))
    | _ ->
      if not create_missing then -1
      else begin
        let child = alloc_node t ~level:(level - 1) in
        Pt_store.set t.store node i (e_table child);
        Pt_store.set_live t.store node (Pt_store.live t.store node + 1);
        t.stats.pte_writes <- t.stats.pte_writes + 1;
        descend_owned t child ~va ~target_level ~create_missing
      end

let map ?(global = false) ?(key = 0) t ~va ~pa ~prot ~size =
  dirty t;
  check_aligned va size "map";
  check_aligned pa size "map";
  check_key key "map";
  if va < 0 || va >= Addr.va_limit then invalid_arg "Page_table.map: VA out of range";
  let level = leaf_level size in
  let node =
    let block = va lsr 21 in
    if level = 1 && t.memo_block = block
       && t.memo_frees = Pt_store.free_count t.store
    then t.memo_node
    else begin
      let n = descend_owned t t.root ~va ~target_level:level ~create_missing:true in
      assert (n >= 0);
      if level = 1 then begin
        t.memo_block <- block;
        t.memo_node <- n;
        t.memo_frees <- Pt_store.free_count t.store
      end;
      n
    end
  in
  let i = index_at ~level va in
  if Pt_store.get t.store node i = 0 then begin
    Pt_store.set t.store node i (e_leaf ~key ~pa ~prot ~size ~global ());
    Pt_store.set_live t.store node (Pt_store.live t.store node + 1);
    t.stats.pte_writes <- t.stats.pte_writes + 1
  end
  else invalid_arg (Printf.sprintf "Page_table.map: %s already mapped" (Addr.to_string va))

(* Map [n] consecutive 4 KiB pages starting at [va], page [i] backed by
   [frames.(off + i)], without write permission where [read_only
   (off + i)] holds. Observably identical to [n] single [map] calls —
   same PTEs, same stats and live counts, the same error text on a
   mid-run occupied slot — but each 2 MiB leaf table is located once
   for its whole 512-page run instead of once per page. Segment attach
   loops, CoW ones included, live on this path. *)
let map_run ?(global = false) ?(key = 0) ?read_only t ~va ~n ~frames ~off ~prot =
  if n > 0 then begin
    dirty t;
    check_aligned va P4K "map";
    check_key key "map";
    if va < 0 || va + ((n - 1) * Addr.page_size) >= Addr.va_limit then
      invalid_arg "Page_table.map: VA out of range";
    if off < 0 || off + n > Array.length frames then
      invalid_arg "Page_table.map: frame range";
    let store = t.store in
    let bits =
      (key lsl 7) lor (prot_index prot lsl 4) lor (if global then 4 else 0) lor 2
    in
    let bits_ro = bits land lnot write_bit in
    let i = ref 0 in
    while !i < n do
      let va_i = va + (!i * Addr.page_size) in
      let block = va_i lsr 21 in
      let node =
        if t.memo_block = block && t.memo_frees = Pt_store.free_count store
        then t.memo_node
        else begin
          let nd = descend_owned t t.root ~va:va_i ~target_level:1 ~create_missing:true in
          assert (nd >= 0);
          t.memo_block <- block;
          t.memo_node <- nd;
          t.memo_frees <- Pt_store.free_count store;
          nd
        end
      in
      let slot0 = index_at ~level:1 va_i in
      let run = min (n - !i) (Pt_store.slots - slot0) in
      (* Pages before a failure are all written (the loop stops at the
         first occupied slot), so accounting for [j] pages after the
         loop — before raising — leaves exactly the state a loop of
         single [map] calls would. *)
      let j = ref 0 in
      let fail = ref false in
      while (not !fail) && !j < run do
        let slot = slot0 + !j in
        if Pt_store.get store node slot = 0 then begin
          let k = off + !i + !j in
          let bits = match read_only with Some ro when ro k -> bits_ro | _ -> bits in
          Pt_store.set store node slot
            (Phys_mem.base_of_frame (Array.unsafe_get frames k) lor bits);
          incr j
        end
        else fail := true
      done;
      Pt_store.set_live store node (Pt_store.live store node + !j);
      t.stats.pte_writes <- t.stats.pte_writes + !j;
      if !fail then
        invalid_arg
          (Printf.sprintf "Page_table.map: %s already mapped"
             (Addr.to_string (va + ((!i + !j) * Addr.page_size))));
      i := !i + run
    done
  end

(* Remove a leaf and prune now-empty exclusively-owned interior tables. *)
let unmap t ~va ~size =
  dirty t;
  check_aligned va size "unmap";
  let level = leaf_level size in
  let store = t.store in
  let rec go node =
    if Pt_store.level store node = level then begin
      let i = index_at ~level va in
      if Pt_store.get store node i land 3 = 2 then begin
        Pt_store.set store node i 0;
        Pt_store.set_live store node (Pt_store.live store node - 1);
        t.stats.pte_clears <- t.stats.pte_clears + 1
      end
      else invalid_arg (Printf.sprintf "Page_table.unmap: %s not mapped" (Addr.to_string va))
    end
    else begin
      let i = index_at ~level:(Pt_store.level store node) va in
      let e = Pt_store.get store node i in
      if e land 3 = 1 || e land 3 = 3 then begin
        (* Unmapping through a CoW-shared subtree first takes private
           ownership: the siblings sharing it must keep the mapping. *)
        let child = if e land 3 = 3 then own_child t node i else e lsr 2 in
        go child;
        if Pt_store.live store child = 0 && Pt_store.refs store child = 1 then begin
          Pt_store.set store node i 0;
          Pt_store.set_live store node (Pt_store.live store node - 1);
          t.stats.pte_clears <- t.stats.pte_clears + 1;
          decref t child
        end
      end
      else invalid_arg (Printf.sprintf "Page_table.unmap: %s not mapped" (Addr.to_string va))
    end
  in
  go t.root

let mapping_of_leaf e ~levels ~cow =
  {
    pa = leaf_pa e;
    prot = leaf_prot e;
    key = leaf_key e;
    size = leaf_size e;
    global = leaf_global e;
    levels;
    cow = cow || leaf_cow e;
  }

let walk t ~va =
  if va < 0 || va >= Addr.va_limit then None
  else begin
    let store = t.store in
    let rec go node level levels cow =
      let e = Pt_store.get store node (index_at ~level va) in
      match e land 3 with
      | 1 -> go (e lsr 2) (level - 1) (levels + 1) cow
      | 3 -> go (e lsr 2) (level - 1) (levels + 1) true
      | 2 -> Some (mapping_of_leaf e ~levels ~cow)
      | _ -> None
    in
    go t.root 4 1 false
  end

(* ---- Software page-walk cache (a per-core paging-structure cache) ----

   Caches indices of the interior tables (PDPT / PD / PT) that
   translate the most recent 512 GiB / 1 GiB / 2 MiB span, so a walk
   with spatial locality descends 1-2 levels instead of 4. Entries are
   validated against the owning memory's structural epoch; the returned
   [mapping] (including [levels], which counts the tables the *full*
   walk would touch) is identical to {!walk}'s because with no
   structural change the full walk would reach the very same nodes. *)

type walk_cache = {
  mutable owner : t option; (* physical identity of the cached tree *)
  mutable wgen : int;
  mutable base_l1 : int; (* 2 MiB span base; -1 = empty *)
  mutable node_l1 : int; (* node index; -1 = none *)
  mutable cow_l1 : bool; (* walk to node crossed a tag-3 entry *)
  mutable base_l2 : int; (* 1 GiB span base *)
  mutable node_l2 : int;
  mutable cow_l2 : bool;
  mutable base_l3 : int; (* 512 GiB span base *)
  mutable node_l3 : int;
  mutable cow_l3 : bool;
}

let span_l1 = 1 lsl 21
let span_l2 = 1 lsl 30
let span_l3 = 1 lsl 39

let walk_cache_create () =
  {
    owner = None;
    wgen = -1;
    base_l1 = -1;
    node_l1 = -1;
    cow_l1 = false;
    base_l2 = -1;
    node_l2 = -1;
    cow_l2 = false;
    base_l3 = -1;
    node_l3 = -1;
    cow_l3 = false;
  }

let walk_cache_reset wc =
  wc.owner <- None;
  wc.wgen <- -1;
  wc.base_l1 <- -1;
  wc.node_l1 <- -1;
  wc.cow_l1 <- false;
  wc.base_l2 <- -1;
  wc.node_l2 <- -1;
  wc.cow_l2 <- false;
  wc.base_l3 <- -1;
  wc.node_l3 <- -1;
  wc.cow_l3 <- false

let rec descend_cached t wc node level levels cow ~va =
  (* Record the interior nodes we pass — and whether the walk down to
     them crossed a CoW-shared entry — so the next walk can resume
     deeper without forgetting cow-ness. Skip the store when the span
     is already recorded (same epoch => it is necessarily the same
     node, reached the same way). *)
  (match level with
  | 3 ->
    let b = va land lnot (span_l3 - 1) in
    if wc.base_l3 <> b then begin
      wc.base_l3 <- b;
      wc.node_l3 <- node;
      wc.cow_l3 <- cow
    end
  | 2 ->
    let b = va land lnot (span_l2 - 1) in
    if wc.base_l2 <> b then begin
      wc.base_l2 <- b;
      wc.node_l2 <- node;
      wc.cow_l2 <- cow
    end
  | 1 ->
    let b = va land lnot (span_l1 - 1) in
    if wc.base_l1 <> b then begin
      wc.base_l1 <- b;
      wc.node_l1 <- node;
      wc.cow_l1 <- cow
    end
  | _ -> ());
  let e = Pt_store.get t.store node (index_at ~level va) in
  match e land 3 with
  | 1 -> descend_cached t wc (e lsr 2) (level - 1) (levels + 1) cow ~va
  | 3 -> descend_cached t wc (e lsr 2) (level - 1) (levels + 1) true ~va
  | 2 -> Some (mapping_of_leaf e ~levels ~cow)
  | _ -> None

let walk_cached t wc ~va =
  if va < 0 || va >= Addr.va_limit then None
  else begin
    (match wc.owner with
    | Some o when o == t && wc.wgen = Phys_mem.pt_epoch t.mem -> ()
    | _ ->
      walk_cache_reset wc;
      wc.owner <- Some t;
      wc.wgen <- Phys_mem.pt_epoch t.mem);
    (* Resume from the deepest cached node covering [va]; a node at
       level L is reached by the full walk with [levels] = 5 - L. *)
    if wc.node_l1 >= 0 && wc.base_l1 = va land lnot (span_l1 - 1) then
      descend_cached t wc wc.node_l1 1 4 wc.cow_l1 ~va
    else if wc.node_l2 >= 0 && wc.base_l2 = va land lnot (span_l2 - 1) then
      descend_cached t wc wc.node_l2 2 3 wc.cow_l2 ~va
    else if wc.node_l3 >= 0 && wc.base_l3 = va land lnot (span_l3 - 1) then
      descend_cached t wc wc.node_l3 3 2 wc.cow_l3 ~va
    else descend_cached t wc t.root 4 1 false ~va
  end

let protect t ~va ~size ~prot =
  dirty t;
  check_aligned va size "protect";
  let level = leaf_level size in
  let node = descend_owned t t.root ~va ~target_level:level ~create_missing:false in
  if node < 0 then invalid_arg "Page_table.protect: not mapped"
  else begin
    let i = index_at ~level va in
    let e = Pt_store.get t.store node i in
    if e land 3 = 2 then begin
      Pt_store.set t.store node i (e land lnot (7 lsl 4) lor (prot_index prot lsl 4));
      t.stats.pte_writes <- t.stats.pte_writes + 1
    end
    else invalid_arg "Page_table.protect: not mapped"
  end

(* Read-only locate of the level-1 table translating [va], following
   tag-3 crossings in place (the table may be shared): -1 when a hole or
   a read-only larger leaf covers [va], -2 when a writable larger leaf
   does. *)
let rec leaf_table t node ~va =
  let level = Pt_store.level t.store node in
  if level = 1 then node
  else
    let e = Pt_store.get t.store node (index_at ~level va) in
    match e land 3 with
    | 1 | 3 -> leaf_table t (e lsr 2) ~va
    | 2 when e land write_bit <> 0 -> -2
    | _ -> -1

(* Clear the write bit of every mapped, writable leaf among the [n]
   4 KiB pages from [va]. Observably identical to walking each page and
   [protect]ing the writable ones read-only — same PTEs, stats, tables
   owned and error text — but each 2 MiB leaf table is located once,
   read-only, and ownership of shared tables is taken only at the first
   leaf of the table that needs clearing, from the same page the
   per-page loop would take it. *)
let write_protect_run t ~va ~n =
  if n > 0 then begin
    check_aligned va P4K "protect";
    if va < 0 || va + ((n - 1) * Addr.page_size) >= Addr.va_limit then
      invalid_arg "Page_table.protect: VA out of range";
    let store = t.store in
    let i = ref 0 in
    while !i < n do
      let va_i = va + (!i * Addr.page_size) in
      let slot0 = index_at ~level:1 va_i in
      let run = min (n - !i) (Pt_store.slots - slot0) in
      let node = leaf_table t t.root ~va:va_i in
      if node = -2 then begin
        (* The per-page loop's [protect] takes ownership down to the
           larger leaf and raises there; so does this. *)
        dirty t;
        ignore (descend_owned t t.root ~va:va_i ~target_level:1 ~create_missing:false)
      end
      else if node >= 0 then begin
        let owned = ref (-1) in
        for s = slot0 to slot0 + run - 1 do
          let e = Pt_store.get store (if !owned >= 0 then !owned else node) s in
          if e land 3 = 2 && e land write_bit <> 0 then begin
            if !owned < 0 then begin
              dirty t;
              owned :=
                descend_owned t t.root
                  ~va:(va_i + ((s - slot0) * Addr.page_size))
                  ~target_level:1 ~create_missing:false
            end;
            Pt_store.set store !owned s (Pt_store.get store !owned s land lnot write_bit);
            t.stats.pte_writes <- t.stats.pte_writes + 1
          end
        done
      end;
      i := !i + run
    done
  end

(* Retag an existing leaf. Mirrors [protect]: rewrites only the key
   bits (7..10), so protections, page size and the global bit survive —
   and, like [protect], counts one PTE write. *)
let set_key t ~va ~size ~key =
  dirty t;
  check_aligned va size "set_key";
  check_key key "set_key";
  let level = leaf_level size in
  let node = descend_owned t t.root ~va ~target_level:level ~create_missing:false in
  if node < 0 then invalid_arg "Page_table.set_key: not mapped"
  else begin
    let i = index_at ~level va in
    let e = Pt_store.get t.store node i in
    if e land 3 = 2 then begin
      Pt_store.set t.store node i (e land lnot (15 lsl 7) lor (key lsl 7));
      t.stats.pte_writes <- t.stats.pte_writes + 1
    end
    else invalid_arg "Page_table.set_key: not mapped"
  end

let map_range ?(global = false) ?(key = 0) t ~va ~frames ~prot =
  map_run ~global ~key t ~va ~n:(Array.length frames) ~frames ~off:0 ~prot

let unmap_range t ~va ~pages =
  for i = 0 to pages - 1 do
    unmap t ~va:(va + (i * Addr.page_size)) ~size:P4K
  done

let subtree_level (n : subtree) = n.s_level

let span_of_level = function
  | 3 -> 1 lsl 39 (* a PML4 slot: 512 GiB *)
  | 2 -> 1 lsl 30 (* a PDPT slot: 1 GiB *)
  | 1 -> 1 lsl 21 (* a PD slot: 2 MiB *)
  | _ -> invalid_arg "Page_table: shareable levels are 1, 2, 3"

let extract_subtree t ~va ~level =
  let span = span_of_level level in
  let base = Size.round_down va ~align:span in
  let parent = descend t t.root ~va:base ~target_level:(level + 1) ~create_missing:false in
  if parent < 0 then None
  else begin
    let i = index_at ~level:(level + 1) base in
    let e = Pt_store.get t.store parent i in
    match e land 3 with
    | 1 | 3 ->
      let child = e lsr 2 in
      Pt_store.set_refs t.store child (Pt_store.refs t.store child + 1);
      Phys_mem.pt_register_handle t.mem child;
      Some { s_idx = child; s_level = level }
    | 2 -> invalid_arg "Page_table.extract_subtree: slot holds a large-page leaf"
    | _ -> None
  end

let graft_subtree t ~va (sub : subtree) =
  dirty t;
  let span = span_of_level sub.s_level in
  if va land (span - 1) <> 0 then
    invalid_arg "Page_table.graft_subtree: address not aligned to subtree span";
  let parent = descend_owned t t.root ~va ~target_level:(sub.s_level + 1) ~create_missing:true in
  assert (parent >= 0);
  let i = index_at ~level:(sub.s_level + 1) va in
  if Pt_store.get t.store parent i = 0 then begin
    Pt_store.set_refs t.store sub.s_idx (Pt_store.refs t.store sub.s_idx + 1);
    Pt_store.set t.store parent i (e_table sub.s_idx);
    Pt_store.set_live t.store parent (Pt_store.live t.store parent + 1);
    t.stats.pte_writes <- t.stats.pte_writes + 1
  end
  else invalid_arg "Page_table.graft_subtree: slot occupied"

let prune_subtree t ~va ~level =
  dirty t;
  (* The detached subtree may survive (shared refs), so the free count
     alone cannot witness that the memoized table left this tree. *)
  t.memo_block <- -1;
  let span = span_of_level level in
  let base = Size.round_down va ~align:span in
  let parent = descend_owned t t.root ~va:base ~target_level:(level + 1) ~create_missing:false in
  if parent < 0 then invalid_arg "Page_table.prune_subtree: not present"
  else begin
    let i = index_at ~level:(level + 1) base in
    let e = Pt_store.get t.store parent i in
    if e land 3 = 1 || e land 3 = 3 then begin
      Pt_store.set t.store parent i 0;
      Pt_store.set_live t.store parent (Pt_store.live t.store parent - 1);
      t.stats.pte_clears <- t.stats.pte_clears + 1;
      decref t (e lsr 2)
    end
    else invalid_arg "Page_table.prune_subtree: not present"
  end

let release_subtree t (sub : subtree) =
  Phys_mem.pt_unregister_handle t.mem sub.s_idx;
  decref t sub.s_idx

let rec count_leaves t node =
  let acc = ref 0 in
  for i = 0 to Pt_store.slots - 1 do
    let e = Pt_store.get t.store node i in
    match e land 3 with
    | 1 | 3 -> acc := !acc + count_leaves t (e lsr 2)
    | 2 -> incr acc
    | _ -> ()
  done;
  !acc

let entries_mapped t = count_leaves t t.root

(* ---- Copy-on-write cloning (fork) ----------------------------------- *)

(* Share [t]'s top-level subtrees with a fresh table instead of
   deep-copying them. Each accepted PML4 slot is increffed once and
   installed tag-3 in the clone; the *source* slot is retagged tag-3
   too (if it was not already), so writes on either side of the fork
   take the own_child path. [share] filters by PML4 slot index —
   process-private spans and attachment spans fork differently. The
   charge is one PTE write per slot written (clone) or retagged
   (source); no table is copied, which is the whole point. *)
let clone_cow ?(share = fun _ -> true) t =
  dirty t;
  (* The memo'd level-1 table is inside a now-shared subtree: a map
     through it would mutate the whole family. Retagging frees nothing,
     so the free-count check alone would not catch this. *)
  t.memo_block <- -1;
  let clone = create t.mem in
  let store = t.store in
  for i = 0 to Pt_store.slots - 1 do
    let e = Pt_store.get store t.root i in
    match e land 3 with
    | (1 | 3) when share i ->
      let child = e lsr 2 in
      Pt_store.set_refs store child (Pt_store.refs store child + 1);
      Pt_store.set store clone.root i (e_cow_table child);
      Pt_store.set_live store clone.root (Pt_store.live store clone.root + 1);
      clone.stats.pte_writes <- clone.stats.pte_writes + 1;
      if e land 3 = 1 then begin
        Pt_store.set store t.root i (e_cow_table child);
        t.stats.pte_writes <- t.stats.pte_writes + 1
      end
    | 2 -> invalid_arg "Page_table.clone_cow: root-level leaf"
    | _ -> ()
  done;
  clone

(* Break copy-on-write for the page at [va]: repoint its leaf at the
   private frame [pa] and clear bit 11, taking ownership of every
   shared table on the walk down. The caller (the fault path) owns
   frame allocation and byte copying — this is only the PTE surgery,
   charged at one PTE write per entry touched. *)
let break_cow t ~va ~pa =
  dirty t;
  t.memo_block <- -1;
  let store = t.store in
  let rec go node =
    let level = Pt_store.level store node in
    let i = index_at ~level va in
    let e = Pt_store.get store node i in
    match e land 3 with
    | 1 -> go (e lsr 2)
    | 3 -> go (own_child t node i)
    | 2 ->
      let size = leaf_size e in
      check_aligned pa size "break_cow";
      Pt_store.set store node i
        (e_leaf ~key:(leaf_key e) ~pa ~prot:(leaf_prot e) ~size ~global:(leaf_global e) ());
      t.stats.pte_writes <- t.stats.pte_writes + 1
    | _ ->
      invalid_arg
        (Printf.sprintf "Page_table.break_cow: %s not mapped" (Addr.to_string va))
  in
  go t.root

(* Reachable interior tables, and how many of them sit under a tag-3
   crossing (sticky: a shared parent makes the whole subtree shared).
   Feeds the fork event payload and the > 90 %-shared bench claim. *)
let count_nodes t =
  let store = t.store in
  let seen = Hashtbl.create 64 in
  let total = ref 0 and shared = ref 0 in
  let rec go node ~cow =
    if not (Hashtbl.mem seen node) then begin
      Hashtbl.replace seen node ();
      incr total;
      if cow then incr shared;
      for i = 0 to Pt_store.slots - 1 do
        let e = Pt_store.get store node i in
        match e land 3 with
        | 1 -> go (e lsr 2) ~cow
        | 3 -> go (e lsr 2) ~cow:true
        | _ -> ()
      done
    end
  in
  go t.root ~cow:false;
  (!total, !shared)

(* ---- Refcount audit -------------------------------------------------- *)

type audit = {
  a_nodes : int;
  a_shared : int;
  a_leaked : int;
  a_imbalanced : (int * int * int) list;
}

(* Recompute every live node's expected refcount from first principles:
   its indegree over the entries reachable from the registered roots
   and extracted-subtree handles, plus one per appearance in either
   registry. Any mismatch means an incref/decref bug; any live node
   never reached means a leak. Per-[Phys_mem.t] on purpose — a global
   registry would race across simulation domains. *)
let audit mem =
  let store = Phys_mem.pt_store mem in
  let expected = Hashtbl.create 256 in
  let bump n =
    Hashtbl.replace expected n
      (1 + Option.value ~default:0 (Hashtbl.find_opt expected n))
  in
  let seen = Hashtbl.create 256 in
  let rec go node =
    if not (Hashtbl.mem seen node) then begin
      Hashtbl.replace seen node ();
      for i = 0 to Pt_store.slots - 1 do
        let e = Pt_store.get store node i in
        match e land 3 with
        | 1 | 3 ->
          bump (e lsr 2);
          go (e lsr 2)
        | _ -> ()
      done
    end
  in
  List.iter
    (fun r ->
      bump r;
      go r)
    (Phys_mem.pt_roots mem);
  List.iter
    (fun h ->
      bump h;
      go h)
    (Phys_mem.pt_handles mem);
  let shared = ref 0 and imbalanced = ref [] in
  Hashtbl.iter
    (fun n exp ->
      let r = Pt_store.refs store n in
      if r > 1 then incr shared;
      if r <> exp then imbalanced := (n, r, exp) :: !imbalanced)
    expected;
  {
    a_nodes = Pt_store.live_count store;
    a_shared = !shared;
    a_leaked = Pt_store.live_count store - Hashtbl.length seen;
    a_imbalanced = List.sort compare !imbalanced;
  }
