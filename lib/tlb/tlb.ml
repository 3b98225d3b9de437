open Sj_util
open Sj_paging

type config = { sets_4k : int; ways_4k : int; entries_2m : int; tag_bits : int }

let default_config = { sets_4k = 256; ways_4k = 4; entries_2m = 32; tag_bits = 12 }

type hit = { pa : int; prot : Prot.t; key : int; size : Page_table.page_size }

type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable insertions : int;
  mutable evictions : int;
  mutable flushes : int;
  mutable flushed_entries : int;
}

type entry = {
  mutable valid : bool;
  mutable vbase : int; (* virtual base of the translated page *)
  mutable tag : int;
  mutable global : bool;
  mutable pa : int; (* physical base of the page *)
  mutable prot : Prot.t;
  (* Protection-key *tag* of the PTE, never its rights: key rights are
     evaluated against the core's current register at every hit, so a
     pkey switch changes what resident entries permit without touching
     them (zero flushes — the whole point of the mechanism). *)
  mutable key : int;
  mutable last_use : int;
}

type t = {
  cfg : config;
  array_4k : entry array array; (* [set].[way] *)
  array_2m : entry array;
  stats : stats;
  mutable clock : int;
  (* Per-set counts of valid entries. They let flushes skip provably
     empty sets, so a flush costs O(resident entries), not O(capacity) —
     the dominant host cost of switch-heavy workloads (every untagged
     vas_switch is a flush_nonglobal over all sets). Stats are
     unaffected: a skipped set contributes zero flushed entries either
     way. *)
  valid_4k : int array;
  (* Worklist of 4 KiB set indices that *may* hold valid entries: every
     set whose count went 0 -> 1 is pushed, and flushes visit only the
     worklist instead of striding all [sets_4k] counters. Entries can
     be stale (the count fell back to 0) or duplicated (refilled while
     a stale entry remained) — both are harmless, since visits re-check
     the count — and flushes compact the list to the survivors. If the
     list ever fills, [occ_overflow] falls back to the full stride once
     and rebuilds. Purely host-side: which entries a flush drops, and
     every stat, is identical with or without the list. *)
  occ : int array;
  mutable n_occ : int;
  mutable occ_overflow : bool;
  mutable valid_2m : int;
  (* Observability hook, installed by Machine.create when tracing is on;
     called once per flush operation with the flush kind and the number
     of entries invalidated. None (the default) costs one test per
     flush — nothing on lookup/insert hot paths. *)
  mutable obs : (Sj_obs.Event.flush_kind -> int -> unit) option;
}

let fresh_entry () =
  {
    valid = false;
    vbase = 0;
    tag = 0;
    global = false;
    pa = 0;
    prot = Prot.none;
    key = 0;
    last_use = 0;
  }

let fresh_stats () =
  { hits = 0; misses = 0; insertions = 0; evictions = 0; flushes = 0; flushed_entries = 0 }

(* 4 KiB set rows are allocated on first insert; untouched sets share
   this sentinel (tested by physical equality). [probe_set] and
   [kill_where] treat the empty row as what it is — a set with no
   entries — so only [insert] needs to materialize rows, and creating
   a TLB no longer allocates sets*ways entry records up front. *)
let no_ways : entry array = [||]

let create cfg =
  if not (Size.is_power_of_two cfg.sets_4k) then invalid_arg "Tlb.create: sets_4k";
  if cfg.ways_4k <= 0 || cfg.entries_2m <= 0 then invalid_arg "Tlb.create: sizes";
  {
    cfg;
    array_4k = Array.make cfg.sets_4k no_ways;
    array_2m = Array.init cfg.entries_2m (fun _ -> fresh_entry ());
    stats = fresh_stats ();
    clock = 0;
    valid_4k = Array.make cfg.sets_4k 0;
    occ = Array.make cfg.sets_4k 0;
    n_occ = 0;
    occ_overflow = false;
    valid_2m = 0;
    obs = None;
  }

let set_obs t hook = t.obs <- hook

let notify_flush t kind entries =
  match t.obs with None -> () | Some f -> f kind entries

let config t = t.cfg
let stats t = t.stats

let note_occupied t set_idx =
  if t.n_occ < Array.length t.occ then begin
    t.occ.(t.n_occ) <- set_idx;
    t.n_occ <- t.n_occ + 1
  end
  else t.occ_overflow <- true

let reset_stats t =
  let s = t.stats in
  s.hits <- 0;
  s.misses <- 0;
  s.insertions <- 0;
  s.evictions <- 0;
  s.flushes <- 0;
  s.flushed_entries <- 0

let max_tag t = (1 lsl t.cfg.tag_bits) - 1
let tick t = t.clock <- t.clock + 1; t.clock
let set_of_4k t va = Addr.page_of va land (t.cfg.sets_4k - 1)
let base_4k va = Size.round_down va ~align:Addr.page_size
let base_2m va = Size.round_down va ~align:(Size.mib 2)

let entry_matches e ~tag ~vbase = e.valid && e.vbase = vbase && (e.global || e.tag = tag)

(* Way index of the matching entry, or -1. A direct indexed loop so the
   hot paths (lookup, insert refresh) allocate nothing. *)
let probe_set set ~tag ~vbase =
  let n = Array.length set in
  let rec go i =
    if i >= n then -1 else if entry_matches set.(i) ~tag ~vbase then i else go (i + 1)
  in
  go 0

(* Exact-identity probe used by [insert]'s refresh-in-place path. Unlike
   [entry_matches] it does NOT treat a global entry as matching every
   tag: refreshing is only sound when (tag, global) are identical,
   otherwise a non-global fill for tag T would silently overwrite a
   global mapping that happens to share the vbase. *)
let probe_exact set ~tag ~vbase ~global =
  let n = Array.length set in
  let rec go i =
    if i >= n then -1
    else
      let e = set.(i) in
      if e.valid && e.vbase = vbase && e.tag = tag && e.global = global then i
      else go (i + 1)
  in
  go 0

let hit_entry t e =
  e.last_use <- tick t;
  t.stats.hits <- t.stats.hits + 1

let lookup t ~tag ~va =
  let hit_of e size = { pa = e.pa + (va - e.vbase); prot = e.prot; key = e.key; size } in
  let set = t.array_4k.(set_of_4k t va) in
  let i4 = probe_set set ~tag ~vbase:(base_4k va) in
  if i4 >= 0 then begin
    let e = set.(i4) in
    hit_entry t e;
    Some (hit_of e Page_table.P4K)
  end
  else begin
    let i2 = probe_set t.array_2m ~tag ~vbase:(base_2m va) in
    if i2 >= 0 then begin
      let e = t.array_2m.(i2) in
      hit_entry t e;
      Some (hit_of e Page_table.P2M)
    end
    else begin
      t.stats.misses <- t.stats.misses + 1;
      None
    end
  end

let victim t entries =
  (* Invalid entry first, else LRU. *)
  let n = Array.length entries in
  let best = ref 0 in
  (try
     for i = 0 to n - 1 do
       if not entries.(i).valid then begin
         best := i;
         raise Exit
       end;
       if entries.(i).last_use < entries.(!best).last_use then best := i
     done
   with Exit -> ());
  if entries.(!best).valid then t.stats.evictions <- t.stats.evictions + 1;
  entries.(!best)

let fill t e ~tag ~vbase ~pa ~prot ~key ~global =
  e.valid <- true;
  e.vbase <- vbase;
  e.tag <- tag;
  e.global <- global;
  e.pa <- pa;
  e.prot <- prot;
  e.key <- key;
  e.last_use <- tick t;
  t.stats.insertions <- t.stats.insertions + 1

let insert ?(key = 0) t ~tag ~va ~pa ~prot ~size ~global =
  if tag < 0 || tag > max_tag t then invalid_arg "Tlb.insert: tag out of range";
  if key < 0 || key > Pkey.max_key then invalid_arg "Tlb.insert: key out of range";
  match size with
  | Page_table.P4K ->
    let vbase = base_4k va in
    let pa = Size.round_down pa ~align:Addr.page_size in
    let set_idx = set_of_4k t va in
    let set =
      let s = t.array_4k.(set_idx) in
      if s != no_ways then s
      else begin
        let s = Array.init t.cfg.ways_4k (fun _ -> fresh_entry ()) in
        t.array_4k.(set_idx) <- s;
        s
      end
    in
    (* Refresh in place only when the exact (tag, global) identity is
       already present; a looser probe would let a non-global fill
       clobber a global entry at the same vbase. *)
    let i = probe_exact set ~tag ~vbase ~global in
    let e = if i >= 0 then set.(i) else victim t set in
    if not e.valid then begin
      if t.valid_4k.(set_idx) = 0 then note_occupied t set_idx;
      t.valid_4k.(set_idx) <- t.valid_4k.(set_idx) + 1
    end;
    fill t e ~tag ~vbase ~pa ~prot ~key ~global
  | Page_table.P2M ->
    let vbase = base_2m va in
    let pa = Size.round_down pa ~align:(Size.mib 2) in
    let i = probe_exact t.array_2m ~tag ~vbase ~global in
    let e = if i >= 0 then t.array_2m.(i) else victim t t.array_2m in
    if not e.valid then t.valid_2m <- t.valid_2m + 1;
    fill t e ~tag ~vbase ~pa ~prot ~key ~global

let iter_entries t f =
  Array.iter (fun set -> Array.iter f set) t.array_4k;
  Array.iter f t.array_2m

(* Kill matching entries in one entry array; returns the kill count.
   Callers decide which count to charge it to. *)
let kill_where entries pred =
  let killed = ref 0 in
  Array.iter
    (fun e ->
      if e.valid && pred e then begin
        e.valid <- false;
        incr killed
      end)
    entries;
  !killed

let flush_where t pred =
  t.stats.flushes <- t.stats.flushes + 1;
  let n = ref 0 in
  (* Visit only sets that may hold valid entries (the occupancy
     worklist; all sets on overflow). Sets with a zero count are
     skipped outright — the observable effect (zero entries dropped) is
     what the full scan would have produced. Survivors are compacted
     back into the worklist. *)
  let visit si kept =
    if t.valid_4k.(si) > 0 then begin
      let killed = kill_where t.array_4k.(si) pred in
      if killed > 0 then begin
        t.valid_4k.(si) <- t.valid_4k.(si) - killed;
        n := !n + killed
      end;
      if t.valid_4k.(si) > 0 then begin
        t.occ.(kept) <- si;
        kept + 1
      end
      else kept
    end
    else kept
  in
  let kept = ref 0 in
  if t.occ_overflow then begin
    for si = 0 to Array.length t.array_4k - 1 do
      kept := visit si !kept
    done;
    t.occ_overflow <- false
  end
  else
    for k = 0 to t.n_occ - 1 do
      kept := visit t.occ.(k) !kept
    done;
  t.n_occ <- !kept;
  if t.valid_2m > 0 then begin
    let killed = kill_where t.array_2m pred in
    if killed > 0 then begin
      t.valid_2m <- t.valid_2m - killed;
      n := !n + killed
    end
  end;
  t.stats.flushed_entries <- t.stats.flushed_entries + !n;
  !n

let flush_nonglobal t =
  notify_flush t Sj_obs.Event.Flush_nonglobal
    (flush_where t (fun e -> not e.global))

let flush_all t =
  notify_flush t Sj_obs.Event.Flush_all (flush_where t (fun _ -> true))

let flush_tag t ~tag =
  notify_flush t (Sj_obs.Event.Flush_tag tag)
    (flush_where t (fun e -> (not e.global) && e.tag = tag))

let invalidate_page t ~va =
  let v4 = base_4k va and v2 = base_2m va in
  let n = ref 0 in
  let pred e = e.vbase = v4 || e.vbase = v2 in
  (* A 4 KiB entry for [v4] can only live in [v4]'s set; the only other
     4 KiB base the predicate can match is [v2] (a 2 MiB base is itself
     page-aligned), which can only live in [v2]'s set. Every other 4 KiB
     set is provably unaffected, so skip it. The small 2 MiB array is
     scanned in full. *)
  let kill_set si =
    if t.valid_4k.(si) > 0 then begin
      let killed = kill_where t.array_4k.(si) pred in
      if killed > 0 then begin
        t.valid_4k.(si) <- t.valid_4k.(si) - killed;
        n := !n + killed
      end
    end
  in
  let s4 = set_of_4k t v4 in
  kill_set s4;
  let s2 = set_of_4k t v2 in
  if s2 <> s4 then kill_set s2;
  if t.valid_2m > 0 then begin
    let killed = kill_where t.array_2m pred in
    if killed > 0 then begin
      t.valid_2m <- t.valid_2m - killed;
      n := !n + killed
    end
  end;
  notify_flush t (Sj_obs.Event.Flush_page v4) !n

let occupancy t =
  let n = ref 0 in
  iter_entries t (fun e -> if e.valid then incr n);
  !n
