open Sj_util

type level = L1 | LLC | Memory

(* Cache metadata layout is tuned for the *host*: each set is one
   contiguous row of (tag, lru) pairs — [row.(2*way)] is the tag,
   [row.(2*way + 1)] its LRU stamp — so a probe reads and writes one
   short contiguous span (usually a host cache line or two), where
   per-way sub-structures plus a separate LRU array cost several
   dependent misses.

   Rows are allocated lazily on a set's first touch: a multi-MiB LLC's
   metadata would otherwise be memset at every machine creation even
   though a short workload touches a handful of its sets. Untouched
   sets all point at the shared [no_row] sentinel (length 0, tested by
   physical equality), so creation cost is one pointer-array fill and
   [clear] is the same fill again. *)
type t = {
  sets : int;
  ways : int;
  line : int;
  line_shift : int;
  set_mask : int; (* sets - 1 when a power of two, else -1 (use mod) *)
  rows : int array array; (* per set: interleaved (tag, lru); tag -1 = invalid *)
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
  (* Last line that hit, memoised so back-to-back accesses to one line
     (a load then its store, byte streams) skip the set scan. A line
     lives in at most one way (fill only runs after a failed probe), so
     [mru_row.(mru_slot) = mru_la] proves the scan would return exactly
     [mru_slot]; eviction or invalidation overwrites the tag, and
     [clear] drops the memo by hand (replaced rows keep their tags).
     Line addresses are non-negative, so -1 means empty. *)
  mutable mru_la : int;
  mutable mru_row : int array;
  mutable mru_slot : int;
}

let no_row : int array = [||]

let create ~size ~ways ~line =
  if not (Size.is_power_of_two line) then invalid_arg "Cache.create: line size";
  let lines = size / line in
  if lines mod ways <> 0 then invalid_arg "Cache.create: size/ways mismatch";
  let sets = lines / ways in
  if sets <= 0 then invalid_arg "Cache.create: set count";
  {
    sets;
    ways;
    line;
    line_shift = Size.log2 line;
    set_mask = (if sets land (sets - 1) = 0 then sets - 1 else -1);
    rows = Array.make sets no_row;
    clock = 0;
    hits = 0;
    misses = 0;
    mru_la = -1;
    mru_row = no_row;
    mru_slot = 0;
  }

let line_addr t pa = pa lsr t.line_shift

(* Power-of-two set counts index by mask; LLCs with non-power-of-two
   associativity products (e.g. 25 MiB / 20-way) index by modulo. *)
let set_of t la = if t.set_mask >= 0 then la land t.set_mask else la mod t.sets

(* The set's row, allocating all-invalid on first touch. Stamp slots
   start at -1 but are never read before being written: [fill] takes an
   invalid way before comparing stamps and writes the stamp with the
   tag. *)
let row_of t set =
  let row = Array.unsafe_get t.rows set in
  if row != no_row then row
  else begin
    let row = Array.make (t.ways * 2) (-1) in
    Array.unsafe_set t.rows set row;
    row
  end

(* Slot index (into the row, i.e. already doubled) of [la], or -1. *)
let find_slot t row la =
  let stop = t.ways * 2 in
  let i = ref 0 in
  while !i < stop && Array.unsafe_get row !i <> la do i := !i + 2 done;
  if !i < stop then !i else -1

let touch t row slot =
  t.clock <- t.clock + 1;
  Array.unsafe_set row (slot + 1) t.clock

(* Fill on miss: first invalid way wins, else strict-min LRU with the
   earliest way breaking ties. *)
let fill t row la =
  let stop = t.ways * 2 in
  let victim = ref 0 in
  let i = ref 0 in
  let go = ref true in
  while !go && !i < stop do
    if Array.unsafe_get row !i = -1 then begin
      victim := !i;
      go := false
    end
    else begin
      if Array.unsafe_get row (!i + 1) < Array.unsafe_get row (!victim + 1) then
        victim := !i;
      i := !i + 2
    end
  done;
  Array.unsafe_set row !victim la;
  touch t row !victim;
  t.mru_la <- la;
  t.mru_row <- row;
  t.mru_slot <- !victim

let access t ~pa =
  let la = line_addr t pa in
  if la = t.mru_la && Array.unsafe_get t.mru_row t.mru_slot = la then begin
    t.hits <- t.hits + 1;
    touch t t.mru_row t.mru_slot;
    true
  end
  else begin
    let row = row_of t (set_of t la) in
    let slot = find_slot t row la in
    if slot >= 0 then begin
      touch t row slot;
      t.hits <- t.hits + 1;
      t.mru_la <- la;
      t.mru_row <- row;
      t.mru_slot <- slot;
      true
    end
    else begin
      t.misses <- t.misses + 1;
      fill t row la;
      false
    end
  end

let probe t ~pa =
  let la = line_addr t pa in
  let row = row_of t (set_of t la) in
  let slot = find_slot t row la in
  if slot >= 0 then begin
    touch t row slot;
    true
  end
  else false

let invalidate_line t ~pa =
  let la = line_addr t pa in
  let row = row_of t (set_of t la) in
  let slot = find_slot t row la in
  if slot >= 0 then row.(slot) <- -1

let clear t =
  (* Touched sets re-allocate their rows on next access; the MRU memo
     must drop by hand since detached rows keep their tags. *)
  Array.fill t.rows 0 t.sets no_row;
  t.mru_la <- -1;
  t.mru_row <- no_row

let hits t = t.hits
let misses t = t.misses
let line_size t = t.line

let pp_level fmt = function
  | L1 -> Format.pp_print_string fmt "L1"
  | LLC -> Format.pp_print_string fmt "LLC"
  | Memory -> Format.pp_print_string fmt "DRAM"
