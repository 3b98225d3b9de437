(** Tagged translation lookaside buffer.

    Models an x86-64 data TLB: a set-associative 4 KiB-page array plus a
    small fully-associative 2 MiB-page array, with optional address-space
    identifier (ASID/PCID) tags and global entries.

    Semantics follow §4.4 of the paper:
    - tag 0 is reserved: installing an address space with tag 0 flushes
      all non-global entries (a plain CR3 write);
    - with a non-zero tag, entries of other tags are retained and simply
      do not hit, so switching back to a recently used address space
      finds its translations still resident (Figure 6);
    - global entries (kernel/common-region mappings) hit under any tag
      and survive untagged flushes. *)

type t

type config = {
  sets_4k : int;  (** number of sets in the 4 KiB array *)
  ways_4k : int;
  entries_2m : int;  (** fully associative 2 MiB array size *)
  tag_bits : int;  (** ASID width, e.g. 12 *)
}

val default_config : config
(** 64-entry 4-way L1-like 4 KiB array plus a 1024-entry 8-way second
    level merged as sets, 32-entry 2 MiB array, 12 tag bits --
    representative of the paper's Xeon platforms. *)

type hit = {
  pa : int;
  prot : Sj_paging.Prot.t;
  key : int;
      (** the PTE's protection-key tag — callers evaluate it against
          the current per-core register; rights are never cached *)
  size : Sj_paging.Page_table.page_size;
}

type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable insertions : int;
  mutable evictions : int;
  mutable flushes : int;
  mutable flushed_entries : int;
}

val create : config -> t
val config : t -> config
val stats : t -> stats
val reset_stats : t -> unit
val max_tag : t -> int

val lookup : t -> tag:int -> va:int -> hit option
(** Probe under ASID [tag]. Global entries hit regardless of tag. *)

val insert :
  ?key:int ->
  t -> tag:int -> va:int -> pa:int -> prot:Sj_paging.Prot.t ->
  size:Sj_paging.Page_table.page_size -> global:bool -> unit
(** Fill after a walk. Refreshes in place only an entry with the exact
    same [(tag, global)] identity at that vbase — in particular a
    non-global fill never overwrites a global entry — and otherwise
    evicts LRU within the set. *)

val flush_nonglobal : t -> unit
(** Untagged CR3 write: drop every non-global entry. *)

val flush_all : t -> unit
(** Full flush including globals (e.g. CR4.PGE toggle). *)

val flush_tag : t -> tag:int -> unit
(** Drop entries of one ASID (INVPCID). *)

val invalidate_page : t -> va:int -> unit
(** INVLPG: drop any entry, of any tag, translating [va]. *)

val occupancy : t -> int
(** Number of valid entries currently resident. *)

val set_obs : t -> (Sj_obs.Event.flush_kind -> int -> unit) option -> unit
(** Install (or remove) the flush-observation hook. The hook is called
    once per flush or page invalidation with the flush kind and the
    number of entries dropped, after stats are updated. Installed by
    [Machine.create] when tracing is enabled; [None] by default. *)
