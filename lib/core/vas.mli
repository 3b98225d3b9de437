(** First-class virtual address spaces (§3.2).

    A VAS is an OS object independent of any process: a named set of
    non-overlapping global segments plus access metadata. Processes
    attach to a VAS — each attachment instantiates a concrete vmspace
    combining the VAS's global segments with the process's private
    common region — and switch between attachments. A VAS persists
    until explicitly destroyed, possibly beyond its creator's lifetime.

    Mutating the segment list bumps the VAS *generation*; live
    attachments compare generations to re-synchronize their vmspaces
    (the propagation the DragonFly kernel performs when a segment is
    attached VAS-globally). *)

type t

val create : Sj_util.Sim_ctx.t -> ?acl:Sj_kernel.Acl.t -> name:string -> unit -> t
(** VAS ids come from the simulation's [Sim_ctx]; callers with a
    machine pass [Machine.sim_ctx machine]. *)

val vid : t -> int
val name : t -> string
val acl : t -> Sj_kernel.Acl.t
val set_acl : t -> Sj_kernel.Acl.t -> unit
val generation : t -> int

val bump_generation : t -> unit
(** Force attachments to re-sync at their next switch (used when a
    member segment's shape changes, e.g. growth). *)

val is_destroyed : t -> bool
val destroy : t -> unit

val tag : t -> int option
(** TLB tag (ASID) assigned via [vas_ctl], if any (§4.4). *)

val assign_tag : t -> int -> unit

val segments : t -> (Segment.t * Sj_paging.Prot.t) list
(** Global segments with their per-VAS mapping protections, sorted by
    base address. *)

val attach_segment : t -> Segment.t -> prot:Sj_paging.Prot.t -> unit
(** Add a segment. Raises the typed [Address_conflict] fault on range
    overlap with an existing segment, [Permission_denied] if [prot]
    exceeds the segment's maximum protection, and [Stale_handle] once
    the VAS is destroyed. *)

val detach_segment : t -> Segment.t -> unit
val find_segment_by_sid : t -> int -> (Segment.t * Sj_paging.Prot.t) option
val find_segment_at : t -> va:int -> (Segment.t * Sj_paging.Prot.t) option

val lockable_segments : t -> (Segment.t * Sj_paging.Prot.t) list
(** The segments whose locks a switch must take, with mapping prots
    deciding shared vs exclusive mode. *)

(** {2 Protection-key compartments}

    Each VAS owns an allocator over keys [1..Pkey.max_key] (key 0 is
    the permanent unrestricted default) and a segment-to-key
    assignment map. Both feed the per-attachment vmspaces: a segment
    assigned key [k] has its leaf PTEs tagged [k], so translation
    checks the accessing core's key register. Assignments bump the
    generation like segment-list changes, forcing live attachments to
    re-sync. *)

val alloc_key : t -> pid:int -> int
(** Allocate the lowest free key ([1..15]) to process [pid]. Raises
    [Error.Fault Capacity] when all 15 are taken. *)

val key_owner : t -> key:int -> int option
(** The pid that allocated [key], if it is currently allocated. *)

val key_allocations : t -> (int * int) list
(** All current [(key, owner_pid)] allocations, ascending by key —
    read-only view for the explorer's pkey invariants. *)

val seg_key_assignments : t -> (int * int) list
(** All current [(sid, key)] assignments, ascending by sid. *)

val assign_seg_key : t -> sid:int -> key:int -> unit
(** Record segment [sid] as tagged with [key] ([0] clears the
    assignment). Bumps the generation; the caller rewrites live PTEs. *)

val key_of : t -> sid:int -> int
(** The key assigned to segment [sid], or [0] (untagged). *)

val release_keys_of : t -> pid:int -> int list * int list
(** Free every key allocated by [pid] (crash/exit teardown), dropping
    any segment assignments that used them. Returns [(freed_keys,
    dropped_sids)] — the caller untags the dropped segments' live
    PTEs. Bumps the generation when anything was released. *)
