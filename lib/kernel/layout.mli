(** Address-space layout policy.

    The DragonFly implementation avoids collisions between globally
    visible segments and process-private segments (code, globals,
    stacks) by "ensuring both globally visible and process-private
    segments are created in disjoint address ranges" (§4.1). We encode
    that policy here: private segments live below 1 TiB, global
    (VAS-shareable) segments above it. *)

val text_base : int
(** Default program-text base (0x40_0000, the ELF default). *)

val data_base : int
(** Default globals/data base. *)

val stack_top : int
(** Top of the first thread's stack; stacks grow down, successive
    thread stacks are placed below with a guard gap. *)

val stack_gap : int
val private_limit : int
(** Exclusive upper bound of the private range (1 TiB). *)

val global_base : int
(** Base of the globally visible segment range (= [private_limit]). *)

val is_private : int -> bool
val is_global : int -> bool

val next_global_base : Sj_util.Sim_ctx.t -> size:int -> int
(** Per-simulation sequential allocator for global segment bases,
    aligned to 1 GiB so segment translations can be cached as whole
    PDPT-slot subtrees (§4.4). The cursor lives in the simulation's
    [Sim_ctx] (callers with a machine pass [Machine.sim_ctx machine]),
    so bases are deterministic per machine regardless of what else the
    process has simulated. When the range above [global_base] is spent,
    raises [Sj_abi.Error.Fault] with code [Layout_exhausted] and leaves
    the cursor unchanged, so callers can observe the fault and retry
    after releasing space. *)

val peek_global_base : Sj_util.Sim_ctx.t -> size:int -> int
(** The base {!next_global_base} would return, without advancing the
    cursor (same [Layout_exhausted] fault). A caller whose allocation
    can still fail peeks, allocates, then commits with
    {!reserve_global}. *)

val reset_global_allocator : Sj_util.Sim_ctx.t -> unit
(** Reset the sequential allocator (machine reuse within one test). *)

val reserve_global : Sj_util.Sim_ctx.t -> base:int -> size:int -> unit
(** Advance the allocator past an externally placed range (segments
    restored from a persistence image keep their original bases). *)
