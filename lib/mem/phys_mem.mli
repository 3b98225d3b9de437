(** Simulated physical memory.

    Physical memory is a flat array of 4 KiB frames addressed by physical
    address. Frame *contents* are materialized lazily (a frame that has
    never been written reads as zeroes and costs no host memory), which
    lets experiments declare the paper's 92-512 GiB platforms (Table 1)
    while the host only pays for pages actually touched.

    Frames are allocated and freed in page units through a free-list
    allocator; double-free and use-after-free are detected. *)

type t

type frame = private int
(** A frame number; [frame * 4096] is its physical base address. *)

exception Out_of_memory
(** Raised by {!alloc_frame} when physical memory is exhausted. *)

type node_kind = Performance | Capacity
(** Memory tiers (paper sec 7): [Performance] is socket-local DRAM;
    [Capacity] is a slower, larger tier (NVM-class). *)

val create : size:int -> numa_nodes:int -> t
(** [create ~size ~numa_nodes] builds a memory of [size] bytes (multiple
    of 4 KiB) split evenly across [numa_nodes] performance-tier latency
    domains. *)

val create_tiered : size:int -> numa_nodes:int -> capacity_size:int -> t
(** Like {!create}, plus one additional [Capacity]-tier node of
    [capacity_size] bytes (node index [numa_nodes]). *)

val node_count : t -> int
val node_kind : t -> int -> node_kind
val capacity_node : t -> int option
(** Index of the capacity-tier node, if the machine has one. *)

val size : t -> int
val frames_total : t -> int
val frames_allocated : t -> int

val alloc_frame : ?node:int -> t -> frame
(** Allocate one frame, preferring NUMA node [node] (default: any).
    Contents read as zero. *)

val alloc_frames : ?node:int -> t -> n:int -> frame array
(** Allocate [n] frames (not necessarily contiguous), or none: raises
    {!Out_of_memory} without taking a frame when fewer than [n] are
    free. *)

val alloc_frames_contiguous : ?node:int -> ?align:int -> t -> n:int -> frame array
(** Allocate [n] *physically contiguous* frames (for huge-page
    mappings), with the first frame aligned to [align] frames
    (default 1; 512 for 2 MiB pages). Served from the unfragmented tail
    of a node — skipped frames go to the free list; raises
    {!Out_of_memory} when no node has a large enough run left. *)

val free_frame : t -> frame -> unit
(** Return a frame to the allocator. Raises [Invalid_argument] if the
    frame is not currently allocated. *)

val base_of_frame : frame -> int
(** Physical byte address of the frame's first byte. *)

val frame_of_addr : int -> frame
(** Frame containing physical address (no allocation check). *)

val node_of_frame : t -> frame -> int
(** NUMA node the frame resides on. *)

val is_allocated : t -> frame -> bool

val pt_store : t -> Pt_store.t
(** Node arena for the page tables built over this memory. Interior
    subtrees may be shared between roots (grafting), but only among
    tables over the same physical memory, so the arena lives here;
    used by [Sj_paging.Page_table]. *)

(** {2 Page-table root/handle registry}

    Live page-table roots and extracted-subtree handles over this
    memory, as raw node indices. Maintained by [Sj_paging.Page_table]
    ([create]/[destroy], [extract_subtree]/[release_subtree]) and read
    by its refcount audit: a node's expected refcount is its indegree
    from reachable entries plus the number of times it appears in these
    lists. Per-memory, so independent simulations never interfere. *)

val pt_roots : t -> int list
val pt_handles : t -> int list
val pt_register_root : t -> int -> unit
val pt_unregister_root : t -> int -> unit
(** Removes one occurrence; no-op if absent. *)

val pt_register_handle : t -> int -> unit
val pt_unregister_handle : t -> int -> unit
(** Removes one occurrence; no-op if absent. *)

(** {2 Contents access}

    All accessors take raw physical addresses and may cross frame
    boundaries. Reading unallocated memory raises [Invalid_argument] --
    the machine layer guarantees translations only point at allocated
    frames. *)

val read8 : t -> pa:int -> int
val write8 : t -> pa:int -> int -> unit
val read64 : t -> pa:int -> int64
(** Little-endian, may straddle frames. *)

val write64 : t -> pa:int -> int64 -> unit
val read_bytes : t -> pa:int -> len:int -> bytes
val write_bytes : t -> pa:int -> bytes -> unit

val zero_frame : t -> frame -> unit
(** Reset a frame's contents to zero (page-zeroing on allocation paths). *)
