(** The SpaceJMP programming interface (paper Fig. 3).

    Two groups of calls are exposed: the VAS API for applications
    ([vas_*]) and the segment API for library developers ([seg_*]),
    plus the runtime library's heap functions (§4.1). All calls execute
    against a {!system} (a booted OS personality on a machine) within a
    {!ctx} (a thread of a process running on a core), and every one of
    them crosses the kernel ABI through the system's numbered dispatch
    table ({!Sj_abi.Sys}), which charges the simulated entry cost of
    the backing OS implementation and keeps per-call counters:

    - [`Dragonfly]: kernel-mediated — each call pays a DragonFly syscall;
      switches pay Table 2's DragonFly cost.
    - [`Barrelfish]: the API is RPC to a user-space service; switching is
      a capability invocation, cheaper than a DragonFly syscall chain
      (Table 2), and VAS access is mediated by capabilities — revoking a
      VAS's root capability bars further switches into it (§4.2).

    Failures are typed faults ({!Sj_abi.Error}), and each entry is
    stated once, in the signature [S] below, over its result type
    ['a r]. {!Checked} returns the fault as a value straight from the
    dispatch table ([('a, Sj_abi.Error.t) result]); the top-level
    functions are the same entries returning ['a] and raising
    {!Sj_abi.Error.Fault} on failure. Physical exhaustion inside an
    entry is a [Capacity] fault named after the entry. Not ABI errors,
    and propagating from both surfaces: simulated hardware traps
    ([Sj_machine.Machine.Page_fault] and friends, on data accesses), an
    injected kill ([Sj_fault.Injector.Killed]), and physical exhaustion
    outside any entry — a copy-on-write break inside {!store64} or
    {!store_bytes} raises [Sj_machine.Machine.Out_of_memory]. *)

type backend = Sj_abi.Sys.backend = Dragonfly | Barrelfish

type system
(** A booted SpaceJMP OS instance on a simulated machine. *)

type ctx
(** An execution context: process + core + current-VAS state. One per
    simulated thread. *)

type vh
(** A VAS handle — one process's attachment to a VAS (its private
    vmspace instance combining the VAS's global segments with the
    process's common region). *)

val boot : ?backend:backend -> Sj_machine.Machine.t -> system
(** Boot (default backend: [Dragonfly]). *)

val backend : system -> backend
val registry : system -> Registry.t
val machine : system -> Sj_machine.Machine.t

val syscalls : system -> Sj_abi.Sys.t
(** The system's ABI dispatch table — query it for per-syscall call
    counts and simulated-cycle totals ({!Sj_abi.Sys.counters},
    {!Sj_abi.Sys.describe}). *)

val context : system -> Sj_kernel.Process.t -> Sj_machine.Machine.Core.core -> ctx
(** Bind a process thread to a core. Installs the process's primary
    address space on the core. *)

val process : ctx -> Sj_kernel.Process.t
val system : ctx -> system
val core : ctx -> Sj_machine.Machine.Core.core
val current : ctx -> vh option
(** The attachment the context is currently switched into; [None] when
    in the process's primary address space. *)

val contexts : system -> ctx list
(** Every live execution context (most recently bound first). Contexts
    are removed by [exit_process]/[crash_process]/[crash_thread] — the
    explorer reads this to snapshot per-core state and live pids. *)

val vas_of_vh : vh -> Vas.t
val vmspace_of_vh : vh -> Sj_kernel.Vmspace.t

module type S := sig
  type 'a r
  (** What an entry returns: ['a] on the raising surface, [('a,
      Sj_abi.Error.t) result] in {!Checked}. *)

  (** {2 VAS API (Fig. 3, left column)} *)

  val vas_create : ctx -> name:string -> mode:int -> Vas.t r
  (** Create and register a named VAS with Unix-style mode bits owned by
      the calling process's uid. *)

  val vas_find : ctx -> name:string -> Vas.t r
  val vas_clone : ctx -> Vas.t -> name:string -> Vas.t r
  (** New VAS sharing the same segment list (e.g. to re-permission). *)

  val vas_attach : ctx -> Vas.t -> vh r
  (** Instantiate a vmspace for this process: maps the process's common
      region (text/data/stacks) plus every global segment of the VAS
      (using cached translations when the segment has them). Requires
      ACL read access. *)

  val vas_detach : ctx -> vh -> unit r
  (** Destroy the attachment's vmspace (switching home first if the
      caller is inside it). Fails with [Would_block] while another
      thread of the process is still switched into the attachment —
      detaching under a live occupant would yank the address space out
      from under its loads. *)

  val vas_switch : ctx -> vh -> unit r
  (** Switch the calling thread into the attachment's address space:
      acquires each lockable segment's lock (shared when mapped read-only,
      exclusive when writable), releases locks of the space being left,
      and installs the translation root with the VAS's TLB tag. Fails
      with [Would_block] if a lock is unavailable (state is rolled
      back). Lazily re-syncs the vmspace if segments were attached or
      detached VAS-globally since the last switch. *)

  val switch_home : ctx -> unit r
  (** Return to the process's primary address space, releasing locks. *)

  val exit_process : ctx -> unit r
  (** Orderly process death: releases held locks, detaches every
      attachment this context created, uninstalls the core, and reclaims
      the process's private memory. VASes and segments it created live on
      (sec 3.2) — persistence beyond process lifetime is the point. *)

  val crash_process : ctx -> unit r
  (** Involuntary process death (dispatched as the [proc_crash] ABI
      entry) — the teardown a fault-injected kill runs. The kernel
      reclaims on the dead process's behalf: every segment lock held by
      any of its attachments is force-released (one charged lock
      operation and a [Lock_reclaim] event per lock), attachments are
      destroyed (counted page-table teardown), registry mapping records
      dropped, the dead cores' tagged TLB footprints flushed, and the
      process reclaimed. VASes and segments it created survive, orphaned
      but consistent — a second process can attach (§3.2). *)

  val crash_thread : ctx -> unit r
  (** Involuntary death of one thread. The process and its other threads
      live on; the current attachment's locks are reclaimed only if this
      thread was the last one switched into it (§3.1: locks belong to the
      attaching process, the last thread out releases). *)

  val vas_ctl :
    ctx ->
    [ `Request_tag of Vas.t  (** assign a TLB tag (§4.4 tag hint) *)
    | `Chmod of Vas.t * int
    | `Revoke of Vas.t  (** Barrelfish: revoke the root capability *)
    | `Destroy of Vas.t ] ->
    unit r
  (** [`Destroy] is dispatched as the [vas_delete] ABI entry; the other
      commands share [vas_ctl]. *)

  (** {2 Segment API (Fig. 3, right column)} *)

  val seg_alloc :
    ?huge:bool ->
    ?tier:[ `Performance | `Capacity ] ->
    ctx -> name:string -> base:int -> size:int -> mode:int -> Segment.t r
  (** Reserve physical memory for a named lockable segment at fixed
      virtual [base]. With [~huge:true] the segment is backed by
      physically contiguous memory and mapped with 2 MiB entries — a
      Barrelfish-style user policy (sec 4.2); base and size must be
      2 MiB-aligned. [~tier:`Capacity] places the segment in the
      platform's NVM-class capacity tier (sec 7 heterogeneous memory;
      requires a platform built with [Platform.with_capacity_tier]). *)

  val seg_alloc_anywhere :
    ?huge:bool ->
    ?tier:[ `Performance | `Capacity ] ->
    ctx -> name:string -> size:int -> mode:int -> Segment.t r
  (** Like {!seg_alloc} with a base chosen from the global range, 1 GiB
      aligned so translation caching applies. A base-range exhaustion
      fails with [Layout_exhausted]; physical exhaustion with [Capacity],
      taking no frame. *)

  val seg_find : ctx -> name:string -> Segment.t r
  val seg_attach : ctx -> Vas.t -> Segment.t -> prot:Sj_paging.Prot.t -> unit r
  (** Attach VAS-globally: every process attached to the VAS observes the
      segment (propagated at its next switch). Requires write access to
      the VAS and [prot]-compatible access to the segment. *)

  val seg_attach_local : ctx -> vh -> Segment.t -> prot:Sj_paging.Prot.t -> unit r
  (** Attach into one process's attachment only (Fig. 3's [seg_attach]
      taking a [vh]): scratch heaps, private windows. *)

  val seg_detach : ctx -> Vas.t -> Segment.t -> unit r
  val seg_detach_local : ctx -> vh -> Segment.t -> unit r
  val seg_clone : ctx -> Segment.t -> name:string -> Segment.t r
  (** Copy segment contents into fresh physical memory under a new name
      (same virtual base — a clone is an alternative version of the same
      window, attachable to other VASes). COW sources (snapshot or fork
      shadows) are supported by break-and-copy on the read side: the
      clone reads the shared frames — reads never split a CoW page — into
      its own fresh frames, so the source's sharing with its family is
      untouched and the clone starts fully private. Not available for
      cached or huge segments: the clone is a plain 4 KiB-backed segment,
      so each of those sources is refused with a typed [Invalid] fault
      (tested in [test_core]). *)

  val seg_snapshot : ctx -> Segment.t -> name:string -> Segment.t r
  (** Copy-on-write snapshot (paper sec 7 "copy-on-write, snapshotting and
      versioning"): a new segment at the same base whose pages share the
      original's physical frames. Both sides' shared pages become
      read-only in hardware; the first write to a page (from either side)
      traps to the fault handler, which copies that page and upgrades the
      writer's mapping — so a snapshot costs O(pages) PTE protections, not
      a copy. Not supported for segments with cached translations. *)

  val seg_ctl :
    ctx ->
    [ `Grow of Segment.t * int
      (** extend the reservation; every process attached to a containing
          VAS observes the larger segment (and heap) at its next switch —
          no client coordination, unlike traditional shared memory
          (§2.3). Not available for cached/COW/huge segments. *)
    | `Chmod of Segment.t * int
    | `Cache_translations of Segment.t  (** §4.1: pre-build page tables *)
    | `Destroy of Segment.t ] ->
    unit r
  (** [`Destroy] is dispatched as the [seg_delete] ABI entry. *)

  (** {2 Protection-key compartments}

      A third isolation mechanism besides the full VAS switch and the
      Barrelfish capability invocation: per-segment protection keys in
      the MPK style. A VAS owns 16 keys (key 0 = the permanent untagged
      default); [pkey_assign] tags a segment's leaf PTEs with a key, and
      [pkey_switch] rewrites the calling core's key-permission register
      to enter (or leave) one compartment. Because access rights live in
      the register — checked at every TLB hit, never cached — a switch
      costs one WRPKRU-class register write: no CR3 reload, no TLB
      flush, warm caches. A denied access lands as the typed
      [Key_violation] fault. *)

  val pkey_alloc : ctx -> Vas.t -> int r
  (** Allocate a free protection key (1..15) in the VAS to the calling
      process. Requires ACL write access; fails with [Capacity] when
      all 15 keys are taken. Keys are reclaimed by crash or
      exit teardown of the owning process. *)

  val pkey_assign : ctx -> Vas.t -> Segment.t -> key:int -> unit r
  (** Tag every page of the segment with [key] ([0] untags). The segment
      must be attached to the VAS and the key allocated in it (or 0);
      segments with cached translations are refused with a typed
      [Invalid] fault — their shared page-table subtree would leak the
      tag into every grafting VAS. Live mappings are rewritten and stale
      cached translations shot down machine-wide (the *tag* is cached
      with translations; only the *rights* are flush-free). *)

  val pkey_switch : ctx -> key:int -> unit r
  (** Enter compartment [key] of the current VAS ([0] = return to the
      unrestricted view): rewrites the core's key register so only keys
      0 and [key] are accessible. Charged as one register write —
      strictly cheaper than any VAS switch — with no CR3 write and no
      TLB flush. The key must be allocated in the current VAS. Switching
      address spaces resets the register (key meanings are per-VAS). *)

  (** {2 Fork: copy-on-write duplication}

      Two fork flavours, both built on copy-on-write shared page-table
      subtrees ({!Sj_paging.Page_table.clone_cow}): the clone's top-level
      slots point at the source's subtrees with a CoW tag instead of
      deep-copying, so a fork costs O(top-level slots), not O(pages). The
      first write to a shared page from either side traps, is charged a
      realistic frame-copy cost, and privatizes exactly that page
      (break-and-copy); read-only pages stay shared forever. A write
      landing on a 2 MiB CoW leaf is refused with a typed [Invalid]
      fault — huge leaves are never split page-by-page. *)

  val vas_fork : ctx -> vh -> name:string -> vh r
  (** Copy-on-write duplicate of a VAS, returned as a fresh attachment of
      the calling process. A new VAS named [name] (same ACL) is created
      and populated with one {e shadow segment} per global segment of the
      source — each wrapping a CoW clone of the source's object at the
      same base — and the attachment's vmspace CoW-shares the source's
      global page-table subtrees. Both sides' writable pages become
      copy-on-write (other processes' live mappings of the source
      segments are write-protected and stale translations shot down
      machine-wide, as in {!seg_snapshot}); per-segment heap allocator
      state is frozen into the shadow. The fork holds no locks and is
      entered with an ordinary {!vas_switch}. Refused with a typed
      [Invalid] fault when a source segment has cached translations
      (those page tables are shared mutably across VASes) or when the
      attachment has process-local segments. *)

  val proc_fork :
    ?name:string -> ctx -> core:Sj_machine.Machine.Core.core -> ctx r
  (** Copy-on-write duplicate of the calling process, returned as a new
      context bound to [core] (which must be free). The child gets a
      fresh pid, a CoW fork of the primary address space (text shared
      read-only forever; data and stacks break-and-copy on first write),
      inherited credentials and thread geometry, and an empty capability
      space. Runtime state is rebuilt, not copied: VAS attachments are
      re-created through the ordinary attach path (segments are shared,
      not CoW), segment locks are NOT inherited, the child's key register
      starts scrubbed ([Pkey.default]), and the child owns {e fresh}
      protection keys — one per key the parent holds in each VAS — never
      the parent's. The child starts in its home space ([current] =
      [None]). Crash teardown of the child (or of the parent) leaves the
      other side's mappings, locks and tags intact — CoW frames are
      reference-counted per page. [name] defaults to the parent's name
      suffixed with ["+"]. *)

  (** {2 Runtime library: per-segment heaps (§4.1)} *)

  val malloc : ctx -> ?seg:Segment.t -> int -> int r
  (** Allocate from a segment's mspace. Default segment: the first
      writable lockable segment of the current VAS. Must be called while
      switched into a VAS containing the segment; fails with [Invalid]
      otherwise (the paper's allocator constraint). Fails with
      [Capacity] when the mspace is exhausted. *)

  val free : ctx -> int -> unit r
  (** Release a heap allocation. Valid only while inside an address space
      with the owning segment attached. *)
end

include S with type 'a r := 'a

(** {2 Result-typed surface}

    The same entries, returning the typed fault from the dispatch table
    instead of raising. Each call here IS the ABI crossing; the raising
    functions above are wrappers over these. Total over ABI failures:
    physical-memory exhaustion inside an entry comes back as
    [Error { code = Capacity; op = <entry name>; _ }]. *)

module Checked : sig
  include S with type 'a r := ('a, Sj_abi.Error.t) result

  val switch_retry :
    ?attempts:int -> ?backoff_cycles:int -> ctx -> vh ->
    (unit, Sj_abi.Error.t) result
  (** {!vas_switch} with a bounded deterministic retry loop around
      transient [Would_block]: attempt [k] (1-based) charges
      [k * backoff_cycles] simulated cycles to the calling core before
      retrying (linear backoff, default 8 attempts of 1000 cycles).
      Purely simulated time — byte-identical at [-j 1] and [-j N]. Any
      other fault, or [Would_block] after the last attempt, is
      returned. *)
end

(** {2 Convenience data accessors (current address space)} *)

val load64 : ctx -> va:int -> int64
val store64 : ctx -> va:int -> int64 -> unit
val load_bytes : ctx -> va:int -> len:int -> bytes
val store_bytes : ctx -> va:int -> bytes -> unit
