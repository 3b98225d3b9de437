(** The simulated machine: physical memory, sockets with shared LLCs,
    and cores with private TLBs, L1 caches and a cycle clock.

    Cores execute *memory operations*, not instructions: workloads are
    OCaml code that calls [load]/[store] on a core, and the core charges
    simulated cycles for translation (TLB, page walk) and the data access
    (L1 / LLC / local or remote DRAM). Explicit [charge] covers the
    fixed-cost events (syscalls, CR3 writes) the OS layer accounts. *)

type t

type access = Read | Write

exception Page_fault of { va : int; access : access }
(** Translation missing in the current page table. *)

exception Protection_fault of { va : int; access : access }
(** Translation present but the access violates its protections. *)

exception Key_fault of { va : int; access : access }
(** Translation present and paging protections admit the access, but
    the core's protection-key register denies the page's key tag
    ({!Sj_paging.Pkey}). Not repairable by the page-fault handler — key
    rights live in the register, not the mapping — so [translate]
    re-raises it without consulting the handler. *)

exception No_page_table
(** A data access was attempted with no page table installed. *)

exception Out_of_memory
(** Physical frames exhausted: the same exception as
    [Sj_mem.Phys_mem.Out_of_memory], re-exported so the layers above the
    machine name the hardware condition here. The ABI boundary
    ([Sj_abi.Sys.invoke]) turns it into a [Capacity] fault. *)

val create : Platform.t -> t
(** A machine with the platform's memory, caches and cores. The ambient
    tracing ({!Sj_obs.Recorder.with_tracing}) and fault plan
    ({!Sj_fault.Injector.with_plan}) settings, if on, attach a recorder
    or injector to it. *)

val platform : t -> Platform.t
val mem : t -> Sj_mem.Phys_mem.t
val cost : t -> Cost_model.t

val sim_ctx : t -> Sj_util.Sim_ctx.t
(** The machine's private world state: id generators and the global-
    segment layout cursor for everything simulated on this machine.
    One per machine — never shared — which is what makes two machines
    in one process (or two domains) fully independent. *)

module Core : sig
  type core

  val id : core -> int
  val socket : core -> int

  val sim_ctx : core -> Sj_util.Sim_ctx.t
  (** The owning machine's world state — how event emitters below
      [sj_core] reach the simulation's [Sj_obs] recorder. *)

  val cycles : core -> int
  (** Cycle clock; monotonically increasing. *)

  val charge : core -> int -> unit
  (** Advance the clock by a fixed cost. *)

  val tlb : core -> Sj_tlb.Tlb.t

  val set_page_table :
    core -> ?tag:int -> Sj_paging.Page_table.t option -> unit
  (** Install a translation root (a CR3 write) with ASID [tag]
      (default 0). Charges the CR3 cost; tag 0 additionally flushes
      non-global TLB entries (§4.4). [None] uninstalls (used when a
      process is descheduled). *)

  val current_tag : core -> int

  val pkru : core -> Sj_paging.Pkey.reg
  (** The core's protection-key permission register; {!Sj_paging.Pkey.default}
      (all keys permitted) until a pkey switch writes it. *)

  val set_pkru : core -> Sj_paging.Pkey.reg -> unit
  (** Write the register (a WRPKRU). No CR3 write, no TLB flush, no
      cache effect — resident translations simply re-evaluate their key
      tags against the new register at their next hit. The caller (the
      ABI's crossing layer) charges the instruction cost. *)

  val set_fault_handler : core -> (va:int -> access:access -> bool) option -> unit
  (** Install the OS's page-fault handler. When a data access raises
      {!Page_fault} or {!Protection_fault}, the handler runs (charged
      its own costs via the kernel layer); returning [true] means the
      fault was resolved (mapping fixed — e.g. a copy-on-write split)
      and the access retries, [false] re-raises to the application.
      Bounded retries guard against non-progressing handlers. *)

  val translate : core -> va:int -> access:access -> int
  (** VA -> PA through TLB or page walk, charging translation costs and
      checking protections. *)

  val load8 : core -> va:int -> int
  val store8 : core -> va:int -> int -> unit
  val load64 : core -> va:int -> int64
  val store64 : core -> va:int -> int64 -> unit

  (** Fused read-modify-write: observably identical (cycles, cache and
      TLB state, stored value) to [load64] followed by [store64] of the
      xored value, but one call — the GUPS update loop. *)
  val xor64 : core -> va:int -> int64 -> unit
  val load_bytes : core -> va:int -> len:int -> bytes
  val store_bytes : core -> va:int -> bytes -> unit

  val touch : core -> va:int -> access:access -> unit
  (** Charge for an access (translation + data) without moving data;
      used by synthetic kernels that only need timing. *)

  val memset : core -> va:int -> len:int -> char -> unit
  val memcpy : core -> dst:int -> src:int -> len:int -> unit
  (** Virtual-address copy through the cache model (both streams). *)

  val tlb_misses : core -> int
  val tlb_hits : core -> int
end

val core : t -> int -> Core.core
(** [core t i] is core [i], numbered socket-major: cores
    [0 .. cores_per_socket-1] are on socket 0. *)

val cores : t -> Core.core array

val alloc_pages :
  ?node:int -> ?contiguous:bool ->
  t -> n:int -> charge_to:Core.core option -> Sj_mem.Phys_mem.frame array
(** Allocate and zero [n] frames, charging page-zeroing cost to a core
    when given (kernel allocation paths). *)

val capacity_node : t -> int option
(** NUMA node index of the capacity tier, if the platform has one. *)

val cool_caches : t -> unit
(** Invalidate every L1 and LLC (no cost charged). Experiments call
    this between logical process runs so one run's warm data does not
    leak into another's measurement. *)
