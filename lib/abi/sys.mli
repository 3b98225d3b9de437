(** The kernel ABI: a numbered dispatch table over every SpaceJMP
    operation (paper Fig. 3 plus the runtime/persistence calls).

    The two OS personalities route the same table differently at the
    entry point — DragonFly fields each call as a syscall, Barrelfish
    as an RPC to the user-space SpaceJMP service carried by a
    capability invocation (§4.1/§4.2, Table 2) — so the table charges
    the boundary-crossing cost of the booted {!backend} in exactly one
    place, and keeps per-syscall counters (calls and simulated cycles
    per ABI number) that benches and tools can query.

    One {!t} exists per booted system ([Api.boot] creates it); nothing
    here is process-global, so concurrent simulations on separate
    domains stay independent. *)

module Core := Sj_machine.Machine.Core
module Cost_model := Sj_machine.Cost_model

type backend = Dragonfly | Barrelfish

(** ABI numbers. The variant order is the numbering — append only. *)
type nr =
  | Vas_create  (** 0 *)
  | Vas_find  (** 1 *)
  | Vas_clone  (** 2 *)
  | Vas_attach  (** 3 *)
  | Vas_detach  (** 4 *)
  | Vas_switch  (** 5 *)
  | Vas_switch_home  (** 6 *)
  | Vas_ctl  (** 7 *)
  | Vas_delete  (** 8 *)
  | Seg_alloc  (** 9 *)
  | Seg_find  (** 10 *)
  | Seg_attach  (** 11 *)
  | Seg_attach_local  (** 12 *)
  | Seg_detach  (** 13 *)
  | Seg_detach_local  (** 14 *)
  | Seg_clone  (** 15 *)
  | Seg_snapshot  (** 16 *)
  | Seg_ctl  (** 17 *)
  | Seg_delete  (** 18 *)
  | Seg_lock  (** 19 *)
  | Seg_unlock  (** 20 *)
  | Heap_malloc  (** 21 *)
  | Heap_free  (** 22 *)
  | Proc_exit  (** 23 *)
  | Persist_save  (** 24 *)
  | Persist_restore  (** 25 *)
  | Proc_crash  (** 26 — involuntary teardown of a dead process *)
  | Pkey_alloc  (** 27 — allocate a protection key in a VAS *)
  | Pkey_assign  (** 28 — tag a segment's pages with a key *)
  | Pkey_switch  (** 29 — rewrite the per-core key register (no trap) *)
  | Vas_fork  (** 30 — copy-on-write duplicate of a VAS attachment *)
  | Proc_fork  (** 31 — copy-on-write duplicate of the calling process *)

val nr_count : int
val number : nr -> int
val of_number : int -> nr option
val name : nr -> string
(** The Fig. 3 spelling, e.g. ["vas_switch"], ["seg_alloc"]. *)

val all : nr array
(** Every entry in ABI-number order. *)

(** How an entry crosses into the kernel/service, which decides the
    cost charged before the body runs. *)
type crossing =
  | Trap  (** DragonFly: one syscall. Barrelfish: RPC round trip — two
              service syscalls plus two cache-line transfers. *)
  | Lock_path  (** runtime-library fast path: one uncontended lock *)
  | Inline  (** no entry cost of its own; the body charges everything
                (e.g. [vas_switch] charges Table 2's full breakdown) *)

val crossing : nr -> crossing
val entry_cost : Cost_model.t -> backend -> nr -> int
(** Simulated cycles charged at entry for this backend. *)

type t
(** Per-system dispatch state: backend identity plus count/cycle
    counters indexed by ABI number. *)

val create : backend -> t
val backend : t -> backend

val invoke : t -> cost:Cost_model.t -> Core.core -> nr -> (unit -> 'a) -> ('a, Error.t) result
(** [invoke t ~cost core nr body] is the ABI boundary: bumps the
    call counter, charges {!entry_cost} to [core], runs [body], and
    accounts the full simulated-cycle delta of the call to [nr].
    {!Error.Fault} raised by [body] becomes [Error _], and so does
    physical-memory exhaustion ([Machine.Out_of_memory]), as a
    [Capacity] fault whose [op] is the entry's {!name}. Every other
    exception (simulated page, protection and key faults, an injected
    kill, host errors) propagates unchanged. When the simulation's
    [Sj_obs] recorder is active, the call is bracketed with
    [Syscall_enter]/[Syscall_exit] events carrying the cycle delta and
    fault outcome — this one site instruments every dispatch entry. *)

val charge_entry : t -> cost:Cost_model.t -> Core.core -> nr -> unit
(** Count and charge just the entry cost — for operations embedded in
    another call's body (e.g. the per-segment lock acquisitions inside
    [vas_switch]). Emits the same enter/exit event pair as {!invoke}
    around the entry charge when tracing is on. *)

val count : t -> nr -> unit
(** Count a call without charging (entries with no core at hand, e.g.
    persistence ops, or zero-cost exits like [seg_unlock]). *)

val counters : t -> nr -> int * int
(** [(calls, simulated_cycles)] accumulated for one ABI number. *)

val snapshot : t -> (nr * int * int) list
(** Non-zero counters in ABI-number order. *)

val reset : t -> unit

val describe : t -> string
(** Multi-line "nr name calls cycles" table of the non-zero counters
    (for [sjctl] and debugging). *)
