(** Fault plans: declarative descriptions of the faults to inject.

    A plan is pure data — a list of faults, each pinned to the exact
    deterministic point where it fires (a pid's n-th invocation of a
    dispatch entry, the n-th segment grow, the n-th persist save). The
    {!Injector} interprets plans; given the same plan and seed, every
    run fires the same faults at the same simulated-cycle points. *)

type fault =
  | Kill_at_syscall of { pid : int; nr : int; occurrence : int }
      (** Kill [pid] on its [occurrence]-th (1-based) invocation of
          dispatch entry number [nr], before the entry body runs. *)
  | Kill_holding_lock of { pid : int; sid : int }
      (** Kill [pid] at its first syscall issued while holding a lock on
          segment [sid] — death inside the critical section (§3.2). *)
  | Would_block_storm of { pid : int; nr : int; count : int }
      (** The next [count] invocations of [nr] by [pid] fail with a
          transient [Would_block] instead of running. *)
  | Grow_fail of { nth : int }
      (** The [nth] (1-based, machine-wide) segment grow fails with
          [Capacity]. *)
  | Torn_write of { save : int; at_byte : int }
      (** The [save]-th (1-based) persist image is truncated at byte
          [at_byte], as if the writer died mid-write; [at_byte = -1]
          draws the offset from the injector's seeded rng. *)

type t = fault list

(** Builders, for readable plan literals in tests and sjctl. *)

val kill_at_syscall : pid:int -> nr:int -> ?occurrence:int -> unit -> fault
val kill_holding_lock : pid:int -> sid:int -> fault
val would_block_storm : pid:int -> nr:int -> count:int -> fault
val grow_fail : nth:int -> fault
val torn_write : ?at_byte:int -> save:int -> unit -> fault

val kind_name : fault -> string
(** The fault's kind: the name of the builder that makes it. *)

val templates : fault list
(** One fault of each kind, in declaration order, with placeholder
    fields. Built from a wildcard-free successor chain over the
    constructors, so a new kind does not compile until it is listed. *)

val all_kinds : string list
(** The {!kind_name} of each of {!templates}. The explore sweep must
    cover them all, and the fault suite arms each one. *)

val fault_to_string : fault -> string
val to_string : t -> string
