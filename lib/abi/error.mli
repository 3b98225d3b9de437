(** The typed fault model of the SpaceJMP kernel ABI.

    Every failure that can cross the ABI boundary is one of these
    errno-style codes, carried in a {!t} together with the operation
    that failed and a human-readable detail string. Kernel- and
    core-layer code raises {!Fault}; the dispatch table ({!Sys.invoke})
    converts it into [('a, t) result] at the boundary ([Api.Checked]),
    and the raising [Api] surface re-raises the same {!Fault}. There is
    no other error exception.

    The two OS personalities differ in how a fault travels (DragonFly:
    syscall error return; Barrelfish: RPC error reply) but not in what
    it says — the code set is backend-independent, like errno. *)

type code =
  | Permission_denied  (** ACL or capability check failed (EPERM) *)
  | Would_block  (** lockable segment busy; retry or wait (EWOULDBLOCK) *)
  | Name_exists  (** VAS/segment/service name already registered (EEXIST) *)
  | Unknown_name  (** lookup target does not exist (ENOENT) *)
  | Stale_handle  (** detached handle, destroyed or revoked object (ESTALE) *)
  | Address_conflict  (** placement collides with an existing mapping (EADDRINUSE) *)
  | Layout_exhausted  (** global address range has no room left (ELAYOUT) *)
  | Invalid  (** malformed argument or unsupported operation (EINVAL) *)
  | Capacity  (** quota/capacity: heap or reservation exhausted (ENOSPC) *)
  | Key_violation
      (** a data access was denied by the protection-key register — the
          compartment stepped outside its keys (EKEY) *)

type t = { code : code; op : string; detail : string }
(** [op] is the ABI operation name (e.g. ["vas_switch"]); [detail] says
    what specifically went wrong. *)

exception Fault of t
(** The only exception kernel/core layers raise for ABI-visible
    failures. A registered printer renders it readably in backtraces. *)

val make : code -> op:string -> string -> t
val fail : code -> op:string -> string -> 'a
(** [fail code ~op detail] raises {!Fault}. *)

val failf : code -> op:string -> ('a, unit, string, 'b) format4 -> 'a
(** [fail] with a format string for the detail. *)

val code_of : t -> code

val all_codes : code list
(** Every code, in errno order — tests iterate this to prove coverage.
    Built from a wildcard-free successor chain, so a new constructor
    does not compile until it is listed here. *)

val code_name : code -> string
(** Errno-style mnemonic, e.g. ["EPERM"], ["ELAYOUT"]. *)

val errno : code -> int
(** Stable small integer per code (1..10); part of the ABI. *)

val exit_code : code -> int
(** Distinct process exit code for CLI tools ([10 + errno]), leaving
    0..9 for tool-specific statuses. *)

val to_string : t -> string
(** One-line rendering: ["op: detail (ENAME)"]. *)

val pp : Format.formatter -> t -> unit
val pp_code : Format.formatter -> code -> unit
val equal_code : code -> code -> bool
