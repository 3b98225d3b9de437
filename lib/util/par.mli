(** A fixed-size domain work-pool for independent simulations.

    Built on stdlib [Domain]/[Mutex]/[Condition] only. A pool of size
    [n] uses the submitting thread plus [n - 1] worker domains; a pool
    of size 1 runs everything inline on the caller (no domains at all),
    which makes [-j 1] scheduling bit-identical to plain serial code.

    Tasks must be *isolated*: each one should build its own machines,
    RNGs and contexts, and must not touch another task's mutable state
    (HACKING.md, "Domain safety"). Results come back in task order, so
    output is deterministic no matter which domain ran which task. *)

type t

exception Task_error of int * exn
(** Raised by {!run} when tasks failed: the lowest failing task index
    and its exception (later results are discarded, as serial execution
    would never have produced them). *)

val create : ?size:int -> unit -> t
(** [create ~size ()] builds a pool of [size] (default
    [Domain.recommended_domain_count ()], min 1). *)

val default_size : unit -> int
(** The default pool size: [Domain.recommended_domain_count ()]. *)

val size : t -> int
(** Total parallelism, including the submitting thread. *)

val run : t -> (unit -> 'a) array -> 'a array
(** Run every task, returning results in task order. Not reentrant:
    one batch at a time per pool, submitted from one thread. *)

val map : t -> ('a -> 'b) -> 'a array -> 'b array
val map_list : t -> ('a -> 'b) -> 'a list -> 'b list

val map_sharded : t -> shards:int -> ('a -> 'b) -> 'a list -> 'b list
(** Like {!map_list}, but packs the elements into at most [shards]
    contiguous balanced chunks and submits one pool task per chunk:
    long trial lists pay per-chunk (not per-element) scheduling, and a
    chunk's elements run serially in order on one domain. The result
    equals [List.map f xs]. On failure, {!Task_error} carries the
    failing *chunk* index. *)

val shutdown : t -> unit
(** Stop and join the worker domains. The pool must be idle. *)

val with_pool : ?size:int -> (t -> 'a) -> 'a
(** [with_pool f] runs [f] with a fresh pool and shuts it down after,
    even on exceptions. *)
