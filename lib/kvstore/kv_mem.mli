(** Memory backends for the key-value store.

    The store engine is agnostic to where its bytes live. Classic Redis
    keeps them in the server process's private heap; RedisJMP keeps
    them in a shared lockable segment, allocated by the SpaceJMP
    runtime's per-segment mspace (§5.3). Both backends charge the
    simulated memory costs of every access to the acting core. *)

type t = {
  alloc : int -> int;  (** returns a VA; raises the [Capacity] fault on exhaustion *)
  free : int -> unit;
  read : va:int -> len:int -> bytes;
  write : va:int -> bytes -> unit;
  touch : va:int -> unit;  (** charge one access without data movement *)
}

val private_heap :
  Sj_machine.Machine.t ->
  Sj_kernel.Process.t ->
  Sj_machine.Machine.Core.core ->
  size:int ->
  t
(** Map an anonymous region into the process's primary address space
    and serve allocations from an mspace over it (a classic [malloc]
    heap). *)

val segment_heap :
  Sj_core.Api.ctx -> Sj_core.Segment.t -> t
(** The SpaceJMP runtime heap of a segment: allocations via
    [Api.malloc]/[Api.free] against the segment's shared mspace;
    accesses through the context's core. Valid only while the context
    is switched into a VAS containing the segment. *)
