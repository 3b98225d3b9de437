(** Set-associative data-cache model (physical-address tagged).

    Two levels are modeled per the evaluation's needs: a per-core L1D
    and a shared last-level cache. The model tracks presence only (no
    dirty write-back timing); an access returns the level that hit so
    the core can charge the right latency. *)

type t

type level = L1 | LLC | Memory

val create : size:int -> ways:int -> line:int -> t
(** [size] bytes, [ways]-associative, [line]-byte lines. *)

val access : t -> pa:int -> bool
(** Touch the line holding [pa]; true = hit, false = miss+fill. *)

val probe : t -> pa:int -> bool
(** Like {!access} but without filling on miss (used by coherence). *)

val invalidate_line : t -> pa:int -> unit
val clear : t -> unit
val hits : t -> int
val misses : t -> int
val line_size : t -> int
val pp_level : Format.formatter -> level -> unit
