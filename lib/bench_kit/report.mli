(** BENCH JSON report, schema ["spacejmp-bench/4"].

    v2 added host metadata (cores, OCaml version, [-j]) and the
    serial-vs-parallel comparison to PR 1's fastpath schema; v3 added
    per-bench shard counts, parallel-phase walls, and host GC
    allocation counters. v4 completes the host block: the OS-detected
    processor count next to the runtime's domain heuristic, and the
    shard -> pool-slot placement of the reported parallel batch per
    bench (a host artifact, never part of a fingerprint). The checker
    refuses any report recording a fingerprint divergence, so a report
    that exists and checks is trustworthy. *)

type bench_report = {
  name : string;
  shards : int;  (** parallel-phase tasks this bench contributes *)
  placement : int array;  (** pool slot of each shard, reported batch *)
  equal_between_modes : bool;  (** fast path on vs off *)
  equal_serial_parallel : bool;  (** serial vs domain pool *)
  wall_slow : float;  (** serial, fast path off *)
  wall_fast : float;  (** serial, fast path on *)
  wall_parallel : float;  (** shard walls summed, parallel phase, fast *)
  minor_words : float;  (** Gc minor words allocated, serial fast run *)
  major_words : float;  (** Gc major words allocated, serial fast run *)
  simulated : Suite.fingerprint;
}

type t = {
  quick : bool;
  jobs : int;
  cores : int;  (** [Domain.recommended_domain_count] *)
  detected_cores : int;  (** OS-reported online processors *)
  ocaml_version : string;
  benches : bench_report list;
  wall_serial : float;  (** fast path on, whole suite, serial *)
  wall_parallel : float;  (** fast path on, whole suite, pool batch wall *)
}

val schema : string

val detected_cores : unit -> int
(** Online processors as the OS reports them (/proc/cpuinfo), falling
    back to [Domain.recommended_domain_count] where unreadable. *)

val to_json : t -> string

val rules : string list
(** The {!Sj_util.Json.check} rules of a v4 report: the schema, every
    required key at its path, and no recorded divergence
    ([equal_between_modes] and [equal_serial_parallel] true). *)

val check_string : string -> (unit, string list) result
(** Parse the full JSON grammar, then apply {!rules}. *)

val check_file : string -> (unit, string list) result
