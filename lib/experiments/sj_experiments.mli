(** Every experiment that writes a [BENCH_*.json] report, as
    {!Sj_bench.Experiment} specs. [bench/main.exe] and [sjctl] each
    offer one entry per spec; neither has per-experiment code. *)

val all : Sj_bench.Experiment.t list
(** cluster, compartments, explore, fork. *)

module Fork_spec = Fork_spec
(** The fork experiment, exposed so its claim predicates can be tested
    on hand-built points. *)
