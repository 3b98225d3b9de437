(** The [fork] experiment: a prefork worker pool vs fork-per-connection
    snapshots over a headline pair and a connections x write-fraction
    sweep, with the CoW claims, written to [BENCH_fork.json]. *)

val spec : Sj_bench.Experiment.t
