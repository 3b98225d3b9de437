(** The [explore] experiment: the fault-plan x schedule x backend
    sweep with every invariant checked after every run and each
    violation replayed from its key, written to [BENCH_explore.json]. *)

val spec : Sj_bench.Experiment.t
