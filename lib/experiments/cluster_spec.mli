(** The [cluster] experiment: headline single-op vs batched pair, the
    shards x batch x pipeline x backend sweep and a shard-crash fault
    run, written to [BENCH_cluster.json]. *)

val spec : Sj_bench.Experiment.t
