(** The [compartments] experiment: vas_switch vs capability invoke vs
    protection-key switch over a headline trio and a compartments x
    crossing-frequency sweep, written to [BENCH_compartments.json]. *)

val spec : Sj_bench.Experiment.t
