(** The [fork] experiment: a prefork worker pool vs fork-per-connection
    snapshots over a headline pair and a connections x write-fraction
    sweep, with the CoW claims, written to [BENCH_fork.json]. *)

type point = { cfg : Sj_kvstore.Kv_fork.config; res : Sj_kvstore.Kv_fork.result }
type r = { headline : point list; grid : point list }

val fault_storm : r -> string list
(** The [fault_storm_measured] claim: every fork-per-connection shape
    takes CoW faults and two forks per connection. Returns one line per
    shape that breaks it (empty when the claim holds). *)

val spec : Sj_bench.Experiment.t
