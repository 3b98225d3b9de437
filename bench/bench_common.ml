(* Shared helpers for the benchmark harness. *)
open Sj_util
module Machine = Sj_machine.Machine
module Core = Machine.Core
module Platform = Sj_machine.Platform
module Cost_model = Sj_machine.Cost_model

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let note fmt = Printf.ksprintf (fun s -> Printf.printf "%s\n" s) fmt

(* A fresh machine + booted system + one process context on core 0. *)
let fresh_system ?(platform = Platform.m2) ?(backend = Sj_core.Api.Dragonfly) () =
  let machine = Machine.create platform in
  let sys = Sj_core.Api.boot ~backend machine in
  let proc = Sj_kernel.Process.create ~name:"bench" machine in
  let ctx = Sj_core.Api.context sys proc (Machine.core machine 0) in
  (machine, sys, ctx)

let ms_of_cycles platform cycles =
  Cost_model.cycles_to_ms (platform : Platform.t).cost cycles

let pow2_label bytes = Printf.sprintf "2^%d" (Size.log2 bytes)

(* ---- domain parallelism for the experiment drivers ----

   Experiments fan independent trials (each builds its own machine, so
   each carries its own Sim_ctx) across one shared pool and then emit
   rows serially, in trial order — so the printed tables are
   byte-identical to a serial run no matter what -j is. *)

let jobs = ref 1

(* Set by main.ml's --quick: the experiments that have a CI-sized mode
   (cluster, compartments, explore, fork) read it; the table/figure
   experiments ignore it. *)
let quick = ref false

let pool_cell = ref None

let pool () =
  match !pool_cell with
  | Some p -> p
  | None ->
    let p = Par.create ~size:!jobs () in
    pool_cell := Some p;
    p

(* Order-preserving parallel map. Trials are packed into a few
   contiguous chunks per domain rather than one task per trial, so a
   long trial list pays per-chunk scheduling while mildly oversubscribed
   chunks (4 per domain) still balance uneven trial costs. With -j 1
   this degrades to an inline [List.map] on the submitting domain. *)
let par_map f xs =
  let p = pool () in
  Par.map_sharded p ~shards:(4 * Par.size p) f xs
