(* Domain-parallelism tests: world state is per-simulation (no
   process-global counters), the Par work pool behaves as specified,
   and the shared workloads are bit-identical serial vs domain-parallel. *)

open Sj_util
module Machine = Sj_machine.Machine
module Api = Sj_core.Api
module Vas = Sj_core.Vas
module Segment = Sj_core.Segment

(* Two machines built in sequence (or anywhere else) must hand out
   identical ids and addresses — every counter hangs off the machine's
   Sim_ctx. Before the scoping refactor this failed: the second machine
   continued the first one's vid/sid/pid/layout sequences. *)
let test_two_machines_identical () =
  let build () =
    let machine = Machine.create Sj_machine.Platform.m2 in
    let sys = Api.boot machine in
    let proc = Sj_kernel.Process.create ~name:"det" machine in
    let proc2 = Sj_kernel.Process.create ~name:"det2" machine in
    let ctx = Api.context sys proc (Machine.core machine 0) in
    let vas1 = Api.vas_create ctx ~name:"a" ~mode:0o600 in
    let vas2 = Api.vas_create ctx ~name:"b" ~mode:0o600 in
    let seg1 = Api.seg_alloc_anywhere ctx ~name:"s1" ~size:(Size.mib 2) ~mode:0o600 in
    let seg2 = Api.seg_alloc_anywhere ctx ~name:"s2" ~size:(Size.mib 4) ~mode:0o600 in
    ( Sj_kernel.Process.pid proc,
      Sj_kernel.Process.pid proc2,
      Vas.vid vas1,
      Vas.vid vas2,
      Segment.sid seg1,
      Segment.sid seg2,
      Segment.base seg1,
      Segment.base seg2 )
  in
  let a = build () in
  let b = build () in
  Alcotest.(check bool) "second machine replays the first's ids/addresses" true (a = b)

let test_par_ordering () =
  Par.with_pool ~size:4 (fun pool ->
      let xs = List.init 25 (fun i -> i) in
      let ys = Par.map_list pool (fun x -> x * x) xs in
      Alcotest.(check (list int)) "results in task order" (List.map (fun x -> x * x) xs) ys)

let test_par_inline_when_size_one () =
  let caller = Domain.self () in
  Par.with_pool ~size:1 (fun pool ->
      Alcotest.(check int) "size" 1 (Par.size pool);
      let doms = Par.map pool (fun _ -> Domain.self ()) [| 0; 1; 2 |] in
      Array.iter
        (fun d ->
          Alcotest.(check bool) "size-1 pool runs on the calling domain" true (d = caller))
        doms)

(* map_sharded is a chunked map_list: same results in the same order,
   whatever the chunk count — including degenerate ones (more shards
   than elements, one shard, empty input). *)
let test_par_map_sharded () =
  Par.with_pool ~size:4 (fun pool ->
      let xs = List.init 57 (fun i -> i) in
      let expect = List.map (fun x -> (3 * x) + 1) xs in
      List.iter
        (fun shards ->
          let ys = Par.map_sharded pool ~shards (fun x -> (3 * x) + 1) xs in
          Alcotest.(check (list int))
            (Printf.sprintf "map_sharded ~shards:%d = List.map" shards)
            expect ys)
        [ 1; 2; 7; 16; 57; 100 ];
      Alcotest.(check (list int))
        "map_sharded on []" []
        (Par.map_sharded pool ~shards:8 (fun x -> x) []))

let test_par_error_lowest_index () =
  let got =
    try
      Par.with_pool ~size:3 (fun pool ->
          ignore
            (Par.run pool
               (Array.init 8 (fun i () ->
                    if i = 2 || i = 5 then failwith "boom" else i)));
          -1)
    with Par.Task_error (i, Failure _) -> i
  in
  Alcotest.(check int) "lowest failing index reported" 2 got

(* The shared workloads must fingerprint identically run serially and
   fanned across 4 domains. *)
let test_parallel_determinism () =
  let par =
    Par.with_pool ~size:4 (fun pool -> Par.map_list pool (fun (name, w) -> (name, w ())) Workloads.all)
  in
  Alcotest.(check bool) "serial vs -j 4 bit-identical" true (Workloads.run_all () = par)

let suite =
  [
    Alcotest.test_case "two machines identical" `Quick test_two_machines_identical;
    Alcotest.test_case "par ordering" `Quick test_par_ordering;
    Alcotest.test_case "par size-1 inline" `Quick test_par_inline_when_size_one;
    Alcotest.test_case "par error lowest index" `Quick test_par_error_lowest_index;
    Alcotest.test_case "par map_sharded" `Quick test_par_map_sharded;
    Alcotest.test_case "parallel determinism" `Quick test_parallel_determinism;
  ]
