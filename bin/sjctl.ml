(* sjctl — command-line driver for the SpaceJMP simulator.

   Subcommands:
     platforms          list the simulated hardware platforms (Table 1)
     gups               run one GUPS design and print its metrics
     demo               run a scripted end-to-end SpaceJMP session
*)

open Cmdliner
module Platform = Sj_machine.Platform

let platforms_cmd =
  let run () =
    List.iter
      (fun p -> Format.printf "%a@." Platform.pp p)
      [ Platform.m1; Platform.m2; Platform.m3 ]
  in
  Cmd.v (Cmd.info "platforms" ~doc:"List simulated hardware platforms (paper Table 1)")
    Term.(const run $ const ())

let design_conv =
  let parse = function
    | "spacejmp" -> Ok Sj_gups.Gups.Spacejmp
    | "map" -> Ok Sj_gups.Gups.Map
    | "mp" -> Ok Sj_gups.Gups.Mp
    | s -> Error (`Msg (Printf.sprintf "unknown design %S (spacejmp|map|mp)" s))
  in
  Arg.conv (parse, fun fmt d -> Sj_gups.Gups.pp_design fmt d)

let gups_cmd =
  let design =
    Arg.(value & opt design_conv Sj_gups.Gups.Spacejmp & info [ "design"; "d" ] ~doc:"Design: spacejmp, map or mp")
  in
  let windows = Arg.(value & opt int 8 & info [ "windows"; "w" ] ~doc:"Number of windows") in
  let updates = Arg.(value & opt int 64 & info [ "updates"; "u" ] ~doc:"Updates per set") in
  let visits = Arg.(value & opt int 200 & info [ "visits" ] ~doc:"Window visits") in
  let window_mib = Arg.(value & opt int 64 & info [ "window-mib" ] ~doc:"Window size in MiB") in
  let tags = Arg.(value & flag & info [ "tags" ] ~doc:"Enable TLB tags (SpaceJMP design)") in
  let run design windows updates visits window_mib tags =
    let cfg =
      {
        Sj_gups.Gups.default_config with
        windows;
        updates_per_set = updates;
        window_visits = visits;
        window_size = Sj_util.Size.mib window_mib;
        tags;
      }
    in
    let r = Sj_gups.Gups.run cfg ~design in
    Format.printf "design=%s windows=%d updates/set=%d@." (Sj_gups.Gups.design_name design)
      windows updates;
    Format.printf "  MUPS            %.2f@." r.mups;
    Format.printf "  cycles          %d@." r.cycles;
    Format.printf "  switches/sec    %.0f@." r.switches_per_sec;
    Format.printf "  TLB misses/sec  %.0f@." r.tlb_misses_per_sec
  in
  Cmd.v (Cmd.info "gups" ~doc:"Run the GUPS benchmark (paper sec 5.2)")
    Term.(const run $ design $ windows $ updates $ visits $ window_mib $ tags)

let demo_cmd =
  let verbose = Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Log SpaceJMP API events") in
  let counters =
    Arg.(value & flag & info [ "counters" ] ~doc:"Print the per-syscall ABI counters at the end")
  in
  let run verbose counters =
    if verbose then begin
      Logs.set_reporter (Logs.format_reporter ());
      Logs.set_level ~all:true (Some Logs.Debug)
    end;
    let open Sj_core in
    let module Machine = Sj_machine.Machine in
    let module Process = Sj_kernel.Process in
    let module Prot = Sj_paging.Prot in
    let machine = Machine.create Platform.m2 in
    let sys = Api.boot machine in
    let producer = Process.create ~name:"producer" machine in
    let ctx = Api.context sys producer (Machine.core machine 0) in
    Format.printf "booted %s (DragonFly backend)@." (Platform.m2).name;
    let vas = Api.vas_create ctx ~name:"demo" ~mode:0o666 in
    let seg = Api.seg_alloc_anywhere ctx ~name:"demo-heap" ~size:(Sj_util.Size.mib 8) ~mode:0o666 in
    Api.seg_attach ctx vas seg ~prot:Prot.rw;
    Format.printf "created VAS 'demo' with an 8 MiB segment at 0x%x@." (Segment.base seg);
    let vh = Api.vas_attach ctx vas in
    Api.vas_switch ctx vh;
    let p = Api.malloc ctx 64 in
    Api.store_bytes ctx ~va:p (Bytes.of_string "hello from the producer");
    Api.switch_home ctx;
    Format.printf "producer wrote a string at 0x%x and exited the VAS@." p;
    let consumer = Process.create ~name:"consumer" machine in
    let ctx2 = Api.context sys consumer (Machine.core machine 1) in
    let vh2 = Api.vas_attach ctx2 (Api.vas_find ctx2 ~name:"demo") in
    Api.vas_switch ctx2 vh2;
    let s = Api.load_bytes ctx2 ~va:p ~len:23 in
    Format.printf "consumer read back: %S@." (Bytes.to_string s);
    Format.printf "switches performed: %d@.@." (Registry.switch_count (Api.registry sys));
    print_string (Registry.describe (Api.registry sys));
    if counters then begin
      Format.printf "@.syscall counters:@.";
      print_string (Sj_abi.Sys.describe (Api.syscalls sys))
    end
  in
  Cmd.v (Cmd.info "demo" ~doc:"Scripted end-to-end SpaceJMP session")
    Term.(const run $ verbose $ counters)

let redis_cmd =
  let clients = Arg.(value & opt int 1 & info [ "clients"; "c" ] ~doc:"Number of clients") in
  let sets = Arg.(value & opt float 0.0 & info [ "set-fraction" ] ~doc:"Fraction of SET requests") in
  let mode =
    Arg.(value & opt string "redisjmp" & info [ "mode"; "m" ] ~doc:"redisjmp | redisjmp-tags | redis | redis6x")
  in
  let run clients set_fraction mode =
    let mode =
      match mode with
      | "redisjmp" -> Sj_kvstore.Kv_sim.Redisjmp { tags = false }
      | "redisjmp-tags" -> Sj_kvstore.Kv_sim.Redisjmp { tags = true }
      | "redis" -> Sj_kvstore.Kv_sim.Redis { instances = 1 }
      | "redis6x" -> Sj_kvstore.Kv_sim.Redis { instances = 6 }
      | m -> Sj_abi.Error.fail Invalid ~op:"redis" ("unknown mode " ^ m)
    in
    let cfg = { Sj_kvstore.Kv_sim.default_config with clients; set_fraction; mode } in
    let r = Sj_kvstore.Kv_sim.run cfg in
    Format.printf "clients=%d setf=%.2f requests=%d throughput=%.0f req/s switches=%d tlb_misses=%d lock_wait=%d@."
      clients set_fraction r.requests r.throughput r.switches r.tlb_misses r.lock_wait_cycles
  in
  Cmd.v (Cmd.info "redis" ~doc:"Run the Redis/RedisJMP throughput simulation (sec 5.3)")
    Term.(const run $ clients $ sets $ mode)

let faults_cmd =
  let clients =
    Arg.(value & opt int 4 & info [ "clients"; "c" ] ~doc:"Surviving reader clients")
  in
  let requests =
    Arg.(value & opt int 32 & info [ "requests"; "n" ] ~doc:"Requests per client per phase")
  in
  let attempts =
    Arg.(value & opt int 4 & info [ "attempts" ] ~doc:"switch_retry budget per request")
  in
  let backend =
    Arg.(value & opt string "dragonfly" & info [ "backend"; "b" ] ~doc:"dragonfly | barrelfish")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Injector seed") in
  let run clients requests attempts backend seed =
    let module Kv_avail = Sj_kvstore.Kv_avail in
    let backend =
      match backend with
      | "dragonfly" -> Sj_core.Api.Dragonfly
      | "barrelfish" -> Sj_core.Api.Barrelfish
      | b -> Sj_abi.Error.fail Invalid ~op:"faults" ("unknown backend " ^ b)
    in
    let cfg =
      {
        Kv_avail.default_config with
        clients;
        requests_per_client = requests;
        retry_attempts = attempts;
        backend;
        seed;
      }
    in
    let r = Kv_avail.run cfg in
    let ms c = Sj_machine.Cost_model.cycles_to_ms (cfg.platform : Platform.t).cost c in
    Format.printf "healthy:   %d requests served@." r.served_before;
    Format.printf
      "outage:    lock wedged %d cycles (%.3f ms); %d requests exhausted their retry \
       budget, %d survivor cycles lost@."
      r.outage_cycles (ms r.outage_cycles) r.stalled_requests r.stall_cycles;
    Format.printf "recovery:  crash teardown %d cycles (%.3f ms); %d lock(s) reclaimed, %d crash(es)@."
      r.recovery_cycles (ms r.recovery_cycles) r.lock_reclaims r.crashes;
    Format.printf "recovered: %d requests served@." r.served_after;
    Format.printf "survivors_ok=%b lock_free=%b orphan_served=%b@." r.survivors_ok
      r.lock_free r.orphan_served;
    if not (r.survivors_ok && r.lock_free && r.orphan_served) then exit 1
  in
  Cmd.v
    (Cmd.info "faults"
       ~doc:"Kill a RedisJMP lock holder under fault injection; report availability")
    Term.(const run $ clients $ requests $ attempts $ backend $ seed)

let check_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"IR source file") in
  let no_run = Arg.(value & flag & info [ "no-run" ] ~doc:"Analyze only; do not execute") in
  let run file no_run =
    let ic = open_in file in
    let n = in_channel_length ic in
    let src = really_input_string ic n in
    close_in ic;
    match Sj_checker.Parser.parse src with
    | Error e ->
      Format.printf "parse error: %s@." e;
      exit 1
    | Ok prog ->
      let info = Sj_checker.Analysis.analyze prog in
      let violations = Sj_checker.Analysis.violations info in
      Format.printf "%d unsafe site(s):@." (List.length violations);
      List.iter (fun v -> Format.printf "  %a@." Sj_checker.Analysis.pp_violation v) violations;
      let instrumented, report = Sj_checker.Transform.instrument_optimized prog in
      Format.printf "%d check(s) inserted (%d of %d memory ops proven safe)@."
        report.Sj_checker.Transform.checks_inserted report.Sj_checker.Transform.elided
        report.Sj_checker.Transform.memory_ops;
      if not no_run then begin
        Format.printf "--- instrumented program ---@.%a" Sj_checker.Ir.pp_program instrumented;
        match Sj_checker.Interp.run instrumented with
        | Sj_checker.Interp.Finished (Some (Sj_checker.Interp.Int n)) ->
          Format.printf "execution: finished with %d@." n
        | Sj_checker.Interp.Finished _ -> Format.printf "execution: finished@."
        | Sj_checker.Interp.Trapped { site; what } ->
          Format.printf "execution: TRAPPED at %s (%s)@." site what
        | Sj_checker.Interp.Faulted { site; what } ->
          Format.printf "execution: FAULTED at %s (%s)@." site what
        | Sj_checker.Interp.Type_fault { site; what } ->
          Format.printf "execution: type fault at %s (%s)@." site what
        | Sj_checker.Interp.Out_of_fuel -> Format.printf "execution: out of fuel@."
      end
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Run the sec 4.3 safety analysis on an IR source file")
    Term.(const run $ file $ no_run)

let persist_cmd =
  let image = Arg.(value & opt string "/tmp/spacejmp.img" & info [ "image" ] ~doc:"Image path") in
  let run image_path =
    let module Api = Sj_core.Api in
    let module Segment = Sj_core.Segment in
    let module Machine = Sj_machine.Machine in
    let module Process = Sj_kernel.Process in
    let module Prot = Sj_paging.Prot in
    (* Life before the reboot. *)
    let m1 = Machine.create Platform.m2 in
    let sys1 = Api.boot m1 in
    let p1 = Process.create ~name:"before" m1 in
    let ctx1 = Api.context sys1 p1 (Machine.core m1 0) in
    let vas = Api.vas_create ctx1 ~name:"durable" ~mode:0o666 in
    let seg = Api.seg_alloc_anywhere ctx1 ~name:"durable.data" ~size:(Sj_util.Size.mib 4) ~mode:0o666 in
    Api.seg_attach ctx1 vas seg ~prot:Prot.rw;
    let vh = Api.vas_attach ctx1 vas in
    Api.vas_switch ctx1 vh;
    let p = Api.malloc ctx1 64 in
    Api.store_bytes ctx1 ~va:p (Bytes.of_string "survived the reboot");
    Api.switch_home ctx1;
    let image = Sj_persist.Persist.save sys1 in
    let oc = open_out_bin image_path in
    output_bytes oc image;
    close_out oc;
    Format.printf "saved %s to %s@." (Sj_persist.Persist.image_info image) image_path;
    (* "Reboot": a brand new machine, restore from the file. *)
    let m2 = Machine.create Platform.m2 in
    let sys2 = Api.boot m2 in
    let p2 = Process.create ~name:"after" m2 in
    let ctx2 = Api.context sys2 p2 (Machine.core m2 0) in
    let ic = open_in_bin image_path in
    let image = really_input_string ic (in_channel_length ic) in
    close_in ic;
    Sj_persist.Persist.restore sys2 (Bytes.of_string image);
    let vh2 = Api.vas_attach ctx2 (Api.vas_find ctx2 ~name:"durable") in
    Api.vas_switch ctx2 vh2;
    Format.printf "after reboot, address %s reads: %S@." (Sj_util.Addr.to_string p)
      (Bytes.to_string (Api.load_bytes ctx2 ~va:p ~len:19))
  in
  Cmd.v
    (Cmd.info "persist-demo" ~doc:"Save a VAS image, 'reboot' onto a new machine, restore it")
    Term.(const run $ image)

let inspect_cmd =
  let image = Arg.(required & pos 0 (some file) None & info [] ~docv:"IMAGE" ~doc:"Image file") in
  let run path =
    let ic = open_in_bin path in
    let data = really_input_string ic (in_channel_length ic) in
    close_in ic;
    let image = Bytes.of_string data in
    print_endline (Sj_persist.Persist.image_info image);
    print_string (Sj_persist.Persist.describe image)
  in
  Cmd.v (Cmd.info "inspect" ~doc:"List the segments and VASes inside a persistence image")
    Term.(const run $ image)

let samtools_cmd =
  let op =
    Arg.(value & opt string "flagstat"
         & info [ "op" ] ~doc:"flagstat | qname-sort | coord-sort | index | view")
  in
  let region =
    Arg.(value & opt string "chr1:50000-52000"
         & info [ "region" ] ~doc:"For --op view: rname:lo-hi")
  in
  let design =
    Arg.(value & opt string "spacejmp" & info [ "design"; "d" ] ~doc:"sam | bam | mmap | spacejmp")
  in
  let reads = Arg.(value & opt int 20_000 & info [ "reads" ] ~doc:"Synthetic read count") in
  let run op design reads region =
    let module P = Sj_genomics.Pipelines in
    let module Record = Sj_genomics.Record in
    let module Machine = Sj_machine.Machine in
    if op = "view" then begin
      (* Region query through the indexed, compressed stream. *)
      let rname, lo, hi =
        match String.split_on_char ':' region with
        | [ rname; span ] -> (
          match String.split_on_char '-' span with
          | [ lo; hi ] -> (rname, int_of_string lo, int_of_string hi)
          | _ -> Sj_abi.Error.fail Invalid ~op:"samtools" "bad region (rname:lo-hi)")
        | _ -> Sj_abi.Error.fail Invalid ~op:"samtools" "bad region (rname:lo-hi)"
      in
      let records =
        Record.generate ~seed:42 ~references:Record.default_references ~reads ~read_len:100
      in
      let machine = Machine.create Platform.m1 in
      let core = Machine.core machine 0 in
      let v = Sj_genomics.View.build Record.default_references records in
      let touched, total = Sj_genomics.View.blocks_for v ~rname ~lo ~hi in
      let c0 = Machine.Core.cycles core in
      let hits = Sj_genomics.View.query ~charge_to:core v ~rname ~lo ~hi in
      let cycles = Machine.Core.cycles core - c0 in
      Format.printf "view %s:%d-%d over %d records: %d hit(s), %d of %d blocks touched, %d cycles@."
        rname lo hi reads (List.length hits) touched total cycles;
      List.iteri
        (fun i (r : Record.t) ->
          if i < 5 then Format.printf "  %s %s:%d mapq=%d@." r.qname r.rname r.pos r.mapq)
        hits;
      if List.length hits > 5 then Format.printf "  ... (%d more)@." (List.length hits - 5);
      exit 0
    end;
    let op =
      match op with
      | "flagstat" -> P.Flagstat
      | "qname-sort" -> P.Qname_sort
      | "coord-sort" -> P.Coord_sort
      | "index" -> P.Index
      | o -> Sj_abi.Error.fail Invalid ~op:"samtools" ("unknown op " ^ o)
    in
    let platform = Platform.m1 in
    let machine = Machine.create platform in
    let sys = Sj_core.Api.boot machine in
    let proc = Sj_kernel.Process.create ~name:"samtools" machine in
    let ctx = Sj_core.Api.context sys proc (Machine.core machine 0) in
    let fs = Sj_memfs.Memfs.create machine in
    let env = P.make_env machine fs (Machine.core machine 1) in
    let records =
      Record.generate ~seed:42 ~references:Record.default_references ~reads ~read_len:100
    in
    let cycles, flagstat =
      match design with
      | "sam" ->
        P.write_input_file env ~format:`Sam ~path:"in.sam" records;
        let c = P.run_file env ~format:`Sam op ~in_path:"in.sam" ~out_path:"out.sam" in
        (c, P.flagstat_result env)
      | "bam" ->
        P.write_input_file env ~format:`Bam ~path:"in.bam" records;
        let c = P.run_file env ~format:`Bam op ~in_path:"in.bam" ~out_path:"out.bam" in
        (c, P.flagstat_result env)
      | "mmap" ->
        let store = P.prepare_mmap env ~path:"region" records in
        let c = P.run_mmap store op in
        (c, P.flagstat_result env)
      | "spacejmp" ->
        let store = P.prepare_spacejmp ctx ~name:"samtools" records in
        let c = P.run_spacejmp store op in
        (c, P.spacejmp_flagstat store)
      | d -> Sj_abi.Error.fail Invalid ~op:"samtools" ("unknown design " ^ d)
    in
    Format.printf "%s / %s over %d records: %d cycles (%.3f ms on %s)@." design
      (P.op_name op) reads cycles
      (Sj_machine.Cost_model.cycles_to_ms platform.cost cycles)
      platform.name;
    match (op, flagstat) with
    | P.Flagstat, Some f ->
      Format.printf "%d total, %d mapped, %d paired, %d proper, %d dup, %d secondary@."
        f.Sj_genomics.Ops.total f.Sj_genomics.Ops.mapped f.Sj_genomics.Ops.paired
        f.Sj_genomics.Ops.proper_pair f.Sj_genomics.Ops.duplicates
        f.Sj_genomics.Ops.secondary
    | _ -> ()
  in
  Cmd.v (Cmd.info "samtools" ~doc:"Run one SAMTools operation under a storage design (sec 5.4)")
    Term.(const run $ op $ design $ reads $ region)

(* A scripted session that exercises every event family the obs layer
   records: tagged VAS switches, a tag request, segment lock
   acquisitions including a genuine conflict, a snapshot (machine-wide
   TLB shootdown), a resolved COW write fault, and attachment teardown.
   Returns the machine whose recorder holds the trace. *)
let traced_session ~capacity =
  let open Sj_core in
  let module Machine = Sj_machine.Machine in
  let module Process = Sj_kernel.Process in
  let module Prot = Sj_paging.Prot in
  Sj_obs.Recorder.with_tracing ~capacity true (fun () ->
      let machine = Machine.create Platform.m2 in
      let sys = Api.boot machine in
      let producer = Process.create ~name:"producer" machine in
      let ctx = Api.context sys producer (Machine.core machine 0) in
      let vas = Api.vas_create ctx ~name:"traced" ~mode:0o666 in
      let seg =
        Api.seg_alloc_anywhere ctx ~name:"traced-heap" ~size:(Sj_util.Size.mib 8)
          ~mode:0o666
      in
      Api.seg_attach ctx vas seg ~prot:Prot.rw;
      Api.vas_ctl ctx (`Request_tag vas);
      let vh = Api.vas_attach ctx vas in
      Api.vas_switch ctx vh;
      let p = Api.malloc ctx 256 in
      Api.store_bytes ctx ~va:p (Bytes.of_string "traced payload");
      (* Compartments: tag the heap with a key, cross into it (recorded
         pkey switches, zero flushes), then cross into a key that does
         NOT own the heap and touch it — a recorded Key_violation the
         session survives. *)
      let key = Api.pkey_alloc ctx vas in
      Api.pkey_assign ctx vas seg ~key;
      Api.pkey_switch ctx ~key;
      ignore (Api.load_bytes ctx ~va:p ~len:14);
      let stranger = Api.pkey_alloc ctx vas in
      Api.pkey_switch ctx ~key:stranger;
      (try ignore (Api.load_bytes ctx ~va:p ~len:1)
       with Sj_abi.Error.Fault f when f.code = Sj_abi.Error.Key_violation -> ());
      Api.pkey_switch ctx ~key:0;
      (* A second process knocking on the exclusively locked segment:
         its switch fails with Would_block — a recorded lock conflict. *)
      let consumer = Process.create ~name:"consumer" machine in
      let ctx2 = Api.context sys consumer (Machine.core machine 1) in
      let vh2 = Api.vas_attach ctx2 (Api.vas_find ctx2 ~name:"traced") in
      (try Api.vas_switch ctx2 vh2
       with Sj_abi.Error.Fault { code = Would_block; _ } -> ());
      (* Snapshot while mapped: write-protects the original everywhere
         (machine-wide TLB shootdown), so the next store COW-faults. *)
      ignore (Api.seg_snapshot ctx seg ~name:"traced-snap");
      Api.store_bytes ctx ~va:p (Bytes.of_string "traced payload v2");
      Api.switch_home ctx;
      (* The lock is free now; the consumer gets in and reads. *)
      Api.vas_switch ctx2 vh2;
      ignore (Api.load_bytes ctx2 ~va:p ~len:17);
      Api.switch_home ctx2;
      (* Teardown: each detach destroys a vmspace (charged PTE clears). *)
      Api.vas_detach ctx vh;
      Api.vas_detach ctx2 vh2;
      machine)

let session_recorder machine =
  match Sj_obs.Recorder.of_ctx (Sj_machine.Machine.sim_ctx machine) with
  | Some r -> r
  | None ->
    prerr_endline "sjctl: no recorder attached (tracing was off?)";
    exit 2

let capacity_arg =
  Arg.(
    value
    & opt int Sj_obs.Recorder.default_capacity
    & info [ "capacity" ] ~docv:"N"
        ~doc:"Event ring-buffer capacity (oldest events drop beyond this)")

let trace_cmd =
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out"; "o" ] ~docv:"FILE"
          ~doc:"Write the trace to $(docv) instead of stdout")
  in
  let text =
    Arg.(
      value & flag
      & info [ "text" ]
          ~doc:"One event per line (seq, cycles, core, name, args) instead of \
                Chrome trace JSON")
  in
  let run out text capacity =
    let machine = traced_session ~capacity in
    let r = session_recorder machine in
    let events = Sj_obs.Recorder.events r in
    let dropped = Sj_obs.Recorder.dropped r in
    if dropped > 0 then
      Printf.eprintf "sjctl trace: ring wrapped, %d oldest event(s) dropped\n"
        dropped;
    let doc =
      if text then Sj_obs.Trace.to_text events
      else Sj_obs.Trace.to_chrome_json events
    in
    match out with
    | None -> print_string doc
    | Some path ->
      let oc = open_out path in
      output_string oc doc;
      close_out oc;
      Format.printf "wrote %d event(s) to %s%s@." (List.length events) path
        (if text then "" else " (load in chrome://tracing or Perfetto)")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run a scripted session with tracing on and export the event trace \
          (Chrome trace-event JSON for chrome://tracing / Perfetto)")
    Term.(const run $ out $ text $ capacity_arg)

let stats_cmd =
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Emit JSON instead of text") in
  let run json capacity =
    let machine = traced_session ~capacity in
    let r = session_recorder machine in
    let m = Sj_obs.Recorder.metrics r in
    print_string
      (if json then Sj_obs.Metrics.to_json m else Sj_obs.Metrics.describe m)
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Run a scripted session with tracing on and print the aggregated \
          metrics (per-syscall cycle histograms, TLB/lock/fault counters)")
    Term.(const run $ json $ capacity_arg)

(* One command per Sj_experiments spec; the shared runner prints the
   tables, runs the audits and claims, and writes (or refuses) the
   report. *)
let experiment_cmd spec =
  let module E = Sj_bench.Experiment in
  let quick = Arg.(value & flag & info [ "quick" ] ~doc:"CI problem sizes (seconds, not minutes)") in
  let out =
    Arg.(
      value
      & opt string (E.out_path spec)
      & info [ "out"; "o" ] ~docv:"FILE"
          ~doc:(Printf.sprintf "Write the JSON report (schema %s) to $(docv)" (E.schema spec)))
  in
  let jobs =
    Arg.(
      value
      & opt int (Sj_util.Par.default_size ())
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:"Fan sweep points across $(docv) domains (wall clock only)")
  in
  let run quick out jobs = exit (E.execute ~out ~quick ~jobs spec) in
  Cmd.v (Cmd.info (E.name spec) ~doc:(E.doc spec)) Term.(const run $ quick $ out $ jobs)

let () =
  let info = Cmd.info "sjctl" ~doc:"SpaceJMP simulator control tool" in
  let group =
    Cmd.group info
      ([
         platforms_cmd; gups_cmd; demo_cmd; redis_cmd; faults_cmd; check_cmd; persist_cmd;
         inspect_cmd; samtools_cmd; trace_cmd; stats_cmd;
       ]
      @ List.map experiment_cmd Sj_experiments.all)
  in
  (* A typed ABI fault becomes a one-line message plus a per-code exit
     status (10 + errno). Physical exhaustion outside an ABI entry (a
     CoW break on a data access, a restore rebuilding segments) exits
     as Capacity; anything else is a crash and keeps its backtrace. *)
  try exit (Cmd.eval ~catch:false group) with
  | Sj_abi.Error.Fault f ->
    prerr_endline ("sjctl: " ^ Sj_abi.Error.to_string f);
    exit (Sj_abi.Error.exit_code f.code)
  | Sj_machine.Machine.Out_of_memory ->
    prerr_endline "sjctl: out of physical memory (ENOSPC)";
    exit (Sj_abi.Error.exit_code Capacity)
