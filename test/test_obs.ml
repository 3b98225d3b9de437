(* Tests for lib/obs: ring-buffer behavior, recorder wiring through
   Machine.create, Chrome-trace export, metrics aggregation, and the two
   headline properties — event streams are byte-identical across -j 1
   and -j 4, and disabled tracing leaves fingerprints bit-identical. *)

open Sj_util
module Machine = Sj_machine.Machine
module Core = Machine.Core
module Platform = Sj_machine.Platform
module Process = Sj_kernel.Process
module Prot = Sj_paging.Prot
module Api = Sj_core.Api
module Event = Sj_obs.Event
module Ring = Sj_obs.Ring
module Recorder = Sj_obs.Recorder
module Metrics = Sj_obs.Metrics
module Trace = Sj_obs.Trace
module Sys = Sj_abi.Sys
module Error = Sj_abi.Error

let tiny : Platform.t =
  { Platform.m2 with name = "tiny"; mem_size = Size.mib 128; sockets = 2; cores_per_socket = 2 }

let mk_event seq =
  { Event.seq; core = 0; cycles = seq * 10; kind = Event.Tag_recycle { tag = seq } }

let seqs evs = List.map (fun (e : Event.t) -> e.seq) evs
let kind_is p (e : Event.t) = p e.kind

(* --- ring buffer --- *)

let test_ring_wrap () =
  let r = Ring.create 4 in
  Alcotest.(check int) "capacity" 4 (Ring.capacity r);
  for i = 0 to 9 do
    Ring.push r (mk_event i)
  done;
  Alcotest.(check int) "length clamped to capacity" 4 (Ring.length r);
  Alcotest.(check int) "overwrites counted" 6 (Ring.dropped r);
  Alcotest.(check (list int)) "most recent retained, oldest first" [ 6; 7; 8; 9 ]
    (seqs (Ring.to_list r));
  Ring.clear r;
  Alcotest.(check int) "cleared" 0 (Ring.length r)

let test_ring_partial () =
  let r = Ring.create 8 in
  for i = 0 to 2 do
    Ring.push r (mk_event i)
  done;
  Alcotest.(check int) "length" 3 (Ring.length r);
  Alcotest.(check int) "nothing dropped" 0 (Ring.dropped r);
  Alcotest.(check (list int)) "insertion order" [ 0; 1; 2 ] (seqs (Ring.to_list r))

(* --- a deterministic traced session touching every event family --- *)

(* Syscalls, a tag assignment, switches, a lock conflict, a snapshot
   write-protect plus the COW fault it provokes, TLB flushes, and a
   vmspace teardown. *)
let session () =
  let m = Machine.create tiny in
  let sys = Api.boot m in
  let p = Process.create ~name:"p0" m in
  let ctx = Api.context sys p (Machine.core m 0) in
  let vas = Api.vas_create ctx ~name:"v" ~mode:0o666 in
  let seg = Api.seg_alloc_anywhere ctx ~name:"s" ~size:(Size.mib 4) ~mode:0o666 in
  Api.seg_attach ctx vas seg ~prot:Prot.rw;
  Api.vas_ctl ctx (`Request_tag vas);
  let vh = Api.vas_attach ctx vas in
  Api.vas_switch ctx vh;
  let a = Api.malloc ctx 64 in
  Api.store64 ctx ~va:a 42L;
  (* A second process conflicts on the exclusive segment lock. *)
  let p2 = Process.create ~name:"p1" m in
  let ctx2 = Api.context sys p2 (Machine.core m 1) in
  let vh2 = Api.vas_attach ctx2 vas in
  (try Api.vas_switch ctx2 vh2 with Sj_abi.Error.Fault { code = Would_block; _ } -> ());
  (* Snapshot write-protects the segment; the next store COW-faults. *)
  let _snap = Api.seg_snapshot ctx seg ~name:"snap" in
  Api.store64 ctx ~va:a 43L;
  Api.switch_home ctx;
  Api.vas_detach ctx vh;
  m

let traced_session ?capacity () =
  Recorder.with_tracing ?capacity true (fun () ->
      let m = session () in
      match Recorder.of_ctx (Machine.sim_ctx m) with
      | Some r -> r
      | None -> Alcotest.fail "machine booted without a recorder under with_tracing")

(* --- recorder wiring --- *)

let test_disabled_attaches_nothing () =
  let m = Machine.create tiny in
  Alcotest.(check bool) "no recorder outside with_tracing" true
    (Option.is_none (Recorder.of_ctx (Machine.sim_ctx m)));
  Recorder.with_tracing false (fun () ->
      let m2 = Machine.create tiny in
      Alcotest.(check bool) "with_tracing false attaches nothing" true
        (Option.is_none (Recorder.of_ctx (Machine.sim_ctx m2))))

let test_session_event_families () =
  let r = traced_session () in
  let evs = Recorder.events r in
  let has p = List.exists (kind_is p) evs in
  Alcotest.(check bool) "tag assigned" true
    (has (function Event.Tag_assign _ -> true | _ -> false));
  Alcotest.(check bool) "vas switch recorded with its tag" true
    (has (function Event.Vas_switch { vid; tag } -> vid > 0 && tag > 0 | _ -> false));
  Alcotest.(check bool) "switch home recorded untagged" true
    (has (function Event.Vas_switch { vid = 0; tag = 0 } -> true | _ -> false));
  Alcotest.(check bool) "lock conflict recorded" true
    (has (function Event.Seg_lock { acquired = false; _ } -> true | _ -> false));
  Alcotest.(check bool) "lock release recorded" true
    (has (function Event.Seg_unlock _ -> true | _ -> false));
  Alcotest.(check bool) "COW fault resolved" true
    (has (function Event.Page_fault { write = true; resolved = true; _ } -> true | _ -> false));
  Alcotest.(check bool) "TLB flush recorded" true
    (has (function Event.Tlb_flush _ -> true | _ -> false));
  Alcotest.(check bool) "teardown recorded with its PTE clears" true
    (has (function Event.Pt_teardown { pte_clears } -> pte_clears > 0 | _ -> false));
  (* Sequence numbers are the emission order, gap-free. *)
  Alcotest.(check (list int)) "gap-free sequence"
    (List.init (List.length evs) (fun i -> i))
    (seqs evs)

let test_capacity_drops_oldest () =
  let r = traced_session ~capacity:16 () in
  let evs = Recorder.events r in
  Alcotest.(check int) "ring holds capacity" 16 (List.length evs);
  Alcotest.(check bool) "older events dropped" true (Recorder.dropped r > 0);
  (* The retained window is the tail of the sequence. *)
  Alcotest.(check (list int)) "tail window"
    (List.init 16 (fun i -> Recorder.dropped r + i))
    (seqs evs)

(* --- metrics --- *)

let test_metrics_aggregate () =
  let r = traced_session () in
  let evs = Recorder.events r in
  let count p = List.length (List.filter (kind_is p) evs) in
  let enters = count (function Event.Syscall_enter _ -> true | _ -> false) in
  let exits = count (function Event.Syscall_exit _ -> true | _ -> false) in
  Alcotest.(check bool) "syscalls bracketed" true (enters > 0);
  Alcotest.(check int) "enter/exit balanced" enters exits;
  let rows = Metrics.syscall_rows (Recorder.metrics r) in
  let calls = List.fold_left (fun acc (_, _, c, _, _, _) -> acc + c) 0 rows in
  Alcotest.(check int) "metrics count every completed call" exits calls;
  List.iter
    (fun (_, _, calls, _, cycles, hist) ->
      Alcotest.(check bool) "histogram samples match calls" true
        (Sj_obs.Hist.count hist = calls && cycles >= 0))
    rows;
  (* The failed vas_switch (lock conflict) shows up as a fault. *)
  let faults = List.fold_left (fun acc (_, _, _, f, _, _) -> acc + f) 0 rows in
  Alcotest.(check bool) "faulting syscall counted" true (faults >= 1);
  Alcotest.(check bool) "text summary renders" true
    (String.length (Metrics.describe (Recorder.metrics r)) > 0)

(* Retry backoffs (Checked.switch_retry under a Would_block storm) are
   charged to the core *and* surfaced: counted, totalled, and present
   in the stats text/JSON — the fix for backoff cycles that used to be
   spent invisibly. *)
let test_metrics_switch_retries () =
  Recorder.with_tracing true (fun () ->
      let m = Machine.create tiny in
      let sys = Api.boot m in
      let p = Process.create ~name:"victim" m in
      let ctx = Api.context sys p (Machine.core m 0) in
      let vas = Api.vas_create ctx ~name:"s" ~mode:0o666 in
      let seg =
        Api.seg_alloc_anywhere ctx ~name:"s.d" ~size:(Size.mib 1) ~mode:0o666
      in
      Api.seg_attach ctx vas seg ~prot:Prot.rw;
      let vh = Api.vas_attach ctx vas in
      Sj_fault.Injector.attach (Machine.sim_ctx m)
        (Sj_fault.Injector.create
           [
             Sj_fault.Plan.would_block_storm ~pid:(Process.pid p)
               ~nr:Sj_abi.Sys.(number Vas_switch) ~count:3;
           ]);
      Alcotest.(check bool) "retry rides out the storm" true
        (Api.Checked.switch_retry ~attempts:5 ~backoff_cycles:1_000 ctx vh
        = Ok ());
      Api.switch_home ctx;
      match Recorder.of_ctx (Machine.sim_ctx m) with
      | None -> Alcotest.fail "recorder not attached"
      | Some r ->
        let mx = Recorder.metrics r in
        Alcotest.(check int) "three backoffs counted" 3
          (Metrics.switch_retries mx);
        (* Linear backoff: 1k + 2k + 3k. *)
        Alcotest.(check int) "backoff cycles totalled" 6_000
          (Metrics.switch_retry_cycles mx);
        let contains hay needle =
          let n = String.length hay and m = String.length needle in
          let rec go i =
            i + m <= n && (String.sub hay i m = needle || go (i + 1))
          in
          go 0
        in
        Alcotest.(check bool) "retries visible in describe" true
          (contains (Metrics.describe mx) "retr");
        Alcotest.(check bool) "retries visible in JSON" true
          (contains (Metrics.to_json mx) "switch_retries"))

(* --- export --- *)

let test_chrome_json_shape () =
  let r = traced_session () in
  let doc = Trace.to_chrome_json (Recorder.events r) in
  (match Trace.check_string doc with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("trace JSON rejected: " ^ e));
  (match Trace.check_string (Metrics.to_json (Recorder.metrics r) |> fun j ->
       "{\"traceEvents\":[]," ^ String.sub j 1 (String.length j - 1))
  with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("stats JSON rejected: " ^ e));
  (* The checker is a real parser, not a happy-path stub. *)
  let rejects s = Alcotest.(check bool) ("rejects " ^ s) true
      (Result.is_error (Trace.check_string s))
  in
  Alcotest.(check bool) "minimal document accepted" true
    (Trace.check_string "{\"traceEvents\":[]}" = Ok ());
  rejects "[]";
  rejects "{}";
  rejects "{\"traceEvents\":[}";
  rejects "{\"traceEvents\":[]} trailing";
  rejects "{\"traceEvents\":[{\"ph\":\"B\",}]}"

(* --- determinism --- *)

(* The satellite criterion: the event stream of a traced simulation is
   byte-identical whether trials run serially or fanned across 4
   domains (timestamps are simulated cycles, never host wall clock). *)
let test_stream_determinism_parallel () =
  let trial _ =
    Recorder.with_tracing true (fun () ->
        let m = session () in
        match Recorder.of_ctx (Machine.sim_ctx m) with
        | Some r -> Trace.to_text (Recorder.events r)
        | None -> Alcotest.fail "no recorder attached")
  in
  let inputs = [ 0; 1; 2; 3 ] in
  let serial = List.map trial inputs in
  let par = Par.with_pool ~size:4 (fun pool -> Par.map_list pool trial inputs) in
  List.iteri
    (fun i s ->
      Alcotest.(check bool)
        (Printf.sprintf "-j 1 vs -j 4 byte-identical (trial %d)" i)
        true
        (s = List.nth par i))
    serial;
  (match serial with
  | first :: rest ->
    Alcotest.(check bool) "stream non-empty" true (String.length first > 0);
    List.iter
      (fun s -> Alcotest.(check bool) "replays byte-identical" true (s = first))
      rest
  | [] -> assert false)

(* Tracing must be observation only: the shared workloads fingerprint
   bit-identically with the recorder on and off. *)
let test_disabled_fingerprint_identity () =
  Alcotest.(check bool) "trace on/off bit-identical" true
    (Recorder.with_tracing false Workloads.run_all = Recorder.with_tracing true Workloads.run_all)

(* --- every ABI entry is bracketed and counted --- *)

(* Each entry of the dispatch table, through both dispatch helpers
   (invoke, also with a failing body, and charge_entry for calls
   embedded in another call's body), emits exactly one Syscall_enter
   and one Syscall_exit naming it, and adds one call to its counter. *)
let test_every_entry_bracketed () =
  let m = Machine.create tiny in
  let r = Recorder.create () in
  Recorder.attach (Machine.sim_ctx m) r;
  let core = Machine.core m 0 and cost = Machine.cost m in
  let tab = Sys.create Sys.Dragonfly in
  let helpers =
    [
      ("invoke", fun nr -> ignore (Sys.invoke tab ~cost core nr ignore));
      ( "failing invoke",
        fun nr ->
          ignore (Sys.invoke tab ~cost core nr (fun () -> Error.fail Invalid ~op:"probe" "probe")) );
      ("charge_entry", fun nr -> Sys.charge_entry tab ~cost core nr);
    ]
  in
  Array.iter
    (fun nr ->
      List.iter
        (fun (how, dispatch) ->
          let what = Printf.sprintf "%s %s" how (Sys.name nr) in
          Recorder.clear r;
          let calls0, _ = Sys.counters tab nr in
          dispatch nr;
          let is_nr n sname = n = Sys.number nr && sname = Sys.name nr in
          let count p = List.length (List.filter (fun (e : Event.t) -> p e.kind) (Recorder.events r)) in
          Alcotest.(check int) (what ^ ": one enter") 1
            (count (function Event.Syscall_enter { nr; sname } -> is_nr nr sname | _ -> false));
          Alcotest.(check int) (what ^ ": one exit") 1
            (count (function Event.Syscall_exit { nr; sname; _ } -> is_nr nr sname | _ -> false));
          Alcotest.(check int) (what ^ ": nothing else") 2 (List.length (Recorder.events r));
          Alcotest.(check int) (what ^ ": counted once") (calls0 + 1) (fst (Sys.counters tab nr)))
        helpers)
    Sys.all

let suite =
  [
    Alcotest.test_case "ring wraps, keeps newest" `Quick test_ring_wrap;
    Alcotest.test_case "ring below capacity" `Quick test_ring_partial;
    Alcotest.test_case "disabled attaches nothing" `Quick test_disabled_attaches_nothing;
    Alcotest.test_case "session emits every family" `Quick test_session_event_families;
    Alcotest.test_case "capacity drops oldest" `Quick test_capacity_drops_oldest;
    Alcotest.test_case "metrics aggregate the stream" `Quick test_metrics_aggregate;
    Alcotest.test_case "metrics count switch retries" `Quick test_metrics_switch_retries;
    Alcotest.test_case "Chrome trace JSON shape" `Quick test_chrome_json_shape;
    Alcotest.test_case "event streams -j1 vs -j4" `Quick test_stream_determinism_parallel;
    Alcotest.test_case "disabled-mode fingerprint identity" `Quick test_disabled_fingerprint_identity;
    Alcotest.test_case "every ABI entry bracketed and counted" `Quick test_every_entry_bracketed;
  ]
