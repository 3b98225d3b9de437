open Sj_util
module Api = Sj_core.Api
module Segment = Sj_core.Segment
module Vas = Sj_core.Vas
module Error = Sj_abi.Error
module Prot = Sj_paging.Prot
module Core = Sj_machine.Machine.Core

type t = {
  name : string;
  vas_rw : Vas.t;
  vas_ro : Vas.t;
  seg : Segment.t;
  store : Store.t;
}

type client = {
  t : t;
  ctx : Api.ctx;
  vh_rw : Api.vh;
  vh_ro : Api.vh;
  scratch : Segment.t;
  scratch_heap : Sj_alloc.Mspace.t;
  mem : Kv_mem.t;
  mutable notify : Notify.t option;
}

(* Parsing/dispatch work RedisJMP still performs per command (command
   table lookup, argument vector, reply formatting) — markedly less than
   a socket server's event loop. Calibrated so a lone client sustains
   ~4x a lone classic-Redis client (Fig. 10a/b, sec 5.3). *)
let dispatch_overhead = 6_500

(* The batched path splits that overhead at the line a pipelined server
   actually draws: event-loop wakeup, readiness bookkeeping and the
   output-buffer flush happen once per burst; command-table lookup,
   argv construction and reply formatting remain per command. The two
   constants sum to [dispatch_overhead], so a burst of one costs
   exactly the single-command dispatch — batching only ever amortizes,
   it never invents savings. *)
let batch_wakeup_overhead = 5_000
let batch_per_command = 1_500

let init ctx ~name ~size =
  let vas_rw = Api.vas_create ctx ~name:(name ^ ".rw") ~mode:0o666 in
  let vas_ro = Api.vas_create ctx ~name:(name ^ ".ro") ~mode:0o666 in
  (* No cached translations: the store segment must stay growable
     (attach caching only amortizes setup cost, which is off every
     measured path). *)
  let seg = Api.seg_alloc_anywhere ctx ~name:(name ^ ".data") ~size ~mode:0o666 in
  Api.seg_attach ctx vas_rw seg ~prot:Prot.rw;
  Api.seg_attach ctx vas_ro seg ~prot:Prot.r;
  (* Run the server initialization code inside the new address space:
     set up the dict with a throwaway backend; real clients install
     their own. *)
  let boot_mem =
    {
      Kv_mem.alloc = (fun _ -> Error.fail Invalid ~op:"redisjmp_init" "boot backend cannot allocate");
      free = ignore;
      read = (fun ~va:_ ~len -> Bytes.create len);
      write = (fun ~va:_ _ -> ());
      touch = (fun ~va:_ -> ());
    }
  in
  { name; vas_rw; vas_ro; seg; store = Store.create boot_mem }

(* Stores are registered in the owning system's registry (service map),
   not in a process-global table: a fresh system starts with no stores,
   and concurrent simulations cannot see each other's. *)
type Sj_core.Registry.service += Store_service of t

let service_name name = "redisjmp:" ^ name

let init ctx ~name ~size =
  let reg = Api.registry (Api.system ctx) in
  (match Sj_core.Registry.find_service reg ~name:(service_name name) with
  | Some _ -> Error.fail Name_exists ~op:"redisjmp_init" ("store exists: " ^ name)
  | None -> ());
  let t = init ctx ~name ~size in
  Sj_core.Registry.set_service reg ~name:(service_name name) (Store_service t);
  t

let find ctx ~name =
  match Sj_core.Registry.find_service (Api.registry (Api.system ctx)) ~name:(service_name name) with
  | Some (Store_service t) -> t
  | Some _ | None -> Error.fail Unknown_name ~op:"redisjmp_find" ("no store: " ^ name)

let connect t ctx ?(scratch_size = Size.mib 1) () =
  let vh_rw = Api.vas_attach ctx (Api.vas_find ctx ~name:(t.name ^ ".rw")) in
  let vh_ro = Api.vas_attach ctx (Api.vas_find ctx ~name:(t.name ^ ".ro")) in
  let pid = Sj_kernel.Process.pid (Api.process ctx) in
  let scratch =
    Api.seg_alloc_anywhere ctx
      ~name:(Printf.sprintf "%s.scratch.%d" t.name pid)
      ~size:scratch_size ~mode:0o600
  in
  Api.seg_attach_local ctx vh_rw scratch ~prot:Prot.rw;
  Api.seg_attach_local ctx vh_ro scratch ~prot:Prot.rw;
  let scratch_heap = Sj_alloc.Mspace.create ~base:(Segment.base scratch) ~size:scratch_size in
  { t; ctx; vh_rw; vh_ro; scratch; scratch_heap; mem = Kv_mem.segment_heap ctx t.seg; notify = None }

let enable_notifications c service = c.notify <- Some service

(* Keyspace events (Redis __keyspace__-style), published through the
   dedicated service since there is no server process to push from. *)
let keyspace_channel key = "keyspace:" ^ key

let event_of_command : Resp.command -> (string * string) option = function
  | Set (k, _) -> Some (k, "set")
  | Del k -> Some (k, "del")
  | Incr k -> Some (k, "incr")
  | Append (k, _) -> Some (k, "append")
  | Setnx (k, _) -> Some (k, "setnx")
  | Getset (k, _) -> Some (k, "getset")
  | Flushall -> Some ("*", "flushall")
  | Get _ | Exists _ | Strlen _ | Mget _ | Dbsize | Ping -> None

let is_write_command : Resp.command -> bool = function
  | Set _ | Del _ | Incr _ | Append _ | Setnx _ | Getset _ | Flushall -> true
  | Get _ | Exists _ | Strlen _ | Mget _ | Dbsize | Ping -> false

(* Per-request scratch use: parse buffers + argument objects, allocated
   and released in the client's private scratch heap. *)
let with_scratch_charged c ~overhead f =
  let core = Api.core c.ctx in
  Core.charge core overhead;
  let a = Sj_alloc.Mspace.malloc c.scratch_heap 64 in
  let b = Sj_alloc.Mspace.malloc c.scratch_heap 128 in
  let r = f () in
  Option.iter (Sj_alloc.Mspace.free c.scratch_heap) b;
  Option.iter (Sj_alloc.Mspace.free c.scratch_heap) a;
  r

let with_scratch c f = with_scratch_charged c ~overhead:dispatch_overhead f

let execute_with ~switch c cmd =
  let dict = Store.dict c.t.store in
  if is_write_command cmd then begin
    (* Exclusive path: switch in read-write, catch up deferred
       rehashing now that no readers can observe us. *)
    switch c.ctx c.vh_rw;
    Dict.set_mem dict c.mem;
    Dict.set_rehash_allowed dict true;
    if Dict.rehash_pending dict then Dict.force_rehash_step dict 4;
    (* Store memory may run out mid-command. Holding the exclusive lock,
       the acting client grows the shared segment and retries — no other
       client participates (the sec 1 claim: no synchronization "on
       shared region management"). Readers observe the larger segment at
       their next switch. *)
    let rec run_growing attempts =
      try with_scratch c (fun () -> Store.execute c.t.store cmd)
      with Error.Fault { code = Capacity; _ } when attempts > 0 ->
        Api.switch_home c.ctx;
        Api.seg_ctl c.ctx (`Grow (c.t.seg, Segment.size c.t.seg));
        switch c.ctx c.vh_rw;
        Dict.set_mem dict c.mem;
        run_growing (attempts - 1)
    in
    let reply = run_growing 4 in
    Api.switch_home c.ctx;
    (match (c.notify, event_of_command cmd) with
    | Some service, Some (key, event) ->
      ignore
        (Notify.publish service ~from:(Api.core c.ctx) ~channel:(keyspace_channel key)
           (Bytes.of_string event))
    | _ -> ());
    reply
  end
  else begin
    (* Shared path: read-only mapping, rehashing disabled. *)
    switch c.ctx c.vh_ro;
    Dict.set_mem dict c.mem;
    Dict.set_rehash_allowed dict false;
    let reply = with_scratch c (fun () -> Store.execute c.t.store cmd) in
    Dict.set_rehash_allowed dict true;
    Api.switch_home c.ctx;
    reply
  end

let execute c cmd = execute_with ~switch:Api.vas_switch c cmd

(* Same jump, but admission goes through the bounded deterministic
   retry loop: a client that finds the segment lock wedged (e.g. by a
   crashed holder not yet reclaimed) backs off in simulated cycles
   instead of faulting on the first conflict. *)
let execute_retry ?attempts ?backoff_cycles c cmd =
  let switch ctx vh =
    match Api.Checked.switch_retry ?attempts ?backoff_cycles ctx vh with
    | Ok () -> ()
    | Error f -> raise (Error.Fault f)
  in
  try Ok (execute_with ~switch c cmd)
  with Error.Fault f when f.code = Error.Would_block -> Error f

(* Batched execution: one switch, one lock admission and one event-loop
   wakeup cover the whole burst (the cluster server's drain path). A
   burst containing any write takes the exclusive rw mapping for all of
   it — the shard server owns its segment, so batching reads under the
   exclusive lock costs readers nothing they weren't already paying.
   Replies come back in command order; the mid-burst out-of-memory case
   grows the segment under the held lock and resumes at the failing
   command (completed replies are kept, nothing re-executes). *)
let execute_batch_with ~switch c cmds =
  let n = Array.length cmds in
  if n = 0 then [||]
  else begin
    let dict = Store.dict c.t.store in
    let any_write = Array.exists is_write_command cmds in
    let vh = if any_write then c.vh_rw else c.vh_ro in
    switch c.ctx vh;
    Dict.set_mem dict c.mem;
    Dict.set_rehash_allowed dict any_write;
    if any_write && Dict.rehash_pending dict then Dict.force_rehash_step dict 4;
    Core.charge (Api.core c.ctx) batch_wakeup_overhead;
    let replies = Array.make n Resp.Ok_simple in
    let i = ref 0 in
    let rec run_growing attempts =
      try
        while !i < n do
          replies.(!i) <-
            with_scratch_charged c ~overhead:batch_per_command (fun () ->
                Store.execute c.t.store cmds.(!i));
          incr i
        done
      with Error.Fault { code = Capacity; _ } when attempts > 0 && any_write ->
        Api.switch_home c.ctx;
        Api.seg_ctl c.ctx (`Grow (c.t.seg, Segment.size c.t.seg));
        switch c.ctx vh;
        Dict.set_mem dict c.mem;
        run_growing (attempts - 1)
    in
    run_growing 4;
    if not any_write then Dict.set_rehash_allowed dict true;
    Api.switch_home c.ctx;
    (match c.notify with
    | Some service ->
      Array.iter
        (fun cmd ->
          match event_of_command cmd with
          | Some (key, event) ->
            ignore
              (Notify.publish service ~from:(Api.core c.ctx)
                 ~channel:(keyspace_channel key) (Bytes.of_string event))
          | None -> ())
        cmds
    | None -> ());
    replies
  end

let execute_batch c cmds = execute_batch_with ~switch:Api.vas_switch c cmds

let execute_batch_retry ?attempts ?backoff_cycles c cmds =
  let switch ctx vh =
    match Api.Checked.switch_retry ?attempts ?backoff_cycles ctx vh with
    | Ok () -> ()
    | Error f -> raise (Error.Fault f)
  in
  try Ok (execute_batch_with ~switch c cmds)
  with Error.Fault f when f.code = Error.Would_block -> Error f

let get c key = match execute c (Resp.Get key) with Bulk v -> Some v | _ -> None

let set c key v =
  match execute c (Resp.Set (key, v)) with
  | Ok_simple -> ()
  | _ -> Error.fail Invalid ~op:"redisjmp_set" "unexpected reply"

let store t = t.store
let data_segment t = t.seg
let name t = t.name
let rw_vas t = t.vas_rw
