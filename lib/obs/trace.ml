(* Chrome trace-event JSON export (the JSON-object format understood by
   chrome://tracing and Perfetto). Syscall enter/exit become duration
   begin/end pairs ("B"/"E"); everything else is a thread-scoped instant
   ("i"). [ts] is the event's simulated cycle count, [tid] the emitting
   core, so the rendered timeline is the simulated machine, not the
   host. Written with Buffer: the event payloads are all printf-safe
   scalars. *)

let event_json (e : Event.t) =
  let name = Event.name e.kind in
  let args = Event.args_json e.kind in
  let common = Printf.sprintf {|"name":%S,"ts":%d,"pid":0,"tid":%d|} name
      e.cycles e.core in
  match e.kind with
  | Event.Syscall_enter _ ->
      Printf.sprintf {|{%s,"ph":"B","args":%s}|} common args
  | Event.Syscall_exit _ ->
      Printf.sprintf {|{%s,"ph":"E","args":%s}|} common args
  | _ -> Printf.sprintf {|{%s,"ph":"i","s":"t","args":%s}|} common args

let to_chrome_json events =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"traceEvents\":[";
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b "\n  ";
      Buffer.add_string b (event_json e))
    events;
  Buffer.add_string b "\n],\"displayTimeUnit\":\"ns\"}\n";
  Buffer.contents b

let to_text events =
  let b = Buffer.create 4096 in
  List.iter
    (fun e ->
      Buffer.add_string b (Event.to_string e);
      Buffer.add_char b '\n')
    events;
  Buffer.contents b

(* Well-formedness check used by the trace-shape tests (and available
   to callers that want a sanity pass before shipping a file to
   Perfetto): the full JSON grammar via {!Sj_util.Json.parse}, then a
   top-level object with a "traceEvents" member. *)
let check_string s =
  match Sj_util.Json.parse s with
  | Ok (Sj_util.Json.Obj kvs) when List.mem_assoc "traceEvents" kvs -> Ok ()
  | Ok (Sj_util.Json.Obj _) -> Error "top-level object lacks \"traceEvents\""
  | Ok _ -> Error "top-level value is not an object"
  | Error m -> Error m
