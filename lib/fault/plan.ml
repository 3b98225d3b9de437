(* A fault plan is data: a list of injectable faults, each described by
   the deterministic point where it fires (pid + syscall occurrence,
   nth grow, nth save). The Injector interprets the plan; this module
   only describes it, so plans can be built, printed and compared
   without touching any simulation state. *)

type fault =
  | Kill_at_syscall of { pid : int; nr : int; occurrence : int }
      (* Kill [pid] on its [occurrence]-th invocation (1-based) of
         dispatch entry [nr], before the entry body runs. *)
  | Kill_holding_lock of { pid : int; sid : int }
      (* Kill [pid] at its first syscall issued while it holds a lock
         on segment [sid] — the mid-critical-section death of §3.2. *)
  | Would_block_storm of { pid : int; nr : int; count : int }
      (* The next [count] invocations of [nr] by [pid] fail with a
         transient [Would_block] instead of running. *)
  | Grow_fail of { nth : int }
      (* The [nth] segment grow (1-based, machine-wide) fails with
         [Capacity]. *)
  | Torn_write of { save : int; at_byte : int }
      (* The [save]-th persist image (1-based) is truncated at
         [at_byte], as if the writer died mid-write. [at_byte = -1]
         draws the offset from the injector's seeded rng. *)

type t = fault list

let kill_at_syscall ~pid ~nr ?(occurrence = 1) () =
  Kill_at_syscall { pid; nr; occurrence }

let kill_holding_lock ~pid ~sid = Kill_holding_lock { pid; sid }
let would_block_storm ~pid ~nr ~count = Would_block_storm { pid; nr; count }
let grow_fail ~nth = Grow_fail { nth }
let torn_write ?(at_byte = -1) ~save () = Torn_write { save; at_byte }

let kind_name = function
  | Kill_at_syscall _ -> "kill_at_syscall"
  | Kill_holding_lock _ -> "kill_holding_lock"
  | Would_block_storm _ -> "would_block_storm"
  | Grow_fail _ -> "grow_fail"
  | Torn_write _ -> "torn_write"

(* One representative per kind, as a wildcard-free successor chain: a
   new constructor does not compile until it has a place in the chain,
   so [templates] and [all_kinds] cannot silently miss it. *)
let next_template = function
  | None -> Some (kill_at_syscall ~pid:0 ~nr:0 ())
  | Some (Kill_at_syscall _) -> Some (kill_holding_lock ~pid:0 ~sid:0)
  | Some (Kill_holding_lock _) -> Some (would_block_storm ~pid:0 ~nr:0 ~count:1)
  | Some (Would_block_storm _) -> Some (grow_fail ~nth:1)
  | Some (Grow_fail _) -> Some (torn_write ~save:1 ())
  | Some (Torn_write _) -> None

let templates =
  let rec from f = match next_template f with None -> [] | Some f' -> f' :: from (Some f') in
  from None

let all_kinds = List.map kind_name templates

let fault_to_string = function
  | Kill_at_syscall { pid; nr; occurrence } ->
    Printf.sprintf "kill_at_syscall(pid=%d nr=%d occurrence=%d)" pid nr occurrence
  | Kill_holding_lock { pid; sid } ->
    Printf.sprintf "kill_holding_lock(pid=%d sid=%d)" pid sid
  | Would_block_storm { pid; nr; count } ->
    Printf.sprintf "would_block_storm(pid=%d nr=%d count=%d)" pid nr count
  | Grow_fail { nth } -> Printf.sprintf "grow_fail(nth=%d)" nth
  | Torn_write { save; at_byte } ->
    Printf.sprintf "torn_write(save=%d at_byte=%d)" save at_byte

let to_string plan = String.concat "; " (List.map fault_to_string plan)
