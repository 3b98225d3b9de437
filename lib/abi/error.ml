type code =
  | Permission_denied
  | Would_block
  | Name_exists
  | Unknown_name
  | Stale_handle
  | Address_conflict
  | Layout_exhausted
  | Invalid
  | Capacity
  | Key_violation

type t = { code : code; op : string; detail : string }

exception Fault of t

let make code ~op detail = { code; op; detail }
let fail code ~op detail = raise (Fault (make code ~op detail))
let failf code ~op fmt = Printf.ksprintf (fail code ~op) fmt
let code_of t = t.code

(* The codes in errno order, as a wildcard-free successor chain: a new
   constructor does not compile until it has a place in the chain, so
   [all_codes] cannot silently miss it. *)
let next_code = function
  | None -> Some Permission_denied
  | Some Permission_denied -> Some Would_block
  | Some Would_block -> Some Name_exists
  | Some Name_exists -> Some Unknown_name
  | Some Unknown_name -> Some Stale_handle
  | Some Stale_handle -> Some Address_conflict
  | Some Address_conflict -> Some Layout_exhausted
  | Some Layout_exhausted -> Some Invalid
  | Some Invalid -> Some Capacity
  | Some Capacity -> Some Key_violation
  | Some Key_violation -> None

let all_codes =
  let rec from c = match next_code c with None -> [] | Some c' -> c' :: from (Some c') in
  from None

let code_name = function
  | Permission_denied -> "EPERM"
  | Would_block -> "EWOULDBLOCK"
  | Name_exists -> "EEXIST"
  | Unknown_name -> "ENOENT"
  | Stale_handle -> "ESTALE"
  | Address_conflict -> "EADDRINUSE"
  | Layout_exhausted -> "ELAYOUT"
  | Invalid -> "EINVAL"
  | Capacity -> "ENOSPC"
  | Key_violation -> "EKEY"

let errno = function
  | Permission_denied -> 1
  | Would_block -> 2
  | Name_exists -> 3
  | Unknown_name -> 4
  | Stale_handle -> 5
  | Address_conflict -> 6
  | Layout_exhausted -> 7
  | Invalid -> 8
  | Capacity -> 9
  | Key_violation -> 10

let exit_code c = 10 + errno c
let to_string t = Printf.sprintf "%s: %s (%s)" t.op t.detail (code_name t.code)
let pp fmt t = Format.pp_print_string fmt (to_string t)
let pp_code fmt c = Format.pp_print_string fmt (code_name c)
let equal_code (a : code) (b : code) = a = b

let () =
  Printexc.register_printer (function
    | Fault t -> Some ("Sj_abi.Error.Fault: " ^ to_string t)
    | _ -> None)
