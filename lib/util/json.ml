(* JSON values: one printer for every report the repository writes, one
   recursive-descent parser for every report or trace it checks. *)

type t =
  | Null
  | Bool of bool
  | Num of string
  | Str of string
  | Arr of t list
  | Obj of (string * t) list
  | Row of (string * t) list

let int n = Num (string_of_int n)
let float digits x = if Float.is_finite x then Num (Printf.sprintf "%.*f" digits x) else Null
let strings l = Arr (List.map (fun s -> Str s) l)
let ints l = Arr (List.map int l)
let counts l = Row (List.map (fun (k, n) -> (k, int n)) l)

(* -- printing ---------------------------------------------------------- *)

let add_string b s =
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let scalar = function Arr _ | Obj _ | Row _ -> false | _ -> true

let rec add_line b = function
  | Null -> Buffer.add_string b "null"
  | Bool x -> Buffer.add_string b (string_of_bool x)
  | Num s -> Buffer.add_string b s
  | Str s -> add_string b s
  | Arr l -> add_seq b '[' ']' (add_line b) l
  | Obj kvs | Row kvs -> add_seq b '{' '}' (add_member b (add_line b)) kvs

and add_seq : 'a. Buffer.t -> char -> char -> ('a -> unit) -> 'a list -> unit =
 fun b l r f xs ->
  Buffer.add_char b l;
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_string b ", ";
      f x)
    xs;
  Buffer.add_char b r

and add_member b f (k, v) =
  add_string b k;
  Buffer.add_string b ": ";
  f v

let rec add_block b indent v =
  let lines l r f xs =
    let pad = String.make (indent + 2) ' ' in
    Buffer.add_char b l;
    List.iteri
      (fun i x ->
        Buffer.add_string b (if i > 0 then ",\n" else "\n");
        Buffer.add_string b pad;
        f x)
      xs;
    Buffer.add_char b '\n';
    Buffer.add_string b (String.make indent ' ');
    Buffer.add_char b r
  in
  match v with
  | Obj (_ :: _ as kvs) -> lines '{' '}' (add_member b (add_block b (indent + 2))) kvs
  | Arr l when not (List.for_all scalar l) -> lines '[' ']' (add_block b (indent + 2)) l
  | v -> add_line b v

let to_string v =
  let b = Buffer.create 4096 in
  add_block b 0 v;
  Buffer.add_char b '\n';
  Buffer.contents b

let to_line v =
  let b = Buffer.create 64 in
  add_line b v;
  Buffer.contents b

(* -- parsing ----------------------------------------------------------- *)

exception Bad of string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let bad fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt in
  let skip_ws () =
    while !pos < n && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | Some c' -> bad "expected '%c' at %d, got '%c'" c !pos c'
    | None -> bad "expected '%c' at %d, got end of input" c !pos
  in
  let hex4 () =
    let v = ref 0 in
    for _ = 1 to 4 do
      (match peek () with
      | Some ('0' .. '9' as c) -> v := (!v * 16) + Char.code c - 48
      | Some ('a' .. 'f' as c) -> v := (!v * 16) + Char.code c - 87
      | Some ('A' .. 'F' as c) -> v := (!v * 16) + Char.code c - 55
      | _ -> bad "bad \\u escape at %d" !pos);
      advance ()
    done;
    !v
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> bad "unterminated string at %d" !pos
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
        | Some (('"' | '\\' | '/') as c) -> advance (); Buffer.add_char b c
        | Some 'b' -> advance (); Buffer.add_char b '\b'
        | Some 'f' -> advance (); Buffer.add_char b '\012'
        | Some 'n' -> advance (); Buffer.add_char b '\n'
        | Some 'r' -> advance (); Buffer.add_char b '\r'
        | Some 't' -> advance (); Buffer.add_char b '\t'
        | Some 'u' ->
          advance ();
          let u = hex4 () in
          Buffer.add_utf_8_uchar b
            (if Uchar.is_valid u then Uchar.of_int u else Uchar.rep)
        | _ -> bad "bad escape at %d" !pos);
        go ()
      | Some c when Char.code c < 0x20 -> bad "control character in string at %d" !pos
      | Some c -> advance (); Buffer.add_char b c; go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    (match peek () with Some '-' -> advance () | _ -> ());
    let digits what =
      let d0 = !pos in
      while match peek () with Some '0' .. '9' -> true | _ -> false do
        advance ()
      done;
      if !pos = d0 then bad "expected %s digit at %d" what !pos
    in
    digits "a";
    (match peek () with
    | Some '.' -> advance (); digits "fraction"
    | _ -> ());
    (match peek () with
    | Some ('e' | 'E') ->
      advance ();
      (match peek () with Some ('+' | '-') -> advance () | _ -> ());
      digits "exponent"
    | _ -> ());
    Num (String.sub s start (!pos - start))
  in
  let literal lit v =
    String.iter
      (fun c -> if peek () = Some c then advance () else bad "expected %S at %d" lit !pos)
      lit;
    v
  in
  (* Members or elements up to [close], comma-separated. *)
  let sequence close item =
    skip_ws ();
    if peek () = Some close then (advance (); [])
    else
      let rec go acc =
        let acc = item () :: acc in
        skip_ws ();
        match peek () with
        | Some ',' -> advance (); go acc
        | Some c when c = close -> advance (); List.rev acc
        | _ -> bad "expected ',' or '%c' at %d" close !pos
      in
      go []
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
      advance ();
      Obj
        (sequence '}' (fun () ->
             skip_ws ();
             let k = parse_string () in
             skip_ws ();
             expect ':';
             (k, value ())))
    | Some '[' -> advance (); Arr (sequence ']' value)
    | Some '"' -> Str (parse_string ())
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some c -> bad "unexpected '%c' at %d" c !pos
    | None -> bad "unexpected end of input at %d" !pos
  in
  match
    let v = value () in
    skip_ws ();
    if !pos <> n then bad "trailing garbage at %d" !pos;
    v
  with
  | v -> Ok v
  | exception Bad m -> Error m

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> parse s
  | exception Sys_error m -> Error m

(* -- access ------------------------------------------------------------ *)

let member k = function Obj kvs | Row kvs -> List.assoc_opt k kvs | _ -> None

(* The values at a key path, or [None] where a key is missing. *)
let rec at path v =
  match (path, v) with
  | [], v -> Some [ v ]
  | "*" :: rest, Arr l ->
    List.fold_right
      (fun x acc ->
        match (at rest x, acc) with Some a, Some b -> Some (a @ b) | _ -> None)
      l (Some [])
  | k :: rest, v -> Option.bind (member k v) (at rest)

let check rules v =
  List.filter_map
    (fun rule ->
      let path, want =
        match String.index_opt rule '=' with
        | Some i -> (String.sub rule 0 i, Some (String.sub rule (i + 1) (String.length rule - i - 1)))
        | None -> (rule, None)
      in
      match (at (String.split_on_char '.' path) v, want) with
      | None, _ -> Some ("missing " ^ path)
      | Some vs, Some w when List.exists (fun x -> to_line x <> w) vs ->
        Some (Printf.sprintf "%s is not %s" path w)
      | Some _, _ -> None)
    rules
