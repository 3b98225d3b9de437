(** A small JSON value type with one printer and one parser.

    Every report the repository writes goes through {!to_string}, and
    every report or trace it checks goes through {!parse}, so the
    emitted layout and the accepted grammar are each defined once.
    Numbers are kept as their literal text: a report states the
    precision of each figure (["%.2f"], ["%d"]), and the parser keeps
    what it read. *)

type t =
  | Null
  | Bool of bool
  | Num of string  (** a JSON number literal, printed verbatim *)
  | Str of string
  | Arr of t list
  | Obj of (string * t) list
  | Row of (string * t) list
      (** an object the printer keeps on one line, e.g. a fingerprint;
          {!parse} never produces it *)

val int : int -> t

val float : int -> float -> t
(** [float digits x] is [x] printed with [digits] decimals, or [Null]
    when [x] is not finite (JSON has no literal for it). *)

val strings : string list -> t
(** An array of strings. *)

val ints : int list -> t
(** An array of numbers. *)

val counts : (string * int) list -> t
(** A [(name, count)] list such as a fingerprint, as a {!Row}. *)

val to_string : t -> string
(** The report layout: an [Obj] puts each member on its own line,
    indented by two spaces per level; an [Arr] stays on one line when
    every element is a scalar and otherwise puts each element on its
    own line; a [Row] stays on one line. Ends with a newline. *)

val to_line : t -> string
(** The whole value on one line, in the same spelling. *)

val parse : string -> (t, string) result
(** Recursive descent over the full JSON grammar, then end of input.
    Escapes in strings are decoded. Errors name the byte offset. *)

val read_file : string -> (t, string) result

val member : string -> t -> t option

val check : string list -> t -> string list
(** [check rules v] lists the rules [v] breaks, one message each. A
    rule is a dot-separated key path that must exist, where ["*"]
    stands for every element of an array (["grid.*.point.shards"]). A
    rule ["path=lit"] further requires every value at [path] to print
    as [lit] under {!to_line} (["determinism.equal=true"]). *)
