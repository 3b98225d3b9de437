(** One pipeline for every experiment that writes a [BENCH_*.json]
    report.

    A {!spec} holds only what is the experiment's own: its configs and
    grid axes (inside [run]), the config its audits rerun, its claim
    predicates, its report fields and its table rows. {!execute} does
    the rest, the same way for every experiment and for both front-ends
    ([bench/main.exe <name>] and [sjctl <name>]):

    - fans grid points across [jobs] domains ([ctx.map]);
    - reruns the audit config plainly, with tracing on, under an empty
      fault plan and inside a domain pool, then runs the spec's extra
      audits; every run must reproduce the reference fingerprint;
    - evaluates the named claims;
    - writes the report (host and determinism blocks included), reads
      it back and checks it against {!rules}.

    Any divergence, failed claim or failed check returns exit status 2
    and writes nothing to the output path (a written file that fails
    its check is removed). *)

type ctx = {
  quick : bool;  (** CI problem sizes *)
  map : 'a 'b. ('a -> 'b) -> 'a list -> 'b list;
      (** [List.map], fanned across the domain pool; results come back in
          list order, so output does not depend on [jobs] *)
  progress : string -> unit;  (** announce the section about to run *)
}

type ('r, 'fp) spec = {
  name : string;  (** command name *)
  doc : string;  (** one-line title of the section and the command *)
  schema : string;  (** the report's ["schema"] value *)
  out_path : string;  (** default report path *)
  run : ctx -> 'r;  (** every simulation the report is made of *)
  audit : quick:bool -> unit -> 'fp;
      (** one run of the audit config, reduced to what must reproduce;
          runs are compared with [=], so ['fp] holds no closures *)
  extra_audits : quick:bool -> 'r -> (string * (unit -> bool)) list;
      (** further named reproductions; [true] when identical *)
  claims : (string * ('r -> string list)) list;
      (** named acceptance claims; each returns its counterexamples and
          holds when there are none *)
  claims_doc : string;  (** the claims in words, printed when all hold *)
  to_json : 'r -> (string * Sj_util.Json.t) list;
      (** the report members between the host and claims blocks *)
  required : string list;
      (** {!Sj_util.Json.check} rules for those members *)
  rows : 'r -> unit;  (** print the result tables to stdout *)
}

type t = Spec : ('r, 'fp) spec -> t

val name : t -> string
val doc : t -> string
val schema : t -> string
val out_path : t -> string

val claim_names : t -> string list

val standard_audits : string list
(** The audits {!execute} runs for every spec, in order, before the
    spec's [extra_audits]: a plain rerun, tracing on, an empty fault
    plan and a domain pool. A report's [determinism.audits] starts with
    these names. *)

val rules : t -> string list
(** Everything a report of this spec must satisfy: the schema, the
    host block, the spec's [required] rules, every claim [true] and
    [determinism.equal] [true]. *)

val check_string : t -> string -> (unit, string list) result
(** Parse the text as JSON, then apply {!rules}. *)

val check_file : t -> string -> (unit, string list) result

val execute : ?out:string -> quick:bool -> jobs:int -> t -> int
(** Run the experiment and write its report to [out] (default
    [out_path]). Returns the exit status: 0 when the report was
    written and checked, 2 when it was refused (including [jobs < 1]). *)
