(** The exploration harness: small-scope model checking over fault
    plans × schedules × backends (ISSUE 9 tentpole).

    A {!config} is one point of the sweep: a backend, a seed (whose
    parity selects the hot-loop mechanism — even exercises the full
    VAS switch / capability invocation path, odd the protection-key
    compartment path), a {!Sj_fault.Plan.t} of faults to inject, and a
    [fork] flag. {!run} executes a fixed two-process workload under the
    config — setup, mechanism hot loop, for fork-bearing configs a μFork
    phase (a CoW process fork plus a CoW VAS snapshot, with isolation
    probes recorded for the cow-isolation invariant), a compartment
    window, persist + journal recovery, restore into a second system,
    full teardown — snapshots the {!World} after every phase, audits
    page-table refcounts, and checks every {!Invariant}.

    Determinism contract: a run is a pure function of its config. The
    {!result.fingerprint} folds the event trace, metrics, syscall
    tables, registry state and fired plan into one CRC, so any
    violation replays byte-identically from [(seed, plan, backend)]
    alone. *)

module Plan = Sj_fault.Plan

type mechanism = Switch | Pkey_loop

type config = {
  backend : Sj_core.Api.backend;
  seed : int;  (** injector seed; parity selects the {!mechanism} *)
  plan : Plan.t;
  fork : bool;  (** run the μFork phase (proc_fork + vas_fork + probes) *)
}

val mechanism : config -> mechanism
val mechanism_name : config -> string
(** ["vas_reload"] (DragonFly switch), ["cap_invoke"] (Barrelfish
    switch) or ["pkey"]. *)

val backend_name : Sj_core.Api.backend -> string
val key : config -> string
(** The replay key: backend, seed and plan — everything {!run} needs. *)

type result = {
  cfg : config;
  fingerprint : int;  (** CRC-32 over the run's full observable output *)
  fired : string;  (** [Plan.to_string] of the faults that actually fired *)
  notes : string list;  (** guarded-step outcomes, chronological *)
  violations : (string * string) list;  (** (invariant, message) *)
  world : World.t;
}

val run : config -> result

val equal_result : result -> result -> bool
(** Fingerprint, fired plan and violations all agree. *)

val enumerate : quick:bool -> config list
(** The sweep: per backend — kills of pid 1 at every ABI entry
    (including the fork syscalls), kills of pid 2 at a hot subset,
    kill-holding-lock × both pids × both mechanisms, would-block
    storms, grow failures, torn writes, composed plans, fault-free
    baselines, and a fork-bearing block (fork baselines on both
    mechanisms, kills of pid 1 at the fork entries, kills and storms
    aimed at the forked child pid 3, a fork composed with a torn
    write) — then seeded LCG fuzz beyond the grid (16 configs quick,
    64 full). All configs are distinct; both mechanisms and all five
    plan kinds appear. *)
