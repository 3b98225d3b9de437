(** One compartment-crossing trial: the same visit-and-work loop driven
    through each of the three isolation mechanisms — Dragonfly
    vas_switch (CR3 reload), Barrelfish capability invoke, and
    protection-key switch (register write, zero flushes) — so their
    crossing costs are directly comparable. The [compartments]
    experiment ([lib/experiments]) sweeps the grid and audits
    determinism; this module is one deterministic point. *)

type mechanism =
  | Vas_reload  (** Dragonfly: one VAS per compartment, switch = CR3 *)
  | Cap_invoke  (** Barrelfish: same topology, switch invokes the cap *)
  | Pkey  (** one shared VAS, key-tagged segments, switch = WRPKRU *)

val mechanism_name : mechanism -> string
val backend_of : mechanism -> Sj_core.Api.backend

type config = {
  mechanism : mechanism;
  compartments : int;  (** 1..15 — each needs its own protection key *)
  crossings : int;  (** measured compartment entries *)
  loads_per_crossing : int;
      (** work per visit — the crossing-frequency axis: 1 is
          crossing-dominated, large values work-dominated *)
  seg_size : int;
  tags : bool;  (** give the spaces TLB tags *)
  seed : int;
}

val default : config

type result = {
  crossings : int;
  total_cycles : int;  (** whole measured loop, work included *)
  crossing_cycles : int;  (** the mechanism operations alone *)
  per_crossing : float;
  flushes : int;
      (** TLB flushes observed during the measured loop — must be zero
          for the pkey mechanism (the zero-flush claim) *)
  page_invalidations : int;
  pkey_switches : int;
  vas_switches : int;
  violations : int;
      (** hostile-probe accesses denied as typed [Key_violation] faults
          (2 for pkey runs with >= 2 compartments, else 0) *)
  checksum : int;  (** folds every loaded value — the work is real *)
  fingerprint : (string * int) list;
      (** simulated-only integers; byte-identical across host
          conditions (reruns, -j N, tracing, fault plans) *)
}

val run : config -> result
(** Build a fresh machine, lay out the compartments for
    [config.mechanism], run the measured crossing loop, then (pkey
    only) probe a foreign compartment and count the typed denials.
    Deterministic: a pure function of [config]. *)
