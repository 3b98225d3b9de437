(** Per-simulation event recorder.

    A recorder is attached to a simulation's [Sim_ctx] (through the
    extensible [Sim_ctx.obs] slot) and owns that simulation's event
    {!Ring} and {!Metrics}. Emitters reach it via [active ctx] and must
    construct events only inside the [Some] branch so the disabled path
    allocates nothing:

    {[
      (match Recorder.active ctx with
      | Some r -> Recorder.emit r ~core ~cycles (Event.Vas_switch { vid; tag })
      | None -> ())
    ]} *)

type t

type Sj_util.Sim_ctx.obs += Recorder of t

val default_capacity : int
(** 65536 events. *)

val create : ?capacity:int -> unit -> t
(** A fresh enabled recorder with an empty ring. *)

val attach : Sj_util.Sim_ctx.t -> t -> unit
val of_ctx : Sj_util.Sim_ctx.t -> t option
(** The attached recorder whether enabled or not. *)

val active : Sj_util.Sim_ctx.t -> t option
(** The attached recorder only if tracing is currently enabled — the
    emission guard. *)

val enabled : t -> bool
val set_enabled : t -> bool -> unit

val emit : t -> core:int -> cycles:int -> Event.kind -> unit
(** Stamp the event with the next sequence number, fold it into the
    metrics, and push it onto the ring. No-op when disabled. *)

val events : t -> Event.t list
(** Retained events, oldest first (the ring may have dropped earlier
    ones — see [dropped]). *)

val dropped : t -> int
val metrics : t -> Metrics.t

val clear : t -> unit
(** Empty the ring and reset the sequence counter; metrics keep
    accumulating. *)

val ambient_capacity : unit -> int option
(** Domain-local default consulted by [Machine.create]: [Some capacity]
    means new machines boot with an enabled recorder attached. *)

val with_tracing : ?capacity:int -> bool -> (unit -> 'a) -> 'a
(** [with_tracing on f] runs [f] with the ambient default set;
    domain-local, restored on exit. *)
