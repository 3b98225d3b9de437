(* The per-simulation event recorder. A recorder hangs off the
   simulation's Sim_ctx through the extensible [Sim_ctx.obs] slot, so
   every layer that can see a core can reach the recorder without a
   dependency on this library's users — and two machines in two domains
   each record into their own ring with no shared mutable state.

   Emission discipline (see HACKING.md, "Observability"): call sites
   must match on [active ctx] and only construct the event inside the
   [Some] branch, so the disabled path allocates nothing and simulated
   cycles stay bit-identical with tracing off. *)

module Sim_ctx = Sj_util.Sim_ctx

type t = {
  mutable enabled : bool;
  ring : Ring.t;
  metrics : Metrics.t;
  mutable seq : int;
}

type Sim_ctx.obs += Recorder of t

let default_capacity = 65536

let create ?(capacity = default_capacity) () =
  { enabled = true; ring = Ring.create capacity; metrics = Metrics.create ();
    seq = 0 }

let attach ctx t = Sim_ctx.set_obs ctx (Some (Recorder t))

let of_ctx ctx =
  match Sim_ctx.obs ctx with Some (Recorder t) -> Some t | _ -> None

let active ctx =
  match Sim_ctx.obs ctx with
  | Some (Recorder t) when t.enabled -> Some t
  | _ -> None

let enabled t = t.enabled
let set_enabled t on = t.enabled <- on

let emit t ~core ~cycles kind =
  if t.enabled then begin
    let e : Event.t = { seq = t.seq; core; cycles; kind } in
    t.seq <- t.seq + 1;
    Metrics.record t.metrics kind;
    Ring.push t.ring e
  end

let events t = Ring.to_list t.ring
let dropped t = Ring.dropped t.ring
let metrics t = t.metrics

let clear t =
  Ring.clear t.ring;
  t.seq <- 0

(* Ambient default, read by Machine.create: [None] means machines boot
   with tracing off; [Some capacity] means every machine created in this
   dynamic extent gets a fresh enabled recorder. Domain-local so
   parallel trials inherit their own copy and serial-vs-parallel runs
   behave identically. *)
let ambient : int option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let ambient_capacity () = Domain.DLS.get ambient

let with_tracing ?(capacity = default_capacity) on f =
  let prev = Domain.DLS.get ambient in
  Domain.DLS.set ambient (if on then Some capacity else None);
  Fun.protect ~finally:(fun () -> Domain.DLS.set ambient prev) f
