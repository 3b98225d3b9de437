open Sj_util

let text_base = 0x40_0000
let data_base = 0x60_0000
let stack_top = 0x7f_ffff_f000
let stack_gap = Size.mib 1
let private_limit = Size.tib 1
let global_base = private_limit
let is_private va = va >= 0 && va < private_limit
let is_global va = va >= global_base && va < Addr.va_limit

(* The cursor lives in the simulation's Sim_ctx (as an offset above
   [global_base]) so two machines place their global segments
   identically and independently. *)

let peek_global_base ctx ~size =
  let base = global_base + Sim_ctx.layout_offset ctx in
  let span = Size.round_up size ~align:(Size.gib 1) in
  if base + span >= Addr.va_limit then
    Sj_abi.Error.failf Layout_exhausted ~op:"seg_alloc"
      "global address range exhausted (cursor %s + %s exceeds %s)" (Addr.to_string base)
      (Size.to_string span) (Addr.to_string Addr.va_limit);
  base

let reserve_global ctx ~base ~size =
  let top = Size.round_up (base + size) ~align:(Size.gib 1) in
  if top - global_base > Sim_ctx.layout_offset ctx then
    Sim_ctx.set_layout_offset ctx (top - global_base)

(* The cursor sits on a 1 GiB boundary, so reserving [base, base+size)
   advances it by exactly the rounded span. A peek that faults leaves
   the cursor unchanged. *)
let next_global_base ctx ~size =
  let base = peek_global_base ctx ~size in
  reserve_global ctx ~base ~size;
  base

let reset_global_allocator ctx = Sim_ctx.set_layout_offset ctx 0
