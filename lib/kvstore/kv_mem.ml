module Machine = Sj_machine.Machine
module Core = Machine.Core
module Mspace = Sj_alloc.Mspace
module Api = Sj_core.Api

type t = {
  alloc : int -> int;
  free : int -> unit;
  read : va:int -> len:int -> bytes;
  write : va:int -> bytes -> unit;
  touch : va:int -> unit;
}

let private_heap machine proc core ~size =
  let base = 0x5000_0000 in
  let obj = Sj_kernel.Vm_object.create ~name:"kv.heap" machine ~size ~charge_to:None in
  Sj_kernel.Vmspace.map_object
    (Sj_kernel.Process.primary_vmspace proc)
    ~charge_to:None ~base ~prot:Sj_paging.Prot.rw obj;
  let heap = Mspace.create ~base ~size in
  {
    alloc =
      (fun n ->
        match Mspace.malloc heap n with
        | Some va -> va
        | None -> Sj_abi.Error.fail Capacity ~op:"malloc" "kv heap exhausted");
    free = Mspace.free heap;
    read = (fun ~va ~len -> Core.load_bytes core ~va ~len);
    write = (fun ~va data -> Core.store_bytes core ~va data);
    touch = (fun ~va -> Core.touch core ~va ~access:Machine.Read);
  }

let segment_heap ctx seg =
  let core = Api.core ctx in
  {
    alloc = (fun n -> Api.malloc ctx ~seg n);
    free = (fun va -> Api.free ctx va);
    read = (fun ~va ~len -> Core.load_bytes core ~va ~len);
    write = (fun ~va data -> Core.store_bytes core ~va data);
    touch = (fun ~va -> Core.touch core ~va ~access:Machine.Read);
  }
