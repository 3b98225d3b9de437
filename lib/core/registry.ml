module Machine = Sj_machine.Machine
module Mspace = Sj_alloc.Mspace
module Cap = Sj_kernel.Cap

type service = ..
(* Open sum of per-system service states (e.g. RedisJMP stores). Keeps
   service-level mutable state scoped to the registry that owns it
   instead of in process-global tables, without the registry depending
   on the service libraries above it. *)

type t = {
  machine : Machine.t;
  vases : (string, Vas.t) Hashtbl.t;
  vases_by_id : (int, Vas.t) Hashtbl.t;
  segs : (string, Segment.t) Hashtbl.t;
  segs_by_id : (int, Segment.t) Hashtbl.t;
  heaps : (int, Mspace.t) Hashtbl.t;
  caps : (int, Cap.t) Hashtbl.t; (* vid -> root capability *)
  live_maps : (int, Sj_kernel.Vmspace.t list ref) Hashtbl.t; (* sid -> vmspaces *)
  services : (string, service) Hashtbl.t;
  mutable next_tag : int;
  mutable tags_wrapped : bool; (* a wrap happened: every tag handed out
                                  from now on has had a previous owner *)
  mutable free_tags : int list; (* explicitly released tags, reused LIFO *)
  mutable switches : int;
}

let create machine =
  {
    machine;
    vases = Hashtbl.create 16;
    vases_by_id = Hashtbl.create 16;
    segs = Hashtbl.create 16;
    segs_by_id = Hashtbl.create 16;
    heaps = Hashtbl.create 16;
    caps = Hashtbl.create 16;
    live_maps = Hashtbl.create 16;
    services = Hashtbl.create 8;
    next_tag = 1;
    tags_wrapped = false;
    free_tags = [];
    switches = 0;
  }

let machine t = t.machine

let register_vas t vas =
  let name = Vas.name vas in
  if Hashtbl.mem t.vases name then Sj_abi.Error.fail Name_exists ~op:"vas_create" name;
  Hashtbl.replace t.vases name vas;
  Hashtbl.replace t.vases_by_id (Vas.vid vas) vas

let find_vas t ~name =
  match Hashtbl.find_opt t.vases name with
  | Some v -> v
  | None -> Sj_abi.Error.fail Unknown_name ~op:"vas_find" name

let find_vas_by_id t vid =
  match Hashtbl.find_opt t.vases_by_id vid with
  | Some v -> v
  | None -> Sj_abi.Error.failf Unknown_name ~op:"vas_find" "vid:%d" vid

let unregister_vas t vas =
  Hashtbl.remove t.vases (Vas.name vas);
  Hashtbl.remove t.vases_by_id (Vas.vid vas);
  Hashtbl.remove t.caps (Vas.vid vas)

let list_vases t = Hashtbl.fold (fun _ v acc -> v :: acc) t.vases []

let check_seg_name t ~name =
  if Hashtbl.mem t.segs name then Sj_abi.Error.fail Name_exists ~op:"seg_alloc" name

let register_seg t seg =
  let name = Segment.name seg in
  check_seg_name t ~name;
  Hashtbl.replace t.segs name seg;
  Hashtbl.replace t.segs_by_id (Segment.sid seg) seg

let find_seg t ~name =
  match Hashtbl.find_opt t.segs name with
  | Some s -> s
  | None -> Sj_abi.Error.fail Unknown_name ~op:"seg_find" name

let find_seg_by_id t sid =
  match Hashtbl.find_opt t.segs_by_id sid with
  | Some s -> s
  | None -> Sj_abi.Error.failf Unknown_name ~op:"seg_find" "sid:%d" sid

let unregister_seg t seg =
  Hashtbl.remove t.segs (Segment.name seg);
  Hashtbl.remove t.segs_by_id (Segment.sid seg);
  Hashtbl.remove t.heaps (Segment.sid seg)

let list_segs t = Hashtbl.fold (fun _ s acc -> s :: acc) t.segs []

let heap t seg =
  let sid = Segment.sid seg in
  match Hashtbl.find_opt t.heaps sid with
  | Some h -> h
  | None ->
    let h = Mspace.create ~base:(Segment.base seg) ~size:(Segment.size seg) in
    Hashtbl.replace t.heaps sid h;
    h

let has_heap t seg = Hashtbl.mem t.heaps (Segment.sid seg)
let set_heap t seg h = Hashtbl.replace t.heaps (Segment.sid seg) h

let note_mapping t ~sid vms =
  match Hashtbl.find_opt t.live_maps sid with
  | Some l -> l := vms :: !l
  | None -> Hashtbl.replace t.live_maps sid (ref [ vms ])

let forget_mapping t ~sid vms =
  match Hashtbl.find_opt t.live_maps sid with
  | Some l -> l := List.filter (fun v -> not (v == vms)) !l
  | None -> ()

let mappings t ~sid =
  match Hashtbl.find_opt t.live_maps sid with Some l -> !l | None -> []

let tag_in_use t tag =
  tag > 0
  && Hashtbl.fold
       (fun _ vas acc -> acc || Vas.tag vas = Some tag)
       t.vases_by_id false

let alloc_tag ?charge_to t =
  (* Explicitly released tags (vas_delete, crash reclamation) are reused
     first, LIFO; each has had a previous owner, so reuse takes the
     recycle path below. Otherwise hand out the next fresh tag. Either
     way a tag a registered VAS still holds is never re-issued: the
     free list can go stale against adopted tags (image restore), and
     after the 12-bit space wraps the counter walks over tags whose
     owners are still live — both would silently alias two VASes in the
     TLB (the explorer's tag-unique invariant). *)
  let rec fresh tries =
    if tries >= 4095 then
      Sj_abi.Error.fail Capacity ~op:"alloc_tag" "all 4095 TLB tags held by live VASes"
    else begin
      let tag = t.next_tag in
      (* Read the recycle flag before updating it: the first hand-out of
         4095 is fresh; only tags issued after a wrap had a previous
         owner. 12-bit tag space; wrap rather than fail, like PCID
         reuse. *)
      let recycled = t.tags_wrapped in
      if tag >= 4095 then begin
        t.next_tag <- 1;
        t.tags_wrapped <- true
      end
      else t.next_tag <- tag + 1;
      if tag_in_use t tag then fresh (tries + 1) else (tag, recycled)
    end
  in
  let rec from_free () =
    match t.free_tags with
    | tag :: rest ->
      t.free_tags <- rest;
      if tag_in_use t tag then from_free () else (tag, true)
    | [] -> fresh 0
  in
  let tag, recycled = from_free () in
  if recycled then begin
    (* The previous owner's translations may still be resident under
       this tag in any core's TLB; without a flush the new owner would
       hit them (stale-translation hazard, §4.1). INVPCID broadcast:
       flush the tag on every core, one IPI each charged to the
       requester — same accounting as seg_snapshot's shootdown. *)
    let c = Machine.cost t.machine in
    Array.iter
      (fun core ->
        Sj_tlb.Tlb.flush_tag (Machine.Core.tlb core) ~tag;
        match charge_to with
        | Some requester -> Machine.Core.charge requester c.cacheline_cross
        | None -> ())
      (Machine.cores t.machine);
    match Sj_obs.Recorder.active (Machine.sim_ctx t.machine) with
    | Some r ->
      let core, cycles =
        match charge_to with
        | Some requester ->
          (Machine.Core.id requester, Machine.Core.cycles requester)
        | None -> (-1, 0)
      in
      Sj_obs.Recorder.emit r ~core ~cycles (Sj_obs.Event.Tag_recycle { tag })
    | None -> ()
  end;
  tag

let release_tag t tag =
  if tag > 0 && not (List.mem tag t.free_tags) then
    t.free_tags <- tag :: t.free_tags

let free_tag_list t = t.free_tags

let adopt_tag t tag =
  if tag > 0 then begin
    if tag_in_use t tag then
      Sj_abi.Error.failf Name_exists ~op:"adopt_tag" "tag %d is live" tag;
    t.free_tags <- List.filter (fun x -> x <> tag) t.free_tags
  end

let count_switch t = t.switches <- t.switches + 1
let switch_count t = t.switches
let reset_stats t = t.switches <- 0

let describe t =
  let buf = Buffer.create 512 in
  let segs = List.sort (fun a b -> compare (Segment.name a) (Segment.name b)) (list_segs t) in
  Buffer.add_string buf (Printf.sprintf "segments (%d):\n" (List.length segs));
  List.iter
    (fun seg ->
      let lock =
        match Segment.lock_state seg with
        | Segment.Unlocked -> "unlocked"
        | Segment.Shared n -> Printf.sprintf "shared x%d" n
        | Segment.Exclusive -> "EXCLUSIVE"
      in
      let heap_note =
        if has_heap t seg then
          let h = heap t seg in
          Printf.sprintf "  heap: %d allocs, %s used" (Mspace.allocations h)
            (Sj_util.Size.to_string (Mspace.used_bytes h))
        else ""
      in
      Buffer.add_string buf
        (Printf.sprintf "  %-18s %s  %-8s %s  maps=%d  %s%s%s%s\n" (Segment.name seg)
           (Sj_util.Addr.to_string (Segment.base seg))
           (Sj_util.Size.to_string (Segment.size seg))
           lock
           (List.length (mappings t ~sid:(Segment.sid seg)))
           (if Segment.is_cow seg then "cow " else "")
           (match Segment.page_size seg with Sj_paging.Page_table.P2M -> "2MiB-pages " | P4K -> "")
           (if Segment.translation_cache seg <> None then "cached-translations " else "")
           heap_note))
    segs;
  let vases = List.sort (fun a b -> compare (Vas.name a) (Vas.name b)) (list_vases t) in
  Buffer.add_string buf (Printf.sprintf "address spaces (%d):\n" (List.length vases));
  List.iter
    (fun vas ->
      Buffer.add_string buf
        (Printf.sprintf "  %-18s gen=%d%s  [%s]\n" (Vas.name vas) (Vas.generation vas)
           (match Vas.tag vas with Some tg -> Printf.sprintf " tag=%d" tg | None -> "")
           (String.concat ", "
              (List.map
                 (fun (s, p) ->
                   Printf.sprintf "%s(%s)" (Segment.name s) (Sj_paging.Prot.to_string p))
                 (Vas.segments vas)))))
    vases;
  Buffer.add_string buf (Printf.sprintf "switches so far: %d\n" t.switches);
  Buffer.contents buf

let root_cap t vas =
  let vid = Vas.vid vas in
  match Hashtbl.find_opt t.caps vid with
  | Some c -> c
  | None ->
    let c =
      Cap.create_vas_ref (Machine.sim_ctx t.machine) ~vas:vid ~rights:Sj_paging.Prot.rwx
    in
    Hashtbl.replace t.caps vid c;
    c

let set_service t ~name s =
  if Hashtbl.mem t.services name then Sj_abi.Error.fail Name_exists ~op:"service" name;
  Hashtbl.replace t.services name s

let find_service t ~name = Hashtbl.find_opt t.services name
let remove_service t ~name = Hashtbl.remove t.services name
