open Sj_util
module Machine = Sj_machine.Machine
module Pm = Sj_mem.Phys_mem
module Prot = Sj_paging.Prot
module Acl = Sj_kernel.Acl
module Vm_object = Sj_kernel.Vm_object
module Mspace = Sj_alloc.Mspace
module Varint = Sj_compress.Varint
module Block_lz = Sj_compress.Block_lz
module Api = Sj_core.Api
module Registry = Sj_core.Registry
module Segment = Sj_core.Segment
module Vas = Sj_core.Vas
module Error = Sj_abi.Error
module Sys = Sj_abi.Sys
module Crc32 = Sj_compress.Crc32
module Injector = Sj_fault.Injector

(* Two-phase image format (SJIMG2): a header, CRC-framed sections, and
   a commit record written last. A torn write — the writer dying partway
   through — leaves either a truncated section or a missing/mismatched
   commit record, both detected before any state is rebuilt; a silent
   bit-flip trips a section CRC. SJIMG1 (no checksums) is not read. *)
let magic = "SJIMG2"
let commit_marker = "SJOK"
let sect_segs = 1
let sect_vases = 2

(* ---------- primitive writers/readers ---------- *)

let w_string buf s =
  Varint.write buf (String.length s);
  Buffer.add_string buf s

let r_string b pos =
  let len, pos = Varint.read b ~pos in
  if pos + len > Bytes.length b then Error.fail Invalid ~op:"persist_restore" "truncated string";
  (Bytes.sub_string b pos len, pos + len)

let w_bytes buf s =
  Varint.write buf (Bytes.length s);
  Buffer.add_bytes buf s

let r_bytes b pos =
  let len, pos = Varint.read b ~pos in
  if pos + len > Bytes.length b then Error.fail Invalid ~op:"persist_restore" "truncated bytes";
  (Bytes.sub b pos len, pos + len)

let prot_bits (p : Prot.t) =
  (if p.read then 4 else 0) lor (if p.write then 2 else 0) lor if p.exec then 1 else 0

let prot_of_bits = Prot.of_mode_bits

let w_acl buf acl =
  Varint.write buf (Acl.owner acl);
  Varint.write buf (Acl.mode acl)

let r_acl b pos =
  let owner, pos = Varint.read b ~pos in
  let mode, pos = Varint.read b ~pos in
  (Acl.create ~owner ~group:owner ~mode, pos)

(* ---------- segment contents ---------- *)

let read_contents machine seg =
  let mem = Machine.mem machine in
  let obj = Segment.vm_object seg in
  let out = Buffer.create (Segment.size seg) in
  for p = 0 to Segment.pages seg - 1 do
    Buffer.add_bytes out
      (Pm.read_bytes mem
         ~pa:(Pm.base_of_frame (Vm_object.frame_at obj ~page:p))
         ~len:Addr.page_size)
  done;
  Buffer.to_bytes out

let write_contents machine seg data =
  let mem = Machine.mem machine in
  let obj = Segment.vm_object seg in
  for p = 0 to Segment.pages seg - 1 do
    Pm.write_bytes mem
      ~pa:(Pm.base_of_frame (Vm_object.frame_at obj ~page:p))
      (Bytes.sub data (p * Addr.page_size) Addr.page_size)
  done

(* ---------- save ---------- *)

let segs_payload sys =
  let reg = Api.registry sys in
  let machine = Api.machine sys in
  let buf = Buffer.create 4096 in
  let segs = List.sort (fun a b -> compare (Segment.name a) (Segment.name b)) (Registry.list_segs reg) in
  Varint.write buf (List.length segs);
  List.iter
    (fun seg ->
      w_string buf (Segment.name seg);
      Varint.write buf (Segment.base seg);
      Varint.write buf (Segment.size seg);
      Varint.write buf (prot_bits (Segment.prot_max seg));
      Varint.write buf (if Segment.lockable seg then 1 else 0);
      Varint.write buf
        (match Segment.page_size seg with Sj_paging.Page_table.P4K -> 0 | P2M -> 1);
      w_acl buf (Segment.acl seg);
      (* Allocator state, if the segment has served malloc. *)
      if Registry.has_heap reg seg then begin
        let chunks = Mspace.snapshot (Registry.heap reg seg) in
        Varint.write buf (List.length chunks);
        List.iter
          (fun (c : Mspace.chunk_state) ->
            Varint.write buf c.chunk_base;
            Varint.write buf c.chunk_size;
            Varint.write buf (if c.chunk_free then 1 else 0))
          chunks
      end
      else Varint.write buf 0;
      (* Contents, compressed. *)
      w_bytes buf (Block_lz.compress (read_contents machine seg)))
    segs;
  Buffer.to_bytes buf

let vases_payload sys =
  let reg = Api.registry sys in
  let buf = Buffer.create 1024 in
  let vases = List.sort (fun a b -> compare (Vas.name a) (Vas.name b)) (Registry.list_vases reg) in
  Varint.write buf (List.length vases);
  List.iter
    (fun vas ->
      w_string buf (Vas.name vas);
      w_acl buf (Vas.acl vas);
      Varint.write buf (match Vas.tag vas with Some t -> t | None -> 0);
      let segs = Vas.segments vas in
      Varint.write buf (List.length segs);
      List.iter
        (fun (seg, prot) ->
          w_string buf (Segment.name seg);
          Varint.write buf (prot_bits prot))
        segs)
    vases;
  Buffer.to_bytes buf

let write_section buf ~kind payload =
  Varint.write buf kind;
  Varint.write buf (Bytes.length payload);
  Buffer.add_bytes buf payload;
  Varint.write buf (Crc32.bytes payload)

(* Phase one writes the sections; phase two appends the commit record (a
   marker plus a CRC over everything before it). An injected torn write
   truncates the finished image, exactly as if the writer died mid-way. *)
let save sys =
  Sys.count (Api.syscalls sys) Persist_save;
  let buf = Buffer.create 4096 in
  Buffer.add_string buf magic;
  Varint.write buf 2;
  write_section buf ~kind:sect_segs (segs_payload sys);
  write_section buf ~kind:sect_vases (vases_payload sys);
  let body = Buffer.to_bytes buf in
  let tail = Buffer.create 16 in
  Buffer.add_string tail commit_marker;
  Varint.write tail (Crc32.bytes body);
  let img = Bytes.cat body (Buffer.to_bytes tail) in
  match Injector.active (Machine.sim_ctx (Api.machine sys)) with
  | Some inj -> Injector.tear_save inj img
  | None -> img

(* ---------- image verification ---------- *)

let invalid detail = Error.fail Invalid ~op:"persist_restore" detail

(* Parse and verify the two-phase frame: magic, every section's CRC,
   and the commit record written last. Returns [(kind, payload)] in
   file order. Any truncation (torn write) or checksum mismatch (bit
   flip) raises the typed [Invalid] fault before a byte of simulation
   state is touched. *)
let sections image =
  let mlen = String.length magic in
  if Bytes.length image < mlen || Bytes.sub_string image 0 mlen <> magic then
    invalid "bad image magic";
  try
    let pos = ref mlen in
    let next_varint () =
      let v, p = Varint.read image ~pos:!pos in
      pos := p;
      v
    in
    let n = next_varint () in
    let sects =
      List.init n (fun _ ->
          let kind = next_varint () in
          let len = next_varint () in
          if !pos + len > Bytes.length image then
            invalid "torn image: truncated section";
          let payload = Bytes.sub image !pos len in
          pos := !pos + len;
          let crc = next_varint () in
          if crc <> Crc32.bytes payload then invalid "section CRC mismatch";
          (kind, payload))
    in
    let body_len = !pos in
    let clen = String.length commit_marker in
    if
      body_len + clen > Bytes.length image
      || Bytes.sub_string image body_len clen <> commit_marker
    then invalid "torn image: missing commit record";
    pos := body_len + clen;
    let crc = next_varint () in
    if crc <> Crc32.update 0 image ~pos:0 ~len:body_len then
      invalid "commit record CRC mismatch";
    sects
  with Invalid_argument _ -> invalid "torn image: truncated varint"

let committed image =
  match sections image with
  | _ -> true
  | exception Error.Fault _ -> false

let find_section sects kind =
  match List.assoc_opt kind sects with
  | Some payload -> payload
  | None -> invalid "missing image section"

(* Positioned readers over one section payload. *)
let reader b =
  let pos = ref 0 in
  let next_varint () =
    let v, p = Varint.read b ~pos:!pos in
    pos := p;
    v
  in
  let next_string () =
    let v, p = r_string b !pos in
    pos := p;
    v
  in
  (pos, next_varint, next_string)

(* ---------- restore ---------- *)

(* Restore parses the whole image first, deferring every allocation
   into a [build] thunk, and checks every name before running any of
   them: an image refused for its frame or its names leaves the system
   as it found it (no segment, frame or global address range is taken).
   A name must be new to the registry and unique within the image, and
   every segment a VAS attaches must exist. Physical exhaustion while
   the thunks run is not checked up front: it propagates as
   [Machine.Out_of_memory], with the segments built so far registered. *)
let check_names reg ~segs ~vases =
  let registered find name =
    match find ~name with _ -> true | exception Error.Fault { code = Unknown_name; _ } -> false
  in
  let unique what find names =
    let seen = Hashtbl.create 16 in
    List.iter
      (fun name ->
        if Hashtbl.mem seen name || registered find name then
          Error.failf Name_exists ~op:"persist_restore" "%s %s" what name;
        Hashtbl.replace seen name ())
      names
  in
  unique "segment" (Registry.find_seg reg) segs;
  unique "VAS" (Registry.find_vas reg) (List.map fst vases);
  List.iter
    (fun (vas, attached) ->
      List.iter
        (fun sname ->
          if not (List.mem sname segs || registered (Registry.find_seg reg) sname) then
            Error.failf Unknown_name ~op:"persist_restore" "VAS %s attaches segment %s" vas sname)
        attached)
    vases

let restore sys image =
  Sys.count (Api.syscalls sys) Persist_restore;
  let sects = sections image in
  let reg = Api.registry sys in
  let machine = Api.machine sys in
  let image = find_section sects sect_segs in
  let pos, next_varint, next_string = reader image in
  let segs =
    List.init (next_varint ()) (fun _ ->
        let name = next_string () in
        let base = next_varint () in
        let size = next_varint () in
        let prot = prot_of_bits (next_varint ()) in
        let lockable = next_varint () = 1 in
        let huge = next_varint () = 1 in
        let acl, p = r_acl image !pos in
        pos := p;
        let n_chunks = next_varint () in
        let chunks =
          List.init n_chunks (fun _ ->
              let chunk_base = next_varint () in
              let chunk_size = next_varint () in
              let chunk_free = next_varint () = 1 in
              { Mspace.chunk_base; chunk_size; chunk_free })
        in
        let compressed, p = r_bytes image !pos in
        pos := p;
        let build () =
          let seg =
            Segment.create ~lockable ~huge ~acl ~charge_to:None ~machine ~name ~base ~size ~prot ()
          in
          Sj_kernel.Layout.reserve_global (Machine.sim_ctx machine) ~base ~size;
          write_contents machine seg (Block_lz.decompress compressed);
          Registry.register_seg reg seg;
          if chunks <> [] then Registry.set_heap reg seg (Mspace.of_snapshot ~base ~size chunks)
        in
        (name, build))
  in
  let image = find_section sects sect_vases in
  let pos, next_varint, next_string = reader image in
  let vases =
    List.init (next_varint ()) (fun _ ->
        let name = next_string () in
        let acl, p = r_acl image !pos in
        pos := p;
        let tag = next_varint () in
        let attached =
          List.init (next_varint ()) (fun _ ->
              let sname = next_string () in
              (sname, prot_of_bits (next_varint ())))
        in
        let build () =
          let vas = Vas.create (Machine.sim_ctx machine) ~acl ~name () in
          (if tag <> 0 then
             (* Never double-issue the saved tag: adopt it into the target
                registry (off the free list, visible to alloc_tag's live-VAS
                scan once registered below) — unless another live VAS already
                holds it, in which case this VAS gets a fresh one. *)
             match Registry.adopt_tag reg tag with
             | () -> Vas.assign_tag vas tag
             | exception Error.Fault { code = Name_exists; _ } ->
               Vas.assign_tag vas (Registry.alloc_tag reg));
          List.iter
            (fun (sname, prot) -> Vas.attach_segment vas (Registry.find_seg reg ~name:sname) ~prot)
            attached;
          Registry.register_vas reg vas
        in
        ((name, List.map fst attached), build))
  in
  check_names reg ~segs:(List.map fst segs) ~vases:(List.map fst vases);
  List.iter (fun (_, build) -> build ()) segs;
  List.iter (fun (_, build) -> build ()) vases

let describe image =
  let sects = sections image in
  let buf = Buffer.create 512 in
  let image = find_section sects sect_segs in
  let pos, next_varint, next_string = reader image in
  let n_segs = next_varint () in
  Buffer.add_string buf (Printf.sprintf "segments (%d):\n" n_segs);
  for _ = 1 to n_segs do
    let name = next_string () in
    let base = next_varint () in
    let size = next_varint () in
    let prot = prot_of_bits (next_varint ()) in
    let lockable = next_varint () = 1 in
    let huge = next_varint () = 1 in
    let owner = next_varint () in
    let mode = next_varint () in
    let n_chunks = next_varint () in
    let used = ref 0 and live = ref 0 in
    for _ = 1 to n_chunks do
      let _cbase = next_varint () in
      let csize = next_varint () in
      let cfree = next_varint () = 1 in
      if not cfree then begin
        used := !used + csize;
        incr live
      end
    done;
    let compressed, p = r_bytes image !pos in
    pos := p;
    Buffer.add_string buf
      (Printf.sprintf "  %-20s %s  %-8s %s%s%s  uid=%d mode=%03o  heap: %d allocs, %s  (%s on disk)\n"
         name (Addr.to_string base) (Size.to_string size) (Prot.to_string prot)
         (if lockable then " lockable" else "")
         (if huge then " 2MiB-pages" else "")
         owner mode !live (Size.to_string !used)
         (Size.to_string (Bytes.length compressed)))
  done;
  let image = find_section sects sect_vases in
  let pos, next_varint, next_string = reader image in
  ignore pos;
  let n_vases = next_varint () in
  Buffer.add_string buf (Printf.sprintf "address spaces (%d):\n" n_vases);
  for _ = 1 to n_vases do
    let name = next_string () in
    let owner = next_varint () in
    let mode = next_varint () in
    let tag = next_varint () in
    let n = next_varint () in
    let segs =
      List.init n (fun _ ->
          let sname = next_string () in
          let prot = prot_of_bits (next_varint ()) in
          Printf.sprintf "%s(%s)" sname (Prot.to_string prot))
    in
    Buffer.add_string buf
      (Printf.sprintf "  %-20s uid=%d mode=%03o%s  [%s]\n" name owner mode
         (if tag <> 0 then Printf.sprintf " tag=%d" tag else "")
         (String.concat ", " segs))
  done;
  Buffer.contents buf

let image_info image =
  let sects = sections image in
  let total_len = Bytes.length image in
  let image = find_section sects sect_segs in
  let pos, next_varint, _next_string = reader image in
  let n_segs = next_varint () in
  let total = ref 0 in
  for _ = 1 to n_segs do
    let _name, p = r_string image !pos in
    pos := p;
    let _base = next_varint () in
    let size = next_varint () in
    total := !total + size;
    let _prot = next_varint () in
    let _lockable = next_varint () in
    let _huge = next_varint () in
    let _owner = next_varint () in
    let _mode = next_varint () in
    let n_chunks = next_varint () in
    for _ = 1 to 3 * n_chunks do
      ignore (next_varint ())
    done;
    let contents, p = r_bytes image !pos in
    ignore contents;
    pos := p
  done;
  let image = find_section sects sect_vases in
  let _pos, next_varint, _next_string = reader image in
  let n_vases = next_varint () in
  Printf.sprintf "%d segment(s), %s logical, %d VAS(es), image %s" n_segs
    (Size.to_string !total) n_vases
    (Size.to_string total_len)

(* ---------- journal ---------- *)

(* An append-only sequence of committed images:
   one entry = "SJNT" + varint length + image + varint CRC32(image) + "SJCM".
   Recovery scans forward and keeps the last entry that is structurally
   complete, CRC-clean, AND whose image carries a valid commit record —
   so a torn write (whether it tore the journal tail or the image being
   appended) falls back to the previous committed image instead of
   faulting mid-restore. *)
module Journal = struct
  let entry_marker = "SJNT"
  let entry_commit = "SJCM"
  let empty = Bytes.create 0

  let append journal image =
    let buf = Buffer.create (Bytes.length journal + Bytes.length image + 32) in
    Buffer.add_bytes buf journal;
    Buffer.add_string buf entry_marker;
    Varint.write buf (Bytes.length image);
    Buffer.add_bytes buf image;
    Varint.write buf (Crc32.bytes image);
    Buffer.add_string buf entry_commit;
    Buffer.to_bytes buf

  (* One structurally complete entry at [pos], or None on a torn tail. *)
  let read_entry journal pos =
    let total = Bytes.length journal in
    let mlen = String.length entry_marker in
    if pos + mlen > total || Bytes.sub_string journal pos mlen <> entry_marker
    then None
    else
      match Varint.read journal ~pos:(pos + mlen) with
      | exception Invalid_argument _ -> None
      | len, p -> (
        if p + len > total then None
        else
          let img = Bytes.sub journal p len in
          match Varint.read journal ~pos:(p + len) with
          | exception Invalid_argument _ -> None
          | crc, p ->
            let clen = String.length entry_commit in
            if
              p + clen > total
              || Bytes.sub_string journal p clen <> entry_commit
            then None
            else Some (img, crc, p + clen))

  let fold f acc journal =
    let rec go acc pos =
      if pos >= Bytes.length journal then acc
      else
        match read_entry journal pos with
        | None -> acc (* torn tail: ignore everything from here on *)
        | Some (img, crc, next) -> go (f acc img crc) next
    in
    go acc 0

  let entries journal = fold (fun n _ _ -> n + 1) 0 journal

  let recover journal =
    fold
      (fun best img crc ->
        if crc = Crc32.bytes img && committed img then Some img else best)
      None journal
end
