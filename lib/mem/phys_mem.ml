open Sj_util

type frame = int

exception Out_of_memory

type node_kind = Performance | Capacity

type node = { first : frame; nframes : int; kind : node_kind }

type t = {
  size : int;
  frames_total : int;
  numa_nodes : int; (* performance-tier node count *)
  nodes : node array;
  (* Per-node allocation state: a bump pointer plus a free list of
     previously released frames. *)
  bump : int array;
  free_lists : frame list array;
  (* One byte per frame ('\000' free / '\001' allocated): allocation
     membership is checked on every simulated access, and setup maps
     tens of thousands of frames, so this is a flat table rather than a
     hashtable. *)
  allocated : Bytes.t;
  (* Node indices in default allocation preference order (performance
     tier first), precomputed so [alloc_frame] builds no lists. *)
  default_order : int array;
  contents : (frame, bytes) Hashtbl.t; (* lazily materialized *)
  mutable n_allocated : int;
  (* Node arena for the page tables built over this memory. Lives here
     because grafting shares interior nodes across tables, so their
     indices must resolve in one common store. *)
  pt_store : Pt_store.t;
  (* Roots and extracted-subtree handles of the live page tables over
     this memory, as raw node indices (registered by
     [Sj_paging.Page_table]). Per-memory — not global — so concurrent
     simulations in different domains never share the lists. The
     refcount audit walks them to compute each node's expected
     indegree. *)
  mutable pt_roots : int list;
  mutable pt_handles : int list;
}

let create_tiered ~size ~numa_nodes ~capacity_size =
  if size <= 0 || size mod Addr.page_size <> 0 then
    invalid_arg "Phys_mem.create: size must be a positive multiple of 4KiB";
  if capacity_size < 0 || capacity_size mod Addr.page_size <> 0 then
    invalid_arg "Phys_mem.create: capacity size must be a multiple of 4KiB";
  if numa_nodes <= 0 then invalid_arg "Phys_mem.create: numa_nodes";
  let perf_frames = size / Addr.page_size in
  if perf_frames mod numa_nodes <> 0 then
    invalid_arg "Phys_mem.create: size not divisible across NUMA nodes";
  let per_node = perf_frames / numa_nodes in
  let capacity_frames = capacity_size / Addr.page_size in
  let perf =
    Array.init numa_nodes (fun i ->
        { first = i * per_node; nframes = per_node; kind = Performance })
  in
  let nodes =
    if capacity_frames > 0 then
      Array.append perf [| { first = perf_frames; nframes = capacity_frames; kind = Capacity } |]
    else perf
  in
  let n = Array.length nodes in
  {
    size = size + capacity_size;
    frames_total = perf_frames + capacity_frames;
    numa_nodes;
    nodes;
    bump = Array.make n 0;
    free_lists = Array.make n [];
    allocated = Bytes.make (perf_frames + capacity_frames) '\000';
    default_order =
      Array.append
        (Array.init numa_nodes Fun.id)
        (if capacity_frames > 0 then [| numa_nodes |] else [||]);
    contents = Hashtbl.create 4096;
    n_allocated = 0;
    pt_store = Pt_store.create ();
    pt_roots = [];
    pt_handles = [];
  }

let create ~size ~numa_nodes = create_tiered ~size ~numa_nodes ~capacity_size:0
let size t = t.size
let frames_total t = t.frames_total
let frames_allocated t = t.n_allocated
let base_of_frame f = f * Addr.page_size
let frame_of_addr pa = pa / Addr.page_size
let node_count t = Array.length t.nodes
let node_kind t n = t.nodes.(n).kind

let capacity_node t =
  let n = Array.length t.nodes in
  if n > 0 && t.nodes.(n - 1).kind = Capacity then Some (n - 1) else None

let node_of_frame t f =
  let rec go i =
    if i >= Array.length t.nodes then invalid_arg "Phys_mem.node_of_frame: out of range"
    else
      let nd = t.nodes.(i) in
      if f >= nd.first && f < nd.first + nd.nframes then i else go (i + 1)
  in
  go 0

let is_allocated t f =
  f >= 0 && f < t.frames_total && Bytes.unsafe_get t.allocated f <> '\000'
let pt_store t = t.pt_store

let remove_first x l =
  let rec go acc = function
    | [] -> List.rev acc
    | y :: rest when y = x -> List.rev_append acc rest
    | y :: rest -> go (y :: acc) rest
  in
  go [] l

let pt_roots t = t.pt_roots
let pt_handles t = t.pt_handles
let pt_register_root t n = t.pt_roots <- n :: t.pt_roots
let pt_unregister_root t n = t.pt_roots <- remove_first n t.pt_roots
let pt_register_handle t n = t.pt_handles <- n :: t.pt_handles
let pt_unregister_handle t n = t.pt_handles <- remove_first n t.pt_handles

let alloc_on_node t node =
  match t.free_lists.(node) with
  | f :: rest ->
    t.free_lists.(node) <- rest;
    Some f
  | [] ->
    let nd = t.nodes.(node) in
    if t.bump.(node) < nd.nframes then begin
      let f = nd.first + t.bump.(node) in
      t.bump.(node) <- t.bump.(node) + 1;
      Some f
    end
    else None

(* Node preference: the requested node first, then the default order
   (performance tier before capacity) skipping the duplicate. *)
let alloc_frame ?node t =
  let f =
    match node with
    | Some n ->
      if n < 0 || n >= Array.length t.nodes then invalid_arg "Phys_mem.alloc_frame: bad node";
      (match alloc_on_node t n with
      | Some f -> f
      | None ->
        let rec go i =
          if i >= Array.length t.nodes then raise Out_of_memory
          else if i = n then go (i + 1)
          else match alloc_on_node t i with Some f -> f | None -> go (i + 1)
        in
        go 0)
    | None ->
      (* Unpinned allocations stay in the performance tier; the capacity
         tier is only used when explicitly requested or when DRAM is
         exhausted. *)
      let order = t.default_order in
      let rec go i =
        if i >= Array.length order then raise Out_of_memory
        else
          match alloc_on_node t order.(i) with
          | Some f -> f
          | None -> go (i + 1)
      in
      go 0
  in
  Bytes.unsafe_set t.allocated f '\001';
  t.n_allocated <- t.n_allocated + 1;
  f

(* All-or-nothing. Both node policies in [alloc_frame] fall back to
   every node, so the free count decides exactly whether [n] single
   allocations succeed: checking it first means a refusal takes no
   frame (a part-way failure would leak every frame already taken). *)
let alloc_frames ?node t ~n =
  if n > t.frames_total - t.n_allocated then raise Out_of_memory;
  Array.init n (fun _ -> alloc_frame ?node t)

let alloc_frames_contiguous ?node ?(align = 1) t ~n =
  if n <= 0 then invalid_arg "Phys_mem.alloc_frames_contiguous: n";
  if align < 1 then invalid_arg "Phys_mem.alloc_frames_contiguous: align";
  let all = List.init (Array.length t.nodes) Fun.id in
  let try_nodes =
    match node with
    | Some nd ->
      if nd < 0 || nd >= Array.length t.nodes then invalid_arg "Phys_mem: bad node";
      nd :: List.filter (fun m -> m <> nd) all
    | None ->
      List.filter (fun m -> t.nodes.(m).kind = Performance) all
      @ List.filter (fun m -> t.nodes.(m).kind = Capacity) all
  in
  let rec go = function
    | [] -> raise Out_of_memory
    | nd :: rest ->
      let node_base = t.nodes.(nd).first in
      (* Round the start of the run up so the *global* frame number is
         aligned (physical address alignment). *)
      let start =
        ((node_base + t.bump.(nd) + align - 1) / align * align) - node_base
      in
      if start + n <= t.nodes.(nd).nframes then begin
        (* Frames skipped by alignment stay usable via the free list. *)
        for f = t.bump.(nd) to start - 1 do
          t.free_lists.(nd) <- (node_base + f) :: t.free_lists.(nd)
        done;
        let first = node_base + start in
        t.bump.(nd) <- start + n;
        Array.init n (fun i ->
            let f = first + i in
            Bytes.unsafe_set t.allocated f '\001';
            f)
      end
      else go rest
  in
  let frames = go try_nodes in
  t.n_allocated <- t.n_allocated + n;
  frames

let free_frame t f =
  if not (is_allocated t f) then
    invalid_arg "Phys_mem.free_frame: frame not allocated";
  Bytes.unsafe_set t.allocated f '\000';
  Hashtbl.remove t.contents f;
  t.n_allocated <- t.n_allocated - 1;
  let node = node_of_frame t f in
  t.free_lists.(node) <- f :: t.free_lists.(node)

let check_allocated t f ctx =
  if not (is_allocated t f) then
    invalid_arg (Printf.sprintf "Phys_mem.%s: access to unallocated frame %d" ctx f)

let backing t f =
  match Hashtbl.find_opt t.contents f with
  | Some b -> b
  | None ->
    let b = Bytes.make Addr.page_size '\000' in
    Hashtbl.replace t.contents f b;
    b

let read8 t ~pa =
  let f = frame_of_addr pa in
  check_allocated t f "read8";
  match Hashtbl.find_opt t.contents f with
  | None -> 0
  | Some b -> Char.code (Bytes.get b (Addr.offset_in_page pa))

let write8 t ~pa v =
  let f = frame_of_addr pa in
  check_allocated t f "write8";
  Bytes.set (backing t f) (Addr.offset_in_page pa) (Char.chr (v land 0xff))

let read64 t ~pa =
  let off = Addr.offset_in_page pa in
  if off <= Addr.page_size - 8 then begin
    let f = frame_of_addr pa in
    check_allocated t f "read64";
    match Hashtbl.find_opt t.contents f with
    | None -> 0L
    | Some b -> Bytes.get_int64_le b off
  end
  else begin
    (* Straddles a frame boundary: byte at a time. *)
    let v = ref 0L in
    for i = 7 downto 0 do
      v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (read8 t ~pa:(pa + i)))
    done;
    !v
  end

let write64 t ~pa v =
  let off = Addr.offset_in_page pa in
  if off <= Addr.page_size - 8 then begin
    let f = frame_of_addr pa in
    check_allocated t f "write64";
    Bytes.set_int64_le (backing t f) off v
  end
  else
    for i = 0 to 7 do
      write8 t ~pa:(pa + i) (Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xff)
    done

let read_bytes t ~pa ~len =
  let out = Bytes.create len in
  let pos = ref 0 in
  while !pos < len do
    let a = pa + !pos in
    let f = frame_of_addr a in
    check_allocated t f "read_bytes";
    let off = Addr.offset_in_page a in
    let chunk = min (len - !pos) (Addr.page_size - off) in
    (match Hashtbl.find_opt t.contents f with
    | None -> Bytes.fill out !pos chunk '\000'
    | Some b -> Bytes.blit b off out !pos chunk);
    pos := !pos + chunk
  done;
  out

let write_bytes t ~pa src =
  let len = Bytes.length src in
  let pos = ref 0 in
  while !pos < len do
    let a = pa + !pos in
    let f = frame_of_addr a in
    check_allocated t f "write_bytes";
    let off = Addr.offset_in_page a in
    let chunk = min (len - !pos) (Addr.page_size - off) in
    Bytes.blit src !pos (backing t f) off chunk;
    pos := !pos + chunk
  done

let zero_frame t f =
  check_allocated t f "zero_frame";
  Hashtbl.remove t.contents f
