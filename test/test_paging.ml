(* Tests for page tables: mapping, walking, sharing, accounting. *)
open Sj_util
open Sj_paging
module Pm = Sj_mem.Phys_mem

let mk () = Pm.create ~size:(Size.mib 64) ~numa_nodes:1

let test_map_walk () =
  let m = mk () in
  let pt = Page_table.create m in
  let f = Pm.alloc_frame m in
  let va = 0xC0DE000 in
  Page_table.map pt ~va ~pa:(Pm.base_of_frame f) ~prot:Prot.rw ~size:Page_table.P4K;
  (match Page_table.walk pt ~va with
  | Some mapping ->
    Alcotest.(check int) "pa" (Pm.base_of_frame f) mapping.pa;
    Alcotest.(check int) "4 levels" 4 mapping.levels;
    Alcotest.(check bool) "writable" true mapping.prot.write
  | None -> Alcotest.fail "expected mapping");
  Alcotest.(check bool) "unmapped va faults" true (Page_table.walk pt ~va:0xDEAD000 = None)

let test_map_2m () =
  let m = mk () in
  let pt = Page_table.create m in
  let pa = Size.mib 2 in
  (* Physical range must exist for data access, but walk itself doesn't
     check frames; map a 2 MiB page at VA 4 MiB. *)
  Page_table.map pt ~va:(Size.mib 4) ~pa ~prot:Prot.r ~size:Page_table.P2M;
  match Page_table.walk pt ~va:(Size.mib 4 + 12345) with
  | Some mapping ->
    Alcotest.(check int) "3 levels for 2M page" 3 mapping.levels;
    Alcotest.(check int) "page base pa" pa mapping.pa
  | None -> Alcotest.fail "expected 2M mapping"

let test_double_map_rejected () =
  let m = mk () in
  let pt = Page_table.create m in
  let f = Pm.alloc_frame m in
  Page_table.map pt ~va:0x1000 ~pa:(Pm.base_of_frame f) ~prot:Prot.rw ~size:Page_table.P4K;
  Alcotest.(check bool) "second map raises" true
    (try
       Page_table.map pt ~va:0x1000 ~pa:(Pm.base_of_frame f) ~prot:Prot.rw
         ~size:Page_table.P4K;
       false
     with Invalid_argument _ -> true)

let test_unmap () =
  let m = mk () in
  let pt = Page_table.create m in
  let f = Pm.alloc_frame m in
  Page_table.map pt ~va:0x1000 ~pa:(Pm.base_of_frame f) ~prot:Prot.rw ~size:Page_table.P4K;
  Page_table.unmap pt ~va:0x1000 ~size:Page_table.P4K;
  Alcotest.(check bool) "gone" true (Page_table.walk pt ~va:0x1000 = None);
  (* Empty interior tables are pruned: only the root remains. *)
  let st = Page_table.stats pt in
  Alcotest.(check int) "all interior tables freed"
    (st.tables_allocated - 1) st.tables_freed

let test_alignment_checks () =
  let m = mk () in
  let pt = Page_table.create m in
  Alcotest.(check bool) "unaligned va" true
    (try
       Page_table.map pt ~va:0x1001 ~pa:0 ~prot:Prot.r ~size:Page_table.P4K;
       false
     with Invalid_argument _ -> true)

let test_protect () =
  let m = mk () in
  let pt = Page_table.create m in
  let f = Pm.alloc_frame m in
  Page_table.map pt ~va:0x1000 ~pa:(Pm.base_of_frame f) ~prot:Prot.rw ~size:Page_table.P4K;
  Page_table.protect pt ~va:0x1000 ~size:Page_table.P4K ~prot:Prot.r;
  match Page_table.walk pt ~va:0x1000 with
  | Some mapping -> Alcotest.(check bool) "now read-only" false mapping.prot.write
  | None -> Alcotest.fail "mapping lost"

let test_table_accounting () =
  let m = mk () in
  let pt = Page_table.create m in
  let frames = Pm.alloc_frames m ~n:8 in
  Page_table.map_range pt ~va:0x10000 ~frames ~prot:Prot.rw;
  let st = Page_table.stats pt in
  (* Root + PDPT + PD + PT = 4 tables; 3 interior links + 8 leaves = 11 writes. *)
  Alcotest.(check int) "tables" 4 st.tables_allocated;
  Alcotest.(check int) "pte writes" 11 st.pte_writes

let test_pml4_boundary_tables () =
  (* §4.4: an 8 KiB segment crossing a PML4 slot boundary requires 7
     tables (1 PML4 + 2 each of PDPT, PD, PT). *)
  let m = mk () in
  let pt = Page_table.create m in
  let frames = Pm.alloc_frames m ~n:2 in
  let boundary = 1 lsl 39 in
  Page_table.map pt ~va:(boundary - Addr.page_size) ~pa:(Pm.base_of_frame frames.(0))
    ~prot:Prot.rw ~size:Page_table.P4K;
  Page_table.map pt ~va:boundary ~pa:(Pm.base_of_frame frames.(1)) ~prot:Prot.rw
    ~size:Page_table.P4K;
  Alcotest.(check int) "7 tables for straddling 8KiB" 7
    (Page_table.stats pt).tables_allocated

let test_subtree_sharing () =
  let m = mk () in
  let pt1 = Page_table.create m in
  let frames = Pm.alloc_frames m ~n:16 in
  let base = Size.gib 1 in
  Page_table.map_range pt1 ~va:base ~frames ~prot:Prot.rw;
  let sub =
    match Page_table.extract_subtree pt1 ~va:base ~level:2 with
    | Some s -> s
    | None -> Alcotest.fail "no subtree"
  in
  Alcotest.(check int) "PD level" 2 (Page_table.subtree_level sub);
  let pt2 = Page_table.create m in
  let writes_before = (Page_table.stats pt2).pte_writes in
  Page_table.graft_subtree pt2 ~va:base sub;
  (* Grafting into an empty root allocates the PDPT + 2 entry writes. *)
  Alcotest.(check bool) "cheap graft" true ((Page_table.stats pt2).pte_writes - writes_before <= 2);
  (match Page_table.walk pt2 ~va:(base + (3 * Addr.page_size)) with
  | Some mapping ->
    Alcotest.(check int) "same translation" (Pm.base_of_frame frames.(3)) mapping.pa
  | None -> Alcotest.fail "graft did not translate");
  (* Unmap via pt1 is visible through pt2 (shared tables). *)
  Page_table.unmap pt1 ~va:(base + (3 * Addr.page_size)) ~size:Page_table.P4K;
  Alcotest.(check bool) "shared update visible" true
    (Page_table.walk pt2 ~va:(base + (3 * Addr.page_size)) = None);
  (* Destroying pt1 must not free the shared subtree. *)
  Page_table.destroy pt1;
  Alcotest.(check bool) "still translates after owner death" true
    (Page_table.walk pt2 ~va:(base + Addr.page_size) <> None);
  Page_table.prune_subtree pt2 ~va:base ~level:2;
  Page_table.release_subtree pt2 sub;
  Page_table.destroy pt2

let test_frames_reclaimed () =
  let m = mk () in
  let before = Pm.frames_allocated m in
  let pt = Page_table.create m in
  let frames = Pm.alloc_frames m ~n:64 in
  Page_table.map_range pt ~va:0x200000 ~frames ~prot:Prot.rw;
  Page_table.destroy pt;
  Array.iter (Pm.free_frame m) frames;
  Alcotest.(check int) "no leaked frames" before (Pm.frames_allocated m)

let prop_walk_inverts_map =
  QCheck.Test.make ~name:"walk returns exactly what map installed" ~count:100
    QCheck.(list_of_size Gen.(int_range 1 50) (int_bound 100_000))
    (fun page_numbers ->
      let page_numbers = List.sort_uniq compare page_numbers in
      let m = Pm.create ~size:(Size.mib 16) ~numa_nodes:1 in
      let pt = Page_table.create m in
      let assoc =
        List.map
          (fun pn ->
            let f = Pm.alloc_frame m in
            let va = pn * Addr.page_size in
            Page_table.map pt ~va ~pa:(Pm.base_of_frame f) ~prot:Prot.rw
              ~size:Page_table.P4K;
            (va, Pm.base_of_frame f))
          page_numbers
      in
      List.for_all
        (fun (va, pa) ->
          match Page_table.walk pt ~va with Some m -> m.pa = pa | None -> false)
        assoc)

let prop_unmap_removes_exactly =
  QCheck.Test.make ~name:"unmap removes only the target page" ~count:50
    QCheck.(pair (int_range 2 30) (int_bound 1000))
    (fun (n, seed) ->
      let m = Pm.create ~size:(Size.mib 16) ~numa_nodes:1 in
      let pt = Page_table.create m in
      let frames = Pm.alloc_frames m ~n in
      Page_table.map_range pt ~va:0x400000 ~frames ~prot:Prot.rw;
      let victim = seed mod n in
      Page_table.unmap pt ~va:(0x400000 + (victim * Addr.page_size)) ~size:Page_table.P4K;
      let ok = ref true in
      for i = 0 to n - 1 do
        let present = Page_table.walk pt ~va:(0x400000 + (i * Addr.page_size)) <> None in
        if i = victim then ok := !ok && not present else ok := !ok && present
      done;
      !ok)

(* Model-based: random map/unmap/protect sequences agree with a shadow
   association table (page -> (pa, writable)). *)
let prop_paging_model =
  QCheck.Test.make ~name:"page table agrees with shadow map under mixed ops" ~count:60
    QCheck.(
      list_of_size Gen.(int_range 1 200) (triple (int_bound 3) (int_bound 60) (int_bound 1)))
    (fun ops ->
      let m = Pm.create ~size:(Size.mib 32) ~numa_nodes:1 in
      let pt = Page_table.create m in
      let shadow : (int, int * bool) Hashtbl.t = Hashtbl.create 64 in
      let ok = ref true in
      List.iter
        (fun (op, page, w) ->
          let va = (page + 16) * Addr.page_size in
          let writable = w = 1 in
          match op with
          | 0 | 1 ->
            if not (Hashtbl.mem shadow page) then begin
              let f = Pm.alloc_frame m in
              Page_table.map pt ~va ~pa:(Pm.base_of_frame f)
                ~prot:(if writable then Prot.rw else Prot.r)
                ~size:Page_table.P4K;
              Hashtbl.replace shadow page (Pm.base_of_frame f, writable)
            end
          | 2 ->
            if Hashtbl.mem shadow page then begin
              Page_table.unmap pt ~va ~size:Page_table.P4K;
              Hashtbl.remove shadow page
            end
          | _ ->
            if Hashtbl.mem shadow page then begin
              Page_table.protect pt ~va ~size:Page_table.P4K
                ~prot:(if writable then Prot.rw else Prot.r);
              let pa, _ = Hashtbl.find shadow page in
              Hashtbl.replace shadow page (pa, writable)
            end)
        ops;
      (* Verify every page in a window around the touched range. *)
      for page = 0 to 100 do
        let va = (page + 16) * Addr.page_size in
        match (Page_table.walk pt ~va, Hashtbl.find_opt shadow page) with
        | None, None -> ()
        | Some mp, Some (pa, writable) ->
          if mp.pa <> pa || mp.prot.write <> writable then ok := false
        | Some _, None | None, Some _ -> ok := false
      done;
      !ok)

(* ---- Range operations vs the per-page loops they replace ------------

   [write_protect_run] and [map_run ~read_only] must be observably
   identical to the per-page loops Vmspace used before them. Those
   loops live on here as the model. Twin memories are built from one
   seeded history, one twin runs the range operation and the other the
   model, and everything observable is compared: every page's walk
   ([levels] and [cow] included) in every live table of the fork
   family, each table's stats and node census, the refcount audit, and
   the exception text. *)

let per_page_write_protect pt ~va ~n =
  for j = 0 to n - 1 do
    let va = va + (j * Addr.page_size) in
    match Page_table.walk pt ~va with
    | Some mp when mp.prot.write ->
      Page_table.protect pt ~va ~size:Page_table.P4K ~prot:{ mp.prot with Prot.write = false }
    | Some _ | None -> ()
  done

let per_page_map pt ~va ~n ~frames ~off ~prot ~read_only =
  for i = 0 to n - 1 do
    let k = off + i in
    Page_table.map pt
      ~va:(va + (i * Addr.page_size))
      ~pa:(Pm.base_of_frame frames.(k))
      ~prot:(if read_only k then { prot with Prot.write = false } else prot)
      ~size:Page_table.P4K
  done

(* Four 2 MiB leaf tables straddling the 512 GiB PML4 boundary, so runs
   cross PT, PD and PDPT edges. *)
let window = (1 lsl 39) - Size.mib 4
let window_pages = Size.mib 8 / Addr.page_size
let page_va p = window + (p * Addr.page_size)

type twin = {
  mem : Pm.t;
  tables : Page_table.t list; (* the live fork family *)
  target : Page_table.t;
  frames : Pm.frame array;
  first : int; (* the operation's range, in window pages *)
  pages : int;
  off : int;
  shared_pages : bool array; (* a mixed page_shared pattern *)
}

(* One seeded history: each leaf table of the window is a hole, a
   2 MiB leaf, or dense or sparse 4 KiB leaves with mixed protections,
   keys and global bits; the table is forked with [clone_cow], and
   writes on random sides of the family push the sharing down to PD
   and PT level and leave CoW bits on adopted and copied leaves. A
   second fork (refs > 2) and the death of a family member (sole-owner
   adoption) each happen on some seeds. *)
let build seed =
  let rng = Random.State.make [| seed |] in
  let int n = Random.State.int rng n in
  let mem = Pm.create ~size:(Size.mib 64) ~numa_nodes:1 in
  let frames = Pm.alloc_frames mem ~n:window_pages in
  let pa p = Pm.base_of_frame frames.(p) in
  let prot () = if int 4 = 0 then Prot.r else Prot.rw in
  let src = Page_table.create mem in
  for b = 0 to 3 do
    match int 8 with
    | 0 -> ()
    | 1 ->
      Page_table.map ~key:(int 4) src ~va:(page_va (b * 512)) ~pa:(Size.mib (2 * (b + 1)))
        ~prot:(if int 2 = 0 then Prot.r else Prot.rw)
        ~size:Page_table.P2M
    | kind ->
      for s = 0 to 511 do
        let p = (b * 512) + s in
        if kind < 5 || int 3 = 0 then
          Page_table.map ~global:(int 8 = 0) ~key:(int 4) src ~va:(page_va p) ~pa:(pa p)
            ~prot:(prot ()) ~size:Page_table.P4K
      done
  done;
  let tables = ref [ src; Page_table.clone_cow src ] in
  let pick () = List.nth !tables (int (List.length !tables)) in
  let mutate () =
    for _ = 1 to int 8 do
      let pt = pick () and p = int window_pages in
      let va = page_va p in
      try
        match int 4 with
        | 0 -> Page_table.break_cow pt ~va ~pa:(pa (int window_pages))
        | 1 -> Page_table.protect pt ~va ~size:Page_table.P4K ~prot:(prot ())
        | 2 -> Page_table.unmap pt ~va ~size:Page_table.P4K
        | _ -> Page_table.map pt ~va ~pa:(pa p) ~prot:(prot ()) ~size:Page_table.P4K
      with Invalid_argument _ -> ()
    done
  in
  mutate ();
  if int 2 = 0 then tables := !tables @ [ Page_table.clone_cow (pick ()) ];
  mutate ();
  if int 3 = 0 then begin
    let victim = pick () in
    Page_table.destroy victim;
    tables := List.filter (fun t -> t != victim) !tables
  end;
  let target = pick () in
  (* Map runs start at a hole when there is one, so they succeed or
     stop at an occupied slot part-way. *)
  let first =
    let p = int window_pages in
    let rec hole q =
      if q >= window_pages then p
      else if Page_table.walk target ~va:(page_va q) = None then q
      else hole (q + 1)
    in
    if int 2 = 0 then hole p else p
  in
  let pages = 1 + int (if int 2 = 0 then min 64 (window_pages - first) else window_pages - first) in
  let off = int (window_pages - pages + 1) in
  let shared_pages = Array.init window_pages (fun _ -> int 2 = 0) in
  { mem; tables = !tables; target; frames; first; pages; off; shared_pages }

let outcome f = match f () with () -> None | exception Invalid_argument msg -> Some msg

let check_twins ~seed ~got ~want (run : twin) (model : twin) =
  if got <> want then
    Alcotest.failf "seed %d: raised %S, the per-page loop %S" seed
      (Option.value got ~default:"nothing")
      (Option.value want ~default:"nothing");
  List.iteri
    (fun i (a, b) ->
      if Page_table.stats a <> Page_table.stats b then
        Alcotest.failf "seed %d, table %d: stats differ" seed i;
      if Page_table.count_nodes a <> Page_table.count_nodes b then
        Alcotest.failf "seed %d, table %d: node census differs" seed i;
      for p = 0 to window_pages - 1 do
        let va = page_va p in
        if Page_table.walk a ~va <> Page_table.walk b ~va then
          Alcotest.failf "seed %d, table %d: walk differs at %s" seed i (Addr.to_string va)
      done)
    (List.combine run.tables model.tables);
  if Page_table.audit run.mem <> Page_table.audit model.mem then
    Alcotest.failf "seed %d: refcount audit differs" seed;
  (* Live-slot counts only show when tables empty out: unmap every
     mapping in the window and compare the pruning. *)
  let unmap_all pt =
    for p = 0 to window_pages - 1 do
      let va = page_va p in
      match Page_table.walk pt ~va with
      | Some { size = Page_table.P4K; _ } -> Page_table.unmap pt ~va ~size:Page_table.P4K
      | Some { size = Page_table.P2M; _ } when va land (Size.mib 2 - 1) = 0 ->
        Page_table.unmap pt ~va ~size:Page_table.P2M
      | Some _ | None -> ()
    done
  in
  List.iter2
    (fun a b ->
      unmap_all a;
      unmap_all b)
    run.tables model.tables;
  if List.map Page_table.stats run.tables <> List.map Page_table.stats model.tables
     || Page_table.audit run.mem <> Page_table.audit model.mem
  then Alcotest.failf "seed %d: tables prune differently once emptied" seed

let seeds = 300

let test_write_protect_run_model () =
  let cleared = ref 0 and raised = ref 0 in
  for seed = 1 to seeds do
    let run = build seed and model = build seed in
    let before = (Page_table.stats model.target).pte_writes in
    let got =
      outcome (fun () -> Page_table.write_protect_run run.target ~va:(page_va run.first) ~n:run.pages)
    in
    let want =
      outcome (fun () ->
          per_page_write_protect model.target ~va:(page_va model.first) ~n:model.pages)
    in
    check_twins ~seed ~got ~want run model;
    if want <> None then incr raised
    else if (Page_table.stats model.target).pte_writes > before then incr cleared
  done;
  (* The histories must exercise both outcomes, not just agree. *)
  Alcotest.(check bool)
    (Printf.sprintf "coverage: %d runs cleared leaves, %d raised" !cleared !raised)
    true
    (!cleared > seeds / 4 && !raised > 0)

let test_map_run_read_only_model () =
  let mapped = ref 0 and mid_run = ref 0 in
  for seed = 1 to seeds do
    let run = build seed and model = build seed in
    let before = (Page_table.stats model.target).pte_writes in
    let got =
      outcome (fun () ->
          Page_table.map_run run.target ~va:(page_va run.first) ~n:run.pages ~frames:run.frames
            ~off:run.off ~prot:Prot.rw ~read_only:(Array.get run.shared_pages))
    in
    let want =
      outcome (fun () ->
          per_page_map model.target ~va:(page_va model.first) ~n:model.pages
            ~frames:model.frames ~off:model.off ~prot:Prot.rw
            ~read_only:(Array.get model.shared_pages))
    in
    check_twins ~seed ~got ~want run model;
    let wrote = (Page_table.stats model.target).pte_writes > before in
    if want = None then incr mapped else if wrote then incr mid_run
  done;
  Alcotest.(check bool)
    (Printf.sprintf "coverage: %d runs mapped, %d failed part-way" !mapped !mid_run)
    true
    (!mapped > seeds / 20 && !mid_run > seeds / 20)

let suite =
  [
    Alcotest.test_case "map and walk" `Quick test_map_walk;
    Alcotest.test_case "2 MiB pages" `Quick test_map_2m;
    Alcotest.test_case "double map rejected" `Quick test_double_map_rejected;
    Alcotest.test_case "unmap prunes tables" `Quick test_unmap;
    Alcotest.test_case "alignment checks" `Quick test_alignment_checks;
    Alcotest.test_case "protect" `Quick test_protect;
    Alcotest.test_case "table accounting" `Quick test_table_accounting;
    Alcotest.test_case "PML4-boundary 7-table case (sec 4.4)" `Quick test_pml4_boundary_tables;
    Alcotest.test_case "subtree sharing" `Quick test_subtree_sharing;
    Alcotest.test_case "frames reclaimed" `Quick test_frames_reclaimed;
    QCheck_alcotest.to_alcotest prop_walk_inverts_map;
    QCheck_alcotest.to_alcotest prop_unmap_removes_exactly;
    QCheck_alcotest.to_alcotest prop_paging_model;
    Alcotest.test_case "write_protect_run = per-page protect loop" `Quick
      test_write_protect_run_model;
    Alcotest.test_case "map_run ~read_only = per-page map loop" `Quick
      test_map_run_read_only_model;
  ]
