(* Unit and property tests for Sj_util. *)
open Sj_util

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

let test_size_constants () =
  check "kib" 4096 (Size.kib 4);
  check "mib" (1024 * 1024) (Size.mib 1);
  check "gib" (1 lsl 30) (Size.gib 1);
  check "tib" (1 lsl 40) (Size.tib 1)

let test_size_pp () =
  checks "bytes" "512B" (Size.to_string 512);
  checks "kib" "1.5KiB" (Size.to_string 1536);
  checks "gib" "4GiB" (Size.to_string (Size.gib 4))

let test_power_of_two () =
  checkb "1" true (Size.is_power_of_two 1);
  checkb "4096" true (Size.is_power_of_two 4096);
  checkb "0" false (Size.is_power_of_two 0);
  checkb "3" false (Size.is_power_of_two 3);
  checkb "neg" false (Size.is_power_of_two (-4))

let test_log2 () =
  check "log2 1" 0 (Size.log2 1);
  check "log2 4096" 12 (Size.log2 4096);
  check "log2 5000" 12 (Size.log2 5000)

let test_rounding () =
  check "up exact" 8192 (Size.round_up 8192 ~align:4096);
  check "up" 8192 (Size.round_up 4097 ~align:4096);
  check "down" 4096 (Size.round_down 8191 ~align:4096);
  check "down exact" 8192 (Size.round_down 8192 ~align:4096)

let test_addr_indices () =
  (* 0x0000_7fff_ffff_f000: top of canonical lower-half user VA. *)
  let va = 0x7fff_ffff_f000 in
  check "pml4" 255 (Addr.pml4_index va);
  check "pdpt" 511 (Addr.pdpt_index va);
  check "pd" 511 (Addr.pd_index va);
  check "pt" 511 (Addr.pt_index va);
  check "pml4 of 0" 0 (Addr.pml4_index 0);
  (* Index boundaries: 1 GiB = one PDPT slot. *)
  check "pdpt of 1GiB" 1 (Addr.pdpt_index (Size.gib 1))

let test_addr_ranges () =
  checkb "overlap" true
    (Addr.range_overlaps ~base1:0 ~size1:100 ~base2:50 ~size2:100);
  checkb "adjacent" false
    (Addr.range_overlaps ~base1:0 ~size1:100 ~base2:100 ~size2:100);
  checkb "contains" true (Addr.range_contains ~base:100 ~size:10 105);
  checkb "contains edge" false (Addr.range_contains ~base:100 ~size:10 110)

let test_rng_determinism () =
  let a = Rng.create ~seed:42 and b = Rng.create ~seed:42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done;
  let c = Rng.create ~seed:43 in
  checkb "different seed different stream" false (Rng.bits64 a = Rng.bits64 c && Rng.bits64 a = Rng.bits64 c)

let test_rng_copy () =
  let a = Rng.create ~seed:7 in
  ignore (Rng.bits64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues identically" (Rng.bits64 a) (Rng.bits64 b)

let test_stats () =
  let xs = [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  Alcotest.(check (float 1e-9)) "mean" 3.0 (Stats.mean xs);
  Alcotest.(check (float 1e-9)) "median" 3.0 (Stats.median xs);
  Alcotest.(check (float 1e-9)) "p0" 1.0 (Stats.percentile xs 0.0);
  Alcotest.(check (float 1e-9)) "p100" 5.0 (Stats.percentile xs 100.0);
  Alcotest.(check (float 1e-9)) "min" 1.0 (Stats.min xs);
  Alcotest.(check (float 1e-9)) "max" 5.0 (Stats.max xs)

let test_table_render () =
  let t = Table.create [ ("a", Table.Left); ("b", Table.Right) ] in
  Table.add_row t [ "x"; "1" ];
  Table.add_row t [ "yy"; "22" ];
  let s = Table.render t in
  checkb "contains header" true (String.length s > 0);
  checkb "row count" true (List.length (String.split_on_char '\n' s) >= 4)

let test_cell_int () =
  checks "thousands" "1,127" (Table.cell_int 1127);
  checks "millions" "1,234,567" (Table.cell_int 1234567);
  checks "small" "42" (Table.cell_int 42);
  checks "negative" "-1,000" (Table.cell_int (-1000))

(* Property tests *)

let prop_round_up_ge =
  QCheck.Test.make ~name:"round_up >= n and aligned" ~count:500
    QCheck.(pair (int_bound 1_000_000) (int_bound 10))
    (fun (n, k) ->
      let align = 1 lsl k in
      let r = Size.round_up n ~align in
      r >= n && r mod align = 0 && r - n < align)

let prop_rng_int_bounds =
  QCheck.Test.make ~name:"Rng.int within bounds" ~count:500
    QCheck.(pair int (int_range 1 1_000_000))
    (fun (seed, bound) ->
      let rng = Rng.create ~seed:(abs seed) in
      let v = Rng.int rng bound in
      v >= 0 && v < bound)

let prop_zipf_bounds =
  QCheck.Test.make ~name:"Rng.zipf in [1,n]" ~count:200
    QCheck.(pair int (int_range 1 1000))
    (fun (seed, n) ->
      let rng = Rng.create ~seed:(abs seed) in
      let v = Rng.zipf rng ~n ~s:1.1 in
      v >= 1 && v <= n)

let prop_shuffle_permutation =
  QCheck.Test.make ~name:"shuffle is a permutation" ~count:200
    QCheck.(pair int (list int))
    (fun (seed, xs) ->
      let a = Array.of_list xs in
      let b = Array.copy a in
      Rng.shuffle (Rng.create ~seed:(abs seed)) b;
      List.sort compare (Array.to_list a) = List.sort compare (Array.to_list b))

let prop_percentile_monotone =
  QCheck.Test.make ~name:"percentile monotone in p" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 50) (float_bound_exclusive 1000.0))
    (fun xs ->
      let a = Array.of_list xs in
      Stats.percentile a 25.0 <= Stats.percentile a 75.0)

(* The report printer's layout, and the parser reading it back. *)
let test_json_layout () =
  let v =
    Json.Obj
      [
        ("s", Json.Str "a\"b\\");
        ("row", Json.counts [ ("x", 1); ("y", -2) ]);
        ("flat", Json.ints [ 1; 2 ]);
        ("nested", Json.Arr [ Json.ints [ 3 ]; Json.Obj [ ("f", Json.float 2 1.005) ] ]);
        ("empty", Json.Arr []);
        ("nan", Json.float 3 Float.nan);
      ]
  in
  let text = Json.to_string v in
  checks "layout"
    "{\n\
    \  \"s\": \"a\\\"b\\\\\",\n\
    \  \"row\": {\"x\": 1, \"y\": -2},\n\
    \  \"flat\": [1, 2],\n\
    \  \"nested\": [\n\
    \    [3],\n\
    \    {\n\
    \      \"f\": 1.00\n\
    \    }\n\
    \  ],\n\
    \  \"empty\": [],\n\
    \  \"nan\": null\n\
     }\n"
    text;
  match Json.parse text with
  | Error e -> Alcotest.fail e
  | Ok back ->
    checks "reparsed, one line" (Json.to_line v) (Json.to_line back);
    checkb "string unescaped" true (Json.member "s" back = Some (Json.Str "a\"b\\"))

let test_json_rejects () =
  List.iter
    (fun s -> checkb ("rejects " ^ s) true (Result.is_error (Json.parse s)))
    [ ""; "{"; "[1,]"; "{\"a\" 1}"; "{\"a\":1,}"; "\"\\\""; "01x"; "1."; "tru"; "[1] 2" ];
  checkb "accepts unicode escape" true (Json.parse "\"\\u00e9\"" = Ok (Json.Str "\xc3\xa9"))

let test_json_check () =
  let v =
    match Json.parse {|{"a": {"ok": true}, "l": [{"k": 1}, {"k": 2}], "e": []}|} with
    | Ok v -> v
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check (list string)) "holds" [] (Json.check [ "a.ok=true"; "l.*.k"; "e.*.k" ] v);
  Alcotest.(check (list string)) "breaks"
    [ "missing a.no"; "l.*.k is not 1"; "missing l.*.j" ]
    (Json.check [ "a.no"; "l.*.k=1"; "l.*.j" ] v)

let suite =
  [
    Alcotest.test_case "json layout and round trip" `Quick test_json_layout;
    Alcotest.test_case "json parser rejects malformed text" `Quick test_json_rejects;
    Alcotest.test_case "json key-path rules" `Quick test_json_check;
    Alcotest.test_case "size constants" `Quick test_size_constants;
    Alcotest.test_case "size pretty-print" `Quick test_size_pp;
    Alcotest.test_case "is_power_of_two" `Quick test_power_of_two;
    Alcotest.test_case "log2" `Quick test_log2;
    Alcotest.test_case "rounding" `Quick test_rounding;
    Alcotest.test_case "x86-64 page indices" `Quick test_addr_indices;
    Alcotest.test_case "address ranges" `Quick test_addr_ranges;
    Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
    Alcotest.test_case "rng copy" `Quick test_rng_copy;
    Alcotest.test_case "stats" `Quick test_stats;
    Alcotest.test_case "table render" `Quick test_table_render;
    Alcotest.test_case "thousands separators" `Quick test_cell_int;
    QCheck_alcotest.to_alcotest prop_round_up_ge;
    QCheck_alcotest.to_alcotest prop_rng_int_bounds;
    QCheck_alcotest.to_alcotest prop_zipf_bounds;
    QCheck_alcotest.to_alcotest prop_shuffle_permutation;
    QCheck_alcotest.to_alcotest prop_percentile_monotone;
  ]
