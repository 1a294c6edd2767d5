(* Tests for Cm_util: deterministic RNG, statistics, priority queue,
   table rendering, the domain-parallel execution engine, CSR matrices
   and the int prefix sort. *)

module Rng = Cm_util.Rng
module Stats = Cm_util.Stats
module Pqueue = Cm_util.Pqueue
module Table = Cm_util.Table
module Par = Cm_util.Par

let check_float = Alcotest.(check (float 1e-9))

(* {1 Rng} *)

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let differs = ref false in
  for _ = 1 to 10 do
    if Rng.bits64 a <> Rng.bits64 b then differs := true
  done;
  Alcotest.(check bool) "streams differ" true !differs

let test_rng_int_bounds () =
  let rng = Rng.create 7 in
  for _ = 1 to 1000 do
    let x = Rng.int rng 10 in
    Alcotest.(check bool) "in [0,10)" true (x >= 0 && x < 10)
  done

let test_rng_uniform_bounds () =
  let rng = Rng.create 8 in
  for _ = 1 to 1000 do
    let x = Rng.uniform rng in
    Alcotest.(check bool) "in [0,1)" true (x >= 0. && x < 1.)
  done

let test_rng_uniform_mean () =
  let rng = Rng.create 9 in
  let xs = Array.init 20_000 (fun _ -> Rng.uniform rng) in
  let m = Stats.mean xs in
  Alcotest.(check bool) "mean near 0.5" true (Float.abs (m -. 0.5) < 0.02)

let test_rng_split_independent () =
  let parent = Rng.create 10 in
  let child = Rng.split parent in
  let a = Rng.bits64 child and b = Rng.bits64 parent in
  Alcotest.(check bool) "split stream differs" true (a <> b)

let test_rng_copy_preserves () =
  let a = Rng.create 11 in
  ignore (Rng.bits64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copies aligned" (Rng.bits64 a) (Rng.bits64 b)

let test_rng_exponential_mean () =
  let rng = Rng.create 12 in
  let xs = Array.init 50_000 (fun _ -> Rng.exponential rng ~rate:2.) in
  let m = Stats.mean xs in
  Alcotest.(check bool) "mean near 1/2" true (Float.abs (m -. 0.5) < 0.02)

let test_rng_gaussian_moments () =
  let rng = Rng.create 13 in
  let xs = Array.init 50_000 (fun _ -> Rng.gaussian rng ~mu:3. ~sigma:2.) in
  Alcotest.(check bool) "mean near 3" true (Float.abs (Stats.mean xs -. 3.) < 0.05);
  Alcotest.(check bool) "stddev near 2" true (Float.abs (Stats.stddev xs -. 2.) < 0.05)

let test_rng_pick () =
  let rng = Rng.create 14 in
  let arr = [| 1; 2; 3 |] in
  for _ = 1 to 100 do
    let x = Rng.pick rng arr in
    Alcotest.(check bool) "element of array" true (List.mem x [ 1; 2; 3 ])
  done

let test_rng_pick_weighted () =
  let rng = Rng.create 15 in
  let arr = [| ("a", 0.); ("b", 1.) |] in
  for _ = 1 to 100 do
    Alcotest.(check string) "zero-weight never drawn" "b"
      (Rng.pick_weighted rng arr)
  done

let test_rng_pick_weighted_ratio () =
  let rng = Rng.create 16 in
  let arr = [| (0, 3.); (1, 1.) |] in
  let count = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    if Rng.pick_weighted rng arr = 0 then incr count
  done;
  let frac = float_of_int !count /. float_of_int n in
  Alcotest.(check bool) "3:1 weighting" true (Float.abs (frac -. 0.75) < 0.02)

let test_rng_shuffle_permutation () =
  let rng = Rng.create 17 in
  let arr = Array.init 50 Fun.id in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 Fun.id) sorted

let test_rng_split_n_reproducible () =
  let a = Rng.split_n (Rng.create 20) 4 in
  let b = Rng.split_n (Rng.create 20) 4 in
  Array.iteri
    (fun i ai ->
      for _ = 1 to 50 do
        Alcotest.(check int64)
          (Printf.sprintf "stream %d aligned" i)
          (Rng.bits64 ai) (Rng.bits64 b.(i))
      done)
    a

let test_rng_split_n_disjoint () =
  (* 64-bit outputs of independent splitmix64 streams should never
     collide over a few thousand draws. *)
  let streams = Rng.split_n (Rng.create 21) 4 in
  let seen = Hashtbl.create 4096 in
  Array.iter
    (fun s ->
      for _ = 1 to 1000 do
        let x = Rng.bits64 s in
        Alcotest.(check bool) "no cross-stream collision" false
          (Hashtbl.mem seen x);
        Hashtbl.add seen x ()
      done)
    streams;
  Alcotest.(check int) "all draws distinct" 4000 (Hashtbl.length seen)

let test_rng_split_n_advances_parent () =
  let a = Rng.create 22 and b = Rng.create 22 in
  ignore (Rng.split_n a 3);
  let differs = ref false in
  for _ = 1 to 5 do
    if Rng.bits64 a <> Rng.bits64 b then differs := true
  done;
  Alcotest.(check bool) "parent advanced by split_n" true !differs

let test_rng_split_n_empty () =
  Alcotest.(check int) "zero children" 0 (Array.length (Rng.split_n (Rng.create 23) 0))

(* {1 Par} *)

let test_par_map_matches_sequential () =
  let xs = List.init 100 Fun.id in
  let f x = (x * x) + 1 in
  List.iter
    (fun domains ->
      Alcotest.(check (list int))
        (Printf.sprintf "order preserved with %d domains" domains)
        (List.map f xs)
        (Par.map ~domains f xs))
    [ 1; 2; 4; 7 ]

let test_par_map_empty_and_single () =
  Alcotest.(check (list int)) "empty" [] (Par.map ~domains:4 succ []);
  Alcotest.(check (list int)) "singleton" [ 2 ] (Par.map ~domains:4 succ [ 1 ])

let test_par_map_more_domains_than_items () =
  Alcotest.(check (list int)) "3 items, 16 domains" [ 10; 20; 30 ]
    (Par.map ~domains:16 (fun x -> 10 * x) [ 1; 2; 3 ])

let test_par_mapi_indices () =
  Alcotest.(check (list int)) "indices" [ 10; 21; 32 ]
    (Par.mapi ~domains:3 (fun i x -> (10 * x) + i) [ 1; 2; 3 ])

let test_par_map_propagates_exception () =
  List.iter
    (fun domains ->
      Alcotest.check_raises
        (Printf.sprintf "worker failure surfaces with %d domains" domains)
        (Failure "boom")
        (fun () ->
          ignore
            (Par.map ~domains
               (fun x -> if x = 57 then failwith "boom" else x)
               (List.init 100 Fun.id))))
    [ 1; 4 ]

let test_par_default_domains () =
  let saved = Par.default_domains () in
  Par.set_default_domains 3;
  Alcotest.(check int) "set" 3 (Par.default_domains ());
  Par.set_default_domains 0;
  Alcotest.(check int) "clamped to 1" 1 (Par.default_domains ());
  Par.set_default_domains saved;
  Alcotest.(check bool) "available positive" true (Par.available_domains () >= 1)

let test_par_map_rng_domain_invariant () =
  (* The per-item streams depend only on the root seed and the item
     index, so results are identical for any domain count. *)
  let run domains =
    Par.map_rng ~domains ~rng:(Rng.create 99)
      (fun rng x -> (x, Rng.int rng 1_000_000, Rng.uniform rng))
      (List.init 20 Fun.id)
  in
  Alcotest.(check bool) "jobs-invariant" true (run 1 = run 4)

let test_par_map_rng_streams_differ () =
  let draws =
    Par.map_rng ~domains:2 ~rng:(Rng.create 100)
      (fun rng _ -> Rng.bits64 rng)
      [ (); (); (); () ]
  in
  Alcotest.(check int) "all first draws distinct" 4
    (List.length (List.sort_uniq compare draws))

(* {1 Stats} *)

let test_stats_mean () = check_float "mean" 2. (Stats.mean [| 1.; 2.; 3. |])
let test_stats_mean_empty () = check_float "empty mean" 0. (Stats.mean [||])

let test_stats_stddev () =
  check_float "stddev" 2. (Stats.stddev [| 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. |])

let test_stats_min_max () =
  let lo, hi = Stats.min_max [| 3.; -1.; 7. |] in
  check_float "min" (-1.) lo;
  check_float "max" 7. hi

let test_stats_percentile () =
  let a = [| 1.; 2.; 3.; 4.; 5. |] in
  check_float "p0" 1. (Stats.percentile a 0.);
  check_float "p50" 3. (Stats.percentile a 50.);
  check_float "p100" 5. (Stats.percentile a 100.);
  check_float "p25" 2. (Stats.percentile a 25.)

let test_stats_percentile_interpolates () =
  check_float "interp" 1.5 (Stats.percentile [| 1.; 2. |] 50.)

let expect_invalid name f =
  Alcotest.(check bool) name true
    (match f () with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_stats_single_element () =
  check_float "mean single" 5. (Stats.mean [| 5. |]);
  check_float "variance single" 0. (Stats.variance [| 5. |]);
  check_float "stddev single" 0. (Stats.stddev [| 5. |]);
  check_float "p0 single" 5. (Stats.percentile [| 5. |] 0.);
  check_float "p50 single" 5. (Stats.percentile [| 5. |] 50.);
  check_float "p100 single" 5. (Stats.percentile [| 5. |] 100.);
  check_float "median single" 5. (Stats.median [| 5. |]);
  let lo, hi = Stats.min_max [| 5. |] in
  check_float "min single" 5. lo;
  check_float "max single" 5. hi

let test_stats_empty_and_invalid () =
  check_float "total empty" 0. (Stats.total [||]);
  check_float "variance empty" 0. (Stats.variance [||]);
  Alcotest.(check (list (pair (float 1e-9) (float 1e-9))))
    "cdf empty" [] (Stats.cdf_points [||]);
  expect_invalid "percentile empty" (fun () -> Stats.percentile [||] 50.);
  expect_invalid "percentile p > 100" (fun () ->
      Stats.percentile [| 1. |] 101.);
  expect_invalid "percentile p < 0" (fun () ->
      Stats.percentile [| 1. |] (-1.));
  expect_invalid "min_max empty" (fun () -> Stats.min_max [||]);
  expect_invalid "histogram zero bins" (fun () ->
      Stats.histogram [| 1. |] ~bins:0 ~lo:0. ~hi:1.)

let test_stats_histogram_clamps () =
  (* Out-of-range samples land in the edge bins, never out of bounds. *)
  let counts = Stats.histogram [| -5.; 0.6; 99. |] ~bins:2 ~lo:0. ~hi:1. in
  Alcotest.(check (array int)) "clamped" [| 1; 2 |] counts;
  (* Degenerate lo = hi range: everything in bin 0. *)
  let counts = Stats.histogram [| 1.; 2. |] ~bins:3 ~lo:1. ~hi:1. in
  Alcotest.(check (array int)) "degenerate range" [| 2; 0; 0 |] counts

let test_stats_median_unsorted () =
  check_float "median" 2. (Stats.median [| 3.; 1.; 2. |])

let test_stats_ratio () =
  check_float "ratio" 0.5 (Stats.ratio 1. 2.);
  check_float "ratio div0" 0. (Stats.ratio 1. 0.)

let test_stats_histogram () =
  let h = Stats.histogram [| 0.1; 0.2; 0.9; 1.5; -3. |] ~bins:2 ~lo:0. ~hi:1. in
  Alcotest.(check (array int)) "hist" [| 3; 2 |] h

let test_stats_cdf () =
  match Stats.cdf_points [| 2.; 1. |] with
  | [ (v1, f1); (v2, f2) ] ->
      check_float "v1" 1. v1;
      check_float "f1" 0.5 f1;
      check_float "v2" 2. v2;
      check_float "f2" 1. f2
  | _ -> Alcotest.fail "expected two points"

(* {1 Pqueue} *)

let test_pqueue_order () =
  let q = Pqueue.create () in
  Pqueue.push q 3. "c";
  Pqueue.push q 1. "a";
  Pqueue.push q 2. "b";
  let order = List.init 3 (fun _ -> snd (Option.get (Pqueue.pop q))) in
  Alcotest.(check (list string)) "sorted" [ "a"; "b"; "c" ] order

let test_pqueue_fifo_ties () =
  let q = Pqueue.create () in
  Pqueue.push q 1. "first";
  Pqueue.push q 1. "second";
  Alcotest.(check string) "tie keeps insertion order" "first"
    (snd (Option.get (Pqueue.pop q)))

let test_pqueue_empty () =
  let q = Pqueue.create () in
  Alcotest.(check bool) "is_empty" true (Pqueue.is_empty q);
  Alcotest.(check bool) "pop none" true (Pqueue.pop q = None);
  Alcotest.(check bool) "peek none" true (Pqueue.peek q = None)

let test_pqueue_peek_keeps () =
  let q = Pqueue.create () in
  Pqueue.push q 1. 42;
  ignore (Pqueue.peek q);
  Alcotest.(check int) "still there" 1 (Pqueue.length q)

let test_pqueue_interleaved () =
  let q = Pqueue.create () in
  Pqueue.push q 5. 5;
  Pqueue.push q 1. 1;
  Alcotest.(check int) "pop 1" 1 (snd (Option.get (Pqueue.pop q)));
  Pqueue.push q 3. 3;
  Alcotest.(check int) "pop 3" 3 (snd (Option.get (Pqueue.pop q)));
  Alcotest.(check int) "pop 5" 5 (snd (Option.get (Pqueue.pop q)))

let test_pqueue_qcheck_sorted =
  QCheck.Test.make ~name:"pqueue pops in priority order" ~count:200
    QCheck.(list (pair (float_range 0. 1000.) small_int))
    (fun items ->
      let q = Pqueue.create () in
      List.iter (fun (p, v) -> Pqueue.push q p v) items;
      let rec drain acc =
        match Pqueue.pop q with
        | None -> List.rev acc
        | Some (p, _) -> drain (p :: acc)
      in
      let popped = drain [] in
      List.sort compare popped = popped)

(* The pop space-leak fix: a popped entry must become collectable as soon
   as the caller drops it, even while the queue itself stays live at its
   high-water capacity. *)
let test_pqueue_pop_releases () =
  let q = Pqueue.create () in
  let w = Weak.create 8 in
  for i = 0 to 7 do
    let v = ref i in
    Weak.set w i (Some v);
    Pqueue.push q (float_of_int i) v
  done;
  for _ = 1 to 4 do
    ignore (Pqueue.pop q)
  done;
  Gc.full_major ();
  for i = 0 to 3 do
    Alcotest.(check bool)
      (Printf.sprintf "popped value %d collected" i)
      false (Weak.check w i)
  done;
  for i = 4 to 7 do
    Alcotest.(check bool)
      (Printf.sprintf "queued value %d still alive" i)
      true (Weak.check w i)
  done;
  (* Keep the queue itself live across the major collection above — only
     the popped entries may be reclaimed. *)
  Alcotest.(check int) "four still queued" 4 (Pqueue.length q)

(* {1 Table} *)

let test_table_render () =
  let t = Table.create [ ("name", Table.Left); ("value", Table.Right) ] in
  Table.add_row t [ "x"; "1" ];
  Table.add_row t [ "longer"; "22" ];
  let s = Table.render t in
  Alcotest.(check bool) "contains header" true
    (String.length s > 0
    && String.sub s 0 4 = "name");
  Alcotest.(check bool) "right aligned" true
    (let lines = String.split_on_char '\n' s in
     List.exists (fun l -> l = "x           1") lines)

let test_table_float_row () =
  let t = Table.create [ ("k", Table.Left); ("v", Table.Right) ] in
  Table.add_float_row t ~dec:2 "pi" [ 3.14159 ];
  let s = Table.render t in
  Alcotest.(check bool) "rounded" true
    (String.length s > 0
    &&
    let lines = String.split_on_char '\n' s in
    List.exists (fun l -> String.trim l = "pi  3.14") lines)

let test_table_pad_short_row () =
  let t = Table.create [ ("a", Table.Left); ("b", Table.Left) ] in
  Table.add_row t [ "only" ];
  Alcotest.(check bool) "renders" true (String.length (Table.render t) > 0)

let test_table_too_many_cells () =
  let t = Table.create [ ("a", Table.Left) ] in
  Alcotest.check_raises "too many" (Invalid_argument "")
    (fun () ->
      try Table.add_row t [ "x"; "y" ]
      with Invalid_argument _ -> raise (Invalid_argument ""))

let test_table_caption () =
  let t = Table.create ~caption:"hello caption" [ ("a", Table.Left) ] in
  Alcotest.(check bool) "caption first" true
    (String.length (Table.render t) > 13
    && String.sub (Table.render t) 0 13 = "hello caption")

let test_table_alignment_exact () =
  let t = Table.create [ ("l", Table.Left); ("r", Table.Right) ] in
  Table.add_row t [ "ab"; "1" ];
  Table.add_row t [ "c"; "23" ];
  let lines = String.split_on_char '\n' (Table.render t) in
  (* Column widths are max(header, cells); left cells pad right, right
     cells pad left, two spaces between columns. *)
  Alcotest.(check bool) "left-padded left col / right-aligned right col" true
    (List.mem "ab   1" lines && List.mem "c   23" lines)

let test_table_cells_verbatim () =
  (* Cell payloads are emitted verbatim — quoting/escaping is the JSON
     layer's job, the table renderer must not mangle content. *)
  let t = Table.create [ ("k", Table.Left); ("v", Table.Left) ] in
  let tricky = "a|b\"c\\d" in
  Table.add_row t [ tricky; "x" ];
  let rendered = Table.render t in
  let contains hay needle =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "verbatim cell" true (contains rendered tricky)

let test_pqueue_clear () =
  let q = Pqueue.create () in
  Pqueue.push q 1. 1;
  Pqueue.push q 2. 2;
  Pqueue.clear q;
  Alcotest.(check bool) "empty after clear" true (Pqueue.is_empty q);
  Pqueue.push q 3. 3;
  Alcotest.(check int) "usable after clear" 3 (snd (Option.get (Pqueue.pop q)))

(* {1 Csr} *)

module Csr = Cm_util.Csr

let sample_dense =
  [| [| 0.; 1.5; 0.; 2. |]; [| 0.; 0.; 0.; 0. |]; [| 3.; 0.; 0.5; 0. |];
     [| 0.; 4.; 0.; 0. |] |]

let test_csr_of_dense () =
  let t = Csr.of_dense sample_dense in
  Alcotest.(check int) "nnz" 5 (Csr.nnz t);
  Alcotest.(check int) "row 0 nnz" 2 (Csr.row_nnz t 0);
  Alcotest.(check int) "row 1 nnz" 0 (Csr.row_nnz t 1);
  check_float "get stored" 3. (Csr.get t 2 0);
  check_float "get absent" 0. (Csr.get t 0 2);
  check_float "get empty row" 0. (Csr.get t 1 3)

let test_csr_roundtrip () =
  let t = Csr.of_dense sample_dense in
  Alcotest.(check bool) "dense round-trip" true (Csr.to_dense t = sample_dense);
  Alcotest.(check bool) "csr round-trip" true
    (Csr.equal t (Csr.of_dense (Csr.to_dense t)))

let test_csr_of_row_lists () =
  (* Duplicate columns sum in list order; non-positive sums are dropped. *)
  let t =
    Csr.of_row_lists ~n:3
      [| [ (2, 1.); (0, 2.); (2, 0.5) ]; [ (1, 0.) ]; [] |]
  in
  Alcotest.(check int) "nnz" 2 (Csr.nnz t);
  check_float "summed cell" 1.5 (Csr.get t 0 2);
  check_float "other cell" 2. (Csr.get t 0 0);
  check_float "zero dropped" 0. (Csr.get t 1 1);
  Alcotest.check_raises "column out of range" (Invalid_argument "")
    (fun () ->
      try ignore (Csr.of_row_lists ~n:2 [| [ (2, 1.) ]; [] |])
      with Invalid_argument _ -> raise (Invalid_argument ""))

let test_csr_of_arrays () =
  let t = Csr.of_dense sample_dense in
  let adopt row_ptr col_idx values =
    Csr.of_arrays ~n:4 ~row_ptr ~col_idx ~values
  in
  Alcotest.(check bool) "adopts valid arrays" true
    (Csr.equal t
       (adopt (Array.copy t.Csr.row_ptr) (Array.copy t.Csr.col_idx)
          (Array.copy t.Csr.values)));
  List.iter
    (fun (what, row_ptr, col_idx, values) ->
      match adopt row_ptr col_idx values with
      | _ -> Alcotest.failf "%s: accepted" what
      | exception Invalid_argument _ -> ())
    [
      ("short row_ptr", [| 0; 1; 1; 2 |], [| 1; 3 |], [| 1.; 1. |]);
      ("entry count", [| 0; 1; 1; 1; 2 |], [| 1 |], [| 1. |]);
      ("decreasing row_ptr", [| 0; 2; 1; 2; 2 |], [| 1; 3 |], [| 1.; 1. |]);
      ("column out of range", [| 0; 1; 1; 1; 1 |], [| 4 |], [| 1. |]);
      ("columns not ascending", [| 0; 2; 2; 2; 2 |], [| 3; 1 |], [| 1.; 1. |]);
      ("zero value", [| 0; 1; 1; 1; 1 |], [| 1 |], [| 0. |]);
    ]

let test_csr_iteration_order () =
  let t = Csr.of_dense sample_dense in
  let seen = ref [] in
  Csr.iter_nz t (fun i j v -> seen := (i, j, v) :: !seen);
  Alcotest.(check bool) "row-major ascending" true
    (List.rev !seen
    = [ (0, 1, 1.5); (0, 3, 2.); (2, 0, 3.); (2, 2, 0.5); (3, 1, 4.) ])

let test_csr_sums () =
  let t = Csr.of_dense sample_dense in
  Alcotest.(check (array (float 1e-12)))
    "row sums" [| 3.5; 0.; 3.5; 4. |] (Csr.row_sums t);
  check_float "total" 11. (Csr.total t)

let test_csr_transpose () =
  let t = Csr.of_dense sample_dense in
  let tt = Csr.transpose t in
  check_float "moved" 3. (Csr.get tt 0 2);
  check_float "symmetric slot empty" 0. (Csr.get tt 2 0);
  Alcotest.(check bool) "involution" true (Csr.equal t (Csr.transpose tt))

let test_csr_of_upper () =
  (* Upper-triangle input mirrors into a symmetric matrix; non-positive
     entries drop before mirroring. *)
  let t =
    Csr.of_upper ~n:4
      [|
        ([| 1; 3 |], [| 2.; 0. |]);
        ([| 2 |], [| 5. |]);
        ([||], [||]);
        ([||], [||]);
      |]
  in
  let dense =
    [|
      [| 0.; 2.; 0.; 0. |];
      [| 2.; 0.; 5.; 0. |];
      [| 0.; 5.; 0.; 0. |];
      [| 0.; 0.; 0.; 0. |];
    |]
  in
  Alcotest.(check bool) "symmetric mirror" true
    (Csr.equal t (Csr.of_dense dense));
  Alcotest.check_raises "column not above diagonal" (Invalid_argument "")
    (fun () ->
      try ignore (Csr.of_upper ~n:2 [| ([| 0 |], [| 1. |]); ([||], [||]) |])
      with Invalid_argument _ -> raise (Invalid_argument ""))

let prop_csr_dense_roundtrip =
  QCheck.Test.make ~name:"csr of_dense/to_dense round-trips" ~count:100
    QCheck.(
      pair (int_range 1 12) small_int)
    (fun (n, seed) ->
      let rng = Rng.create (1000 + seed) in
      let m =
        Array.init n (fun _ ->
            Array.init n (fun _ ->
                if Rng.uniform rng < 0.4 then Rng.uniform rng *. 10. else 0.))
      in
      Csr.to_dense (Csr.of_dense m) = m)

(* {1 Intsort} *)

module Intsort = Cm_util.Intsort

(* Prefix shapes the callers produce (a few ascending runs) and the
   adversarial ones: uniform random, presorted, [k] concatenated
   ascending runs, reversed, and heavy duplication. *)
type shape = Random | Presorted | Runs of int | Reversed | Duplicates

let shape_name = function
  | Random -> "random"
  | Presorted -> "presorted"
  | Runs k -> Printf.sprintf "%d-run" k
  | Reversed -> "reversed"
  | Duplicates -> "duplicates"

let prefix_of_shape rng shape len =
  match shape with
  | Random -> Array.init len (fun _ -> Rng.int rng 100_000)
  | Presorted -> Array.init len (fun i -> (3 * i) + Rng.int rng 3)
  | Runs k ->
      let a = Array.init len (fun _ -> Rng.int rng 2_000) in
      let k = max 1 k in
      let chunk = max 1 ((len + k - 1) / k) in
      let lo = ref 0 in
      while !lo < len do
        let hi = min len (!lo + chunk) in
        let run = Array.sub a !lo (hi - !lo) in
        Array.sort compare run;
        Array.blit run 0 a !lo (hi - !lo);
        lo := hi
      done;
      a
  | Reversed -> Array.init len (fun i -> len - i)
  | Duplicates -> Array.init len (fun _ -> Rng.int rng 4)

let shape_gen =
  QCheck.Gen.(
    oneof
      [
        return Random;
        return Presorted;
        map (fun k -> Runs k) (int_range 2 12);
        return Reversed;
        return Duplicates;
      ])

let prop_intsort_matches_array_sort =
  QCheck.Test.make ~name:"sort_prefix = Array.sort, tail untouched"
    ~count:500
    (QCheck.make
       ~print:(fun (shape, len, tail, seed) ->
         Printf.sprintf "%s len %d tail %d seed %d" (shape_name shape) len
           tail seed)
       QCheck.Gen.(
         quad shape_gen (int_range 0 600) (int_range 0 8) (int_bound 10_000)))
    (fun (shape, len, tail, seed) ->
      let rng = Rng.create seed in
      let prefix = prefix_of_shape rng shape len in
      (* Tail cells are below every prefix value, so a sort that strays
         past [len] would pull them in. *)
      let a = Array.append prefix (Array.init tail (fun i -> -1 - i)) in
      let expected = Array.copy prefix in
      Array.sort compare expected;
      Intsort.sort_prefix ~tmp:(Array.make len 0) a len;
      Array.sub a 0 len = expected
      && Array.sub a len tail = Array.init tail (fun i -> -1 - i))

let test_intsort_bad_length () =
  let a = Array.make 5 0 in
  let raises name f =
    Alcotest.(check bool) name true
      (try
         f ();
         false
       with Invalid_argument _ -> true)
  in
  raises "negative length" (fun () ->
      Intsort.sort_prefix ~tmp:(Array.make 5 0) a (-1));
  raises "length past the array" (fun () ->
      Intsort.sort_prefix ~tmp:(Array.make 6 0) a 6);
  raises "tmp shorter than length" (fun () ->
      Intsort.sort_prefix ~tmp:(Array.make 4 0) a 5)

(* Words [f ()] allocates in the minor heap and directly in the major
   heap (arrays past the minor-heap size limit skip the minor heap, so
   a minor-words check alone would miss a scratch-sized copy), net of
   what the probe itself costs. *)
let words_allocated f =
  let probe f =
    let minor0, promoted0, major0 = Gc.counters () in
    f ();
    let minor1, promoted1, major1 = Gc.counters () in
    (minor1 -. minor0, major1 -. promoted1 -. (major0 -. promoted0))
  in
  let base_minor, base_major = probe ignore in
  let minor, major = probe f in
  (minor -. base_minor, major -. base_major)

let test_intsort_allocates_nothing () =
  (* Allocation counts are exact, so "no allocation" is a hard check. *)
  let rng = Rng.create 5 in
  let tmp = Array.make 600 0 in
  List.iter
    (fun shape ->
      let a = prefix_of_shape rng shape 600 in
      let minor, major =
        words_allocated (fun () -> Intsort.sort_prefix ~tmp a 600)
      in
      Alcotest.(check (float 0.)) (shape_name shape ^ ": minor words") 0. minor;
      Alcotest.(check (float 0.)) (shape_name shape ^ ": major words") 0. major)
    [ Random; Presorted; Runs 2; Runs 7; Reversed; Duplicates ]

let () =
  Alcotest.run "cm_util"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "uniform bounds" `Quick test_rng_uniform_bounds;
          Alcotest.test_case "uniform mean" `Quick test_rng_uniform_mean;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "copy preserves state" `Quick test_rng_copy_preserves;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
          Alcotest.test_case "gaussian moments" `Quick test_rng_gaussian_moments;
          Alcotest.test_case "pick membership" `Quick test_rng_pick;
          Alcotest.test_case "pick_weighted zero weight" `Quick test_rng_pick_weighted;
          Alcotest.test_case "pick_weighted ratio" `Quick test_rng_pick_weighted_ratio;
          Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "split_n reproducible" `Quick
            test_rng_split_n_reproducible;
          Alcotest.test_case "split_n disjoint streams" `Quick
            test_rng_split_n_disjoint;
          Alcotest.test_case "split_n advances parent" `Quick
            test_rng_split_n_advances_parent;
          Alcotest.test_case "split_n zero" `Quick test_rng_split_n_empty;
        ] );
      ( "par",
        [
          Alcotest.test_case "map matches sequential" `Quick
            test_par_map_matches_sequential;
          Alcotest.test_case "map empty/singleton" `Quick
            test_par_map_empty_and_single;
          Alcotest.test_case "more domains than items" `Quick
            test_par_map_more_domains_than_items;
          Alcotest.test_case "mapi indices" `Quick test_par_mapi_indices;
          Alcotest.test_case "exception propagation" `Quick
            test_par_map_propagates_exception;
          Alcotest.test_case "default domains" `Quick test_par_default_domains;
          Alcotest.test_case "map_rng domain-invariant" `Quick
            test_par_map_rng_domain_invariant;
          Alcotest.test_case "map_rng streams differ" `Quick
            test_par_map_rng_streams_differ;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean" `Quick test_stats_mean;
          Alcotest.test_case "mean empty" `Quick test_stats_mean_empty;
          Alcotest.test_case "stddev" `Quick test_stats_stddev;
          Alcotest.test_case "min_max" `Quick test_stats_min_max;
          Alcotest.test_case "percentile anchors" `Quick test_stats_percentile;
          Alcotest.test_case "percentile interpolation" `Quick
            test_stats_percentile_interpolates;
          Alcotest.test_case "median unsorted" `Quick test_stats_median_unsorted;
          Alcotest.test_case "ratio" `Quick test_stats_ratio;
          Alcotest.test_case "histogram" `Quick test_stats_histogram;
          Alcotest.test_case "cdf points" `Quick test_stats_cdf;
          Alcotest.test_case "single element" `Quick test_stats_single_element;
          Alcotest.test_case "empty and invalid args" `Quick
            test_stats_empty_and_invalid;
          Alcotest.test_case "histogram clamps" `Quick
            test_stats_histogram_clamps;
        ] );
      ( "pqueue",
        [
          Alcotest.test_case "pop order" `Quick test_pqueue_order;
          Alcotest.test_case "fifo on ties" `Quick test_pqueue_fifo_ties;
          Alcotest.test_case "empty queue" `Quick test_pqueue_empty;
          Alcotest.test_case "peek keeps element" `Quick test_pqueue_peek_keeps;
          Alcotest.test_case "interleaved push/pop" `Quick test_pqueue_interleaved;
          QCheck_alcotest.to_alcotest test_pqueue_qcheck_sorted;
          Alcotest.test_case "pop releases popped values" `Quick
            test_pqueue_pop_releases;
        ] );
      ( "table",
        [
          Alcotest.test_case "render alignment" `Quick test_table_render;
          Alcotest.test_case "float rows" `Quick test_table_float_row;
          Alcotest.test_case "short rows padded" `Quick test_table_pad_short_row;
          Alcotest.test_case "too many cells" `Quick test_table_too_many_cells;
          Alcotest.test_case "caption" `Quick test_table_caption;
          Alcotest.test_case "alignment exact" `Quick
            test_table_alignment_exact;
          Alcotest.test_case "cells verbatim" `Quick test_table_cells_verbatim;
          Alcotest.test_case "pqueue clear" `Quick test_pqueue_clear;
        ] );
      ( "csr",
        [
          Alcotest.test_case "of_dense" `Quick test_csr_of_dense;
          Alcotest.test_case "round trip" `Quick test_csr_roundtrip;
          Alcotest.test_case "of_row_lists" `Quick test_csr_of_row_lists;
          Alcotest.test_case "of_arrays" `Quick test_csr_of_arrays;
          Alcotest.test_case "iteration order" `Quick test_csr_iteration_order;
          Alcotest.test_case "sums" `Quick test_csr_sums;
          Alcotest.test_case "transpose" `Quick test_csr_transpose;
          Alcotest.test_case "of_upper" `Quick test_csr_of_upper;
          QCheck_alcotest.to_alcotest prop_csr_dense_roundtrip;
        ] );
      ( "intsort",
        [
          QCheck_alcotest.to_alcotest prop_intsort_matches_array_sort;
          Alcotest.test_case "bad length" `Quick test_intsort_bad_length;
          Alcotest.test_case "allocates nothing" `Quick
            test_intsort_allocates_nothing;
        ] );
    ]
