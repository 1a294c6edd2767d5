(* Tests for Cm_inference: traffic-matrix generation, similarity,
   Louvain community detection, adjusted mutual information, and the
   end-to-end TAG inference pipeline. *)

module Tag = Cm_tag.Tag
module Rng = Cm_util.Rng
module Csr = Cm_util.Csr
module Tm = Cm_inference.Traffic_matrix
module Similarity = Cm_inference.Similarity
module Louvain = Cm_inference.Louvain
module Ami = Cm_inference.Ami
module Infer = Cm_inference.Infer
module Scatter = Cm_inference.Scatter
module Oracle = Inference_oracle

let check_float = Alcotest.(check (float 1e-6))

(* {1 Traffic matrices} *)

let test_tm_shape () =
  let rng = Rng.create 1 in
  let tag = Cm_tag.Examples.storm ~s:3 ~b:10. in
  let tm = Tm.generate ~epochs:4 ~rng tag in
  Alcotest.(check int) "vms" 12 tm.n_vms;
  Alcotest.(check int) "epochs" 4 (Array.length tm.epochs);
  Alcotest.(check int) "truth labels" 12 (Array.length tm.truth);
  Alcotest.(check bool) "truth known" true tm.truth_known;
  Array.iter
    (fun epoch ->
      Csr.iter_nz epoch (fun i j v ->
          Alcotest.(check bool) "zero diagonal" true (i <> j);
          Alcotest.(check bool) "stored cells positive" true (v > 0.)))
    tm.epochs

let test_tm_respects_structure () =
  (* Without noise, traffic only flows on TAG edges. *)
  let rng = Rng.create 2 in
  let tag = Cm_tag.Examples.storm ~s:3 ~b:10. in
  let tm = Tm.generate ~noise_prob:0. ~rng tag in
  let has_edge a b =
    Tag.find_edge tag ~src:tm.truth.(a) ~dst:tm.truth.(b) <> None
  in
  Csr.iter_nz (Tm.mean_csr tm) (fun i j _ ->
      Alcotest.(check bool)
        (Printf.sprintf "traffic %d->%d follows an edge" i j)
        true (has_edge i j))

let test_tm_total_volume () =
  (* Unit-mean wobble: expected epoch volume equals the TAG aggregate. *)
  let rng = Rng.create 3 in
  let tag = Tag.hose ~tier:"w" ~size:8 ~bw:100. () in
  let tm = Tm.generate ~epochs:40 ~imbalance:0.4 ~noise_prob:0. ~rng tag in
  let total = Csr.total (Tm.mean_csr tm) in
  let expected = Tag.aggregate_bandwidth tag in
  Alcotest.(check bool)
    (Printf.sprintf "volume %.0f within 25%% of %.0f" total expected)
    true
    (Float.abs (total -. expected) /. expected < 0.25)

(* {1 Similarity}

   The first three pin the dense oracle's own definitions; the rest
   hold the production projection to it. *)

let test_cosine_basics () =
  check_float "parallel" 1. (Oracle.cosine [| 1.; 2. |] [| 2.; 4. |]);
  check_float "orthogonal" 0. (Oracle.cosine [| 1.; 0. |] [| 0.; 1. |]);
  check_float "zero vector" 0. (Oracle.cosine [| 0.; 0. |] [| 1.; 1. |])

let test_angular_similarity_range () =
  check_float "parallel" 1.
    (Oracle.angular_similarity [| 1.; 1. |] [| 2.; 2. |]);
  check_float "orthogonal" 0.
    (Oracle.angular_similarity [| 1.; 0. |] [| 0.; 1. |])

let test_feature_vectors () =
  let m = [| [| 0.; 5. |]; [| 7.; 0. |] |] in
  let f = Oracle.feature_vectors m in
  Alcotest.(check (array (float 1e-9))) "vm0 = row0 ++ col0" [| 0.; 5.; 0.; 7. |] f.(0);
  Alcotest.(check (array (float 1e-9))) "vm1 = row1 ++ col1" [| 7.; 0.; 5.; 0. |] f.(1)

let test_projection_symmetric () =
  let rng = Rng.create 4 in
  let tag = Cm_tag.Examples.storm ~s:3 ~b:10. in
  let tm = Tm.generate ~rng tag in
  let g = Similarity.projection_csr (Tm.mean_csr tm) in
  Alcotest.(check bool) "symmetric" true (Csr.equal g (Csr.transpose g));
  Csr.iter_nz g (fun i j _ ->
      Alcotest.(check bool) "empty diagonal" true (i <> j))

(* {1 Louvain} *)

let graph_of_dense g = Louvain.of_csr (Csr.of_dense g)

let two_cliques n =
  (* Two n-cliques joined by one weak edge. *)
  let size = 2 * n in
  let g = Array.make_matrix size size 0. in
  for i = 0 to size - 1 do
    for j = 0 to size - 1 do
      if i <> j && i / n = j / n then g.(i).(j) <- 1.
    done
  done;
  g.(0).(n) <- 0.01;
  g.(n).(0) <- 0.01;
  g

let test_louvain_two_cliques () =
  let labels = Louvain.cluster (graph_of_dense (two_cliques 6)) in
  Alcotest.(check int) "two communities" 2 (1 + Array.fold_left max 0 labels);
  for i = 1 to 5 do
    Alcotest.(check int) "clique 1 together" labels.(0) labels.(i)
  done;
  for i = 7 to 11 do
    Alcotest.(check int) "clique 2 together" labels.(6) labels.(i)
  done;
  Alcotest.(check bool) "cliques separated" true (labels.(0) <> labels.(6))

let test_louvain_improves_modularity () =
  let g = graph_of_dense (two_cliques 5) in
  let labels = Louvain.cluster g in
  let trivial = Array.make 10 0 in
  Alcotest.(check bool) "better than one blob" true
    (Louvain.modularity g labels > Louvain.modularity g trivial)

let test_louvain_resolution () =
  let g = graph_of_dense (two_cliques 5) in
  (* Low resolution merges everything; default separates the cliques. *)
  let coarse = Louvain.cluster ~resolution:0.0001 g in
  Alcotest.(check int) "gamma near 0 merges" 1 (1 + Array.fold_left max 0 coarse);
  let normal = Louvain.cluster g in
  Alcotest.(check int) "gamma=1 splits" 2 (1 + Array.fold_left max 0 normal);
  (* Very high resolution shatters the cliques further. *)
  let fine = Louvain.cluster ~resolution:20. g in
  Alcotest.(check bool) "gamma=20 shatters" true
    (1 + Array.fold_left max 0 fine > 2)

let test_louvain_empty_graph () =
  let g = graph_of_dense (Array.make_matrix 4 4 0.) in
  let labels = Louvain.cluster g in
  Alcotest.(check int) "labels length" 4 (Array.length labels)

let test_modularity_perfect_split () =
  let g = graph_of_dense (two_cliques 4) in
  let labels = Array.init 8 (fun i -> i / 4) in
  Alcotest.(check bool) "positive modularity" true
    (Louvain.modularity g labels > 0.3)

let test_louvain_tie_break () =
  (* Two symmetric 3-cliques and a bridge node 6 attached to node 0 and
     node 3 with equal weight: node 6's gains towards the two cliques
     are exactly equal, so its destination is decided purely by the
     tie rule (lowest community id).  The old Hashtbl fold made this
     depend on hash order. *)
  let g = Array.make_matrix 7 7 0. in
  for i = 0 to 2 do
    for j = 0 to 2 do
      if i <> j then g.(i).(j) <- 1.
    done
  done;
  for i = 3 to 5 do
    for j = 3 to 5 do
      if i <> j then g.(i).(j) <- 1.
    done
  done;
  g.(6).(0) <- 1.;
  g.(0).(6) <- 1.;
  g.(6).(3) <- 1.;
  g.(3).(6) <- 1.;
  let labels = Louvain.cluster (graph_of_dense g) in
  Alcotest.(check (array int))
    "bridge joins the lower-id clique" [| 0; 0; 0; 1; 1; 1; 0 |] labels;
  Alcotest.(check (array int)) "oracle agrees" labels (Oracle.cluster g)

(* Random symmetric weighted graph with self-loops now and then (Louvain
   treats the diagonal as self-loop weight).  With [ties], weights come
   from {0.5, 1, 2}, so equal gains, and hence the tie rule, decide
   many moves; otherwise they are continuous, so sums round and their
   order shows in the bits. *)
let random_graph ?(ties = false) ~seed ~n ~density () =
  let rng = Rng.create seed in
  let weight () =
    if ties then [| 0.5; 1.; 2. |].(Rng.int rng 3)
    else 0.05 +. (Rng.uniform rng *. 4.)
  in
  let g = Array.make_matrix n n 0. in
  for i = 0 to n - 1 do
    for j = i to n - 1 do
      if Rng.uniform rng < density then begin
        let w = weight () in
        g.(i).(j) <- w;
        g.(j).(i) <- w
      end
    done
  done;
  g

let prop_louvain_matches_oracle =
  QCheck.Test.make ~name:"Louvain.cluster equals the dense oracle" ~count:200
    QCheck.(triple (int_range 1 30) (int_range 0 10_000) bool)
    (fun (n, seed, ties) ->
      let g = random_graph ~ties ~seed ~n ~density:0.3 () in
      Louvain.cluster (graph_of_dense g) = Oracle.cluster g)

(* The coarse graph as a CSR matrix, degrees checked on the way. *)
let coarse_csr (c : Louvain.graph) =
  let m =
    Csr.of_sorted_rows ~n:c.Louvain.n
      (Array.init c.Louvain.n (fun a -> (c.Louvain.cols.(a), c.Louvain.vals.(a))))
  in
  if c.Louvain.k <> Csr.row_sums m then None else Some m

let prop_aggregate_matches_oracle =
  QCheck.Test.make ~name:"aggregate equals the dense oracle's, bit for bit"
    ~count:200
    QCheck.(triple (int_range 1 30) (int_range 0 10_000) (int_range 1 6))
    (fun (n, seed, n_comm) ->
      (* Few communities, so each coarse cell sums many terms. *)
      let g = random_graph ~seed ~n ~density:0.5 () in
      let rng = Rng.create (seed + 1) in
      let labels =
        Oracle.renumber (Array.init n (fun _ -> Rng.int rng (min n_comm n)))
      in
      match coarse_csr (Louvain.aggregate (graph_of_dense g) labels) with
      | None -> false
      | Some coarse -> Csr.equal coarse (Csr.of_dense (Oracle.aggregate g labels)))

let prop_projection_matches_oracle =
  QCheck.Test.make ~name:"projection_csr equals the dense oracle, bit for bit"
    ~count:200
    QCheck.(pair (int_range 1 30) (int_range 0 10_000))
    (fun (n, seed) ->
      (* A directed traffic matrix, diagonal included. *)
      let rng = Rng.create seed in
      let m =
        Array.init n (fun _ ->
            Array.init n (fun _ ->
                if Rng.uniform rng < 0.25 then
                  (* Some rates near 1e-200, whose products underflow. *)
                  (if Rng.uniform rng < 0.2 then 1e-200 else 1.)
                  *. (0.05 +. (Rng.uniform rng *. 4.))
                else 0.))
      in
      Csr.equal
        (Similarity.projection_csr (Csr.of_dense m))
        (Csr.of_dense (Oracle.projection_graph m)))

let prop_louvain_modularity_nondecreasing =
  (* Each level of the cascade must not decrease the modularity of the
     composed vertex-level labelling.  The levels come from the oracle,
     which the property above holds bitwise equal to [Louvain.cluster]. *)
  QCheck.Test.make ~name:"modularity non-decreasing across levels" ~count:40
    QCheck.(pair (int_range 3 20) (int_range 0 10_000))
    (fun (n, seed) ->
      let g = random_graph ~seed:(seed + 77) ~n ~density:0.35 () in
      let graph = graph_of_dense g in
      let assignment = Array.init n Fun.id in
      let q = ref (Louvain.modularity graph assignment) in
      let ok = ref true in
      let rec loop adj =
        let labels = Oracle.local_moving ~resolution:1. adj in
        let n_comm = 1 + Array.fold_left max 0 labels in
        if n_comm < Array.length adj then begin
          for i = 0 to n - 1 do
            assignment.(i) <- labels.(assignment.(i))
          done;
          let q' = Louvain.modularity graph assignment in
          if q' < !q -. 1e-9 then ok := false;
          q := q';
          loop (Oracle.aggregate adj labels)
        end
      in
      loop g;
      !ok)

(* Words [f ()] allocates in the minor heap and directly in the major
   heap (large arrays skip the minor heap), net of the probe's own
   cost — the measure test_util's intsort test uses. *)
let words_allocated f =
  let probe f =
    let minor0, promoted0, major0 = Gc.counters () in
    let r = f () in
    let minor1, promoted1, major1 = Gc.counters () in
    (r, minor1 -. minor0 +. (major1 -. promoted1 -. (major0 -. promoted0)))
  in
  let _, base = probe ignore in
  let r, words = probe f in
  (r, words -. base)

(* Vertex i is tied to [i lxor 1] at weight 1 and to i ± 2 at 0.001, so
   the first level halves the vertex count.  A flat n_comm² aggregation
   buffer allocated 22.5M words here at 8,192 vertices. *)
let ladder n =
  Csr.of_sorted_rows ~n
    (Array.init n (fun i ->
         let cells =
           List.filter
             (fun (j, _) -> j >= 0 && j < n)
             [ (i - 2, 0.001); (i lxor 1, 1.); (i + 2, 0.001) ]
         in
         (Array.of_list (List.map fst cells), Array.of_list (List.map snd cells))))

let test_aggregation_memory_linear () =
  let n = 8_192 in
  let m = ladder n in
  let graph = Louvain.of_csr m in
  let labels, words = words_allocated (fun () -> Louvain.cluster graph) in
  let bound = 32. *. float_of_int (n + Csr.nnz m) in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f words <= %.0f" words bound)
    true (words <= bound);
  Alcotest.(check bool) "first level merged pairs" true
    (Array.for_all (fun i -> labels.(i) = labels.(i lxor 1)) (Array.init n Fun.id));
  (* The dense oracle needs n² floats, so it checks the same ladder at
     2,048 vertices. *)
  let small = ladder 2_048 in
  Alcotest.(check (array int)) "oracle labels at 2,048"
    (Oracle.cluster (Csr.to_dense small))
    (Louvain.cluster (Louvain.of_csr small))

let test_projection_csr_matches_dense () =
  let rng = Rng.create 21 in
  let tag = Cm_tag.Examples.three_tier ~b1:80. ~b2:30. ~b3:10. () in
  let tm = Tm.generate ~noise_prob:0.1 ~rng tag in
  let m = Tm.mean_csr tm in
  let dense = Oracle.projection_graph (Csr.to_dense m) in
  Alcotest.(check bool) "bit-identical projection" true
    (Csr.equal (Csr.of_dense dense) (Similarity.projection_csr m))

let test_projection_tiny_rates () =
  (* Three VMs trading 1e-200 both ways: without the prescale every
     product underflows to 0, so there is no edge; the scatter once
     overran on such rows. *)
  let m = Array.init 3 (fun i -> Array.init 3 (fun j -> if i = j then 0. else 1e-200)) in
  let g = Similarity.projection_csr ~prescale:false (Csr.of_dense m) in
  Alcotest.(check bool) "equals the dense oracle" true
    (Csr.equal g (Csr.of_dense (Oracle.projection_graph m)));
  Alcotest.(check int) "empty graph" 0 (Csr.nnz g)

let test_mean_csr_matches_dense () =
  let rng = Rng.create 22 in
  let tag = Cm_tag.Examples.storm ~s:4 ~b:25. in
  let tm = Tm.generate ~epochs:5 ~noise_prob:0.15 ~rng tag in
  (* Against a from-scratch dense mean with per-epoch division (the old
     code): agreement to tolerance, since the sparse path divides
     once. *)
  let n = tm.n_vms in
  let dense = Array.make_matrix n n 0. in
  let k = float_of_int (Array.length tm.epochs) in
  Array.iter
    (fun e ->
      Csr.iter_nz e (fun i j v -> dense.(i).(j) <- dense.(i).(j) +. (v /. k)))
    tm.epochs;
  let m = Csr.to_dense (Tm.mean_csr tm) in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      Alcotest.(check (float 1e-9)) "cell" dense.(i).(j) m.(i).(j)
    done
  done

let test_generate_seed_reproducible () =
  (* Same seed, same matrices — across the geometric-skip noise shim. *)
  let mk () =
    let rng = Rng.create 33 in
    Tm.generate ~epochs:3 ~noise_prob:0.2 ~rng
      (Cm_tag.Examples.storm ~s:3 ~b:10.)
  in
  let a = mk () and b = mk () in
  Array.iteri
    (fun e m ->
      Alcotest.(check bool)
        (Printf.sprintf "epoch %d identical" e)
        true
        (Csr.equal m b.epochs.(e)))
    a.epochs

(* {1 AMI} *)

let test_ami_identical () =
  let a = [| 0; 0; 1; 1; 2; 2 |] in
  check_float "identical = 1" 1. (Ami.ami a a)

let test_ami_permuted_labels () =
  let a = [| 0; 0; 1; 1; 2; 2 |] and b = [| 2; 2; 0; 0; 1; 1 |] in
  check_float "label names irrelevant" 1. (Ami.ami a b)

let test_ami_independent_low () =
  (* A clustering unrelated to the truth scores near 0. *)
  let a = Array.init 40 (fun i -> i mod 2) in
  let b = Array.init 40 (fun i -> if i < 20 then 0 else 1) in
  let v = Ami.ami a b in
  Alcotest.(check bool) (Printf.sprintf "ami %.2f near 0" v) true
    (Float.abs v < 0.25)

let test_ami_single_cluster_edge () =
  let a = Array.make 10 0 in
  check_float "both trivial" 1. (Ami.ami a a)

let test_entropy () =
  check_float "uniform 2" (log 2.) (Ami.entropy [| 0; 1; 0; 1 |]);
  check_float "constant" 0. (Ami.entropy [| 3; 3; 3 |])

let test_mi_bounds () =
  let a = [| 0; 0; 1; 1 |] and b = [| 0; 1; 0; 1 |] in
  check_float "independent mi 0" 0. (Ami.mutual_information a b);
  check_float "identical mi = H" (log 2.) (Ami.mutual_information a a)

let test_mi_sorted_order_bitwise () =
  (* MI is summed over the contingency cells in ascending (a, b) label
     order, so its bits never depend on hash-table layout: pin it to
     the naive sum in that order.  Labels are sparse and negative too. *)
  let rng = Rng.create 5 in
  let n = 300 in
  let a = Array.init n (fun i -> (i / 20 * 7) - 30) in
  let b =
    Array.init n (fun i ->
        if Rng.uniform rng < 0.2 then 1000 + Rng.int rng 25 else i / 15)
  in
  let count p = Array.fold_left (fun c x -> if p x then c + 1 else c) 0 in
  let nf = float_of_int n in
  let cells =
    List.sort_uniq compare (List.init n (fun i -> (a.(i), b.(i))))
  in
  let reference =
    List.fold_left
      (fun acc (la, lb) ->
        let c = count (fun i -> a.(i) = la && b.(i) = lb) (Array.init n Fun.id) in
        let pij = float_of_int c /. nf in
        let pi = float_of_int (count (( = ) la) a) /. nf in
        let pj = float_of_int (count (( = ) lb) b) /. nf in
        acc +. (pij *. log (pij /. (pi *. pj))))
      0. cells
  in
  let mi = Ami.mutual_information a b in
  Alcotest.(check string) "MI bits" (Printf.sprintf "%h" reference)
    (Printf.sprintf "%h" mi)

let test_expected_mi_between_0_and_mi () =
  let a = [| 0; 0; 0; 1; 1; 2 |] and b = [| 0; 1; 0; 1; 1; 2 |] in
  let emi = Ami.expected_mi a b in
  Alcotest.(check bool) "nonneg" true (emi >= 0.);
  Alcotest.(check bool) "below max entropy" true (emi <= Ami.entropy a +. 1e-9)

let test_ami_goldens () =
  (* Reference values for Vinh et al.'s AMI, cross-checked against an
     independent implementation of Eq. 24 and sklearn's documented
     adjusted_mutual_info_score example (0.22504 for this pair under
     max normalization). *)
  let a = [| 0; 0; 0; 1; 1; 1 |] and b = [| 0; 0; 1; 1; 2; 2 |] in
  Alcotest.(check (float 1e-9)) "vinh max" 0.225042283198 (Ami.ami ~average:`Max a b);
  Alcotest.(check (float 1e-9))
    "vinh arithmetic" 0.298792458171
    (Ami.ami ~average:`Arithmetic a b);
  let c = [| 1; 1; 0; 0; 2; 2; 3; 3 |] and d = [| 0; 0; 1; 1; 2; 2; 2; 2 |] in
  Alcotest.(check (float 1e-9)) "uneven max" 0.588235294118 (Ami.ami ~average:`Max c d);
  Alcotest.(check (float 1e-9))
    "uneven arithmetic" 0.740740740741
    (Ami.ami ~average:`Arithmetic c d)

(* {1 End-to-end inference} *)

let test_infer_three_tier () =
  (* Tiers with distinct peer sets must be recovered substantially better
     than chance; the paper itself reports AMI ~0.54 on real traces. *)
  let rng = Rng.create 5 in
  let tag = Cm_tag.Examples.three_tier ~n_web:6 ~n_logic:6 ~n_db:6 ~b1:100. ~b2:40. ~b3:10. () in
  let tm = Tm.generate ~imbalance:0.3 ~noise_prob:0.005 ~rng tag in
  let r = Infer.infer tm in
  let a = Option.get r.ami_vs_truth in
  Alcotest.(check bool) (Printf.sprintf "ami %.2f >= 0.45" a) true (a >= 0.45)

let test_infer_reconstructs_guarantees () =
  (* With perfect labels, reconstructed trunk totals track the truth. *)
  let rng = Rng.create 6 in
  let tag = Cm_tag.Examples.three_tier ~b1:100. ~b2:40. ~b3:10. () in
  let tm = Tm.generate ~imbalance:0.2 ~noise_prob:0. ~rng tag in
  let rebuilt = Infer.guarantees_of_labels tm tm.truth in
  Alcotest.(check int) "components" 3 (Tag.n_components rebuilt);
  (* Peak-of-aggregate >= mean, and within a modest factor of the truth. *)
  let truth_total = Tag.aggregate_bandwidth tag in
  let rebuilt_total = Tag.aggregate_bandwidth rebuilt in
  Alcotest.(check bool)
    (Printf.sprintf "total %.0f within 2x of %.0f" rebuilt_total truth_total)
    true
    (rebuilt_total > truth_total /. 2. && rebuilt_total < truth_total *. 2.)

let test_infer_statistical_multiplexing () =
  (* The TAG guarantee derived from peak-of-aggregate must not exceed the
     sum of per-pair peaks (the pipe model's worst case). *)
  let rng = Rng.create 7 in
  let tag = Cm_tag.Examples.fig5 ~n1:5 ~n2:5 ~b1:50. ~b2:50. ~b2_in:20. in
  let tm = Tm.generate ~imbalance:1.0 ~noise_prob:0. ~rng tag in
  let rebuilt = Infer.guarantees_of_labels tm tm.truth in
  let sum_pair_peaks =
    let n = tm.n_vms in
    let peak = Array.make_matrix n n 0. in
    Array.iter
      (fun e ->
        Csr.iter_nz e (fun i j v -> peak.(i).(j) <- Float.max peak.(i).(j) v))
      tm.epochs;
    Array.fold_left
      (fun acc row -> acc +. Array.fold_left ( +. ) 0. row)
      0. peak
  in
  Alcotest.(check bool) "peak-of-sum <= sum-of-peaks" true
    (Tag.aggregate_bandwidth rebuilt <= sum_pair_peaks +. 1e-6)

let test_infer_deterministic () =
  let mk () =
    let rng = Rng.create 8 in
    let tag = Cm_tag.Examples.storm ~s:4 ~b:10. in
    Infer.infer (Tm.generate ~rng tag)
  in
  let a = mk () and b = mk () in
  Alcotest.(check (array int)) "same labels" a.labels b.labels;
  Alcotest.(check (option (float 1e-9)))
    "same ami" a.ami_vs_truth b.ami_vs_truth

(* {1 CSV interchange} *)

let test_csv_roundtrip () =
  let rng = Rng.create 9 in
  let tag = Cm_tag.Examples.storm ~s:3 ~b:10. in
  let tm = Tm.generate ~epochs:3 ~rng tag in
  match Tm.of_csv (Tm.to_csv tm) with
  | Error m -> Alcotest.failf "re-parse failed: %s" m
  | Ok tm2 ->
      Alcotest.(check int) "vms" tm.n_vms tm2.n_vms;
      Alcotest.(check int) "epochs" (Array.length tm.epochs)
        (Array.length tm2.epochs);
      Alcotest.(check bool) "truth unknown after import" false tm2.truth_known;
      Array.iteri
        (fun e m ->
          Csr.iter_nz m (fun i j v ->
              Alcotest.(check (float 1e-5))
                (Printf.sprintf "cell %d %d %d" e i j)
                v
                (Csr.get tm2.epochs.(e) i j));
          Alcotest.(check int)
            (Printf.sprintf "epoch %d nnz" e)
            (Csr.nnz m)
            (Csr.nnz tm2.epochs.(e)))
        tm.epochs

let test_csv_errors () =
  (match Tm.of_csv "epoch,src,dst,rate\n0,1,notanint,5\n" with
  | Error m ->
      Alcotest.(check bool) "line number" true
        (String.length m > 0 && String.sub m 0 4 = "line")
  | Ok _ -> Alcotest.fail "expected error");
  (match Tm.of_csv "epoch,src,dst,rate\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "no cells must error");
  match Tm.of_csv "epoch,src,dst,rate\n0,0,1,-4\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "negative rate must error"

let test_csv_non_finite () =
  (* float_of_string accepts these; a rate must still be finite. *)
  List.iter
    (fun rate ->
      match Tm.of_csv (Printf.sprintf "epoch,src,dst,rate\n0,0,1,%s\n" rate) with
      | Ok _ -> Alcotest.failf "rate %s must error" rate
      | Error m ->
          let frag = Printf.sprintf "line 2: rate %S is not finite" rate in
          Alcotest.(check string) ("message for " ^ rate) frag m)
    [ "inf"; "-inf"; "nan"; "1e999" ]

let test_csv_header () =
  (* Line 1 must be the header: before the check, a header-less file
     silently lost its first cell (here the 0->1 traffic). *)
  List.iter
    (fun (what, csv) ->
      match Tm.of_csv csv with
      | Ok _ -> Alcotest.failf "%s must error" what
      | Error m ->
          Alcotest.(check string) what
            "line 1: expected the header epoch,src,dst,rate" m)
    [
      ("no header", "0,0,1,5.0\n0,2,3,7.0\n");
      ("garbage header", "garbage\n0,0,1,5.0\n");
      ("empty input", "");
    ];
  match Tm.of_csv "  epoch,src,dst,rate \r\n0,0,1,5.0\n" with
  | Ok tm -> check_float "first cell kept" 5. (Csr.get tm.Tm.epochs.(0) 0 1)
  | Error m -> Alcotest.failf "padded header rejected: %s" m

let test_csv_duplicate_cell () =
  (* A repeated (epoch,src,dst) used to silently keep the last line. *)
  match Tm.of_csv "epoch,src,dst,rate\n0,0,1,5\n0,1,0,2\n0,0,1,7\n" with
  | Error m ->
      Alcotest.(check bool)
        (Printf.sprintf "duplicate reported with line number: %s" m)
        true
        (String.length m >= 4 && String.sub m 0 4 = "line")
  | Ok _ -> Alcotest.fail "duplicate cell must error"

let test_csv_huge_index () =
  (* Dimensions come from the largest indices, and every epoch is an
     n-row matrix: a single far-out cell must be refused, not allocated. *)
  let expect_error what csv =
    match Tm.of_csv csv with
    | Error m ->
        Alcotest.(check bool)
          (Printf.sprintf "%s reported with line number: %s" what m)
          true
          (String.length m >= 4 && String.sub m 0 4 = "line")
    | Ok _ -> Alcotest.failf "%s must error" what
  in
  expect_error "huge VM index" "epoch,src,dst,rate\n0,0,99999999999,1\n";
  expect_error "huge epoch index" "epoch,src,dst,rate\n99999999999,0,1,1\n";
  expect_error "VM index at the bound"
    (Printf.sprintf "epoch,src,dst,rate\n0,%d,0,1\n" Tm.max_csv_vms);
  expect_error "epoch index at the bound"
    (Printf.sprintf "epoch,src,dst,rate\n%d,0,1,1\n" Tm.max_csv_epochs);
  match Tm.of_csv "epoch,src,dst,rate\n3,0,16383,1\n" with
  | Ok tm ->
      Alcotest.(check int) "16,384 VMs accepted" 16_384 tm.Tm.n_vms;
      Alcotest.(check int) "4 epochs" 4 (Array.length tm.Tm.epochs)
  | Error m -> Alcotest.failf "in-bound cell rejected: %s" m

let test_csv_sum_overflow () =
  (* Each rate is finite, but two clustered senders' aggregate is not;
     the file is refused before inference forms it. *)
  match
    Tm.of_csv "epoch,src,dst,rate\n0,0,2,1e308\n0,1,2,1e308\n0,0,3,1e308\n"
  with
  | Ok _ -> Alcotest.fail "rates past the float range must error"
  | Error m ->
      Alcotest.(check string) "message" "rates sum to inf, past half the float range" m

let test_csv_infer_pipeline () =
  (* Imported matrices run through inference (truth unknown). *)
  let rng = Rng.create 10 in
  let tag = Cm_tag.Examples.three_tier ~b1:50. ~b2:20. ~b3:10. () in
  let tm = Tm.generate ~rng tag in
  match Tm.of_csv (Tm.to_csv tm) with
  | Error m -> Alcotest.failf "%s" m
  | Ok imported ->
      let r = Infer.infer imported in
      Alcotest.(check bool) "clusters found" true (r.n_components >= 1);
      Alcotest.(check bool) "tag rebuilt" true
        (Tag.total_vms r.inferred = imported.n_vms)

let test_infer_scale_free () =
  (* Two groups of four VMs, all-to-all inside each group.  Scaled by
     2^1000 the similarity products overflow, by 2^-1000 they
     underflow; the exact power-of-two prescale keeps the labels. *)
  let rate k i j =
    if i <> j && i / 4 = j / 4 then Float.ldexp (1. +. float_of_int (i + j)) k
    else 0.
  in
  let labels k =
    let e = Csr.of_dense (Array.init 8 (fun i -> Array.init 8 (rate k i))) in
    (Infer.infer (Tm.of_epochs [| e |])).labels
  in
  let base = labels 0 in
  Alcotest.(check int) "two groups" 2
    (1 + Array.fold_left max 0 base);
  Alcotest.(check (array int)) "x 2^1000" base (labels 1000);
  Alcotest.(check (array int)) "x 2^-1000" base (labels (-1000))

(* {1 Prediction} *)

module Predict = Cm_inference.Predict

let test_predict_basics () =
  let w = [| 10.; 20.; 30.; 40. |] in
  check_float "peak" 40. (Predict.predict Predict.Peak w);
  check_float "median" 25. (Predict.predict (Predict.Quantile 0.5) w);
  check_float "headroom" 30. (Predict.predict (Predict.Headroom 0.2) w)

let test_predict_validation () =
  let expect f =
    Alcotest.check_raises "rejected" (Invalid_argument "")
      (fun () ->
        try ignore (f ()) with Invalid_argument _ -> raise (Invalid_argument ""))
  in
  expect (fun () -> Predict.predict Predict.Peak [||]);
  expect (fun () -> Predict.predict (Predict.Quantile 1.5) [| 1. |]);
  expect (fun () -> Predict.predict (Predict.Headroom (-0.1)) [| 1. |])

let test_predict_evaluate_tradeoff () =
  (* Peak never violates; a low quantile violates more but reserves
     less. *)
  let rng = Rng.create 11 in
  let tag = Tag.hose ~tier:"w" ~size:6 ~bw:100. () in
  let tm = Tm.generate ~epochs:30 ~imbalance:0.6 ~rng tag in
  let peak = Predict.evaluate Predict.Peak ~window:6 tm in
  let q50 = Predict.evaluate (Predict.Quantile 0.5) ~window:6 tm in
  Alcotest.(check bool) "epochs evaluated" true (peak.n_evaluated = 24);
  Alcotest.(check bool) "median violates more" true
    (q50.violation_rate >= peak.violation_rate);
  Alcotest.(check bool) "median reserves less" true
    (q50.mean_overprovision <= peak.mean_overprovision +. 1e-9)

let test_predict_evaluate_guards () =
  let rng = Rng.create 12 in
  let tm = Tm.generate ~epochs:3 ~rng (Tag.hose ~tier:"w" ~size:2 ~bw:1. ()) in
  Alcotest.check_raises "window too large" (Invalid_argument "")
    (fun () ->
      try ignore (Predict.evaluate Predict.Peak ~window:5 tm)
      with Invalid_argument _ -> raise (Invalid_argument ""))

(* {1 Properties} *)

let prop_ami_symmetric =
  QCheck.Test.make ~name:"AMI is symmetric" ~count:100
    QCheck.(
      pair
        (array_of_size (Gen.return 12) (int_range 0 3))
        (array_of_size (Gen.return 12) (int_range 0 3)))
    (fun (a, b) -> Float.abs (Ami.ami a b -. Ami.ami b a) < 1e-9)

let prop_ami_bounded =
  QCheck.Test.make ~name:"AMI within [-1, 1]" ~count:100
    QCheck.(
      pair
        (array_of_size (Gen.return 15) (int_range 0 4))
        (array_of_size (Gen.return 15) (int_range 0 4)))
    (fun (a, b) ->
      let v = Ami.ami a b in
      v >= -1. && v <= 1.)

(* A valid CSV with one field replaced, one line dropped or doubled, or
   a line of field soup appended.  Indices stay small or land past the
   limits, so no case allocates the 256 x 65,536 worst case. *)
let csv_fields =
  [| "0"; "1"; "3"; "7"; "-1"; "256"; "65536"; "99999999999999999999"; "2.5";
     "nan"; "inf"; "-inf"; "1e999"; "1e308"; "5e-324"; "-0"; "0x1p-1074"; "x";
     ""; " "; "epoch" |]

let csv_text_gen =
  let open QCheck.Gen in
  let field = oneofa csv_fields in
  let soup_line =
    map (String.concat ",") (list_size (int_range 0 5) field)
  in
  let valid =
    "epoch,src,dst,rate\n0,0,1,5.0\n0,1,0,2.5\n1,2,3,1e-3\n1,3,2,7\n"
  in
  let lines = String.split_on_char '\n' valid in
  let n = List.length lines in
  let mutate =
    let* i = int_bound (n - 1)
    and* how = int_bound 3
    and* f = field
    and* at = int_bound 3
    and* soup = soup_line in
    return
      (List.concat
         (List.mapi
            (fun j line ->
              if j <> i then [ line ]
              else
                match how with
                | 0 -> []
                | 1 -> [ line; line ]
                | 2 ->
                    [
                      String.concat ","
                        (List.mapi
                           (fun q x -> if q = at then f else x)
                           (String.split_on_char ',' line));
                    ]
                | _ -> [ line; soup ])
            lines))
  in
  let* lines =
    frequency [ (3, mutate); (1, list_size (int_range 0 6) soup_line) ]
  in
  return (String.concat "\n" lines)

let prop_csv_total =
  QCheck.Test.make ~name:"of_csv never raises" ~count:2000
    (QCheck.make ~print:(Printf.sprintf "%S") csv_text_gen)
    (fun text -> match Tm.of_csv text with Ok _ | Error _ -> true)

let prop_csv_roundtrip_cell_identical =
  QCheck.Test.make ~name:"csv round-trip is cell-identical" ~count:30
    QCheck.(triple (int_range 2 10) (int_range 1 4) (int_range 0 10_000))
    (fun (n, n_epochs, seed) ->
      let rng = Rng.create seed in
      let epochs =
        Array.init n_epochs (fun _ ->
            Csr.of_dense
              (Array.init n (fun i ->
                   Array.init n (fun j ->
                       (* Pin cell (0, n-1) so the exported text carries
                          the true dimensions and epoch count. *)
                       if i = 0 && j = n - 1 then 5.
                       else if Rng.uniform rng < 0.3 then
                         1. +. (Rng.uniform rng *. 10.)
                       else 0.))))
      in
      let tm = Tm.of_epochs epochs in
      let csv = Tm.to_csv tm in
      match Tm.of_csv csv with
      | Error _ -> false
      | Ok tm2 ->
          tm2.Tm.n_vms = n
          && (not tm2.Tm.truth_known)
          && (Infer.infer tm2).Infer.ami_vs_truth = None
          && Array.length tm2.Tm.epochs = n_epochs
          && Array.for_all2 Csr.equal tm.Tm.epochs tm2.Tm.epochs
          (* Appending a duplicate of any data line must be rejected. *)
          &&
          let lines =
            List.filter (fun l -> l <> "") (String.split_on_char '\n' csv)
          in
          let last = List.nth lines (List.length lines - 1) in
          (match Tm.of_csv (csv ^ last ^ "\n") with
          | Error _ -> true
          | Ok _ -> false))

let prop_louvain_labels_compact =
  QCheck.Test.make ~name:"louvain labels are 0..k-1" ~count:50
    QCheck.(int_range 2 6)
    (fun n ->
      let labels = Louvain.cluster (graph_of_dense (two_cliques n)) in
      let k = 1 + Array.fold_left max 0 labels in
      let seen = Array.make k false in
      Array.iter (fun l -> seen.(l) <- true) labels;
      Array.for_all Fun.id seen)

(* {1 Scatter} *)

(* A plain, checked scatter: a [seen] flag (not the accumulator's value)
   marks first touches. *)
let checked_scatter n rows =
  let acc = Array.make n 0. and seen = Array.make n false in
  let order = ref [] in
  List.iter
    (fun (skip, f, idx, v, lo, hi) ->
      for q = lo to hi - 1 do
        let j = idx.(q) in
        if j <> skip then begin
          if not seen.(j) then begin
            seen.(j) <- true;
            order := j :: !order
          end;
          acc.(j) <- acc.(j) +. (f *. v.(q))
        end
      done)
    rows;
  (Array.of_list (List.rev !order), acc)

let frame_reset n fr =
  Scatter.touched fr = [||]
  && List.for_all (fun j -> Scatter.partial fr j = -1.) (List.init n Fun.id)

let prop_scatter_matches_checked =
  QCheck.Test.make ~name:"Scatter.add equals a checked scatter, bit for bit"
    ~count:300
    QCheck.(pair (int_range 1 40) (int_range 0 10_000))
    (fun (n, seed) ->
      let rng = Rng.create seed in
      (* Values and factors now and then near 1e-200, so products
         underflow to 0 on partners that are touched again. *)
      let value () =
        (if Rng.uniform rng < 0.3 then 1e-200 else 1.)
        *. (0.01 +. Rng.uniform rng)
      in
      let row () =
        let idx =
          Array.of_list
            (List.filter (fun _ -> Rng.uniform rng < 0.4) (List.init n Fun.id))
        in
        let len = Array.length idx in
        let lo = Rng.int rng (len + 1) in
        let hi = lo + Rng.int rng (len - lo + 1) in
        (Rng.int rng (n + 1) - 1, value (), idx, Array.map (fun _ -> value ()) idx, lo, hi)
      in
      let rows = List.init (1 + Rng.int rng 6) (fun _ -> row ()) in
      let order, acc = checked_scatter n rows in
      let fr = Scatter.create n in
      List.iter (fun (skip, f, idx, v, lo, hi) -> Scatter.add fr ~skip [| f |] 0 idx v lo hi) rows;
      let bits x = Int64.bits_of_float x in
      let same_touched = Scatter.touched fr = order in
      let same_acc =
        Array.for_all (fun j -> bits (Scatter.partial fr j) = bits acc.(j)) order
      in
      let sorted = Array.copy order in
      Array.sort compare sorted;
      let kept = List.filter (fun j -> acc.(j) > 0.) (Array.to_list sorted) in
      let e = Scatter.emit_positive fr in
      let cols, vals = Scatter.take fr e in
      same_touched && same_acc
      && cols = Array.of_list kept
      && Array.for_all2 (fun j x -> bits x = bits acc.(j)) cols vals
      && frame_reset n fr)

let test_scatter_bad_row () =
  (* Each row is checked before any entry is read: the first entry is in
     bounds, so a scatter that started before its check would leave it
     in the frame. *)
  let bad =
    [
      ("last index >= n", [| 0; 4 |], [| 1.; 1. |], 0, 2);
      ("idx/v lengths differ", [| 0; 1; 2 |], [| 1.; 1. |], 0, 2);
      ("negative index", [| -1; 2 |], [| 1.; 1. |], 0, 2);
      ("start below 0", [| 0; 2 |], [| 1.; 1. |], -1, 2);
      ("end past the row", [| 0; 2 |], [| 1.; 1. |], 0, 3);
    ]
  in
  List.iter
    (fun (what, idx, v, lo, hi) ->
      let fr = Scatter.create 4 in
      (match Scatter.add fr ~skip:(-1) [| 1. |] 0 idx v lo hi with
      | () -> Alcotest.failf "%s: no Invalid_argument" what
      | exception Invalid_argument _ -> ());
      Alcotest.(check bool) (what ^ ": frame untouched") true (frame_reset 4 fr))
    bad

let () =
  Alcotest.run "cm_inference"
    [
      ( "traffic-matrix",
        [
          Alcotest.test_case "shape" `Quick test_tm_shape;
          Alcotest.test_case "respects structure" `Quick test_tm_respects_structure;
          Alcotest.test_case "volume" `Quick test_tm_total_volume;
          Alcotest.test_case "mean csr matches dense" `Quick
            test_mean_csr_matches_dense;
          Alcotest.test_case "seed reproducible" `Quick
            test_generate_seed_reproducible;
        ] );
      ( "similarity",
        [
          Alcotest.test_case "cosine" `Quick test_cosine_basics;
          Alcotest.test_case "angular range" `Quick test_angular_similarity_range;
          Alcotest.test_case "feature vectors" `Quick test_feature_vectors;
          Alcotest.test_case "projection symmetric" `Quick test_projection_symmetric;
          Alcotest.test_case "projection csr bit-identical" `Quick
            test_projection_csr_matches_dense;
          Alcotest.test_case "projection of tiny rates" `Quick
            test_projection_tiny_rates;
        ] );
      ( "scatter",
        [
          Alcotest.test_case "bad row raises before reading" `Quick
            test_scatter_bad_row;
        ] );
      ( "louvain",
        [
          Alcotest.test_case "two cliques" `Quick test_louvain_two_cliques;
          Alcotest.test_case "improves modularity" `Quick
            test_louvain_improves_modularity;
          Alcotest.test_case "resolution parameter" `Quick test_louvain_resolution;
          Alcotest.test_case "empty graph" `Quick test_louvain_empty_graph;
          Alcotest.test_case "modularity value" `Quick test_modularity_perfect_split;
          Alcotest.test_case "tie-break regression" `Quick test_louvain_tie_break;
          Alcotest.test_case "aggregation memory is linear" `Quick
            test_aggregation_memory_linear;
        ] );
      ( "ami",
        [
          Alcotest.test_case "identical" `Quick test_ami_identical;
          Alcotest.test_case "permuted labels" `Quick test_ami_permuted_labels;
          Alcotest.test_case "independent low" `Quick test_ami_independent_low;
          Alcotest.test_case "single cluster" `Quick test_ami_single_cluster_edge;
          Alcotest.test_case "entropy" `Quick test_entropy;
          Alcotest.test_case "mi bounds" `Quick test_mi_bounds;
          Alcotest.test_case "mi sums in sorted label order" `Quick
            test_mi_sorted_order_bitwise;
          Alcotest.test_case "expected mi bounds" `Quick
            test_expected_mi_between_0_and_mi;
          Alcotest.test_case "published goldens" `Quick test_ami_goldens;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "three tier" `Quick test_infer_three_tier;
          Alcotest.test_case "guarantee reconstruction" `Quick
            test_infer_reconstructs_guarantees;
          Alcotest.test_case "statistical multiplexing" `Quick
            test_infer_statistical_multiplexing;
          Alcotest.test_case "deterministic" `Quick test_infer_deterministic;
          Alcotest.test_case "labels scale-free" `Quick test_infer_scale_free;
        ] );
      ( "csv",
        [
          Alcotest.test_case "round trip" `Quick test_csv_roundtrip;
          Alcotest.test_case "errors" `Quick test_csv_errors;
          Alcotest.test_case "header required" `Quick test_csv_header;
          Alcotest.test_case "duplicate cell" `Quick test_csv_duplicate_cell;
          Alcotest.test_case "non-finite rate" `Quick test_csv_non_finite;
          Alcotest.test_case "huge index" `Quick test_csv_huge_index;
          Alcotest.test_case "import to inference" `Quick test_csv_infer_pipeline;
          Alcotest.test_case "rates summing past the float range" `Quick
            test_csv_sum_overflow;
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 26 |])
            prop_csv_total;
        ] );
      ( "prediction",
        [
          Alcotest.test_case "basics" `Quick test_predict_basics;
          Alcotest.test_case "validation" `Quick test_predict_validation;
          Alcotest.test_case "tradeoff" `Quick test_predict_evaluate_tradeoff;
          Alcotest.test_case "guards" `Quick test_predict_evaluate_guards;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_ami_symmetric;
            prop_ami_bounded;
            prop_csv_roundtrip_cell_identical;
            prop_louvain_labels_compact;
            prop_louvain_matches_oracle;
            prop_aggregate_matches_oracle;
            prop_scatter_matches_checked;
            prop_projection_matches_oracle;
            prop_louvain_modularity_nondecreasing;
          ] );
    ]
