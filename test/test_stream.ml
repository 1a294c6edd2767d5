(* Tests for Cm_inference.Stream: the sliding CSR window, seeded
   Louvain refinement, drift generation, the streaming engine checked
   against the batch pipeline ([Stream.verify]), and the e2e cost of
   stale guarantees. *)

module Csr = Cm_util.Csr
module Window = Cm_util.Csr.Window
module Rng = Cm_util.Rng
module Par = Cm_util.Par
module Tag = Cm_tag.Tag
module Tree = Cm_topology.Tree
module Types = Cm_placement.Types
module Cm = Cm_placement.Cm
module E2e = Cm_e2e.End_to_end
module Tm = Cm_inference.Traffic_matrix
module Similarity = Cm_inference.Similarity
module Louvain = Cm_inference.Louvain
module Ami = Cm_inference.Ami
module Infer = Cm_inference.Infer
module Stream = Cm_inference.Stream

(* A four-stage pipeline service: the streaming workload fixture. *)
let pipeline_tag ?(tier = 12) () =
  Tag.create ~name:"stream-pipeline"
    ~components:
      [ ("ingest", tier); ("shuffle", tier); ("reduce", tier); ("store", tier) ]
    ~edges:
      [
        (0, 1, 100., 100.);
        (1, 2, 60., 60.);
        (2, 3, 30., 30.);
        (1, 1, 20., 20.);
      ]
    ()

(* Every cell of [m] times [f > 0.], on [m]'s pattern. *)
let scale f (m : Csr.t) =
  Csr.of_arrays ~n:m.n ~row_ptr:m.row_ptr ~col_idx:m.col_idx
    ~values:(Array.map (fun v -> v *. f) m.values)

let random_epoch rng n =
  Csr.of_dense
    (Array.init n (fun i ->
         Array.init n (fun j ->
             if i <> j && Rng.uniform rng < 0.3 then
               1. +. (Rng.uniform rng *. 10.)
             else 0.)))

(* {1 Csr.Window} *)

(* Like [random_epoch], but a quarter of the cells are subnormal (one to
   three times [5e-324]), so windowed sums divided by the window length
   round, and some underflow to [0.]. *)
let random_tiny_epoch rng n =
  Csr.of_dense
    (Array.init n (fun i ->
         Array.init n (fun j ->
             if i <> j && Rng.uniform rng < 0.3 then
               if Rng.uniform rng < 0.25 then
                 float_of_int (1 + Rng.int rng 3) *. 5e-324
               else 1. +. (Rng.uniform rng *. 10.)
             else 0.)))

let prop_window_mean_bitwise =
  QCheck.Test.make ~name:"window mean is bitwise mean_csr of its epochs"
    ~count:40
    QCheck.(triple (int_range 2 12) (int_range 1 5) (int_range 0 10_000))
    (fun (n, cap, seed) ->
      let rng = Rng.create seed in
      let w = Window.create ~n ~capacity:cap in
      let ok = ref true in
      for t = 0 to cap + 3 do
        let e = random_tiny_epoch rng n in
        Window.push w e;
        ok := !ok && Window.pushes w = t + 1;
        ok := !ok && Window.length w = min (t + 1) cap;
        let tm = Tm.of_epochs (Window.epochs w) in
        ok := !ok && Csr.equal (Window.mean w) (Tm.mean_csr tm)
      done;
      !ok)

let test_window_skips_constant_rows () =
  (* A stationary stream leaves nothing to re-fold once the change
     events slide out of range. *)
  let n = 8 in
  let rng = Rng.create 42 in
  let e = random_epoch rng n in
  let w = Window.create ~n ~capacity:3 in
  for _ = 1 to 8 do
    Window.push w e
  done;
  Alcotest.(check int) "no rows re-folded" 0 (Window.last_recomputed w);
  Alcotest.(check (array int)) "no dirty rows" [||] (Window.last_dirty w);
  (* Not [e] itself: (3v)/3 need not be bitwise v. *)
  Alcotest.(check bool) "mean equals the from-scratch mean" true
    (Csr.equal (Window.mean w) (Tm.mean_csr (Tm.of_epochs [| e; e; e |])))

let test_window_eviction_dirties_rows () =
  (* When a burst slides out, exactly its rows go dirty again. *)
  let n = 6 in
  let rng = Rng.create 43 in
  let base = random_epoch rng n in
  let burst = scale 3. base in
  let w = Window.create ~n ~capacity:2 in
  Window.push w base;
  Window.push w burst;
  Window.push w base;
  (* Window went [base; burst] -> [burst; base]: same multiset, same
     mean — a pure rotation must NOT look dirty. *)
  Alcotest.(check (array int)) "rotation is clean" [||] (Window.last_dirty w);
  Window.push w base;
  (* [burst; base] -> [base; base]: the burst evicts, its rows dirty. *)
  Alcotest.(check bool) "rows dirty on eviction" true
    (Array.length (Window.last_dirty w) > 0);
  Window.push w base;
  Alcotest.(check (array int)) "then quiet" [||] (Window.last_dirty w);
  Alcotest.(check bool) "mean back to the stationary mean" true
    (Csr.equal (Window.mean w) (Tm.mean_csr (Tm.of_epochs [| base; base |])))

(* {1 Seeded Louvain refinement} *)

let test_refine_seeded_repairs_perturbation () =
  let rng = Rng.create 11 in
  let tag = pipeline_tag ~tier:8 () in
  let tm = Tm.generate ~epochs:4 ~noise_prob:0. ~rng tag in
  let graph = Louvain.of_csr (Similarity.projection_csr (Tm.mean_csr tm)) in
  let cold = Louvain.cluster graph in
  let n = Array.length cold in
  (* Mislabel a few vertices, then refine with just those as frontier. *)
  let seed = Array.copy cold in
  let moved_vertices = [ 0; n / 2; n - 1 ] in
  List.iter
    (fun v -> seed.(v) <- (seed.(v) + 1) mod (1 + Array.fold_left max 0 cold))
    moved_vertices;
  let refined, moved =
    Louvain.refine_seeded graph ~seed ~frontier:(Array.of_list moved_vertices)
  in
  Alcotest.(check bool) "some vertices moved" true (moved > 0);
  Alcotest.(check (array int)) "cold labelling recovered" cold refined

let test_refine_seeded_stable_on_optimum () =
  let rng = Rng.create 12 in
  let tag = pipeline_tag ~tier:6 () in
  let tm = Tm.generate ~epochs:4 ~noise_prob:0. ~rng tag in
  let graph = Louvain.of_csr (Similarity.projection_csr (Tm.mean_csr tm)) in
  let cold = Louvain.cluster graph in
  let n = Array.length cold in
  let frontier = Array.init n Fun.id in
  let labels, moved = Louvain.refine_seeded graph ~seed:cold ~frontier in
  Alcotest.(check int) "no moves from the optimum" 0 moved;
  Alcotest.(check (array int)) "labels untouched" cold labels

let test_modularity_matches_oracle () =
  let rng = Rng.create 13 in
  let tag = pipeline_tag ~tier:6 () in
  let tm = Tm.generate ~epochs:3 ~rng tag in
  let graph = Similarity.projection_csr (Tm.mean_csr tm) in
  let rows = Louvain.of_csr graph in
  let labels = Louvain.cluster rows in
  (* The pair-by-pair dense sum agrees to float tolerance only. *)
  Alcotest.(check (float 1e-9))
    "same modularity"
    (Inference_oracle.modularity (Csr.to_dense graph) labels)
    (Louvain.modularity rows labels)

(* {1 Drift generator} *)

let test_drift_stationary_is_bit_identical () =
  let rng = Rng.create 21 in
  let d = Tm.Drift.create ~rng (pipeline_tag ~tier:6 ()) in
  let e1 = Tm.Drift.step d in
  let e2 = Tm.Drift.step d in
  Alcotest.(check bool) "no drift, same epoch" true (Csr.equal e1 e2)

let test_drift_role_moves_truth () =
  let rng = Rng.create 22 in
  let d = Tm.Drift.create ~rng (pipeline_tag ~tier:6 ()) in
  let before = Tm.Drift.truth d in
  let _ = Tm.Drift.step ~role_drifters:3 d in
  let after = Tm.Drift.truth d in
  let changed = ref 0 in
  Array.iteri (fun i b -> if b <> after.(i) then incr changed) before;
  Alcotest.(check bool) "ground truth moved" true (!changed > 0)

let test_drift_rate_keeps_truth_and_support () =
  let rng = Rng.create 23 in
  let d = Tm.Drift.create ~rng (pipeline_tag ~tier:6 ()) in
  let e1 = Tm.Drift.step d in
  let before = Tm.Drift.truth d in
  let e2 = Tm.Drift.step ~rate_drifters:2 d in
  Alcotest.(check (array int)) "truth unchanged" before (Tm.Drift.truth d);
  Alcotest.(check bool) "rates changed" true (not (Csr.equal e1 e2));
  (* Same sparsity pattern: rate drift only re-rolls wobbles. *)
  Alcotest.(check int) "same nnz" (Csr.nnz e1) (Csr.nnz e2)

(* {1 Streaming engine: parity with the batch pipeline} *)

(* Push, then assert the incremental state against the from-scratch
   batch pipeline over the same window. *)
let push_verified s e =
  ignore (Stream.push s e);
  match Stream.verify s with
  | Ok () -> ()
  | Error msg ->
      Alcotest.failf "tick %d: %s" (Stream.ticks s - 1) msg

(* Every push is verified.  Returns the final stream for further
   assertions. *)
let run_checked ?config ?(tier = 12) ~seed steps =
  let rng = Rng.create seed in
  let tag = pipeline_tag ~tier () in
  let d = Tm.Drift.create ~rng tag in
  let s = Stream.create ?config ~n:(Tm.Drift.n_vms d) () in
  List.iter
    (fun (rate_drifters, role_drifters) ->
      push_verified s (Tm.Drift.step ~rate_drifters ~role_drifters d))
    steps;
  (s, d)

let test_checked_rate_churn () =
  let steps = List.init 12 (fun _ -> (2, 0)) in
  let s, d = run_checked ~seed:31 steps in
  Alcotest.(check int) "all epochs ingested" 12 (Stream.ticks s);
  let ami = Ami.ami (Stream.labels s) (Tm.Drift.truth d) in
  Alcotest.(check bool)
    (Printf.sprintf "labels track truth (AMI %.3f)" ami)
    true (ami > 0.9)

let test_checked_going_quiet () =
  (* Churn for a few ticks, then a long stationary tail: the dirty set
     empties and the incremental path must stay exact. *)
  let steps = List.init 4 (fun _ -> (3, 0)) @ List.init 8 (fun _ -> (0, 0)) in
  let s, _ = run_checked ~seed:32 steps in
  Alcotest.(check int) "all epochs ingested" 12 (Stream.ticks s)

let test_checked_window_slides_past_burst () =
  let rng = Rng.create 33 in
  let tag = pipeline_tag ~tier:8 () in
  let d = Tm.Drift.create ~rng tag in
  let base = Tm.Drift.step d in
  let burst = scale 2.5 base in
  let s = Stream.create ~n:(Tm.Drift.n_vms d) () in
  List.iter (push_verified s) [ base; base; burst; base; base; base; base; base ];
  (* Once the burst left the window, the mean is the stationary one. *)
  Alcotest.(check bool) "mean recovered after the burst" true
    (Csr.equal (Stream.mean s)
       (Tm.mean_csr (Tm.of_epochs [| base; base; base; base |])))

let test_checked_role_drift () =
  let steps =
    List.init 14 (fun i -> (1, if i > 3 && i mod 5 = 0 then 1 else 0))
  in
  let s, _ = run_checked ~seed:34 steps in
  Alcotest.(check int) "all epochs ingested" 14 (Stream.ticks s)

(* {1 Streaming engine: structure} *)

let test_stream_incremental_skips_work () =
  (* After warm-up, a stationary stream must not re-run the pipeline. *)
  let rng = Rng.create 41 in
  let d = Tm.Drift.create ~rng (pipeline_tag ~tier:8 ()) in
  let s = Stream.create ~n:(Tm.Drift.n_vms d) () in
  let e = Tm.Drift.step d in
  let last = ref None in
  for _ = 1 to 8 do
    last := Some (Stream.push s e)
  done;
  match !last with
  | None -> Alcotest.fail "no stats"
  | Some st ->
      Alcotest.(check bool) "not a full tick" false st.Stream.full;
      Alcotest.(check int) "no dirty rows" 0 st.Stream.dirty_rows;
      Alcotest.(check int) "no dirty vertices" 0 st.Stream.dirty_vertices;
      Alcotest.(check int) "nothing moved" 0 st.Stream.moved

let test_stream_tiny_rates () =
  (* Products of 1e-200 rates underflow to 0: the partial dots stay 0
     while their partners are touched again, which once overran the
     scatter's touched list. *)
  let n = 8 in
  let uniform x =
    Csr.of_dense (Array.init n (fun i -> Array.init n (fun j -> if i = j then 0. else x)))
  in
  let base = uniform 1e-200 in
  let s = Stream.create ~n () in
  for _ = 1 to 5 do
    push_verified s base
  done;
  let changed =
    Csr.of_dense
      (Array.init n (fun i ->
           Array.init n (fun j ->
               if i = j then 0. else if i = 0 then 3e-200 else 1e-200)))
  in
  let st = Stream.push s changed in
  Alcotest.(check bool) "incremental tick" false st.Stream.full;
  Alcotest.(check int) "every vertex dirty" n st.Stream.dirty_vertices;
  match Stream.verify s with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg

let test_stream_subnormal_window () =
  (* One 5e-324 cell over a 2-epoch window divides to 0.: the windowed
     mean and the mean mirrors must drop it, as [mean_csr] does.  The
     second push is a full tick while the window fills; later pushes
     change only row 0, so they patch the mirrors incrementally. *)
  let n = 8 in
  let epoch tiny =
    Csr.of_dense
      (Array.init n (fun i ->
           Array.init n (fun j ->
               if i = j then 0.
               else if i = 0 && j = 1 then if tiny then 5e-324 else 0.
               else if (i + j) mod 3 = 0 then 1. +. float_of_int i
               else 0.)))
  in
  let s = Stream.create ~config:{ Stream.default_config with window = 2 } ~n () in
  let full =
    List.map
      (fun tiny ->
        let st = Stream.push s (epoch tiny) in
        (match Stream.verify s with
        | Ok () -> ()
        | Error msg -> Alcotest.failf "tick %d: %s" st.Stream.tick msg);
        st.Stream.full)
      [ true; false; false; true; true; false; false ]
  in
  Alcotest.(check (list bool)) "full ticks only while the window fills"
    [ true; true; false; false; false; false; false ] full

let test_stream_accessors_before_push () =
  let s = Stream.create ~n:4 () in
  Alcotest.check_raises "labels before push"
    (Invalid_argument "Stream: no epochs ingested yet") (fun () ->
      ignore (Stream.labels s))

let test_stream_tag_matches_infer () =
  (* The streamed TAG equals guarantees_of_labels over the window. *)
  let rng = Rng.create 42 in
  let d = Tm.Drift.create ~rng (pipeline_tag ~tier:8 ()) in
  let s = Stream.create ~n:(Tm.Drift.n_vms d) () in
  for _ = 1 to 6 do
    ignore (Stream.push s (Tm.Drift.step ~rate_drifters:1 d))
  done;
  let tm = Tm.of_epochs (Stream.window_epochs s) in
  let reference = Infer.guarantees_of_labels tm (Stream.labels s) in
  Alcotest.(check bool) "same TAG" true (Tag.equal (Stream.tag s) reference)

let test_stream_domain_invariance () =
  (* The streamed state is bit-identical whatever the domain count used
     for the parallel similarity recomputation. *)
  let run domains =
    let rng = Rng.create 43 in
    let d = Tm.Drift.create ~rng (pipeline_tag ~tier:48 ()) in
    let s = Stream.create ~n:(Tm.Drift.n_vms d) () in
    let acc = ref [] in
    for i = 1 to 8 do
      let e = Tm.Drift.step ~rate_drifters:(if i mod 2 = 0 then 40 else 2) d in
      ignore (Stream.push ~domains s e);
      let _, peaks = Stream.peaks s in
      acc := (Stream.labels s, peaks) :: !acc
    done;
    List.rev !acc
  in
  let one = run 1 and four = run 4 in
  List.iter2
    (fun (l1, p1) (l4, p4) ->
      Alcotest.(check (array int)) "labels invariant" l1 l4;
      Alcotest.(check bool) "peaks bit-identical" true (p1 = p4))
    one four

let test_stream_batch_matches_incremental_on_stationary () =
  (* On a stationary stream the incremental ticks stay on the batch
     pipeline's labelling and peaks for the window. *)
  let rng = Rng.create 44 in
  let d = Tm.Drift.create ~rng (pipeline_tag ~tier:8 ()) in
  let e = Tm.Drift.step d in
  let s = Stream.create ~n:(Tm.Drift.n_vms d) () in
  for _ = 1 to 6 do
    ignore (Stream.push s e)
  done;
  let epochs = Stream.window_epochs s in
  let batch = Infer.infer (Tm.of_epochs epochs) in
  Alcotest.(check (array int)) "same labels" batch.Infer.labels
    (Stream.labels s);
  let _, peaks = Infer.component_peaks epochs batch.Infer.labels in
  Alcotest.(check bool) "same peaks" true (peaks = snd (Stream.peaks s))

(* The closed-loop benchmark's observed-tenant shape: a 1,024-VM ring of
   16 tiers of 64, every 4th tier with a self-loop, under 2 rate
   drifters per epoch and a role drifter every 4th epoch.  Every push
   past warm-up is verified against the batch pipeline, and the run is
   repeated with 1 and 2 domains: the parallel similarity pass (taken
   above 128 dirty vertices) must not change a label or a peak bit. *)
let test_stream_benchmark_shape () =
  let tiers = 16 and tier = 64 in
  let tag =
    Tag.create ~name:"ring-1024"
      ~components:(List.init tiers (fun i -> (Printf.sprintf "t%02d" i, tier)))
      ~edges:
        (List.concat
           (List.init tiers (fun i ->
                let chain = (i, (i + 1) mod tiers, 100., 100.) in
                if i mod 4 = 0 then [ chain; (i, i, 25., 25.) ] else [ chain ])))
      ()
  in
  let window = Stream.default_config.Stream.window and steady = 12 in
  let run domains =
    let d = Tm.Drift.create ~rng:(Rng.create 71) tag in
    let s = Stream.create ~n:(Tm.Drift.n_vms d) () in
    let incremental = ref 0 in
    let states =
      List.init (window + steady) (fun e ->
          let role_drifters = if (e + 1) mod 4 = 0 then 1 else 0 in
          let st =
            Stream.push ~domains s
              (Tm.Drift.step ~rate_drifters:2 ~role_drifters d)
          in
          if e >= window then begin
            (match Stream.verify s with
            | Ok () -> ()
            | Error msg ->
                Alcotest.failf "%d domains, tick %d: %s" domains e msg);
            if not st.Stream.full then incr incremental
          end;
          (Stream.labels s, Stream.peaks s))
    in
    (states, !incremental)
  in
  let one, inc1 = run 1 and two, inc2 = run 2 in
  Alcotest.(check int) "every steady tick incremental (1 domain)" steady inc1;
  Alcotest.(check int) "every steady tick incremental (2 domains)" steady inc2;
  List.iteri
    (fun e ((l1, (s1, p1)), (l2, (s2, p2))) ->
      Alcotest.(check (array int)) (Printf.sprintf "tick %d labels" e) l1 l2;
      Alcotest.(check (array int)) (Printf.sprintf "tick %d sizes" e) s1 s2;
      Alcotest.(check bool)
        (Printf.sprintf "tick %d peaks bit-identical" e)
        true (p1 = p2))
    (List.combine one two)

(* {1 Row-part cache} *)

(* A ring of [tiers] tiers of [tier] VMs, tier [i] sending to [i + 1],
   with a self-loop on the tiers [loops] selects. *)
let ring_tag ~tiers ~tier ~loops =
  Tag.create ~name:"ring"
    ~components:(List.init tiers (fun i -> (Printf.sprintf "t%02d" i, tier)))
    ~edges:
      (List.concat
         (List.init tiers (fun i ->
              let chain = (i, (i + 1) mod tiers, 100., 100.) in
              if loops.(i) then [ chain; (i, i, 25., 25.) ] else [ chain ])))
    ()

(* Random rings under seeded rate and role drift, with two bursts that
   dirty every row (so past [dirty_full]): full ticks, the cache rebuild
   on the next incremental tick, and incremental ticks patching the
   cache in place (rate drift) and structurally (role drift) all
   interleave.  [Stream.verify], which compares the row-part cache bit
   for bit against the batch mean, runs after every push, and 1 and 2
   domains must agree on every label and peak. *)
let prop_row_part_cache =
  QCheck.Test.make ~count:12
    ~name:"row-part cache verified every push, 1 and 2 domains agree"
    QCheck.(
      set_shrink Shrink.nil
        (triple (int_range 8 32) (int_range 8 12) (int_range 0 10_000)))
    (fun (tiers, tier, seed) ->
      let rng = Rng.create seed in
      let loops = Array.init tiers (fun _ -> Rng.uniform rng < 0.3) in
      let tag = ring_tag ~tiers ~tier ~loops in
      let n = tiers * tier in
      let window = Stream.default_config.Stream.window in
      let b1 = 5 + Rng.int rng 3 in
      let b2 = b1 + 5 + Rng.int rng 2 in
      (* A tick's dirty rows are those changed in the last [window]
         steps, so keeping the [window] steps after warm-up and after
         each burst quiet makes the tick that ends them incremental. *)
      let rebuilds = [ window; b1 + window; b2 + window ] in
      let quiet e = List.exists (fun r -> e > r - window && e <= r) rebuilds in
      let plan =
        List.init 20 (fun e ->
            if e = b1 || e = b2 then (n, 0)
            else if quiet e then (Rng.int rng 2, 0)
            else
              let role = if Rng.uniform rng < 0.3 then 1 + Rng.int rng 2 else 0 in
              (Rng.int rng 4, role))
      in
      let run domains =
        let d = Tm.Drift.create ~rng:(Rng.create seed) tag in
        let s = Stream.create ~n () in
        List.mapi
          (fun e (rate_drifters, role_drifters) ->
            let st =
              Stream.push ~domains s
                (Tm.Drift.step ~rate_drifters ~role_drifters d)
            in
            (match Stream.verify s with
            | Ok () -> ()
            | Error msg ->
                QCheck.Test.fail_reportf "%d domains, tick %d: %s" domains e msg);
            let full_expected =
              e < window
              || (e >= b1 && e < b1 + window)
              || (e >= b2 && e < b2 + window)
            in
            if full_expected && not st.Stream.full then
              QCheck.Test.fail_reportf "tick %d: expected a full tick" e;
            if List.mem e rebuilds && st.Stream.full then
              QCheck.Test.fail_reportf "tick %d: expected an incremental tick" e;
            (Stream.labels s, Stream.peaks s))
          plan
      in
      run 1 = run 2)

(* {1 Drift events} *)

let test_no_drift_events_when_stationary () =
  let rng = Rng.create 51 in
  let d = Tm.Drift.create ~rng (pipeline_tag ~tier:8 ()) in
  let s = Stream.create ~n:(Tm.Drift.n_vms d) () in
  let e = Tm.Drift.step d in
  for _ = 1 to 10 do
    ignore (Stream.push s e)
  done;
  Alcotest.(check int) "no events" 0 (List.length (Stream.drift_events s))

let test_drift_event_fires_on_role_burst () =
  let rng = Rng.create 52 in
  let d = Tm.Drift.create ~rng (pipeline_tag ~tier:8 ()) in
  let s = Stream.create ~n:(Tm.Drift.n_vms d) () in
  (* Stable warm-up... *)
  for _ = 1 to 6 do
    ignore (Stream.push s (Tm.Drift.step d))
  done;
  Alcotest.(check int) "quiet so far" 0 (List.length (Stream.drift_events s));
  (* ...then a burst of role changes: a fifth of the VMs change tier. *)
  let n = Tm.Drift.n_vms d in
  for _ = 1 to 4 do
    ignore (Stream.push s (Tm.Drift.step ~role_drifters:(n / 5) d))
  done;
  let events = Stream.drift_events s in
  Alcotest.(check bool)
    (Printf.sprintf "drift detected (%d events)" (List.length events))
    true
    (List.length events > 0);
  List.iter
    (fun (ev : Stream.event) ->
      Alcotest.(check bool) "tick in range" true (ev.at >= 6 && ev.at < 10))
    events

(* {1 Stale vs renegotiated guarantees, end to end} *)

let tree_spec =
  {
    Tree.degrees = [ 2; 4 ];
    slots_per_server = 8;
    server_up_mbps = 1000.;
    oversub = [ 4. ];
  }

let test_renegotiated_beats_stale () =
  (* A tenant's demand drifts up after being sold: enforcing the stale
     TAG leaves its pairs unprotected against congestion, while
     renegotiating to the drifted TAG restores the guarantees. *)
  let components = [ ("a", 6); ("b", 6) ] in
  let sold =
    Tag.create ~name:"sold" ~components ~edges:[ (0, 1, 40., 40.) ] ()
  in
  let actual =
    Tag.create ~name:"sold" ~components ~edges:[ (0, 1, 240., 240.) ] ()
  in
  let tree = Tree.create tree_spec in
  let sched = Cm.create tree in
  (* Place by the drifted demand so capacity exists; what varies is
     which TAG the enforcement partitions. *)
  let locations =
    match Cm.place sched (Types.request actual) with
    | Ok p -> p.Types.locations
    | Error e -> Alcotest.failf "placement failed: %s" (Types.reject_to_string e)
  in
  let run sold_tag =
    let rng = Rng.create 61 in
    E2e.evaluate_with_tags ~background_flows:150 ~rng ~tree
      ~tenants:[ (actual, sold_tag, locations) ]
      ~mode:E2e.Tag_protection ()
  in
  let stale = run sold and renegotiated = run actual in
  Alcotest.(check bool)
    (Printf.sprintf "stale violates (%d of %d)" stale.E2e.edges_violated
       stale.E2e.edges_total)
    true
    (stale.E2e.edges_violated > 0);
  Alcotest.(check bool)
    (Printf.sprintf "renegotiated (%d) <= stale (%d)"
       renegotiated.E2e.edges_violated stale.E2e.edges_violated)
    true
    (renegotiated.E2e.edges_violated <= stale.E2e.edges_violated);
  (* Captured before [evaluate_with_tags] shared [evaluate]'s pair
     evaluator. *)
  let digest (r : E2e.report) =
    Printf.sprintf "%d/%d/%d/%h" r.edges_total r.edges_violated r.flows
      r.mean_shortfall
  in
  Alcotest.(check string) "stale golden" "1/1/182/0x1.aaaaaaaaaaaabp-1"
    (digest stale);
  Alcotest.(check string) "renegotiated golden" "1/0/182/0x0p+0"
    (digest renegotiated)

let test_evaluate_with_tags_guards () =
  let tree = Tree.create tree_spec in
  let rng = Rng.create 62 in
  let t1 = Tag.create ~name:"x" ~components:[ ("a", 4) ] ~edges:[] () in
  let t2 = Tag.create ~name:"x" ~components:[ ("a", 5) ] ~edges:[] () in
  Alcotest.check_raises "vm count mismatch"
    (Invalid_argument "evaluate_with_tags: actual/sold VM count mismatch")
    (fun () ->
      ignore
        (E2e.evaluate_with_tags ~rng ~tree
           ~tenants:[ (t1, t2, [| [ (0, 4) ] |]) ]
           ~mode:E2e.Tag_protection ()))

let () =
  Alcotest.run "stream"
    [
      ( "window",
        [
          Alcotest.test_case "skips constant rows" `Quick
            test_window_skips_constant_rows;
          Alcotest.test_case "eviction dirties rows" `Quick
            test_window_eviction_dirties_rows;
        ] );
      ( "refine",
        [
          Alcotest.test_case "repairs perturbation" `Quick
            test_refine_seeded_repairs_perturbation;
          Alcotest.test_case "stable on optimum" `Quick
            test_refine_seeded_stable_on_optimum;
          Alcotest.test_case "modularity accessor" `Quick
            test_modularity_matches_oracle;
        ] );
      ( "drift-gen",
        [
          Alcotest.test_case "stationary bit-identical" `Quick
            test_drift_stationary_is_bit_identical;
          Alcotest.test_case "role drift moves truth" `Quick
            test_drift_role_moves_truth;
          Alcotest.test_case "rate drift keeps structure" `Quick
            test_drift_rate_keeps_truth_and_support;
        ] );
      ( "checked",
        [
          Alcotest.test_case "rate churn" `Quick test_checked_rate_churn;
          Alcotest.test_case "going quiet" `Quick test_checked_going_quiet;
          Alcotest.test_case "window slides past burst" `Quick
            test_checked_window_slides_past_burst;
          Alcotest.test_case "role drift" `Quick test_checked_role_drift;
        ] );
      ( "engine",
        [
          Alcotest.test_case "stationary skips work" `Quick
            test_stream_incremental_skips_work;
          Alcotest.test_case "accessors guarded" `Quick
            test_stream_accessors_before_push;
          Alcotest.test_case "tag matches infer" `Quick
            test_stream_tag_matches_infer;
          Alcotest.test_case "domain invariance" `Quick
            test_stream_domain_invariance;
          Alcotest.test_case "batch matches incremental" `Quick
            test_stream_batch_matches_incremental_on_stationary;
          Alcotest.test_case "benchmark shape, 1 and 2 domains" `Quick
            test_stream_benchmark_shape;
          Alcotest.test_case "tiny rates stay incremental" `Quick
            test_stream_tiny_rates;
          Alcotest.test_case "subnormal cell over a 2-epoch window" `Quick
            test_stream_subnormal_window;
        ] );
      ( "drift-events",
        [
          Alcotest.test_case "stationary is quiet" `Quick
            test_no_drift_events_when_stationary;
          Alcotest.test_case "role burst fires" `Quick
            test_drift_event_fires_on_role_burst;
        ] );
      ( "renegotiation",
        [
          Alcotest.test_case "renegotiated beats stale" `Quick
            test_renegotiated_beats_stale;
          Alcotest.test_case "guards" `Quick test_evaluate_with_tags_guards;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_window_mean_bitwise; prop_row_part_cache ] );
    ]
