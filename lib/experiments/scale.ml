(* The scale benchmarks: placement, enforcement and inference hot paths
   timed at and beyond the paper's sizes, each with its correctness
   checks enforced in-process.  Results are exported as [bench.*] gauges
   (read by scripts/gates/*.py) and registered only when a section runs,
   so a metrics document carries only the sections it ran. *)

module Table = Cm_util.Table
module Par = Cm_util.Par
module Metrics = Cm_obs.Metrics
module Series = Cm_obs.Series
module Span = Cm_obs.Span

let time ?(runs = 1) f =
  let once () =
    let t0 = Monotonic_clock.now () in
    let r = f () in
    (Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) /. 1e9, r)
  in
  let best = ref (once ()) in
  for _ = 2 to runs do
    let ((wall, _) as run) = once () in
    if wall < fst !best then best := run
  done;
  !best

let gauge name v = Metrics.set (Metrics.gauge name) v
let flag b = if b then 1. else 0.

let bing_pool seed =
  Cm_workload.Pool.scale_to_bmax
    (Cm_workload.Pool.bing_like ~seed ())
    ~bmax:800.

(* Place/release hot path at fig-8 scale: one simulated arrival/departure
   point on the paper's 2048-server datacenter with the CM scheduler.
   Each arrival is one [place], each departure one [release]; the run
   reports the sustained decision throughput and the wall time of the
   whole simulated point (best of 3 runs). *)
let placement ~seed ~arrivals =
  let pool = bing_pool seed in
  let run_once () =
    let tree = Cm_topology.Tree.create_default () in
    let sched = Cm_sim.Driver.cm tree in
    let cfg =
      {
        Cm_sim.Runner.default_config with
        seed;
        n_arrivals = arrivals;
        load = 0.9;
      }
    in
    Cm_sim.Runner.run sched tree pool cfg
  in
  let wall, r = time ~runs:3 run_once in
  (* Every arrival is a placement decision; every accepted tenant also
     departs (the runner drains the queue), so the hot path executes
     [arrivals] places plus [accepted] releases. *)
  let ops = r.Cm_sim.Runner.arrivals + r.Cm_sim.Runner.accepted in
  let tenants_per_sec = float_of_int r.Cm_sim.Runner.arrivals /. wall in
  let ops_per_sec = float_of_int ops /. wall in
  gauge "bench.placement.tenants_per_sec" tenants_per_sec;
  gauge "bench.placement.ops_per_sec" ops_per_sec;
  gauge "bench.placement.fig8_point_wall_s" wall;
  gauge "bench.placement.arrivals" (float_of_int r.Cm_sim.Runner.arrivals);
  let t =
    Table.create
      ~caption:
        (Printf.sprintf
           "Placement hot path: CM place/release churn on the default \
            2048-server tree (load 0.9, Bmax 800, seed %d; best of 3 \
            interleaved runs)"
           seed)
      [ ("metric", Table.Left); ("value", Table.Right) ]
  in
  Table.add_row t [ "arrivals (place calls)"; string_of_int r.arrivals ];
  Table.add_row t [ "accepted (release calls)"; string_of_int r.accepted ];
  Table.add_row t [ "fig8-point wall time (s)"; Printf.sprintf "%.3f" wall ];
  Table.add_row t
    [ "placement decisions/sec"; Printf.sprintf "%.0f" tenants_per_sec ];
  Table.add_row t
    [ "place+release ops/sec"; Printf.sprintf "%.0f" ops_per_sec ];
  Table.add_row t
    [
      "mean time per decision";
      Printf.sprintf "%.1f us" (1e6 *. wall /. float_of_int r.arrivals);
    ];
  [ t ]

(* Region-scale placement sweep: the same simulated arrival/departure
   point at 2,048 -> 131,072 servers through the sequential scheduler
   (FindLowestSubtree on the incremental availability index) and the
   pod-sharded epoch-batched path.  After every run the index must
   match a from-scratch rebuild ([Tree.index_verify]), and the batched
   run must be bit-identical at jobs 1 vs the session's jobs count.
   Per-size gauges are keyed by server count. *)
let scale_specs =
  [
    (2_048, [ 8; 16; 16 ], [ 4.; 8. ]);
    (8_192, [ 4; 8; 16; 16 ], [ 4.; 8.; 4. ]);
    (32_768, [ 16; 8; 16; 16 ], [ 4.; 8.; 4. ]);
    (131_072, [ 64; 8; 16; 16 ], [ 4.; 8.; 4. ]);
  ]

let placement_scale ~seed ~arrivals =
  let module Tree = Cm_topology.Tree in
  let module Runner = Cm_sim.Runner in
  let module Shard = Cm_placement.Shard in
  let pool = bing_pool seed in
  let digest (r : Runner.result) =
    Printf.sprintf "%d/%d/%d/%d/%d/%d/%d/%.3f/%.3f/%.6f/%d/%.6f" r.arrivals
      r.accepted r.rejected r.rejected_no_slots r.rejected_no_bw r.offered_vms
      r.rejected_vms r.offered_bw r.rejected_bw r.mean_utilization
      (Array.length r.wcs_per_component)
      (Array.fold_left ( +. ) 0. r.wcs_per_component)
  in
  let cfg =
    { Runner.default_config with seed; n_arrivals = arrivals; load = 0.9 }
  in
  let make_tree degrees oversub =
    Tree.create { Tree.default_spec with degrees; oversub }
  in
  let t =
    Table.create
      ~caption:
        (Printf.sprintf
           "Region-scale placement: availability index vs pod-sharded \
            batching (load 0.9, Bmax 800, seed %d, %d arrivals per size, \
            batch jobs %d)"
           seed arrivals (Par.default_domains ()))
      [
        ("servers", Table.Right);
        ("indexed dec/s", Table.Right);
        ("batched dec/s", Table.Right);
        ("index verified", Table.Right);
      ]
  in
  let index_verified = ref true in
  let jobs_invariant = ref true in
  let servers_max = ref 0 in
  List.iter
    (fun (servers, degrees, oversub) ->
      let size_gauge fmt v =
        gauge (Printf.sprintf "bench.placement_scale.%s.%d" fmt servers) v
      in
      let verified = ref true in
      let check_index tree =
        if not (Tree.index_verify tree) then verified := false
      in
      let idx_wall =
        let tree = make_tree degrees oversub in
        let sched = Cm_sim.Driver.cm tree in
        let wall, _ = time (fun () -> Runner.run sched tree pool cfg) in
        check_index tree;
        wall
      in
      let batched_run () =
        let tree = make_tree degrees oversub in
        let shard = Shard.create tree in
        let r = time (fun () -> Runner.run_batched shard pool cfg) in
        let stats = Tree.index_stats tree in
        check_index tree;
        (r, stats)
      in
      let (bat_wall, bat_r), (marks, cleans) = batched_run () in
      let saved_jobs = Par.default_domains () in
      Par.set_default_domains 1;
      let (_, bat_r1), _ =
        Fun.protect
          ~finally:(fun () -> Par.set_default_domains saved_jobs)
          batched_run
      in
      if digest bat_r <> digest bat_r1 then jobs_invariant := false;
      if not !verified then begin
        index_verified := false;
        Printf.printf "!! index diverged from a rebuild at %d servers\n"
          servers
      end;
      let dps wall = float_of_int cfg.Runner.n_arrivals /. wall in
      size_gauge "indexed_dps" (dps idx_wall);
      size_gauge "batched_dps" (dps bat_wall);
      size_gauge "index_marks" (float_of_int marks);
      size_gauge "index_cleans" (float_of_int cleans);
      if Series.enabled () then begin
        let x = float_of_int servers in
        Series.sample_named "placement_scale.indexed_dps" ~x (dps idx_wall);
        Series.sample_named "placement_scale.batched_dps" ~x (dps bat_wall)
      end;
      servers_max := servers;
      Table.add_row t
        [
          string_of_int servers;
          Printf.sprintf "%.0f" (dps idx_wall);
          Printf.sprintf "%.0f" (dps bat_wall);
          (if !verified then "yes" else "NO");
        ])
    scale_specs;
  gauge "bench.placement_scale.servers_max" (float_of_int !servers_max);
  gauge "bench.placement_scale.index_verified" (flag !index_verified);
  gauge "bench.placement_scale.jobs_invariant" (flag !jobs_invariant);
  if not !index_verified then
    failwith "placement-scale: availability index diverged from a rebuild";
  if not !jobs_invariant then
    failwith "placement-scale: batched placement is not jobs-invariant";
  [ t ]

(* Enforcement control loop: one big two-tier tenant with every src VM
   talking to every dst VM (10k+ concurrent flows over 3-link paths),
   driven for a fixed number of control periods through the
   epoch-compiled array loop (Runtime.run). *)
let enforce ~seed:_ ~arrivals:_ =
  let module Runtime = Cm_enforce.Runtime in
  let module Elastic = Cm_enforce.Elastic in
  let module Maxmin = Cm_enforce.Maxmin in
  let n_src = 128 and n_dst = 80 in
  let src_racks = 32 and cores = 16 and dst_racks = 32 in
  let periods = 50 in
  let tag =
    Cm_tag.Tag.create ~name:"bench-enforce"
      ~components:[ ("front", n_src); ("back", n_dst) ]
      ~edges:[ (0, 1, 1000., 1000.) ]
      ()
  in
  (* Flow (i, j): rack uplink, a core link, destination rack downlink. *)
  let flows =
    List.concat
      (List.init n_src (fun i ->
           List.init n_dst (fun j ->
               {
                 Runtime.pair =
                   {
                     Elastic.src = { Elastic.comp = 0; vm = i };
                     dst = { Elastic.comp = 1; vm = j };
                   };
                 path =
                   [
                     i mod src_racks;
                     src_racks + ((i + j) mod cores);
                     src_racks + cores + (j mod dst_racks);
                   ];
                 demand = infinity;
               })))
  in
  let n_flows = List.length flows in
  let links =
    List.init
      (src_racks + cores + dst_racks)
      (fun id ->
        let capacity =
          if id >= src_racks && id < src_racks + cores then 40_000.
          else 10_000.
        in
        { Maxmin.link_id = id; capacity })
  in
  let wall, _ =
    time ~runs:3 (fun () ->
        let rt = Runtime.create ~tag ~enforcement:Elastic.Tag_gp ~links () in
        Runtime.run rt ~flows ~periods)
  in
  let period_us = 1e6 *. wall /. float_of_int periods in
  gauge "bench.enforce.flows" (float_of_int n_flows);
  gauge "bench.enforce.links" (float_of_int (List.length links));
  gauge "bench.enforce.periods" (float_of_int periods);
  gauge "bench.enforce.period_us_new" period_us;
  let t =
    Table.create
      ~caption:
        (Printf.sprintf
           "Enforcement control loop: %d backlogged flows (%dx%d all-pairs \
            trunk) over %d links, %d control periods (best of 3)"
           n_flows n_src n_dst (List.length links) periods)
      [ ("metric", Table.Left); ("value", Table.Right) ]
  in
  Table.add_row t [ "flows"; string_of_int n_flows ];
  Table.add_row t [ "links"; string_of_int (List.length links) ];
  Table.add_row t [ "control periods"; string_of_int periods ];
  Table.add_row t [ "period"; Printf.sprintf "%.0f us" period_us ];
  [ t ]

(* Million-flow steady-state enforcement: the persistent incremental
   max-min solver (Maxmin.Inc) races the from-scratch oracle
   (Maxmin.with_guarantees) across a seeded churn trace over a pod-local
   flow population.  Each pod is an independent sharing component (4
   links, 2-link paths), so a churn delta touching d% of the pods dirties
   ~d% of the components and the incremental re-converge cost scales
   with the delta, not the population.  Every epoch the incremental
   rates are compared bitwise against the oracle, and a second solver
   replays the same trace at 1 domain to pin jobs invariance; the
   section fails loudly on either divergence.  Below 10,000 arrivals it
   runs the fast sizes. *)
let enforce_scale ~seed ~arrivals =
  let module Maxmin = Cm_enforce.Maxmin in
  let fast = arrivals < 10_000 in
  let sizes =
    if fast then [ 10_240; 40_960 ] else [ 10_240; 102_400; 1_024_000 ]
  in
  let churn_epochs = if fast then 4 else 6 in
  let flows_per_pod = 40 and links_per_pod = 4 in
  let bits = Int64.bits_of_float in
  let t =
    Table.create
      ~caption:
        (Printf.sprintf
           "Steady-state enforcement at scale: incremental max-min \
            (Maxmin.Inc) vs from-scratch oracle across %d churn epochs \
            (1%%/10%% of pods per epoch, %d flows per pod, seed %d, jobs %d)"
           churn_epochs flows_per_pod seed (Par.default_domains ()))
      [
        ("flows", Table.Right);
        ("pods", Table.Right);
        ("cold/epoch", Table.Right);
        ("inc/epoch", Table.Right);
        ("speedup", Table.Right);
        ("resolved", Table.Right);
        ("oracle", Table.Right);
      ]
  in
  let oracle_match = ref true and jobs_invariant = ref true in
  let speedup_top = ref 0. and flows_max = ref 0 in
  List.iter
    (fun n_flows ->
      let n_pods = n_flows / flows_per_pod in
      let n_links = n_pods * links_per_pod in
      let links =
        List.init n_links (fun id -> { Maxmin.link_id = id; capacity = 10_000. })
      in
      (* Demands are the churned state; paths and guarantees are a pure
         function of the flow id (guarantees sum to at most 3000 Mbps on
         any link, always feasible). *)
      let fresh_demand k = function
        | true -> infinity
        | false -> 150. +. (float_of_int (k mod 7) *. 10.)
      in
      let demands =
        Array.init n_flows (fun id -> fresh_demand id (id mod 3 <> 0))
      in
      let present = Array.make n_flows true in
      let mk_flow id =
        let pod = id / flows_per_pod and k = id mod flows_per_pod in
        let base = pod * links_per_pod in
        {
          Maxmin.flow_id = id;
          path =
            [ base + (k mod links_per_pod); base + ((k + 1) mod links_per_pod) ];
          demand = demands.(id);
          guarantee = 50. +. (float_of_int (k mod 5) *. 25.);
        }
      in
      let inc = Maxmin.Inc.create ~links in
      let inc1 = Maxmin.Inc.create ~links in
      let apply id =
        if present.(id) then begin
          Maxmin.Inc.set inc (mk_flow id);
          Maxmin.Inc.set inc1 (mk_flow id)
        end
        else begin
          Maxmin.Inc.remove inc id;
          Maxmin.Inc.remove inc1 id
        end
      in
      for id = 0 to n_flows - 1 do
        apply id
      done;
      (* Initial population: both engines start cold, outside the timed
         churn epochs. *)
      Maxmin.Inc.solve ~domains:(Par.default_domains ()) inc;
      Maxmin.Inc.solve ~domains:1 inc1;
      let rng = Random.State.make [| seed; n_flows |] in
      let churn_pods frac =
        let n_touch = max 1 (int_of_float (frac *. float_of_int n_pods)) in
        for _ = 1 to n_touch do
          let pod = Random.State.int rng n_pods in
          for k = 0 to flows_per_pod - 1 do
            let id = (pod * flows_per_pod) + k in
            let r = Random.State.float rng 1.0 in
            if present.(id) && r < 0.15 then present.(id) <- false
            else if (not present.(id)) && r < 0.5 then begin
              present.(id) <- true;
              demands.(id) <- fresh_demand k (Random.State.bool rng)
            end
            else if present.(id) && r < 0.6 then
              demands.(id) <- fresh_demand k (Random.State.bool rng);
            apply id
          done
        done
      in
      let cold_total = ref 0. and inc_total = ref 0. in
      let resolved_frac = ref 0. in
      for epoch = 1 to churn_epochs do
        churn_pods (if epoch mod 2 = 1 then 0.01 else 0.10);
        let inc_wall, () =
          time (fun () ->
              Maxmin.Inc.solve ~domains:(Par.default_domains ()) inc)
        in
        Maxmin.Inc.solve ~domains:1 inc1;
        let stats = Maxmin.Inc.last_stats inc in
        resolved_frac :=
          !resolved_frac
          +. float_of_int stats.Maxmin.Inc.flows_resolved
             /. float_of_int (max 1 stats.Maxmin.Inc.flows_total);
        let flows =
          List.filteri (fun id _ -> present.(id)) (List.init n_flows mk_flow)
        in
        let cold_wall, oracle =
          time (fun () -> Maxmin.with_guarantees ~links ~flows)
        in
        cold_total := !cold_total +. cold_wall;
        inc_total := !inc_total +. inc_wall;
        Array.iter
          (fun (id, rate) ->
            if bits (Maxmin.Inc.rate inc id) <> bits rate then begin
              oracle_match := false;
              Printf.printf
                "!! oracle mismatch at %d flows, epoch %d, flow %d: inc \
                 %.17g oracle %.17g\n"
                n_flows epoch id
                (Maxmin.Inc.rate inc id)
                rate
            end;
            if bits (Maxmin.Inc.rate inc1 id) <> bits rate then
              jobs_invariant := false)
          oracle
      done;
      let cold_us = 1e6 *. !cold_total /. float_of_int churn_epochs in
      let inc_us = 1e6 *. !inc_total /. float_of_int churn_epochs in
      let speedup = cold_us /. inc_us in
      let resolved = !resolved_frac /. float_of_int churn_epochs in
      let size_gauge fmt v =
        gauge (Printf.sprintf "bench.enforce_scale.%s.%d" fmt n_flows) v
      in
      size_gauge "cold_us" cold_us;
      size_gauge "inc_us" inc_us;
      size_gauge "speedup" speedup;
      size_gauge "resolved_frac" resolved;
      if Series.enabled () then begin
        let x = float_of_int n_flows in
        Series.sample_named "enforce_scale.speedup" ~x speedup;
        Series.sample_named "enforce_scale.inc_us" ~x inc_us;
        Series.sample_named "enforce_scale.cold_us" ~x cold_us
      end;
      speedup_top := speedup;
      flows_max := n_flows;
      Table.add_row t
        [
          string_of_int n_flows;
          string_of_int n_pods;
          Printf.sprintf "%.0f us" cold_us;
          Printf.sprintf "%.0f us" inc_us;
          Printf.sprintf "%.1fx" speedup;
          Printf.sprintf "%.1f%%" (100. *. resolved);
          (if !oracle_match then "yes" else "NO");
        ])
    sizes;
  gauge "bench.enforce_scale.flows_max" (float_of_int !flows_max);
  gauge "bench.enforce_scale.speedup_top" !speedup_top;
  gauge "bench.enforce_scale.oracle_match" (flag !oracle_match);
  gauge "bench.enforce_scale.jobs_invariant" (flag !jobs_invariant);
  if not !oracle_match then
    failwith "enforce-scale: incremental solver diverged from the oracle";
  if not !jobs_invariant then
    failwith "enforce-scale: incremental solve is not jobs-invariant";
  [ t ]

(* TAG-inference hot path: an 8-tier pipeline tenant at
   n ∈ {128, 512, 1024} VMs, traffic generated sparsely, then the
   production entry point [Infer.infer] (mean_csr -> projection_csr ->
   Louvain over adjacency rows -> guarantees), best of 3.  Each size
   prints its label digest, which must not move when the pipeline is
   rewritten (the test suite checks the labels bit for bit against the
   dense oracle), and the AMI against the generator's truth.  The
   unsuffixed gauges are taken at the largest size. *)
let inference ~seed ~arrivals:_ =
  let module Csr = Cm_util.Csr in
  let module Tm = Cm_inference.Traffic_matrix in
  let module Infer = Cm_inference.Infer in
  let pipeline_tag n =
    let tiers = 8 in
    let per = n / tiers in
    let components =
      List.init tiers (fun t -> (Printf.sprintf "tier%d" t, per))
    in
    let edges =
      List.init (tiers - 1) (fun t -> (t, t + 1, 100., 100.))
      @ [ (0, 0, 50., 50.) ]
    in
    Cm_tag.Tag.create ~name:(Printf.sprintf "bench-infer-%d" n) ~components
      ~edges ()
  in
  let digest labels =
    Array.fold_left (fun h l -> (h * 1_000_003) + l + 1) 17 labels
  in
  let t =
    Table.create
      ~caption:
        (Printf.sprintf
           "Inference hot path: Infer.infer (mean -> similarity projection \
            -> Louvain -> guarantees) of an 8-tier pipeline tenant (8 \
            epochs, noise 0.005, seed %d; best of 3)"
           seed)
      [
        ("VMs", Table.Right);
        ("traffic nnz", Table.Right);
        ("density", Table.Right);
        ("infer (ms)", Table.Right);
        ("comps", Table.Right);
        ("AMI", Table.Right);
        ("label digest", Table.Right);
      ]
  in
  List.iter
    (fun n ->
      let rng = Cm_util.Rng.create (seed + n) in
      let tm =
        Span.with_ "inference.generate" (fun () ->
            Tm.generate ~noise_prob:0.005 ~rng (pipeline_tag n))
      in
      let wall, r = time ~runs:3 (fun () -> Infer.infer tm) in
      let ami = Option.get r.Infer.ami_vs_truth in
      let nnz =
        Array.fold_left (fun acc e -> acc + Csr.nnz e) 0 tm.Tm.epochs
      in
      let density =
        float_of_int nnz /. float_of_int (n * n * Array.length tm.Tm.epochs)
      in
      gauge "bench.inference.n_vms" (float_of_int n);
      gauge "bench.inference.traffic_nnz" (float_of_int nnz);
      gauge "bench.inference.traffic_density" density;
      gauge "bench.inference.csr_ms" (1e3 *. wall);
      gauge (Printf.sprintf "bench.inference.ami.%d" n) ami;
      Table.add_row t
        [
          string_of_int n;
          string_of_int nnz;
          Printf.sprintf "%.1f%%" (100. *. density);
          Printf.sprintf "%.2f" (1e3 *. wall);
          string_of_int r.Infer.n_components;
          Printf.sprintf "%.4f" ami;
          Printf.sprintf "%016x" (digest r.Infer.labels);
        ])
    [ 128; 512; 1024 ];
  [ t ]

(* Streaming TAG inference: the incremental engine (Cm_inference.Stream)
   ingesting drifting traffic epochs, raced per epoch against the
   from-scratch pipeline (windowed mean -> projection -> Louvain ->
   guarantee peaks) on the identical window.  The workload is a ring of
   64-VM tiers under structured drift (2 rate drifters per epoch, one
   role change every 4th) — the steady-state regime where most rows are
   constant tick over tick.  In-process gates: parity with the
   from-scratch pipeline (bitwise mean / projection / peaks, AMI parity
   on labels), bitwise jobs-invariance of the streamed state, a run at
   the smallest size with [Stream.verify] after every push, and the
   >= 5x per-epoch speedup bar at 16,384 VMs on full runs (10,000
   arrivals or more; fewer run the fast sizes). *)
let inference_stream ~seed ~arrivals =
  let module Csr = Cm_util.Csr in
  let module Tm = Cm_inference.Traffic_matrix in
  let module Similarity = Cm_inference.Similarity in
  let module Louvain = Cm_inference.Louvain in
  let module Infer = Cm_inference.Infer in
  let module Stream = Cm_inference.Stream in
  let module Ami = Cm_inference.Ami in
  let fast = arrivals < 10_000 in
  let sizes = if fast then [ 1_024; 4_096 ] else [ 1_024; 4_096; 16_384 ] in
  let tier = 64 in
  let steady_epochs = 8 in
  let cfg = Stream.default_config in
  let window = cfg.Stream.window in
  let ring_tag n =
    let nc = n / tier in
    let components =
      List.init nc (fun i -> (Printf.sprintf "t%03d" i, tier))
    in
    let edges =
      List.concat
        (List.init nc (fun i ->
             let chain = (i, (i + 1) mod nc, 100., 100.) in
             if i mod 4 = 0 then [ chain; (i, i, 25., 25.) ] else [ chain ]))
    in
    Cm_tag.Tag.create ~name:(Printf.sprintf "stream-%d" n) ~components ~edges
      ()
  in
  let t =
    Table.create
      ~caption:
        (Printf.sprintf
           "Streaming TAG inference: incremental engine vs from-scratch \
            pipeline per epoch over a %d-epoch window (%d steady epochs, 2 \
            rate + periodic role drifters, seed %d, jobs %d)"
           window steady_epochs seed (Par.default_domains ()))
      [
        ("VMs", Table.Right);
        ("comps", Table.Right);
        ("cold/epoch", Table.Right);
        ("inc/epoch", Table.Right);
        ("speedup", Table.Right);
        ("dirty", Table.Right);
        ("events", Table.Right);
        ("parity", Table.Right);
      ]
  in
  let parity = ref true and jobs_invariant = ref true in
  let ami_min = ref 1. in
  let speedup_last = ref 0. and n_max = ref 0 in
  List.iter
    (fun n ->
      let tag = ring_tag n in
      let rng = Cm_util.Rng.create (seed + n) in
      let d = Tm.Drift.create ~rng tag in
      let prefix = Printf.sprintf "infer.stream.%d" n in
      let s = Stream.create ~series_prefix:prefix ~n () in
      let s1 = Stream.create ~n () in
      (* Warm-up: the window fills on full-pipeline ticks. *)
      for _ = 1 to window do
        let e = Tm.Drift.step ~rate_drifters:2 d in
        ignore (Stream.push s e);
        ignore (Stream.push ~domains:1 s1 e)
      done;
      let cold_total = ref 0. and inc_total = ref 0. in
      let dirty_total = ref 0. and events = ref 0 in
      for epoch = 1 to steady_epochs do
        let role = if epoch mod 4 = 0 then 1 else 0 in
        let e = Tm.Drift.step ~rate_drifters:2 ~role_drifters:role d in
        let inc_wall, st = time (fun () -> Stream.push s e) in
        ignore (Stream.push ~domains:1 s1 e);
        inc_total := !inc_total +. inc_wall;
        dirty_total :=
          !dirty_total
          +. (float_of_int st.Stream.dirty_vertices /. float_of_int n);
        if st.Stream.drift <> None then incr events;
        (* From-scratch race on the identical window contents. *)
        let epochs = Stream.window_epochs s in
        let cold_wall, cold_labels =
          time (fun () ->
              let tmw = Tm.of_epochs epochs in
              let mean = Tm.mean_csr tmw in
              let graph = Similarity.projection_csr mean in
              let labels = Louvain.cluster (Louvain.of_csr graph) in
              ignore (Infer.component_peaks epochs labels);
              labels)
        in
        cold_total := !cold_total +. cold_wall;
        (* Parity with the from-scratch pipeline, enforced in-process. *)
        let mean_ref = Tm.mean_csr (Tm.of_epochs epochs) in
        if not (Csr.equal (Stream.mean s) mean_ref) then begin
          Printf.printf "!! mean diverged at n=%d epoch %d\n" n epoch;
          parity := false
        end;
        if
          not
            (Csr.equal (Stream.projection s)
               (Similarity.projection_csr mean_ref))
        then begin
          Printf.printf "!! projection diverged at n=%d epoch %d\n" n epoch;
          parity := false
        end;
        let slabels = Stream.labels s in
        if st.Stream.full || st.Stream.fallback then begin
          if slabels <> cold_labels then begin
            Printf.printf "!! full-tick labels diverged at n=%d epoch %d\n" n
              epoch;
            parity := false
          end
        end
        else begin
          let a = Ami.ami slabels cold_labels in
          if a < !ami_min then ami_min := a;
          if a < cfg.Stream.ami_parity then begin
            Printf.printf "!! label AMI %.3f below parity at n=%d epoch %d\n" a
              n epoch;
            parity := false
          end
        end;
        let ssizes, speaks = Stream.peaks s in
        let ref_sizes, ref_peaks = Infer.component_peaks epochs slabels in
        if ssizes <> ref_sizes || speaks <> ref_peaks then begin
          Printf.printf "!! guarantee peaks diverged at n=%d epoch %d\n" n
            epoch;
          parity := false
        end;
        if Stream.labels s1 <> slabels || snd (Stream.peaks s1) <> speaks then
          jobs_invariant := false
      done;
      let cold_ms = 1e3 *. !cold_total /. float_of_int steady_epochs in
      let inc_ms = 1e3 *. !inc_total /. float_of_int steady_epochs in
      let speedup = cold_ms /. inc_ms in
      let dirty = !dirty_total /. float_of_int steady_epochs in
      let size_gauge fmt v =
        gauge (Printf.sprintf "bench.inference_stream.%s.%d" fmt n) v
      in
      size_gauge "cold_ms" cold_ms;
      size_gauge "inc_ms" inc_ms;
      size_gauge "speedup" speedup;
      size_gauge "dirty_frac" dirty;
      size_gauge "drift_events" (float_of_int !events);
      if Series.enabled () then begin
        let x = float_of_int n in
        Series.sample_named "inference_stream.speedup" ~x speedup;
        Series.sample_named "inference_stream.inc_ms" ~x inc_ms;
        Series.sample_named "inference_stream.cold_ms" ~x cold_ms
      end;
      speedup_last := speedup;
      n_max := n;
      Table.add_row t
        [
          string_of_int n;
          string_of_int (n / tier);
          Printf.sprintf "%.1f ms" cold_ms;
          Printf.sprintf "%.2f ms" inc_ms;
          Printf.sprintf "%.1fx" speedup;
          Printf.sprintf "%.1f%%" (100. *. dirty);
          string_of_int !events;
          (if !parity then "yes" else "NO");
        ])
    sizes;
  (* At the smallest size, verify every push against the from-scratch
     pipeline (Stream.verify), stopping at the first divergence. *)
  let checked_ok =
    let n = List.hd sizes in
    let rng = Cm_util.Rng.create (seed + 1) in
    let d = Tm.Drift.create ~rng (ring_tag n) in
    let s = Stream.create ~n () in
    let rec go epoch =
      epoch > window + 4
      ||
      let role = if epoch = window + 2 then 1 else 0 in
      ignore
        (Stream.push s (Tm.Drift.step ~rate_drifters:2 ~role_drifters:role d));
      match Stream.verify s with
      | Ok () -> go (epoch + 1)
      | Error msg ->
          Printf.printf "!! %s\n" msg;
          false
    in
    go 1
  in
  gauge "bench.inference_stream.n_vms_max" (float_of_int !n_max);
  gauge "bench.inference_stream.parity" (flag !parity);
  gauge "bench.inference_stream.checked_ok" (flag checked_ok);
  gauge "bench.inference_stream.ami_min" !ami_min;
  gauge "bench.inference_stream.jobs_invariant" (flag !jobs_invariant);
  gauge "bench.inference_stream.speedup_top" !speedup_last;
  if not !parity then
    failwith "inference-stream: incremental state diverged from cold";
  if not !jobs_invariant then
    failwith "inference-stream: streamed state is not jobs-invariant";
  if not checked_ok then
    failwith "inference-stream: Stream.verify failed on the checked run";
  if (not fast) && !n_max >= 16_384 && !speedup_last < 5. then
    failwith
      (Printf.sprintf
         "inference-stream: %.1fx per-epoch speedup at %d VMs is below the \
          5x bar"
         !speedup_last !n_max);
  [ t ]

(* Span labels take the section name with dashes as underscores
   ("section.placement_scale"), the names the CI gates read. *)
let sections ~seed ~arrivals =
  [
    ("placement", placement);
    ("placement-scale", placement_scale);
    ("enforce", enforce);
    ("enforce-scale", enforce_scale);
    ("inference", inference);
    ("inference-stream", inference_stream);
  ]
  |> List.map (fun (name, run) ->
         let label =
           "section." ^ String.map (function '-' -> '_' | c -> c) name
         in
         (name, fun () -> Span.with_ label (fun () -> run ~seed ~arrivals)))
