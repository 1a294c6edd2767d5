(* One seeded closed control loop through the public entry point of
   every CloudMirror stage:

     1. departures        Shard.release
     2. arrivals          Shard.place_batch
     3. observation       Stream.push, one call per observed tenant
     4. renegotiation     Stream.tag, Shard.release, Shard.place
     5. enforcement       Elastic.pair_guarantees Tag_gp, Maxmin.Inc.set /
                          remove for every tenant whose placement changed,
                          then one Maxmin.Inc.solve

   The workload generator (arrival draws, lifetimes, pair-sampling seeds,
   Traffic_matrix.Drift steps) runs before each epoch's clock starts, so
   an epoch's time is "inputs ready" to "enforced rates current".  Each
   layer is timed from outside, around its calls, with one monotonic
   clock; no library code is touched. *)

module Tree = Cm_topology.Tree
module Shard = Cm_placement.Shard
module Types = Cm_placement.Types
module Tag = Cm_tag.Tag
module Pool = Cm_workload.Pool
module Rng = Cm_util.Rng
module Csr = Cm_util.Csr
module Tm = Cm_inference.Traffic_matrix
module Stream = Cm_inference.Stream
module Elastic = Cm_enforce.Elastic
module Maxmin = Cm_enforce.Maxmin
module Trace = Cm_obs.Trace

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)

type workload = {
  name : string;
  degrees : int list;
  oversub : float list;
  load : float;  (** Steady slot load of the background arrival process. *)
  arrivals : int;  (** Background arrivals per epoch. *)
  enforce_background : bool;  (** Enforce every background tenant. *)
  observed : int;  (** Observed ring tenants (inference + renegotiation). *)
  domains : int;
      (** Worker domains handed to Stream.push and Maxmin.Inc.solve;
          place_batch gets one (see below). *)
  warmup : int;
      (** Placement-only churn epochs at the end of setup, so placements
          reach the spread that churn gives them. *)
  discard : int;  (** Loop epochs run, unmeasured, before measuring. *)
  gap : int;
      (** Placement-only epochs before each measured block but the
          first (0: one continuous block), so that blocks sample
          populations about a tenant lifetime apart. *)
  block : int;  (** Measured epochs per block. *)
  replicas : int;  (** Independent loops pooled into one run. *)
  rate : float;
      (** Measured epochs per requested second: a run does a fixed
          amount of work, sized to take about [--seconds] on a 2-core
          machine, so a faster program measures the same epochs. *)
}

(* Each workload is the same loop with inputs chosen so that one layer
   dominates the epoch; BENCHMARK.json records why the gated ones exist
   and README.md why enforce-churn is not gated.  The
   sampling settings answer what was measured on each (2-core machine):
   - domains: place_batch runs on one domain unless a caller asks for
     more: with two it was no faster at 32,768 servers (34-39 ms per
     batch either way), slower on small batches (an enforce-churn
     16-arrival batch took 4.8 ms against 0.7 ms, as it spawns a domain
     per call), and on drift-reneg's 4-arrival batches its p90 swung
     from 2.7 to 3.2 ms between two sets of ten seeds (IQR/median 0.18
     and 0.54).  Two domains only pay on drift-reneg, whose Stream.push
     epochs take 290 ms with two against 406 ms with one; an
     enforce-churn solve is slower with two (epoch 226 against 172 ms);
   - warmup: the enforce-churn solve keeps getting costlier for about
     ten tenant lifetimes of churn after the stationary fill, as
     placements spread across the tree;
   - gap, block: an enforce-churn epoch's cost then swings tenfold with
     the sharing structure and stays correlated for about ten epochs,
     so measured pairs of epochs are spaced 20 epochs apart.  On
     drift-reneg, 4-arrival batches give 100 admissions a run, so 20
     background-only epochs, which cost well under a millisecond each,
     run between measured ones and add 2,000 place_batch calls;
   - discard: Stream.push runs about 1.5x slower for the first 20 ticks
     after the window fills;
   - arrivals: admit-region's epoch cost is set by the refusals in its
     batch (the pool's largest tenant is nearly always refused, at 20 to
     40 ms a refusal, while an accepted tenant takes 0.05 to 1 ms).
     With 64 arrivals about half the epochs held no refusal, so their
     costs split into modes near 5 and 40 ms with epoch_ms.p50 in the
     gap between them, and it ranged from 16 to 38 ms over eight seeds.
     A 256-arrival batch holds three or four refusals, so the epoch
     costs form one mode;
   - replicas: a run's percentiles depend on the state its populations
     reach (one admit-region population's epoch_ms.p50 ranged from 114
     to 174 ms over four seeds, and repeated within 10% on the same
     seed), so runs pool independent populations. *)
let workloads =
  [
    {
      name = "admit-region";
      degrees = [ 16; 8; 16; 16 ];
      oversub = [ 4.; 8.; 4. ];
      load = 0.9;
      arrivals = 256;
      enforce_background = false;
      observed = 0;
      domains = 1;
      warmup = 0;
      discard = 0;
      gap = 0;
      block = 1;
      replicas = 6;
      rate = 4.5;
    };
    {
      name = "enforce-churn";
      degrees = [ 8; 16; 16 ];
      oversub = [ 4.; 8. ];
      load = 0.9;
      arrivals = 16;
      enforce_background = true;
      observed = 0;
      domains = 1;
      warmup = 500;
      discard = 0;
      gap = 20;
      block = 2;
      replicas = 3;
      rate = 5.;
    };
    {
      name = "drift-reneg";
      degrees = [ 8; 16; 16 ];
      oversub = [ 4.; 8. ];
      load = 0.5;
      arrivals = 4;
      enforce_background = false;
      observed = 4;
      domains = 2;
      warmup = 0;
      discard = 24;
      gap = 20;
      block = 1;
      replicas = 1;
      rate = 3.;
    };
  ]

let find_workload name = List.find_opt (fun w -> w.name = name) workloads
let bmax = 800.
let pairs_per_edge = 4
let observed_vms = 1_024
let observed_tier = 64
let rate_drifters = 2
let role_every = 4

(* The tenant catalogue is part of the workload definition, not of the
   seed: every seed draws from the same bing-like pool. *)
let pool = lazy (Pool.scale_to_bmax (Pool.bing_like ~seed:1 ()) ~bmax)

(* A ring of 64-VM tiers, every fourth tier with a self-loop: the shape
   the streaming-inference benchmark uses. *)
let ring_tag ix =
  let nc = observed_vms / observed_tier in
  let components =
    List.init nc (fun i -> (Printf.sprintf "t%02d" i, observed_tier))
  in
  let edges =
    List.concat
      (List.init nc (fun i ->
           let chain = (i, (i + 1) mod nc, 100., 100.) in
           if i mod 4 = 0 then [ chain; (i, i, 25., 25.) ] else [ chain ]))
  in
  Tag.create ~name:(Printf.sprintf "ring-%d" ix) ~components ~edges ()

(* ------------------------------------------------------------------ *)
(* Clock and sample buffers                                            *)

let now () = Monotonic_clock.now ()
let ms_since t0 = Int64.to_float (Int64.sub (now ()) t0) /. 1e6

module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 64 0.; n = 0 }

  let add s x =
    if s.n = Array.length s.a then begin
      let b = Array.make (2 * s.n) 0. in
      Array.blit s.a 0 b 0 s.n;
      s.a <- b
    end;
    s.a.(s.n) <- x;
    s.n <- s.n + 1

  let count s = s.n
  let last s = s.a.(s.n - 1)

  let sum s =
    let t = ref 0. in
    for i = 0 to s.n - 1 do
      t := !t +. s.a.(i)
    done;
    !t

  (* Linear interpolation between order statistics; 0 when empty. *)
  let quantile s q =
    if s.n = 0 then 0.
    else begin
      let v = Array.sub s.a 0 s.n in
      Array.sort Float.compare v;
      let h = q *. float_of_int (s.n - 1) in
      let lo = int_of_float h in
      let hi = min (lo + 1) (s.n - 1) in
      v.(lo) +. ((h -. float_of_int lo) *. (v.(hi) -. v.(lo)))
    end
end

(* ------------------------------------------------------------------ *)
(* Generator: everything drawn from the seed, outside the timed region *)

type arrival = { tag : Tag.t; life : int; pair_seed : int }

type gen = {
  rng : Rng.t;
  life_mean : float;  (** Mean tenant lifetime in epochs. *)
  drifts : Tm.Drift.d array;  (** One traffic source per observed tenant. *)
  deck : Tag.t array;  (** The pool, dealt in shuffled rounds. *)
  mutable dealt : int;  (** Tags of the current round already drawn. *)
}

(* Arrivals are dealt from the pool like cards: every round of
   [Array.length deck] arrivals holds each pool tenant once, in a fresh
   order.  Each arrival is uniform over the pool, yet a run's tenant mix
   does not rest on how often it draws the pool's largest tenant, which
   is nearly always refused, at 20 to 40 ms a refusal on admit-region. *)
let draw_arrival g =
  if g.dealt = Array.length g.deck then begin
    Rng.shuffle g.rng g.deck;
    g.dealt <- 0
  end;
  let tag = g.deck.(g.dealt) in
  g.dealt <- g.dealt + 1;
  let life =
    1 + int_of_float (Rng.exponential g.rng ~rate:(1. /. g.life_mean))
  in
  { tag; life; pair_seed = Rng.int g.rng 0x3FFF_FFFF }

let draw_traffic g ~epoch =
  let role_drifters = if epoch mod role_every = 0 then 1 else 0 in
  Array.map (fun d -> Tm.Drift.step ~rate_drifters ~role_drifters d) g.drifts

(* ------------------------------------------------------------------ *)
(* Loop state                                                          *)

type tenant = {
  mutable placement : Types.placement option;
  pair_seed : int;
  enforced : bool;
  mutable flows : int list;  (** Flow ids this tenant owns in the solver. *)
  stream : Stream.t option;  (** Observed tenants only. *)
}

(* Counters of one run: of its measured epochs, plus the admissions of
   its gap epochs.  Every field is exact, so two runs of one seed and
   epoch count must agree on all of them. *)
type counts = {
  mutable epochs : int;
  mutable requests : int;  (** Placement requests: arrivals + renegotiations. *)
  mutable rejects : int;
  mutable offered_bw : float;
  mutable rejected_bw : float;
  mutable batch_requests : int;
  mutable batch_accepts : int;
  mutable index_marks : int;
  mutable index_cleans : int;
  mutable pushes : int;
  mutable full_pushes : int;
  mutable dirty_vertices : int;
  mutable drift_events : int;
  mutable renegs : int;
  mutable reneg_rejects : int;
  mutable evicted : int;  (** Tenants whose old TAG no longer fit either. *)
  mutable solves : int;
  mutable resolved : int;
  mutable flows_total : int;
  mutable components : int;
  mutable links_dirty : int;
}

let zero_counts () =
  {
    epochs = 0;
    requests = 0;
    rejects = 0;
    offered_bw = 0.;
    rejected_bw = 0.;
    batch_requests = 0;
    batch_accepts = 0;
    index_marks = 0;
    index_cleans = 0;
    pushes = 0;
    full_pushes = 0;
    dirty_vertices = 0;
    drift_events = 0;
    renegs = 0;
    reneg_rejects = 0;
    evicted = 0;
    solves = 0;
    resolved = 0;
    flows_total = 0;
    components = 0;
    links_dirty = 0;
  }

(* Per-call layer timings (ms) of the measured epochs.  [admit_ms] also
   holds the place_batch calls of gap epochs (see [fast_forward]). *)
type timings = {
  epoch_ms : Samples.t;
  admit_ms : Samples.t;
  batch_ms : Samples.t;
  release_ms : Samples.t;
  push_ms : Samples.t;
  reneg_ms : Samples.t;
  update_ms : Samples.t;
  solve_ms : Samples.t;
}

let fresh_timings () =
  {
    epoch_ms = Samples.create ();
    admit_ms = Samples.create ();
    batch_ms = Samples.create ();
    release_ms = Samples.create ();
    push_ms = Samples.create ();
    reneg_ms = Samples.create ();
    update_ms = Samples.create ();
    solve_ms = Samples.create ();
  }

type state = {
  w : workload;
  domains : int;
  placement_domains : int;
  tree : Tree.t;
  shard : Shard.t;
  gen : gen;
  inc : Maxmin.Inc.t;
  flow_table : (int, Maxmin.flow) Hashtbl.t;
  mutable next_flow : int;
  departures : (int, tenant list) Hashtbl.t;  (** Epoch -> leaving tenants. *)
  mutable live : int;
  observed : tenant array;
  mutable epoch : int;
  mutable c : counts;
  mutable t : timings;
}

(* Run [f] under a trace span (a no-op branch when tracing is off) and
   add its wall time to [samples]. *)
let timed samples name f =
  Trace.enter name;
  let t0 = now () in
  let r = f () in
  Samples.add samples (ms_since t0);
  Trace.exit ();
  r

(* Tree links as solver links: node n's uplink is 2n going up and 2n+1
   coming down, as in Cm_e2e. *)
let links_of_tree tree =
  let acc = ref [] in
  for n = Tree.n_nodes tree - 1 downto 0 do
    if n <> Tree.root tree then begin
      let capacity = Tree.uplink_capacity tree n in
      acc :=
        { Maxmin.link_id = 2 * n; capacity }
        :: { Maxmin.link_id = (2 * n) + 1; capacity }
        :: !acc
    end
  done;
  !acc

(* Server-to-server path: uplinks from [s1] to the lowest common
   ancestor, then downlinks to [s2].  Servers share level 0, so both
   walks climb in step. *)
let path tree s1 s2 =
  let rec go a b ups downs =
    if a = b then List.rev_append ups downs
    else
      go (Tree.parent_id tree a) (Tree.parent_id tree b) ((2 * a) :: ups)
        (((2 * b) + 1) :: downs)
  in
  go s1 s2 [] []

let vm_servers (locations : Types.locations) =
  Array.map
    (fun placed ->
      Array.concat (List.map (fun (server, n) -> Array.make n server) placed))
    locations

(* Up to [pairs_per_edge] distinct VM pairs per VM-to-VM TAG edge. *)
let sample_pairs rng tag =
  let acc = ref [] in
  Array.iter
    (fun (e : Tag.edge) ->
      if not (Tag.is_external tag e.src || Tag.is_external tag e.dst) then begin
        let ns = Tag.size tag e.src and nd = Tag.size tag e.dst in
        let self = e.src = e.dst in
        let total = if self then ns * (ns - 1) else ns * nd in
        let want = min pairs_per_edge total in
        let chosen = ref [] and n = ref 0 in
        while !n < want do
          let i = Rng.int rng ns and j = Rng.int rng nd in
          if (not (self && i = j)) && not (List.mem (i, j) !chosen) then begin
            chosen := (i, j) :: !chosen;
            incr n
          end
        done;
        List.iter
          (fun (i, j) ->
            acc :=
              {
                Elastic.src = { Elastic.comp = e.src; vm = i };
                dst = { Elastic.comp = e.dst; vm = j };
              }
              :: !acc)
          (List.rev !chosen)
      end)
    (Tag.edges tag);
  List.rev !acc

(* Re-enforce one tenant: drop its old flows and, when it is placed,
   install guarantees for freshly sampled pairs of its current TAG.
   Sampling and path lookup are benchmark glue and stay outside the
   layer timer. *)
let reenforce st ten =
  let planned =
    match ten.placement with
    | None -> None
    | Some p ->
        let pairs = sample_pairs (Rng.create ten.pair_seed) p.Types.req.tag in
        let servers = vm_servers p.Types.locations in
        let paths =
          List.map
            (fun (pr : Elastic.active_pair) ->
              path st.tree
                servers.(pr.src.comp).(pr.src.vm)
                servers.(pr.dst.comp).(pr.dst.vm))
            pairs
        in
        Some (p.Types.req.tag, pairs, paths)
  in
  let old = ten.flows in
  let ids =
    match planned with
    | None -> []
    | Some (_, pairs, _) ->
        List.map
          (fun _ ->
            let id = st.next_flow in
            st.next_flow <- id + 1;
            id)
          pairs
  in
  let flows =
    timed st.t.update_ms "enforce.update" (fun () ->
        List.iter (Maxmin.Inc.remove st.inc) old;
        match planned with
        | None -> []
        | Some (tag, pairs, paths) ->
            let gs = Elastic.pair_guarantees tag Elastic.Tag_gp ~pairs in
            let flows =
              List.map2
                (fun (flow_id, path) (_, guarantee) ->
                  { Maxmin.flow_id; path; demand = infinity; guarantee })
                (List.combine ids paths) gs
            in
            List.iter (Maxmin.Inc.set st.inc) flows;
            flows)
  in
  List.iter (Hashtbl.remove st.flow_table) old;
  List.iter (fun (f : Maxmin.flow) -> Hashtbl.replace st.flow_table f.flow_id f)
    flows;
  ten.flows <- ids

let solve st =
  timed st.t.solve_ms "enforce.solve" (fun () ->
      Maxmin.Inc.solve ~domains:st.domains st.inc);
  let s = Maxmin.Inc.last_stats st.inc in
  st.c.solves <- st.c.solves + 1;
  st.c.resolved <- st.c.resolved + s.flows_resolved;
  st.c.flows_total <- st.c.flows_total + s.flows_total;
  st.c.components <- st.c.components + s.components;
  st.c.links_dirty <- st.c.links_dirty + s.links_dirty

let schedule_departure st ten ~life =
  let at = st.epoch + life in
  let prev = Option.value ~default:[] (Hashtbl.find_opt st.departures at) in
  Hashtbl.replace st.departures at (ten :: prev)

(* Steps 1 and 2 of an epoch; returns the enforced tenants whose
   placement changed.  Also used, without departures, to fill the steady
   population during setup. *)
let admit st ~leaving (batch : arrival list) =
  List.iter
    (fun ten ->
      match ten.placement with
      | None -> ()
      | Some p ->
          timed st.t.release_ms "placement.release" (fun () ->
              Shard.release st.shard p);
          ten.placement <- None;
          st.live <- st.live - 1)
    leaving;
  let requests = List.map (fun a -> Types.request a.tag) batch in
  let results =
    timed st.t.batch_ms "placement.batch" (fun () ->
        Shard.place_batch ~domains:st.placement_domains st.shard requests)
  in
  Samples.add st.t.admit_ms (Samples.last st.t.batch_ms);
  let c = st.c in
  let admitted =
    List.fold_left2
      (fun acc a r ->
        let bw = Tag.aggregate_bandwidth a.tag in
        c.requests <- c.requests + 1;
        c.batch_requests <- c.batch_requests + 1;
        c.offered_bw <- c.offered_bw +. bw;
        match r with
        | Ok p ->
            c.batch_accepts <- c.batch_accepts + 1;
            let ten =
              {
                placement = Some p;
                pair_seed = a.pair_seed;
                enforced = st.w.enforce_background;
                flows = [];
                stream = None;
              }
            in
            st.live <- st.live + 1;
            schedule_departure st ten ~life:a.life;
            ten :: acc
        | Error _ ->
            c.rejects <- c.rejects + 1;
            c.rejected_bw <- c.rejected_bw +. bw;
            acc)
      [] batch results
  in
  List.filter (fun t -> t.enforced) (List.rev_append admitted leaving)

(* Step 4 for one tenant.  A refused inferred TAG keeps the tenant on
   its old contract, re-placed from the resources just released. *)
let renegotiate st ten =
  let s = Option.get ten.stream in
  timed st.t.reneg_ms "reneg" (fun () ->
      let tag = Trace.with_span "inference.tag" (fun () -> Stream.tag s) in
      let old = ten.placement in
      Option.iter
        (fun p ->
          Trace.with_span "placement.release" (fun () ->
              Shard.release st.shard p))
        old;
      let place req =
        Trace.with_span "placement.place" (fun () -> Shard.place st.shard req)
      in
      let c = st.c in
      let bw = Tag.aggregate_bandwidth tag in
      c.renegs <- c.renegs + 1;
      c.requests <- c.requests + 1;
      c.offered_bw <- c.offered_bw +. bw;
      match place (Types.request tag) with
      | Ok p -> ten.placement <- Some p
      | Error _ -> (
          c.rejects <- c.rejects + 1;
          c.rejected_bw <- c.rejected_bw +. bw;
          c.reneg_rejects <- c.reneg_rejects + 1;
          match old with
          | None -> ()
          | Some p -> (
              match place p.Types.req with
              | Ok p -> ten.placement <- Some p
              | Error _ ->
                  c.evicted <- c.evicted + 1;
                  ten.placement <- None)))

let push st ten m =
  let s = Option.get ten.stream in
  let r =
    timed st.t.push_ms "inference.push" (fun () ->
        Stream.push ~domains:st.domains s m)
  in
  let c = st.c in
  c.pushes <- c.pushes + 1;
  if r.Stream.full || r.Stream.fallback then c.full_pushes <- c.full_pushes + 1;
  c.dirty_vertices <- c.dirty_vertices + r.Stream.dirty_vertices;
  if r.Stream.drift <> None then c.drift_events <- c.drift_events + 1;
  r.Stream.drift <> None

(* One epoch; the generator has already produced [batch] and [traffic]. *)
let epoch st ~leaving batch traffic =
  let marks0, cleans0 = Tree.index_stats st.tree in
  Trace.enter "epoch";
  let t0 = now () in
  let changed = admit st ~leaving batch in
  let drifted = ref [] in
  Array.iteri
    (fun i ten -> if push st ten traffic.(i) then drifted := ten :: !drifted)
    st.observed;
  let drifted = List.rev !drifted in
  List.iter (renegotiate st) drifted;
  List.iter (reenforce st) (List.rev_append changed drifted);
  solve st;
  Samples.add st.t.epoch_ms (ms_since t0);
  Trace.exit ();
  let marks1, cleans1 = Tree.index_stats st.tree in
  st.c.index_marks <- st.c.index_marks + (marks1 - marks0);
  st.c.index_cleans <- st.c.index_cleans + (cleans1 - cleans0);
  st.c.epochs <- st.c.epochs + 1

let take_departures st =
  let leaving =
    Option.value ~default:[] (Hashtbl.find_opt st.departures st.epoch)
  in
  Hashtbl.remove st.departures st.epoch;
  leaving

(* Draw the next epoch's inputs and run it. *)
let step st =
  st.epoch <- st.epoch + 1;
  let leaving = take_departures st in
  let batch = List.init st.w.arrivals (fun _ -> draw_arrival st.gen) in
  let traffic = draw_traffic st.gen ~epoch:st.epoch in
  epoch st ~leaving batch traffic

(* [n] epochs of the arrival/departure process with placement only,
   outside the measured epochs, then one catch-up enforcement of every
   tenant they changed and one solve.  The solver is exact, so the state
   it leaves is the one per-epoch enforcement would have reached.  The
   admission decisions are real ones and count towards the admission
   counts and [admit_ms]; nothing else is timed. *)
let fast_forward st n =
  let t = st.t in
  st.t <- { (fresh_timings ()) with admit_ms = t.admit_ms };
  let changed = ref [] in
  for _ = 1 to n do
    st.epoch <- st.epoch + 1;
    let leaving = take_departures st in
    let batch = List.init st.w.arrivals (fun _ -> draw_arrival st.gen) in
    changed := List.rev_append (admit st ~leaving batch) !changed
  done;
  List.iter (reenforce st) (List.rev !changed);
  Maxmin.Inc.solve ~domains:st.domains st.inc;
  st.t <- t

(* ------------------------------------------------------------------ *)
(* Setup                                                               *)

(* Build the steady loop state.  The background population is drawn
   from the arrival process's stationary law — one mean lifetime of
   arrivals with exponential residual lifetimes — and placed through the
   loop's own place_batch calls; every enforced tenant gets its flows;
   [warmup] epochs of placement-only churn then spread the placements as
   the process would, ending in a cold solve.  Last, each observed
   tenant's stream window fills before its inferred TAG is placed and
   enforced. *)
let setup ?domains:given (w : workload) ~seed =
  let domains = Option.value given ~default:w.domains in
  let tree = Tree.create { Tree.default_spec with degrees = w.degrees; oversub = w.oversub } in
  let rng = Rng.create seed in
  let life_mean =
    w.load
    *. float_of_int (Tree.total_slots tree)
    /. (float_of_int w.arrivals *. Pool.mean_size (Lazy.force pool))
  in
  let drifts =
    Array.init w.observed (fun i ->
        Tm.Drift.create ~rng:(Rng.split rng) (ring_tag i))
  in
  let st =
    {
      w;
      domains;
      placement_domains = Option.value given ~default:1;
      tree;
      shard = Shard.create tree;
      gen =
        {
          rng;
          life_mean;
          drifts;
          deck = Array.copy (Lazy.force pool).Pool.tags;
          dealt = Array.length (Lazy.force pool).Pool.tags;
        };
      inc = Maxmin.Inc.create ~links:(links_of_tree tree);
      flow_table = Hashtbl.create 4096;
      next_flow = 0;
      departures = Hashtbl.create 1024;
      live = 0;
      observed =
        Array.init w.observed (fun _ ->
            {
              placement = None;
              pair_seed = Rng.int rng 0x3FFF_FFFF;
              enforced = true;
              flows = [];
              stream = Some (Stream.create ~n:observed_vms ());
            });
      epoch = 0;
      c = zero_counts ();
      t = fresh_timings ();
    }
  in
  let fill = int_of_float (Float.round (life_mean *. float_of_int w.arrivals)) in
  let remaining = ref fill in
  while !remaining > 0 do
    let b = min w.arrivals !remaining in
    ignore (admit st ~leaving:[] (List.init b (fun _ -> draw_arrival st.gen)));
    remaining := !remaining - b
  done;
  Hashtbl.fold (fun at tens acc -> (at, tens) :: acc) st.departures []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  |> List.iter (fun (_, tens) ->
         List.iter (fun t -> if t.enforced then reenforce st t) tens);
  fast_forward st w.warmup;
  for e = 1 to Stream.default_config.Stream.window do
    let traffic = draw_traffic st.gen ~epoch:(-e) in
    Array.iteri
      (fun i ten ->
        ignore (Stream.push ~domains (Option.get ten.stream) traffic.(i)))
      st.observed
  done;
  Array.iter
    (fun ten ->
      match
        Shard.place st.shard
          (Types.request (Stream.tag (Option.get ten.stream)))
      with
      | Ok p -> ten.placement <- Some p
      | Error _ -> ())
    st.observed;
  Array.iter (reenforce st) st.observed;
  Maxmin.Inc.solve ~domains st.inc;
  st.c <- zero_counts ();
  st.t <- fresh_timings ();
  st

(* ------------------------------------------------------------------ *)
(* Correctness                                                         *)

let bits = Int64.bits_of_float

(* End-of-run checks; returns the failures (empty when all hold). *)
let verify st =
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  if not (Tree.index_verify st.tree) then
    fail "Tree.index_verify: availability index diverged from a recompute";
  let flows =
    Hashtbl.fold (fun _ f acc -> f :: acc) st.flow_table []
    |> List.sort (fun (a : Maxmin.flow) b -> compare a.flow_id b.flow_id)
  in
  if Maxmin.Inc.n_flows st.inc <> List.length flows then
    fail "Maxmin.Inc holds %d flows, the loop enforced %d"
      (Maxmin.Inc.n_flows st.inc) (List.length flows);
  let oracle =
    Maxmin.with_guarantees ~links:(links_of_tree st.tree) ~flows
  in
  let mismatched = ref 0 and short = ref 0 in
  List.iter2
    (fun (f : Maxmin.flow) (id, rate) ->
      let inc_rate = Maxmin.Inc.rate st.inc f.flow_id in
      if id <> f.flow_id || bits inc_rate <> bits rate then incr mismatched;
      if inc_rate < f.guarantee then incr short)
    flows (Array.to_list oracle);
  if !mismatched > 0 then
    fail "Maxmin.Inc: %d of %d rates differ bitwise from with_guarantees"
      !mismatched (List.length flows);
  if !short > 0 then
    fail "enforcement: %d of %d pairs get less than their guarantee" !short
      (List.length flows);
  Array.iteri
    (fun i ten ->
      let s = Option.get ten.stream in
      let reference = Tm.mean_csr (Tm.of_epochs (Stream.window_epochs s)) in
      if not (Csr.equal (Stream.mean s) reference) then
        fail "Stream.mean of observed tenant %d differs from mean_csr" i)
    st.observed;
  let placed =
    Hashtbl.fold
      (fun _ tens acc ->
        List.fold_left
          (fun acc ten ->
            match ten.placement with
            | Some p -> acc + Tag.total_slot_demand p.Types.req.tag
            | None -> acc)
          acc tens)
      st.departures 0
    + Array.fold_left
        (fun acc ten ->
          match ten.placement with
          | Some p -> acc + Tag.total_slot_demand p.Types.req.tag
          | None -> acc)
        0 st.observed
  in
  let used =
    Tree.total_slots st.tree - Tree.free_slots_subtree st.tree (Tree.root st.tree)
  in
  if used <> placed then
    fail "slots: tree holds %d, live tenants hold %d" used placed;
  List.rev !failures

(* ------------------------------------------------------------------ *)
(* Runs                                                                *)

let min_epochs = 100

type result = {
  setup_s : float list;  (** Wall time of each replica's setup. *)
  counts : counts;
  timings : timings;
  traced : timings option;
      (** Traced run: timings of the traced epochs; [timings] then holds
          the untraced epochs interleaved with them. *)
  heap_peak_words : int;
  live_tenants : int;
  flows : int;
  failures : string list;
  trace_events : Trace.event list;
}

(* A run sets up [setups] times from seeds drawn from [seed] (setup_s is
   their median) and runs the loop on the last [replicas] of them, each
   measuring an equal share of the run's epochs; the shares are pooled.
   One population's costs drift with the few large tenants it holds, so
   pooling independent populations is what makes a run's percentiles
   repeat from seed to seed.  [epochs] overrides the measured epochs per
   replica.  With [trace], odd measured epochs run traced and even ones
   untraced, so both halves see the same populations and their
   difference is the tracing overhead. *)
let run ?domains ?replicas ?(setups = 3) ?epochs ?(trace = false)
    (w : workload) ~seed ~seconds =
  let replicas = Option.value replicas ~default:w.replicas in
  let setups = max setups replicas in
  let per_replica =
    match epochs with
    | Some n -> n
    | None ->
        max
          ((min_epochs + replicas - 1) / replicas)
          (int_of_float (Float.round (seconds *. w.rate /. float_of_int replicas)))
  in
  let seeds =
    let rng = Rng.create seed in
    List.init setups (fun _ -> Rng.int rng 0x3FFF_FFFF)
  in
  let counts = zero_counts () and plain = fresh_timings () in
  let traced = if trace then Some (fresh_timings ()) else None in
  if trace then Trace.set_enabled ~capacity:(1 lsl 18) false;
  let last = ref None and setup_s = ref [] and failures = ref [] in
  List.iteri
    (fun i sub_seed ->
      last := None;
      Gc.full_major ();
      let t0 = now () in
      let st = setup ?domains w ~seed:sub_seed in
      setup_s := (ms_since t0 /. 1000.) :: !setup_s;
      if i >= setups - replicas then begin
        for _ = 1 to w.discard do
          step st
        done;
        st.c <- counts;
        for e = 0 to per_replica - 1 do
          if w.gap > 0 && e > 0 && e mod w.block = 0 then begin
            st.t <- plain;
            Trace.set_enabled false;
            fast_forward st w.gap
          end;
          (match traced with
          | Some tt when counts.epochs land 1 = 1 ->
              st.t <- tt;
              Trace.set_enabled true
          | _ ->
              st.t <- plain;
              Trace.set_enabled false);
          step st
        done;
        Trace.set_enabled false;
        failures :=
          List.rev_append
            (List.map (Printf.sprintf "replica %d: %s" i) (verify st))
            !failures
      end;
      last := Some st)
    seeds;
  let st = Option.get !last in
  {
    setup_s = List.rev !setup_s;
    counts;
    timings = plain;
    traced;
    heap_peak_words = (Gc.quick_stat ()).Gc.top_heap_words;
    live_tenants = st.live;
    flows = Hashtbl.length st.flow_table;
    failures = List.rev !failures;
    trace_events = (if trace then Trace.events () else []);
  }

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)

type metric = {
  m_name : string;
  m_unit : string;
  m_value : float;
  m_samples : int;  (** Samples behind a percentile or sum; 0 otherwise. *)
}

let metric ?(samples = 0) m_name m_unit m_value =
  { m_name; m_unit; m_value; m_samples = samples }

let pct num den = if den = 0. then 0. else 100. *. num /. den

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else if n land 1 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* End-to-end metrics that are printed but not gated.  The paper's
   section 5.1 failure shares, refused requests (arrivals plus
   renegotiations) and refused guaranteed bandwidth over what was
   requested, read 0 on some seeds of the workloads that are not
   placement-bound, so the gate uses their complements.  admit_ms.p90
   on drift-reneg follows the few large tenants of each seed's
   background (0.3 to 1.3 ms over ten seeds), beyond any bound a gate
   can use. *)
let ungated r =
  let c = r.counts and a = r.timings.admit_ms in
  [
    metric "admit_ms.p90" "ms" (Samples.quantile a 0.9)
      ~samples:(Samples.count a);
    metric "reject_pct" "%"
      (pct (float_of_int c.rejects) (float_of_int c.requests))
      ~samples:c.requests;
    metric "bw_reject_pct" "%" (pct c.rejected_bw c.offered_bw)
      ~samples:c.requests;
  ]

(* The end-to-end metrics of an untraced run. *)
let end_to_end r =
  let t = r.timings and c = r.counts in
  let e = t.epoch_ms and a = t.admit_ms in
  let n = Samples.count in
  [
    metric "epoch_ms.p50" "ms" (Samples.quantile e 0.5) ~samples:(n e);
    metric "epoch_ms.p90" "ms" (Samples.quantile e 0.9) ~samples:(n e);
    metric "epochs_per_s" "1/s"
      (float_of_int (n e) /. (Samples.sum e /. 1000.))
      ~samples:(n e);
    metric "admit_ms.p50" "ms" (Samples.quantile a 0.5) ~samples:(n a);
    metric "accept_pct" "%"
      (100. -. pct (float_of_int c.rejects) (float_of_int c.requests))
      ~samples:c.requests;
    metric "bw_accept_pct" "%"
      (100. -. pct c.rejected_bw c.offered_bw)
      ~samples:c.requests;
    metric "setup_s" "s" (median r.setup_s) ~samples:(List.length r.setup_s);
    metric "heap_peak_mb" "MB"
      (float_of_int (r.heap_peak_words * (Sys.word_size / 8)) /. 1e6);
  ]

(* Layers, for the traced run's self-time attribution: every benchmark
   span maps to the layer whose public functions it wraps. *)
let layer_of_span = function
  | "placement.batch" | "placement.release" | "placement.place" ->
      Some "placement"
  | "inference.push" | "inference.tag" -> Some "inference"
  | "reneg" -> Some "reneg"
  | "enforce.update" | "enforce.solve" -> Some "enforce"
  | "epoch" -> Some "glue"
  | _ -> None

let layers = [ "placement"; "inference"; "reneg"; "enforce"; "glue" ]

(* Self time and self minor words per layer, summed over the traced
   epochs: a benchmark span's duration minus the part its benchmark
   child spans cover.  Library spans recorded inside a layer call count
   towards that layer. *)
let self_costs events =
  let ours = Hashtbl.create 1024 in
  List.iter
    (fun (ev : Trace.event) ->
      if ev.ev_phase = Trace.Complete && layer_of_span ev.ev_name <> None then
        Hashtbl.replace ours (ev.ev_track, ev.ev_seq) ev)
    events;
  let ms = Hashtbl.create 8 and words = Hashtbl.create 8 in
  let add tbl k v =
    Hashtbl.replace tbl k (v +. Option.value ~default:0. (Hashtbl.find_opt tbl k))
  in
  Hashtbl.iter
    (fun _ (ev : Trace.event) ->
      let layer = Option.get (layer_of_span ev.ev_name) in
      add ms layer (ev.ev_dur *. 1000.);
      add words layer ev.ev_gc_minor;
      match Hashtbl.find_opt ours (ev.ev_track, ev.ev_parent) with
      | Some parent ->
          let pl = Option.get (layer_of_span parent.ev_name) in
          add ms pl (-.ev.ev_dur *. 1000.);
          add words pl (-.ev.ev_gc_minor)
      | None -> ())
    ours;
  let get tbl k = Option.value ~default:0. (Hashtbl.find_opt tbl k) in
  List.map (fun l -> (l, get ms l, get words l)) layers

(* The per-layer metrics of a traced run.  Times and counts are per
   epoch unless named as a percentile or ratio; minor words are counted
   on the calling domain only (work that Shard, Stream or Maxmin hand to
   other domains is not included). *)
let per_layer r =
  let c = r.counts and t = r.timings in
  let tt = Option.get r.traced in
  let epochs = float_of_int c.epochs in
  let traced_epochs = float_of_int (Samples.count tt.epoch_ms) in
  let per_epoch x = x /. epochs and per_traced x = x /. traced_epochs in
  let all f = Samples.sum (f t) +. Samples.sum (f tt) in
  let merged f =
    let s = Samples.create () in
    List.iter
      (fun (x : Samples.t) ->
        for i = 0 to x.n - 1 do
          Samples.add s x.a.(i)
        done)
      [ f t; f tt ];
    s
  in
  let p50 f =
    let s = merged f in
    (Samples.quantile s 0.5, Samples.count s)
  in
  let costs = self_costs r.trace_events in
  let self l = List.find (fun (n, _, _) -> n = l) costs in
  let words l = let _, _, w = self l in per_traced w in
  let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b in
  let batch_p50, batch_n = p50 (fun t -> t.batch_ms) in
  let push_p50, push_n = p50 (fun t -> t.push_ms) in
  let reneg_p50, reneg_n = p50 (fun t -> t.reneg_ms) in
  let solve_p50, solve_n = p50 (fun t -> t.solve_ms) in
  [
    metric "placement.batch_ms.p50" "ms" batch_p50 ~samples:batch_n;
    metric "placement.batch_ms.sum" "ms" (per_epoch (all (fun t -> t.batch_ms)));
    metric "placement.release_ms.sum" "ms"
      (per_epoch (all (fun t -> t.release_ms)));
    metric "placement.accept_ratio" "ratio"
      (ratio c.batch_accepts c.batch_requests)
      ~samples:c.batch_requests;
    metric "placement.minor_words" "words" (words "placement");
    metric "topology.index_marks" "count" (per_epoch (float_of_int c.index_marks));
    metric "topology.index_cleans" "count"
      (per_epoch (float_of_int c.index_cleans));
    metric "inference.push_ms.p50" "ms" push_p50 ~samples:push_n;
    metric "inference.push_ms.sum" "ms" (per_epoch (all (fun t -> t.push_ms)));
    metric "inference.dirty_frac" "ratio"
      (ratio c.dirty_vertices (c.pushes * observed_vms))
      ~samples:c.pushes;
    metric "inference.full_share" "ratio" (ratio c.full_pushes c.pushes)
      ~samples:c.pushes;
    metric "inference.drift_events" "count"
      (per_epoch (float_of_int c.drift_events));
    metric "inference.minor_words" "words" (words "inference");
    metric "reneg.count" "count" (per_epoch (float_of_int c.renegs));
    metric "reneg.ms.p50" "ms" reneg_p50 ~samples:reneg_n;
    metric "reneg.rejects" "count" (per_epoch (float_of_int c.reneg_rejects));
    metric "enforce.update_ms.sum" "ms" (per_epoch (all (fun t -> t.update_ms)));
    metric "enforce.solve_ms.p50" "ms" solve_p50 ~samples:solve_n;
    metric "enforce.solve_ms.sum" "ms" (per_epoch (all (fun t -> t.solve_ms)));
    metric "enforce.resolved_frac" "ratio" (ratio c.resolved c.flows_total)
      ~samples:c.solves;
    metric "enforce.components" "count" (per_epoch (float_of_int c.components));
    metric "enforce.links_dirty" "count" (per_epoch (float_of_int c.links_dirty));
    metric "enforce.flows" "count" (ratio c.flows_total c.solves);
    metric "enforce.minor_words" "words" (words "enforce");
  ]
  @ List.concat_map
      (fun l ->
        let _, ms, _ = self l in
        [ metric (Printf.sprintf "self.%s_ms" l) "ms" (per_traced ms) ])
      layers
  @ [
      metric "self.glue_minor_words" "words" (words "glue");
      metric "trace.overhead_ms" "ms"
        (Samples.quantile tt.epoch_ms 0.5 -. Samples.quantile t.epoch_ms 0.5)
        ~samples:(Samples.count tt.epoch_ms);
    ]
