type config = { probe_gain : float; decay : float; headroom : float }

let default_config = { probe_gain = 0.1; decay = 0.1; headroom = 0. }

(* Control-loop telemetry: guarantee-partitioning recomputations (one
   per epoch), per-pair rate-limiter updates, and the dynamic driver's
   convergence behaviour. *)
let m_gp_updates = Cm_obs.Metrics.counter "enforce.gp.updates"
let m_ra_updates = Cm_obs.Metrics.counter "enforce.ra.updates"
let m_epochs = Cm_obs.Metrics.counter "enforce.epochs"
let m_epochs_converged = Cm_obs.Metrics.counter "enforce.epochs.converged"
let m_inc_solves = Cm_obs.Metrics.counter "enforce.inc.solves"
let m_inc_resolved = Cm_obs.Metrics.counter "enforce.inc.flows_resolved"
let m_inc_components = Cm_obs.Metrics.counter "enforce.inc.components"

let h_converge_periods =
  Cm_obs.Metrics.histogram
    ~buckets:[| 1.; 2.; 4.; 8.; 16.; 32.; 64.; 128.; 256.; 512. |]
    "enforce.converge_periods"

let h_rate_delta =
  Cm_obs.Metrics.histogram
    ~buckets:[| 1e-3; 1e-2; 1e-1; 1.; 10.; 100.; 1000. |]
    "enforce.rate_delta"

let s_epoch = Cm_obs.Span.v "enforce.epoch"

type flow_spec = {
  pair : Elastic.active_pair;
  path : int list;
  demand : float;
}

(* A pair's persisted rate limiter.  [l_period] is the global period at
   which the value was written; decay for absent periods is applied
   lazily on reactivation ([l_rate * (1 - decay)^gap]), so idle pairs
   cost nothing per period. *)
type limiter = { mutable l_rate : float; mutable l_period : int }

type t = {
  cfg : config;
  tag : Cm_tag.Tag.t;
  enforcement : Elastic.enforcement;
  (* Dense link table: [link_ids.(i)] is the external id of link index
     [i]; [caps]/[eff_caps]/[loads] are indexed by [i]. *)
  link_ids : int array;
  link_index : (int, int) Hashtbl.t;
  caps : float array;
  eff_caps : float array;
  loads : float array;
  limits : (Elastic.active_pair, limiter) Hashtbl.t;
  mutable period : int;  (* total control periods ever run *)
  (* Persistent steady-state solver: the fluid fixed point lives on the
     effective capacities.  A pair keeps one stable solver flow id for
     as long as it stays active, so consecutive epochs diff into the
     solver instead of resolving cold. *)
  solver : Maxmin.Inc.t;
  solver_ids : (Elastic.active_pair, int) Hashtbl.t;
  solver_flows : (int, Maxmin.flow) Hashtbl.t;
  mutable next_flow_id : int;
}

let create ?(config = default_config) ~tag ~enforcement ~links () =
  let links = Array.of_list links in
  let n = Array.length links in
  let link_ids = Array.map (fun (l : Maxmin.link) -> l.link_id) links in
  let caps = Array.map (fun (l : Maxmin.link) -> l.capacity) links in
  let link_index = Hashtbl.create (2 * n) in
  Array.iteri (fun i id -> Hashtbl.replace link_index id i) link_ids;
  let eff_caps = Array.map (fun c -> c *. (1. -. config.headroom)) caps in
  let eff_links =
    Array.to_list
      (Array.mapi
         (fun i id -> { Maxmin.link_id = id; capacity = eff_caps.(i) })
         link_ids)
  in
  {
    cfg = config;
    tag;
    enforcement;
    link_ids;
    link_index;
    caps;
    eff_caps;
    loads = Array.make n 0.;
    limits = Hashtbl.create 32;
    period = 0;
    solver = Maxmin.Inc.create ~links:eff_links;
    solver_ids = Hashtbl.create 64;
    solver_flows = Hashtbl.create 64;
    next_flow_id = 0;
  }

let link_index_of t l =
  match Hashtbl.find_opt t.link_index l with
  | Some i -> i
  | None -> invalid_arg (Printf.sprintf "Runtime: unknown link %d" l)

(* Per-epoch compiled state: dense flow ids, paths as dense link
   indices, and reusable per-flow arrays.  Built once per flow-set
   epoch; each control period is array passes only. *)
type epoch_state = {
  specs : flow_spec array;
  n : int;
  paths : int array array;  (* dense link indices *)
  demand : float array;
  guarantee : float array;
  limit : float array;  (* current limiter value *)
  rate : float array;  (* throughput of the last period run *)
  smooth : float array;  (* EWMA of [rate], for convergence detection *)
}

(* Lazily-decayed limiter value of a pair that may have been absent for
   [gap] periods. *)
let decayed t (lim : limiter) =
  let gap = t.period - lim.l_period in
  if gap <= 0 then lim.l_rate
  else lim.l_rate *. ((1. -. t.cfg.decay) ** float_of_int gap)

(* Drop persisted limiters that have decayed to nothing (their pair has
   been absent long enough that resuming from the guarantee is
   equivalent).  Runs once per epoch, so cost is amortised over the
   epoch's periods. *)
let prune_limits t =
  Hashtbl.filter_map_inplace
    (fun _pair lim -> if decayed t lim < 1e-6 then None else Some lim)
    t.limits

(* One compile = one epoch, whether driven by [run] or [run_dynamic] —
   the single counting site keeps [enforce.epochs] in lockstep with
   [enforce.gp.updates]. *)
let compile t ~flows =
  Cm_obs.Metrics.incr m_gp_updates;
  Cm_obs.Metrics.incr m_epochs;
  prune_limits t;
  let specs = Array.of_list flows in
  let n = Array.length specs in
  let paths =
    Array.map
      (fun (f : flow_spec) -> Array.of_list (List.map (link_index_of t) f.path))
      specs
  in
  let demand = Array.map (fun (f : flow_spec) -> f.demand) specs in
  (* GP is a pure function of the epoch's pairs and demands, so one
     computation serves every period of the epoch. *)
  let guarantees =
    Elastic.pair_guarantees
      ~demands:(Array.to_list demand)
      t.tag t.enforcement
      ~pairs:(List.map (fun f -> f.pair) flows)
  in
  let guarantee = Array.make n 0. in
  List.iteri (fun i (_, g) -> guarantee.(i) <- g) guarantees;
  let limit =
    Array.mapi
      (fun i f ->
        match Hashtbl.find_opt t.limits f.pair with
        | Some lim -> decayed t lim
        | None -> guarantee.(i))
      specs
  in
  {
    specs;
    n;
    paths;
    demand;
    guarantee;
    limit;
    rate = Array.make n 0.;
    smooth = Array.make n 0.;
  }

(* Persist the epoch's limiters so the next epoch resumes from them. *)
let write_back t es =
  for i = 0 to es.n - 1 do
    match Hashtbl.find_opt t.limits es.specs.(i).pair with
    | Some lim ->
        lim.l_rate <- es.limit.(i);
        lim.l_period <- t.period
    | None ->
        Hashtbl.replace t.limits es.specs.(i).pair
          { l_rate = es.limit.(i); l_period = t.period }
  done

(* One control period over a compiled epoch.  Mirrors the reference
   loop's float operations in the same order, so a fixed flow set
   produces bit-identical throughputs. *)
let step_compiled t es =
  Cm_obs.Metrics.incr ~by:es.n m_ra_updates;
  let { probe_gain; decay; _ } = t.cfg in
  let loads = t.loads in
  Array.fill loads 0 (Array.length loads) 0.;
  (* 1. Current sending rates (limiter floored at the guarantee, capped
     by demand) and the per-link load they offer. *)
  for i = 0 to es.n - 1 do
    let r = Float.min es.demand.(i) (Float.max es.guarantee.(i) es.limit.(i)) in
    es.rate.(i) <- r;
    let path = es.paths.(i) in
    for k = 0 to Array.length path - 1 do
      let l = path.(k) in
      loads.(l) <- loads.(l) +. r
    done
  done;
  (* 2. Throughput (proportional loss on every link loaded past its
     effective capacity), congestion signal, and the RA limiter update
     for the next period.  Both the congestion test and the loss model
     use the same effective capacity [cap * (1 - headroom)]. *)
  for i = 0 to es.n - 1 do
    let r = es.rate.(i) in
    let path = es.paths.(i) in
    let congested = ref false in
    let thr = ref r in
    for k = 0 to Array.length path - 1 do
      let l = path.(k) in
      let load = loads.(l) and eff = t.eff_caps.(l) in
      if load > eff +. 1e-9 then congested := true;
      if load > eff && load > 0. then thr := !thr *. (eff /. load)
    done;
    es.rate.(i) <- !thr;
    let g = es.guarantee.(i) in
    let r' =
      if !congested then
        (* Keep the guarantee, decay the work-conserving bonus. *)
        g +. ((r -. g) *. (1. -. decay))
      else
        (* Probe upward proportionally to the guarantee (plus a small
           constant so zero-guarantee flows still probe). *)
        r +. (probe_gain *. Float.max g 1.)
    in
    es.limit.(i) <- Float.min es.demand.(i) r'
  done;
  t.period <- t.period + 1

let rates_of es =
  Array.to_list (Array.mapi (fun i f -> (f.pair, es.rate.(i))) es.specs)

let run t ~flows ~periods =
  let es = compile t ~flows in
  for _ = 1 to max 1 periods do
    step_compiled t es
  done;
  write_back t es;
  rates_of es

(* {1 Dynamic driver} *)

type epoch_report = {
  epoch : int;
  n_flows : int;
  periods : int;
  converged : bool;
  residual : float;
  steady : (Elastic.active_pair * float) list;
}

type report = {
  rates : (Elastic.active_pair * float) list;
  last : (Elastic.active_pair * float) list;
  total_periods : int;
  epochs : epoch_report list;
}

(* The fluid steady state the AIMD loop saw-tooths around: guarantees
   first, then work-conserving max-min over the effective capacities
   (paper §5.2; the loop's multiplicative decay protects exactly the GP
   guarantee, the additive probe grabs the max-min share of the rest). *)

let eff_links t =
  Array.to_list
    (Array.mapi
       (fun i id -> { Maxmin.link_id = id; capacity = t.eff_caps.(i) })
       t.link_ids)

(* Incremental steady state: diff this epoch's flow set into the
   persistent solver.  Each pair keeps a stable solver id across
   epochs, so an unchanged flow costs one lookup and zero solver work;
   arrivals, departures and GP-guarantee changes dirty exactly the
   links on their paths, and [Inc.solve] re-converges only the sharing
   components that frontier reaches. *)
let steady_state t es =
  (* Stable ids for this epoch's pairs, in epoch order. *)
  let flow_ids = Array.make es.n 0 in
  for i = 0 to es.n - 1 do
    let pair = es.specs.(i).pair in
    let id =
      match Hashtbl.find_opt t.solver_ids pair with
      | Some id -> id
      | None ->
          let id = t.next_flow_id in
          t.next_flow_id <- id + 1;
          Hashtbl.replace t.solver_ids pair id;
          id
    in
    flow_ids.(i) <- id;
    let f =
      {
        Maxmin.flow_id = id;
        path = es.specs.(i).path;
        demand = es.demand.(i);
        guarantee = es.guarantee.(i);
      }
    in
    match Hashtbl.find_opt t.solver_flows id with
    | Some prev when prev = f -> ()
    | Some _ | None ->
        Maxmin.Inc.set t.solver f;
        Hashtbl.replace t.solver_flows id f
  done;
  (* Departures: pairs the solver still holds but this epoch lacks. *)
  if Hashtbl.length t.solver_ids > es.n then begin
    let present = Hashtbl.create (2 * es.n) in
    Array.iteri (fun i _ -> Hashtbl.replace present flow_ids.(i) ()) flow_ids;
    let departed = ref [] in
    Hashtbl.iter
      (fun pair id ->
        if not (Hashtbl.mem present id) then departed := (pair, id) :: !departed)
      t.solver_ids;
    List.iter
      (fun (pair, id) ->
        Maxmin.Inc.remove t.solver id;
        Hashtbl.remove t.solver_ids pair;
        Hashtbl.remove t.solver_flows id)
      !departed
  end;
  Maxmin.Inc.solve t.solver;
  let st = Maxmin.Inc.last_stats t.solver in
  Cm_obs.Metrics.incr m_inc_solves;
  Cm_obs.Metrics.incr ~by:st.flows_resolved m_inc_resolved;
  Cm_obs.Metrics.incr ~by:st.components m_inc_components;
  Array.to_list
    (Array.mapi
       (fun i f -> (f.pair, Maxmin.Inc.rate t.solver flow_ids.(i)))
       es.specs)

(* The incremental fixed point must be bitwise identical to a
   from-scratch [with_guarantees] over the same stable flow ids (the ids
   pin the canonical per-component solve order, so any difference is a
   dirty-frontier bug, not float noise). *)
let verify t =
  let flows =
    List.sort
      (fun (a : Maxmin.flow) b -> compare a.flow_id b.flow_id)
      (Hashtbl.fold (fun _ f acc -> f :: acc) t.solver_flows [])
  in
  let oracle = Maxmin.with_guarantees ~links:(eff_links t) ~flows in
  let diverged (id, o) =
    let r = Maxmin.Inc.rate t.solver id in
    Int64.bits_of_float r <> Int64.bits_of_float o
  in
  match Array.find_opt diverged oracle with
  | None -> Ok ()
  | Some (id, o) ->
      Error
        (Printf.sprintf
           "Runtime.verify: incremental solver diverged from the Maxmin \
            oracle (flow %d: incremental %.17g, oracle %.17g)"
           id (Maxmin.Inc.rate t.solver id) o)

(* Convergence detection.  The AIMD transient has two regimes a naive
   per-period test confuses: the saw-tooth (large per-period deltas that
   cancel out) and slow multiplicative drift toward the fixed point
   (small per-period deltas that accumulate for dozens of periods).  We
   therefore smooth rates with an EWMA to flatten the saw-tooth, and
   compare EWMA {e snapshots a window apart} to expose drift: an epoch
   is converged once the max per-flow EWMA movement over a whole window
   stays below [eps] (relative to the largest smoothed rate) for
   [stable_windows] consecutive windows.  A flow population whose raw
   rates are exactly static (everything demand-capped) short-circuits
   after [static_needed] identical periods. *)
let ewma_alpha = 0.2
let window = 8
let stable_windows = 2
let static_needed = 3

let run_dynamic ?(eps = 0.02) ?(max_periods = 512) t ~epochs =
  if eps <= 0. then invalid_arg "Runtime.run_dynamic: eps must be positive";
  if max_periods < 1 then
    invalid_arg "Runtime.run_dynamic: max_periods must be >= 1";
  let total_periods = ref 0 in
  let last = ref [] in
  let reports =
    List.mapi
      (fun e flows ->
        Cm_obs.Span.with_span s_epoch @@ fun () ->
        let es = compile t ~flows in
        let periods = ref 0 in
        let stable = ref 0 in
        let static = ref 0 in
        let residual = ref infinity in
        let had_window = ref false in
        let last_raw = ref nan in
        if es.n > 0 then begin
          let prev = Array.make es.n 0. in
          let snapshot = Array.make es.n 0. in
          (* Seed the smoothed rates with the first period. *)
          step_compiled t es;
          incr periods;
          Array.blit es.rate 0 es.smooth 0 es.n;
          Array.blit es.rate 0 prev 0 es.n;
          Array.blit es.smooth 0 snapshot 0 es.n;
          while
            !stable < stable_windows
            && !static < static_needed
            && !periods < max_periods
          do
            step_compiled t es;
            incr periods;
            let raw_delta = ref 0. in
            for i = 0 to es.n - 1 do
              let r = es.rate.(i) in
              let d = Float.abs (r -. prev.(i)) in
              if d > !raw_delta then raw_delta := d;
              prev.(i) <- r;
              es.smooth.(i) <- es.smooth.(i) +. (ewma_alpha *. (r -. es.smooth.(i)))
            done;
            Cm_obs.Metrics.observe h_rate_delta !raw_delta;
            last_raw := !raw_delta;
            if !raw_delta = 0. then incr static else static := 0;
            if !periods mod window = 0 then begin
              had_window := true;
              let drift = ref 0. and scale = ref 1. in
              for i = 0 to es.n - 1 do
                let s = es.smooth.(i) in
                let d = Float.abs (s -. snapshot.(i)) in
                if d > !drift then drift := d;
                if s > !scale then scale := s;
                snapshot.(i) <- s
              done;
              residual := !drift /. !scale;
              if !residual < eps then incr stable else stable := 0
            end
          done
        end;
        write_back t es;
        total_periods := !total_periods + !periods;
        if es.n > 0 then last := rates_of es;
        let converged =
          es.n = 0 || !stable >= stable_windows || !static >= static_needed
        in
        if converged then begin
          Cm_obs.Metrics.incr m_epochs_converged;
          Cm_obs.Metrics.observe h_converge_periods (float_of_int !periods)
        end;
        {
          epoch = e;
          n_flows = es.n;
          periods = !periods;
          converged;
          (* An epoch that never completed a drift window used to report
             residual 0 — indistinguishable from perfect convergence.
             Report the windowed relative drift when a window completed,
             else the last raw per-period delta (Mbps), else nan (empty
             epoch, or a single period with nothing to diff). *)
          residual = (if !had_window then !residual else !last_raw);
          steady = steady_state t es;
        })
      epochs
  in
  let rates =
    match List.rev reports with [] -> [] | r :: _ -> r.steady
  in
  { rates; last = !last; total_periods = !total_periods; epochs = reports }

let throughput_of result pair =
  match List.assoc_opt pair result with Some r -> r | None -> 0.
