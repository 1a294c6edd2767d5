module Tree = Cm_topology.Tree
module Tag = Cm_tag.Tag
module Types = Cm_placement.Types
module Wcs = Cm_placement.Wcs
module Pool = Cm_workload.Pool
module Rng = Cm_util.Rng
module Pqueue = Cm_util.Pqueue
module Metrics = Cm_obs.Metrics
module Series = Cm_obs.Series

(* Per-epoch series (ISSUE 7): a run given a [?series_prefix] samples
   its per-arrival signals into series named [<prefix>.<signal>].  Each
   logical run must use its own prefix — parallel replicate rows with
   distinct prefixes never share a ring, which keeps documents identical
   at any jobs count. *)
let sample_series prefix name ~x y =
  match prefix with
  | None -> ()
  | Some p -> Series.sample_named (p ^ "." ^ name) ~x y

(* Arrival/departure telemetry, aggregated across every run (and every
   worker domain) of the process. *)
let m_arrivals = Metrics.counter "sim.arrivals"
let m_departures = Metrics.counter "sim.departures"
let m_accepted = Metrics.counter "sim.accepted"
let m_rejected = Metrics.counter "sim.rejected"

(* Failure-campaign telemetry (ISSUE 6): injections, repairs, and the
   fate of every stranded tenant. *)
let m_failure_injected = Metrics.counter "failure.injected"
let m_failure_repaired = Metrics.counter "failure.repaired"
let m_recovery_replaced = Metrics.counter "recovery.replaced"
let m_recovery_partial = Metrics.counter "recovery.partial"
let m_recovery_stranded = Metrics.counter "recovery.stranded"
let m_recovery_attempts = Metrics.counter "recovery.attempts"

type config = {
  seed : int;
  n_arrivals : int;
  load : float;
  dwell_time : float;
  ha : Types.ha_spec option;
  wcs_level : int;
}

let default_config =
  {
    seed = 1;
    n_arrivals = 2000;
    load = 0.5;
    dwell_time = 1000.;
    ha = None;
    wcs_level = 0;
  }

type result = {
  arrivals : int;
  accepted : int;
  rejected : int;
  rejected_no_slots : int;
  rejected_no_bw : int;
  offered_vms : int;
  rejected_vms : int;
  offered_bw : float;
  rejected_bw : float;
  wcs_per_component : float array;
  mean_utilization : float;
}

let vm_rejection_rate r =
  100. *. Cm_util.Stats.ratio (float_of_int r.rejected_vms) (float_of_int r.offered_vms)

let bw_rejection_rate r = 100. *. Cm_util.Stats.ratio r.rejected_bw r.offered_bw

let mean_wcs r = 100. *. Cm_util.Stats.mean r.wcs_per_component

let min_wcs r =
  if Array.length r.wcs_per_component = 0 then 0.
  else 100. *. fst (Cm_util.Stats.min_max r.wcs_per_component)

let max_wcs r =
  if Array.length r.wcs_per_component = 0 then 0.
  else 100. *. snd (Cm_util.Stats.min_max r.wcs_per_component)

(* The paper's load definition solved for the Poisson arrival rate. *)
let arrival_rate fn tree pool config =
  if not (Float.is_finite config.load && config.load > 0.) then
    invalid_arg (fn ^ ": load must be finite and > 0");
  config.load
  *. float_of_int (Tree.total_slots tree)
  /. (Pool.mean_size pool *. config.dwell_time)

(* Admission accounting, shared by every arrival loop so that an offer,
   an acceptance and a rejection (by reason) are each counted in one
   place.  [i] is the 1-based arrival number, the x of both series. *)
module Tally = struct
  type t = {
    series_prefix : string option;
    tree : Tree.t;
    total_slots : float;
    wcs_level : int;
    mutable accepted : int;
    mutable rejected : int;
    mutable rejected_no_slots : int;
    mutable rejected_no_bw : int;
    mutable offered_vms : int;
    mutable rejected_vms : int;
    mutable offered_bw : float;
    mutable rejected_bw : float;
    mutable wcs_samples : float list;
    mutable util_sum : float;
  }

  let create ?series_prefix tree (config : config) =
    {
      series_prefix;
      tree;
      total_slots = float_of_int (Tree.total_slots tree);
      wcs_level = config.wcs_level;
      accepted = 0;
      rejected = 0;
      rejected_no_slots = 0;
      rejected_no_bw = 0;
      offered_vms = 0;
      rejected_vms = 0;
      offered_bw = 0.;
      rejected_bw = 0.;
      wcs_samples = [];
      util_sum = 0.;
    }

  (* Samples the slot utilization the arrival sees, so call it after the
     departures due before the arrival are released. *)
  let offer t ~i tag =
    Metrics.incr m_arrivals;
    let util =
      (t.total_slots
      -. float_of_int (Tree.free_slots_subtree t.tree (Tree.root t.tree)))
      /. t.total_slots
    in
    t.util_sum <- t.util_sum +. util;
    sample_series t.series_prefix "utilization" ~x:(float_of_int i) util;
    t.offered_vms <- t.offered_vms + Tag.total_vms tag;
    t.offered_bw <- t.offered_bw +. Tag.aggregate_bandwidth tag

  let decided t ~i =
    sample_series t.series_prefix "acceptance_rate" ~x:(float_of_int i)
      (float_of_int t.accepted /. float_of_int i)

  let accept t ~i (placement : Types.placement) =
    t.accepted <- t.accepted + 1;
    Metrics.incr m_accepted;
    (* Use the placement's own TAG: schedulers may deploy a converted
       rendering (e.g. the VC baseline) with different components. *)
    Array.iter
      (fun w -> t.wcs_samples <- w :: t.wcs_samples)
      (Wcs.per_component t.tree placement.Types.req.tag
         placement.Types.locations ~laa_level:t.wcs_level);
    decided t ~i

  let reject t ~i tag reason =
    t.rejected <- t.rejected + 1;
    Metrics.incr m_rejected;
    t.rejected_vms <- t.rejected_vms + Tag.total_vms tag;
    t.rejected_bw <- t.rejected_bw +. Tag.aggregate_bandwidth tag;
    (match reason with
    | Types.No_slots -> t.rejected_no_slots <- t.rejected_no_slots + 1
    | Types.No_bandwidth -> t.rejected_no_bw <- t.rejected_no_bw + 1);
    decided t ~i

  let finish t config : result =
    {
      arrivals = config.n_arrivals;
      accepted = t.accepted;
      rejected = t.rejected;
      rejected_no_slots = t.rejected_no_slots;
      rejected_no_bw = t.rejected_no_bw;
      offered_vms = t.offered_vms;
      rejected_vms = t.rejected_vms;
      offered_bw = t.offered_bw;
      rejected_bw = t.rejected_bw;
      wcs_per_component = Array.of_list (List.rev t.wcs_samples);
      mean_utilization = t.util_sum /. float_of_int (max 1 config.n_arrivals);
    }
end

(* The arrival loop of {!run} and {!run_batched}: arrivals are drawn
   [epoch] at a time and decided together by [place].  Every RNG draw
   is serial — the epoch's inter-arrival times and tags first, then the
   accepted tenants' dwell times in arrival order — so the trajectory is
   deterministic and, when [place] is, jobs-invariant.  With [epoch = 1]
   each arrival goes clock, drain, utilization, tag, place, dwell.
   Departures due inside an epoch take effect at the next arrival drawn,
   and all that remain are released at the end so the tree can be
   reused. *)
let arrivals fn ?series_prefix ~epoch ~place ~release tree pool config =
  let lambda = arrival_rate fn tree pool config in
  if epoch <= 0 then invalid_arg (fn ^ ": epoch must be positive");
  let rng = Rng.create config.seed in
  let tally = Tally.create ?series_prefix tree config in
  let departures = Pqueue.create () in
  let rec drain now =
    match Pqueue.peek departures with
    | Some (t, _) when t <= now -> begin
        match Pqueue.pop departures with
        | Some (_, placement) ->
            release placement;
            Metrics.incr m_departures;
            drain now
        | None -> ()
      end
    | Some _ | None -> ()
  in
  let clock = ref 0. and n = ref 0 in
  while !n < config.n_arrivals do
    let b = min epoch (config.n_arrivals - !n) in
    let batch =
      List.init b (fun j ->
          let i = !n + j + 1 in
          clock := !clock +. Rng.exponential rng ~rate:lambda;
          drain !clock;
          let tag = Rng.pick rng pool.Pool.tags in
          Tally.offer tally ~i tag;
          (i, !clock, tag))
    in
    List.iter2
      (fun (i, t_arr, tag) -> function
        | Ok placement ->
            Tally.accept tally ~i placement;
            let dwell = Rng.exponential rng ~rate:(1. /. config.dwell_time) in
            Pqueue.push departures (t_arr +. dwell) placement
        | Error reason -> Tally.reject tally ~i tag reason)
      batch
      (place
         (List.map (fun (_, _, tag) -> Types.request ?ha:config.ha tag) batch));
    n := !n + b
  done;
  drain infinity;
  Tally.finish tally config

let run ?series_prefix (sched : Driver.scheduler) tree pool config =
  arrivals "Runner.run" ?series_prefix ~epoch:1
    ~place:(List.map sched.Driver.place) ~release:sched.Driver.release tree
    pool config

let run_batched ?series_prefix ?(epoch = 64) shard pool config =
  let module Shard = Cm_placement.Shard in
  arrivals "Runner.run_batched" ?series_prefix ~epoch
    ~place:(Shard.place_batch shard) ~release:(Shard.release shard)
    (Shard.tree shard) pool config

let horizon tree pool config =
  float_of_int config.n_arrivals
  *. Pool.mean_size pool *. config.dwell_time
  /. (config.load *. float_of_int (Tree.total_slots tree))

type recovery_policy = {
  max_attempts : int;
  recover_ha : Types.ha_spec option;
  degrade_no_ha : bool;
  partial_fractions : float list;
}

let default_recovery =
  {
    max_attempts = 6;
    recover_ha = None;
    degrade_no_ha = true;
    partial_fractions = [ 0.75; 0.5 ];
  }

type failure_result = {
  base : result;
  events_injected : int;
  events_repaired : int;
  tenants_affected : int;
  vms_lost : int;
  recovered_full : int;
  recovered_partial : int;
  stranded : int;
  recovery_attempts : int;
  mean_time_to_restore : float;
  max_time_to_restore : float;
  total_downtime : float;
  wcs_slack_min : float;
}

(* A fault-queue entry: inject a scheduled event, or repair one by
   releasing the slot blockade it committed. *)
type fault_action =
  | Inject of Failure.event
  | Repair of Cm_topology.Reservation.committed

(* One tenant knocked out by a failure event.  [s_tag]/[s_ha] describe
   what was deployed at the moment of the hit (a partially recovered
   tenant re-enters with its shrunken TAG). *)
type stranded_info = {
  s_tag : Tag.t;
  s_ha : Types.ha_spec option;
  s_fail_time : float;
  mutable s_attempts : int;
  mutable s_gave_up : bool;
}

let run_with_failures ?series_prefix ?(recovery = default_recovery) ?inspect
    (sched : Driver.scheduler) tree pool config ~(failures : Failure.schedule) =
  let module Reservation = Cm_topology.Reservation in
  let lambda = arrival_rate "Runner.run_with_failures" tree pool config in
  let rng = Rng.create config.seed in
  let domains = Tree.nodes_at_level tree failures.Failure.level in
  if Array.length domains = 0 then
    invalid_arg "Runner.run_with_failures: no fault domains at level";
  (* Departures carry tenant ids; placements live in [live] so a failure
     can release a tenant without disturbing its departure entry. *)
  let departures : int Pqueue.t = Pqueue.create () in
  let faults : fault_action Pqueue.t = Pqueue.create () in
  List.iter
    (fun (ev : Failure.event) -> Pqueue.push faults ev.Failure.at (Inject ev))
    failures.Failure.events;
  let live : (int, Types.placement) Hashtbl.t = Hashtbl.create 64 in
  (* Predicted WCS at the schedule's level, refreshed on re-placement; the
     base result's [wcs_per_component] stays at [config.wcs_level] (see
     mli: the two levels are distinct and only comparable when equal). *)
  let predicted : (int, float array) Hashtbl.t = Hashtbl.create 64 in
  let stranded_tbl : (int, stranded_info) Hashtbl.t = Hashtbl.create 16 in
  let permanent_blockades = ref [] in
  let clock = ref 0. in
  let next_id = ref 0 in
  let tally = Tally.create ?series_prefix tree config in
  let events_injected = ref 0
  and events_repaired = ref 0
  and tenants_affected = ref 0
  and vms_lost = ref 0
  and recovered_full = ref 0
  and recovered_partial = ref 0
  and stranded = ref 0
  and recovery_attempts = ref 0 in
  let ttr_sum = ref 0. and ttr_max = ref 0. and ttr_count = ref 0 in
  let total_downtime = ref 0. in
  let wcs_slack_min = ref infinity in
  let live_placements_sorted () =
    Hashtbl.fold (fun id p acc -> (id, p) :: acc) live []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
    |> List.map snd
  in
  let shrink tag frac =
    let changed = ref false in
    let t = ref tag in
    for c = 0 to Tag.n_components tag - 1 do
      let size = Tag.size tag c in
      let small = max 1 (int_of_float (frac *. float_of_int size)) in
      if small < size then begin
        changed := true;
        t := Tag.with_size !t ~comp:c ~size:small
      end
    done;
    if !changed then Some !t else None
  in
  let admit id (p : Types.placement) =
    Hashtbl.replace live id p;
    Hashtbl.replace predicted id
      (Wcs.per_component tree p.Types.req.tag p.Types.locations
         ~laa_level:failures.Failure.level)
  in
  let close_restored id info now ~partial =
    let ttr = now -. info.s_fail_time in
    ttr_sum := !ttr_sum +. ttr;
    ttr_max := Float.max !ttr_max ttr;
    incr ttr_count;
    total_downtime := !total_downtime +. ttr;
    (* How far down the full -> no-HA -> partial ladder this restore
       had to go, in attempts; x is sim time so restores line up with
       the schedule's failure events. *)
    sample_series series_prefix "ladder_depth" ~x:now
      (float_of_int info.s_attempts);
    if partial then begin
      incr recovered_partial;
      Metrics.incr m_recovery_partial
    end
    else incr recovered_full;
    Metrics.incr m_recovery_replaced;
    Hashtbl.remove stranded_tbl id
  in
  let close_stranded id info now =
    total_downtime := !total_downtime +. (now -. info.s_fail_time);
    incr stranded;
    Metrics.incr m_recovery_stranded;
    Hashtbl.remove stranded_tbl id
  in
  (* The recovery ladder: full TAG under the recovery HA spec, then full
     TAG without anti-affinity, then progressively smaller renderings
     (per-VM guarantees unchanged — the TAG auto-scaling property).  One
     rung sweep per attempt; bounded by [max_attempts]. *)
  let try_recover id info now =
    if info.s_attempts >= recovery.max_attempts then info.s_gave_up <- true
    else begin
    info.s_attempts <- info.s_attempts + 1;
    incr recovery_attempts;
    Metrics.incr m_recovery_attempts;
    let place tag ha =
      match sched.Driver.place (Types.request ?ha tag) with
      | Ok p -> Some p
      | Error _ -> None
    in
    let ha =
      match recovery.recover_ha with Some _ as h -> h | None -> info.s_ha
    in
    let full =
      match place info.s_tag ha with
      | Some p -> Some (p, false)
      | None ->
          if recovery.degrade_no_ha && ha <> None then
            match place info.s_tag None with
            | Some p -> Some (p, false)
            | None -> None
          else None
    in
    let result =
      match full with
      | Some _ as r -> r
      | None ->
          List.fold_left
            (fun acc frac ->
              match acc with
              | Some _ -> acc
              | None -> (
                  match shrink info.s_tag frac with
                  | None -> None
                  | Some small -> (
                      match place small None with
                      | Some p -> Some (p, true)
                      | None -> None)))
            None recovery.partial_fractions
    in
    match result with
    | Some (p, partial) ->
        admit id p;
        close_restored id info now ~partial
    | None ->
        if info.s_attempts >= recovery.max_attempts then
          info.s_gave_up <- true
    end
  in
  let attempt_recoveries now =
    let ids =
      Hashtbl.fold
        (fun id info acc -> if info.s_gave_up then acc else id :: acc)
        stranded_tbl []
      |> List.sort compare
    in
    List.iter
      (fun id ->
        match Hashtbl.find_opt stranded_tbl id with
        | Some info when not info.s_gave_up -> try_recover id info now
        | _ -> ())
      ids
  in
  let inject (ev : Failure.event) now =
    incr events_injected;
    Metrics.incr m_failure_injected;
    let dnode = domains.(ev.Failure.domain_index mod Array.length domains) in
    let lo, hi = Tree.server_range tree dnode in
    let affected =
      Hashtbl.fold
        (fun id (p : Types.placement) acc ->
          let hit =
            Array.exists
              (List.exists (fun (server, _) -> server >= lo && server <= hi))
              p.Types.locations
          in
          if hit then id :: acc else acc)
        live []
      |> List.sort compare
    in
    List.iter
      (fun id ->
        let p = Hashtbl.find live id in
        let tag = p.Types.req.tag in
        (* Realized survival at the schedule's own level — [dnode] is
           already a level node, so the lift is the identity and this
           agrees with the event path by construction. *)
        let realized =
          Failure.survival tree tag p.Types.locations ~domain:dnode
            ~laa_level:failures.Failure.level
        in
        (match Hashtbl.find_opt predicted id with
        | Some pred ->
            Array.iteri
              (fun c r ->
                wcs_slack_min := Float.min !wcs_slack_min (r -. pred.(c)))
              realized
        | None -> ());
        Array.iteri
          (fun c r ->
            let total = Tag.size tag c in
            vms_lost :=
              !vms_lost
              + (total - int_of_float (Float.round (r *. float_of_int total))))
          realized;
        sched.Driver.release p;
        Hashtbl.remove live id;
        Hashtbl.remove predicted id;
        incr tenants_affected;
        Hashtbl.replace stranded_tbl id
          {
            s_tag = tag;
            s_ha = p.Types.req.ha;
            s_fail_time = now;
            s_attempts = 0;
            s_gave_up = false;
          })
      affected;
    (* Blockade the dead subtree: take every remaining free slot so no
       placement (including recovery) can land there while it is down.
       Slots are sufficient — with no VMs inside, nothing reserves
       bandwidth on the dead node's uplink. *)
    let txn = Reservation.start tree in
    Array.iter
      (fun s ->
        let free = Tree.free_slots tree s in
        if free > 0 then ignore (Reservation.take_slots txn ~server:s free))
      (Tree.subtree_servers tree dnode);
    let blockade = Reservation.commit txn in
    (match ev.Failure.repair_after with
    | Some d -> Pqueue.push faults (now +. d) (Repair blockade)
    | None -> permanent_blockades := blockade :: !permanent_blockades);
    (* No recovery at the failure instant: the first re-placement attempt
       happens at the next simulation tick (arrival or repair), modelling
       detection plus re-placement delay — time-to-restore is never
       exactly zero. *)
    match inspect with
    | Some f -> f tree (live_placements_sorted ())
    | None -> ()
  in
  let repair blockade now =
    incr events_repaired;
    Metrics.incr m_failure_repaired;
    Reservation.release tree blockade;
    attempt_recoveries now;
    match inspect with
    | Some f -> f tree (live_placements_sorted ())
    | None -> ()
  in
  let handle_departure id now =
    match Hashtbl.find_opt live id with
    | Some p ->
        sched.Driver.release p;
        Hashtbl.remove live id;
        Hashtbl.remove predicted id;
        Metrics.incr m_departures
    | None -> (
        (* Tenant was down when its dwell expired: the incident closes
           without a restore. *)
        match Hashtbl.find_opt stranded_tbl id with
        | Some info ->
            close_stranded id info now;
            Metrics.incr m_departures
        | None -> ())
  in
  (* Process departures and fault events in global time order up to [t];
     departures win ties so a tenant never recovers into a tree it was
     about to leave. *)
  let rec process_until t =
    let dep_t =
      match Pqueue.peek departures with Some (x, _) -> x | None -> infinity
    in
    let fault_t =
      match Pqueue.peek faults with Some (x, _) -> x | None -> infinity
    in
    let next = Float.min dep_t fault_t in
    (* [next < infinity] guards the drain-everything call
       ([process_until infinity]) against spinning on empty queues. *)
    if next <= t && next < infinity then begin
      if dep_t <= fault_t then (
        match Pqueue.pop departures with
        | Some (now, id) -> handle_departure id now
        | None -> ())
      else (
        match Pqueue.pop faults with
        | Some (now, Inject ev) -> inject ev now
        | Some (now, Repair blockade) -> repair blockade now
        | None -> ());
      process_until t
    end
  in
  for i = 1 to config.n_arrivals do
    clock := !clock +. Rng.exponential rng ~rate:lambda;
    process_until !clock;
    (* Stranded tenants get a recovery pass before the new arrival: the
       provider restores existing guarantees ahead of admitting load. *)
    if Hashtbl.length stranded_tbl > 0 then attempt_recoveries !clock;
    sample_series series_prefix "stranded" ~x:(float_of_int i)
      (float_of_int (Hashtbl.length stranded_tbl));
    let tag = Rng.pick rng pool.Pool.tags in
    Tally.offer tally ~i tag;
    match sched.Driver.place (Types.request ?ha:config.ha tag) with
    | Ok placement ->
        Tally.accept tally ~i placement;
        let id = !next_id in
        incr next_id;
        admit id placement;
        let dwell = Rng.exponential rng ~rate:(1. /. config.dwell_time) in
        Pqueue.push departures (!clock +. dwell) id
    | Error reason -> Tally.reject tally ~i tag reason
  done;
  (* Drain everything left — departures, pending injections, repairs —
     still in time order, so late repairs can rescue stranded tenants
     whose dwell has not expired. *)
  process_until infinity;
  (* Never-repaired blockades are released last so the tree is pristine
     for reuse; the simulated datacenter simply ended with those domains
     dark. *)
  List.iter (Reservation.release tree) !permanent_blockades;
  {
    base = Tally.finish tally config;
    events_injected = !events_injected;
    events_repaired = !events_repaired;
    tenants_affected = !tenants_affected;
    vms_lost = !vms_lost;
    recovered_full = !recovered_full;
    recovered_partial = !recovered_partial;
    stranded = !stranded;
    recovery_attempts = !recovery_attempts;
    mean_time_to_restore =
      (if !ttr_count = 0 then 0. else !ttr_sum /. float_of_int !ttr_count);
    max_time_to_restore = !ttr_max;
    total_downtime = !total_downtime;
    wcs_slack_min = !wcs_slack_min;
  }

let run_replications ?domains make spec pool config ~seeds =
  (* One fresh tree and scheduler per replicate: all simulation state is
     shard-private, so results are the same for any domain count and
     identical to mapping [run] over the seeds sequentially. *)
  Cm_util.Par.map ?domains
    (fun seed ->
      Cm_obs.Span.with_ "sim.replication" (fun () ->
          let tree = Tree.create spec in
          let sched = make tree in
          run sched tree pool { config with seed }))
    seeds
