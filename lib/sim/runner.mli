(** Poisson tenant arrival/departure simulation (paper §5 setup).

    Tenants arrive as a Poisson process, are drawn uniformly from a pool,
    dwell for an exponential time, and depart releasing their resources.
    The arrival rate is derived from a target datacenter load:
    [lambda = load * total_slots / (mean_tenant_size * dwell_time)] —
    the paper's load definition solved for lambda. *)

type config = {
  seed : int;
  n_arrivals : int;
  load : float;  (** Target slot utilization in (0, 1]. *)
  dwell_time : float;  (** Mean tenant dwell time Td (arbitrary units). *)
  ha : Cm_placement.Types.ha_spec option;
      (** Attached to every request (guaranteed-WCS experiments). *)
  wcs_level : int;
      (** Tree level at which achieved WCS is measured (usually the LAA
          level; server = 0). *)
}

val default_config : config
(** seed 1, 2000 arrivals, load 0.5, dwell 1000, no HA, WCS at servers. *)

type result = {
  arrivals : int;
  accepted : int;
  rejected : int;
  rejected_no_slots : int;
  rejected_no_bw : int;
  offered_vms : int;
  rejected_vms : int;
  offered_bw : float;  (** Sum of tenants' aggregate guaranteed bandwidth. *)
  rejected_bw : float;
  wcs_per_component : float array;
      (** Achieved WCS of every component of every accepted tenant,
          measured at [wcs_level] at admission time. *)
  mean_utilization : float;  (** Mean slot utilization sampled at arrivals. *)
}

val vm_rejection_rate : result -> float
(** Rejected VMs / offered VMs, in percent. *)

val bw_rejection_rate : result -> float
(** Rejected bandwidth / offered bandwidth, in percent. *)

val mean_wcs : result -> float
(** Mean achieved WCS over all deployed components, in percent. *)

val min_wcs : result -> float
val max_wcs : result -> float

val run :
  ?series_prefix:string ->
  Driver.scheduler -> Cm_topology.Tree.t -> Cm_workload.Pool.t -> config ->
  result
(** [?series_prefix] opts the run into per-arrival {!Cm_obs.Series}
    sampling: [<prefix>.utilization] (slot utilization seen by arrival
    [i]) and [<prefix>.acceptance_rate] (running acceptance fraction),
    with [x = i].  Prefixes must be distinct per logical run — parallel
    rows sharing a name would interleave within one ring.  No-ops when
    series are disabled; never affects results.

    [run] is {!run_batched}'s arrival loop with batches of one arrival,
    each placed by the scheduler as it arrives. *)

val run_batched :
  ?series_prefix:string ->
  ?epoch:int ->
  Cm_placement.Shard.t ->
  Cm_workload.Pool.t ->
  config ->
  result
(** Epoch-batched variant of {!run} over a sharded allocator, sharing
    its arrival loop and admission accounting: arrivals are drawn
    [epoch] (default 64) at a time and placed together through
    {!Cm_placement.Shard.place_batch}.  Deterministic and jobs-invariant
    (all RNG draws are serial: the epoch's inter-arrival times and tags,
    then the accepted tenants' dwell times in arrival order); {e not}
    required to match {!run}'s trajectory — pods decide concurrently
    against epoch-start state, and departures due inside an epoch take
    effect at the next epoch boundary.  [?series_prefix] samples the
    same series as {!run}.
    @raise Invalid_argument unless [load] is finite and positive and
    [epoch] positive. *)

(** {1 Failure campaign (§4.5 extended)}

    [run_with_failures] is {!run} with a correlated {!Failure.schedule}
    replayed against the live simulation: each event kills one fault
    domain at the schedule's level, releases every tenant with a VM
    inside it, blockades the dead subtree's slots (so neither arrivals
    nor recoveries can land there until repair), and runs a recovery
    re-placement pass over the stranded tenants.

    {b Two levels, two meanings.}  [config.wcs_level] is where the base
    result's admission-time WCS is {e reported}; [failures.level] is
    where faults are {e injected} and where predicted-vs-realized slack
    is scored.  The Eq. 7 prediction only bounds realized survival when
    the two agree (or when the request's own [laa_level] is at least the
    injection level) — a placement anti-affine across servers says
    nothing about losing a whole ToR.  [wcs_slack_min] is therefore
    computed against a prediction recomputed at [failures.level]. *)

type recovery_policy = {
  max_attempts : int;
      (** Recovery attempts per stranded tenant before giving up; [0]
          disables recovery entirely. *)
  recover_ha : Cm_placement.Types.ha_spec option;
      (** Anti-affinity spec for the first ladder rung; [None] reuses
          the tenant's original spec. *)
  degrade_no_ha : bool;
      (** Second rung: retry the full TAG without anti-affinity. *)
  partial_fractions : float list;
      (** Remaining rungs: shrink every component to [frac * size]
          (at least 1 VM), per-VM guarantees unchanged — TAG
          auto-scaling as graceful degradation. *)
}

val default_recovery : recovery_policy
(** 6 attempts, original HA then no-HA, partial fractions 0.75 and 0.5. *)

type failure_result = {
  base : result;  (** The usual admission statistics. *)
  events_injected : int;
  events_repaired : int;
  tenants_affected : int;  (** (event, tenant) incidents. *)
  vms_lost : int;
  recovered_full : int;
  recovered_partial : int;
  stranded : int;  (** Incidents closed without a restore. *)
  recovery_attempts : int;
  mean_time_to_restore : float;  (** Over restored incidents; sim time. *)
  max_time_to_restore : float;
  total_downtime : float;
      (** Sum over incidents of restore (or departure/end) minus failure
          time. *)
  wcs_slack_min : float;
      (** Minimum over (event, tenant, component) of realized survival
          minus the Eq. 7 prediction at [failures.level]; non-negative
          whenever requests are anti-affine at (or above) that level.
          [infinity] when no live tenant was ever hit. *)
}

val horizon : Cm_topology.Tree.t -> Cm_workload.Pool.t -> config -> float
(** Expected sim-time span of a run — [n_arrivals / lambda] — for sizing
    failure schedules against a given tree, pool, and load. *)

val run_with_failures :
  ?series_prefix:string ->
  ?recovery:recovery_policy ->
  ?inspect:(Cm_topology.Tree.t -> Cm_placement.Types.placement list -> unit) ->
  Driver.scheduler ->
  Cm_topology.Tree.t ->
  Cm_workload.Pool.t ->
  config ->
  failures:Failure.schedule ->
  failure_result
(** Deterministic in [config.seed] and the schedule.  With an empty
    schedule the [base] result is bit-identical to {!run}.  [?inspect]
    is called after every processed fault event (injection and repair)
    with the live placements in admission order — the test suite uses it
    to audit reservation consistency mid-run.  On return the tree is
    pristine: all tenants drained, all blockades (including
    never-repaired ones) released.

    [?series_prefix] samples the {!run} series plus
    [<prefix>.stranded] (tenants down when arrival [i] was processed,
    [x = i]) and [<prefix>.ladder_depth] (recovery attempts a restored
    tenant needed, [x] = restore sim-time). *)

val run_replications :
  ?domains:int ->
  Driver.maker ->
  Cm_topology.Tree.spec ->
  Cm_workload.Pool.t ->
  config ->
  seeds:int list ->
  result list
(** [run_replications make spec pool config ~seeds] runs one independent
    replication of the simulation per seed, sharded over a
    {!Cm_util.Par} domain pool ([?domains] defaults to the configured
    [--jobs] value).  Each replicate builds its own tree from [spec] and
    its own scheduler with [make]; the shared [pool] is only read.
    Results come back in seed order and are bit-identical for any domain
    count. *)
