(** Discrete-time emulation of the ElasticSwitch control loop (paper
    §5.2; Popa et al. 2013).

    ElasticSwitch enforces hose-style guarantees with two periodic
    layers: {e guarantee partitioning} (GP) turns per-VM hose guarantees
    into per-VM-pair minimums based on which pairs are currently active,
    and {e rate allocation} (RA) lets pairs exceed their guarantee to
    grab spare bandwidth, backing off multiplicatively when the path is
    congested — TCP-like AIMD weighted by the pair guarantee.

    This module runs that loop at fluid granularity and at scale.  The
    flow population is organised in {e epochs}: between two flow-set
    changes the active flows keep dense integer ids, GP is computed once
    (it is a pure function of the epoch's pairs and demands), and every
    per-period quantity — rate limiters, per-link loads, throughputs —
    lives in flat [float array]s indexed by flow id or by a dense link
    index (the same shape as [Tree.level_index] in the placement hot
    path).  A control period is then a handful of array passes with no
    allocation proportional to the population.

    {b Limiter persistence.}  A pair's rate limiter survives across
    epochs.  While the pair is absent its limiter decays multiplicatively
    by [1 - decay] per period (lazily, on reactivation), so a flow that
    pauses briefly resumes near its last rate instead of restarting from
    its guarantee, while long-departed pairs fade to nothing and are
    pruned.

    {b Steady state.}  The AIMD loop saw-tooths around the static
    allocation of {!Maxmin.with_guarantees} over the epoch's GP
    guarantees and effective (headroom-discounted) capacities.  That
    fixed point is maintained by a persistent {!Maxmin.Inc} solver:
    each active pair keeps a stable solver flow id across epochs,
    consecutive epochs are diffed into the solver, and only the sharing
    components touched by the delta are re-converged — bitwise identical
    to a from-scratch solve (see {!verify}).
    {!run_dynamic} detects when the transient has damped — the maximum
    per-flow movement of EWMA-smoothed throughput over a whole
    measurement window stays below [eps] (relative) for consecutive
    windows — and reports that fluid allocation as the epoch's steady
    state, bit-identical to the {!Maxmin} oracle; the per-period
    telemetry captures the transient, the dynamic version of Fig. 13. *)

type config = {
  probe_gain : float;
      (** Additive increase per period, as a fraction of the pair
          guarantee (default 0.1). *)
  decay : float;
      (** Multiplicative decrease of the above-guarantee bonus on
          congestion (default 0.1); also the per-period decay of an
          absent pair's persisted limiter. *)
  headroom : float;
      (** Fraction of capacity kept unreserved: a link's effective
          capacity is [capacity * (1 - headroom)], used both for the
          congestion signal and for the proportional-loss throughput
          model.  The default 0 is a pure loss signal. *)
}

val default_config : config

type flow_spec = {
  pair : Elastic.active_pair;
  path : int list;  (** Link ids (see {!Maxmin.link}). *)
  demand : float;  (** Offered load this period; [infinity] = backlogged. *)
}

type t

val create :
  ?config:config ->
  tag:Cm_tag.Tag.t ->
  enforcement:Elastic.enforcement ->
  links:Maxmin.link list ->
  unit ->
  t
(** A runtime bound to one tenant's TAG and a set of links. *)

val step : t -> flows:flow_spec list -> (Elastic.active_pair * float) list
(** Run one control period with the given active flows and return each
    flow's achieved throughput.  Each call is a one-period epoch: the
    flow set may change freely between calls; pairs keep their limiter
    state while present and decay it while absent (see the module
    description).  Prefer {!run} / {!run_dynamic} when the flow set is
    stable for many periods — they compile the epoch once.

    @raise Invalid_argument if a flow references an unknown link. *)

val run :
  t -> flows:flow_spec list -> periods:int -> (Elastic.active_pair * float) list
(** One epoch of exactly [max 1 periods] control periods with a fixed
    flow set; returns the final period's throughputs. *)

(** {1 Dynamic flow populations} *)

type epoch_report = {
  epoch : int;  (** Index into the [epochs] argument. *)
  n_flows : int;
  periods : int;  (** Control periods executed for this epoch. *)
  converged : bool;
      (** Whether the transient damped below [eps] before
          [max_periods]. *)
  residual : float;
      (** Convergence measurement at the epoch's end: the relative max
          EWMA drift over the last completed 8-period window when at
          least one window completed; otherwise the last raw per-period
          max rate delta in Mbps (a too-short epoch is thereby
          distinguishable from a converged one); [nan] when there was
          nothing to measure (empty epoch, or a single period). *)
  steady : (Elastic.active_pair * float) list;
      (** The epoch's steady-state allocation: {!Maxmin.with_guarantees}
          over the epoch's GP guarantees and effective capacities, in
          flow order. *)
}

type report = {
  rates : (Elastic.active_pair * float) list;
      (** Steady state of the final epoch (same as its
          [epoch_report.steady]). *)
  last : (Elastic.active_pair * float) list;
      (** Raw AIMD throughputs of the very last control period. *)
  total_periods : int;
  epochs : epoch_report list;  (** In input order. *)
}

val run_dynamic :
  ?eps:float ->
  ?max_periods:int ->
  t ->
  epochs:flow_spec list list ->
  report
(** Drive the control loop through a schedule of flow-set epochs (for
    example a seeded arrival/departure trace, see {!Scenario.churn}).
    Each epoch runs until convergence — the maximum per-flow movement of
    EWMA-smoothed throughput over an 8-period window stays below [eps]
    (default [0.02]), relative to the largest smoothed rate, for 2
    consecutive windows (exactly-static rates short-circuit after 3
    periods) — or until [max_periods] (default [512]).  Limiter state
    persists from epoch to epoch, so the transient of epoch [k+1] starts
    from the rates of epoch [k] exactly as the prototype's limiters
    would.

    Telemetry flows through {!Cm_obs.Metrics}: [enforce.epochs] /
    [enforce.epochs.converged] counters, an [enforce.converge_periods]
    histogram (periods to convergence per epoch) and an
    [enforce.rate_delta] histogram (per-period max throughput delta in
    Mbps).  [enforce.epochs] counts every compiled epoch — one per
    {!step} call, one per {!run} call, one per [run_dynamic] epoch — so
    it always equals [enforce.gp.updates].  The incremental solver adds
    [enforce.inc.solves] / [enforce.inc.flows_resolved] /
    [enforce.inc.components].

    The steady-state oracle requires the epoch's GP guarantees to be
    feasible on the effective link capacities (the enforcement setting
    of the paper, where admission control placed the guarantees);
    [Invalid_argument] otherwise. *)

val throughput_of :
  (Elastic.active_pair * float) list -> Elastic.active_pair -> float
(** Lookup helper (0 if the pair is absent). *)

val verify : t -> (unit, string) result
(** Recompute the steady state from scratch and compare: [Ok ()] iff
    every rate the persistent {!Maxmin.Inc} solver holds (the flows of
    the last {!run_dynamic} epoch) is bitwise equal to
    {!Maxmin.with_guarantees} over the same flows, stable ids and
    effective capacities.  Pure: it leaves the solver untouched.  Tests
    call it between epochs. *)
