(** One entry point per table / figure of the paper's evaluation, each
    returning ready-to-print {!Cm_util.Table.t} values.
    [cloudmirror experiment] runs them all, or the ones it is given.

    Every experiment is deterministic given [seed].  [arrivals] scales
    the Poisson simulations: the paper uses 10,000 arrivals per point;
    smaller values run faster with the same qualitative shape.

    Multi-point sweeps (fig7–fig12, replicates, workloads, ami-sweep,
    optimality) fan their points out over the {!Cm_util.Par} domain pool.
    Each point derives all of its state — pool, tree, scheduler, RNG —
    from its own explicit seed, so the rendered tables are bit-identical
    for every pool size ([--jobs 1] reproduces the sequential run). *)

type sim_params = {
  seed : int;
  arrivals : int;
  bmax : float;  (** Per-VM demand of the most demanding tenant (Mbps). *)
  load : float;  (** Offered datacenter load in (0, 1]. *)
}

val default_params : sim_params
(** seed 42, 10,000 arrivals, Bmax 800 Mbps, load 0.9 — the paper's
    defaults where stated. *)

(** {1 Motivation figures} *)

val fig1 : unit -> Cm_util.Table.t list
(** Fig. 1: bandwidth-to-CPU ratios of workloads vs datacenters. *)

val fig2 : unit -> Cm_util.Table.t
(** Fig. 2 / §2.2: hose over-reservation on the 3-tier web example. *)

val fig3 : unit -> Cm_util.Table.t
(** Fig. 3 / §2.2: VOC over-reservation on the Storm example. *)

val fig4 : unit -> Cm_util.Table.t
(** Fig. 4: hose vs TAG enforcement under congestion (flow simulator). *)

val fig6 : unit -> Cm_util.Table.t
(** Fig. 6: balanced placement vs blind colocation on one rack. *)

(** {1 Placement evaluation (§5.1)} *)

val table1 : seed:int -> bmax:float -> Cm_util.Table.t
(** Table 1: reserved bandwidth per level for CM+TAG / CM+VOC / OVOC. *)

val table1_all_workloads : seed:int -> bmax:float -> Cm_util.Table.t list
(** §5.1: the Table 1 experiment repeated on the hpcloud-like and
    synthetic pools ("yielded results similar to Table 1"). *)

val fig7 : sim_params -> loads:float list -> bmaxes:float list -> Cm_util.Table.t
(** Fig. 7: rejection rates vs Bmax at each load (BW and VM metrics,
    CM vs OVOC). *)

val fig8 : sim_params -> loads:float list -> Cm_util.Table.t
(** Fig. 8: rejection rates vs load at fixed Bmax. *)

val fig9 : sim_params -> ratios:int list -> Cm_util.Table.t
(** Fig. 9: rejected bandwidth vs topology oversubscription ratio. *)

val fig10 : sim_params -> Cm_util.Table.t
(** Fig. 10: ablation — Coloc+Balance / Coloc / Balance / OVOC, plus the
    OVC (homogeneous hose) rendering §5.1 dismisses. *)

val replicates :
  sim_params -> seeds:int list -> Cm_util.Table.t
(** Seed-robustness check: the fig7-style headline point (CM vs OVOC
    rejected bandwidth) replicated across seeds, with mean and standard
    deviation. *)

val fig11 : sim_params -> rwcs_list:float list -> Cm_util.Table.t
(** Fig. 11: guaranteed WCS — achieved WCS and rejected BW vs required
    WCS for CM+HA and OVOC+HA (LAA = server). *)

val fig12 : ?laa_level:int -> sim_params -> bmaxes:float list -> Cm_util.Table.t
(** Fig. 12: CM vs CM+HA(50%) vs CM+oppHA across Bmax.  [laa_level]
    (default 0 = server) set to 1 reproduces the paper's remark that
    with LAA=ToR the patterns are "very similar ... except that CM+HA
    rejected more BW". *)

(** {1 Enforcement prototype (§5.2)} *)

val fig13 : unit -> Cm_util.Table.t
(** Fig. 13: X->Z and intra-tier throughput vs number of C2 senders,
    under TAG and (for contrast) hose enforcement. *)

val enforce_churn : seed:int -> Cm_util.Table.t
(** Fig. 13 under churn: a seeded arrival/departure trace of C2 senders
    driven through {!Cm_enforce.Runtime.run_dynamic}, comparing per-trunk
    (TAG) against aggregate-hose guarantee partitioning — steady X->Z,
    convergence rate, and the fraction of epochs meeting the 450 Mbps
    trunk guarantee. *)

(** {1 Failure & survivability campaign (ISSUE 6)} *)

val sim_failures : sim_params -> Cm_util.Table.t list
(** The placement-side failure campaign: a seeded schedule of correlated
    ToR failures (with repairs) injected mid-run via
    {!Cm_sim.Runner.run_with_failures}, compared across four policies —
    CloudMirror with anti-affinity and the recovery ladder, the same
    without anti-affinity, anti-affinity with recovery disabled, and the
    backup-bandwidth baseline (Yu et al., PAPERS.md) that scales every
    guarantee by 1.3 at admission.  Scores tenants affected, restores
    (full/partial), stranded incidents, mean time-to-restore, total
    guarantee downtime, and the minimum realized-minus-predicted WCS
    slack (non-negative by Eq. 7 when measured at the injection level).

    The second table is the exhaustive-injection oracle on a small
    deployment: measured worst-case survival must equal the Eq. 7
    prediction with gap 0 at every level.

    Gauges for the CI failure-smoke lane: [failures.events],
    [failures.affected], [failures.recovered], [failures.stranded],
    [failures.mean_ttr], [failures.wcs_slack_min] (>= 0),
    [failures.oracle_gap] (= 0), [failures.oracle_domains]. *)

val enforce_failures : seed:int -> Cm_util.Table.t
(** The enforcement-side replay ({!Cm_enforce.Scenario.failures}): the
    same schedule family darkens rack links under the live control loop,
    and guarantee-downtime VM-epochs are measured on flows for recovery
    policies none / lag-4 / lag-1 (plus a hose row).  Sets
    [failures.enforce.downtime_lag1] / [failures.enforce.downtime_none]
    — faster recovery must not increase downtime. *)

(** {1 TAG inference (§3)} *)

type ami_summary = {
  mean_ami : float;
  median_ami : float;
  n_tenants : int;
  mean_components_truth : float;
  mean_components_inferred : float;
}

val ami : seed:int -> ?n:int -> ?max_vms:int -> unit -> Cm_util.Table.t * ami_summary
(** §3: infer TAGs for a bing-like pool from noisy traffic matrices and
    score against ground truth (paper reports mean AMI 0.54 over 80
    applications).  [max_vms] skips tenants larger than the cap (default
    no cap). *)

val ami_sensitivity : seed:int -> ?n:int -> unit -> Cm_util.Table.t
(** §3/§6: the "rigorous evaluation" sweep — inference AMI as a function
    of load-balancer imbalance, background-noise probability, and
    Louvain resolution. *)

val end_to_end : seed:int -> bmax:float -> Cm_util.Table.t
(** System integration (components 1+2+3 together): deploy bing-like
    tenants with CloudMirror, back-fill the fabric with unguaranteed
    backlogged traffic, and measure per-pair guarantee violations under
    no / hose / TAG enforcement on the flow-level simulator. *)

val prediction : seed:int -> Cm_util.Table.t
(** §6 extension: history-based guarantee prediction (Cicada-style) —
    over-provisioning vs violation-rate tradeoff of the predictor family
    on bing-like tenants' traffic. *)

val optimality : seed:int -> ?instances:int -> unit -> Cm_util.Table.t
(** Heuristic-vs-oracle gap: random micro instances solved both by
    CloudMirror and by exhaustive search (§4.4 calls the problem
    NP-hard; this measures what the heuristic leaves on the table). *)

val defrag : seed:int -> ?churn:int -> unit -> Cm_util.Table.t
(** Footnote 8 extension: after heavy arrival/departure churn, run the
    migration sweep and report the switch-level bandwidth reclaimed. *)

val profiles : seed:int -> Cm_util.Table.t
(** §6 extension: temporal-multiplexing headroom of time-varying
    guarantees — sum-of-peaks vs peak-of-sums over the bing-like pool
    with randomly-phased diurnal profiles, for several population
    sizes. *)

(** {1 Runtime (§5.1, "Algorithm runtime")} *)

val runtime_probe :
  seed:int -> sizes:int list -> Cm_util.Table.t
(** Mean wall time, in microseconds, of three place+release cycles per
    algorithm on the bing-like tenant closest to each size, timed with
    {!Scale.time}.  SecondNet is skipped above 250 VMs. *)

(** {1 Section table} *)

val sections :
  params:sim_params -> (string * (unit -> Cm_util.Table.t list)) list
(** The experiment sections, as data: one [(name, run)] pair per table /
    figure above, with the paper's sweep parameters baked in, followed
    by {!Scale.sections}.  This is the dispatch table of the
    [cloudmirror experiment] command, so names and handlers cannot
    drift.  Every handler is wrapped in a ["section.<name>"]
    {!Cm_obs.Span} (see {!Scale.sections} for its labels), giving
    per-section wall-time histograms in the metrics document. *)

val section_names : string list
(** [List.map fst (sections ~params:default_params)], in dispatch
    order. *)
