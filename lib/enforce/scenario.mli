(** The paper's two enforcement experiments, run on the flow-level
    simulator: Fig. 13 (TAG guarantees under growing intra-tier
    congestion) and the Fig. 4 congestion example that motivates TAG. *)

type fig13_point = {
  n_senders : int;  (** Senders in tier C2 (0..5). *)
  x_to_z : float;  (** Throughput of the C1 VM X toward Z (Mbps). *)
  c2_to_z : float;  (** Aggregate throughput of C2 senders toward Z. *)
}

val fig13 : Elastic.enforcement -> max_senders:int -> fig13_point list
(** §5.2 prototype scenario: B1 = B2 = Bin2 = 450 Mbps, a 1 Gbps
    bottleneck into VM Z, 10% of capacity left unreserved, every flow
    backlogged.  With [Tag_gp] the X->Z throughput stays at >= 450 as C2
    senders are added; with [Hose_gp] it collapses. *)

(** {1 Enforcement under churn (§5.2, dynamic)} *)

type churn_point = {
  epoch : int;
  active_senders : int;  (** C2 senders active in this epoch. *)
  steady_x : float;  (** Steady-state X->Z throughput (Mbps). *)
  periods : int;  (** Control periods until convergence detection. *)
  converged : bool;
}

type churn_result = {
  enforcement : Elastic.enforcement;
  points : churn_point list;  (** One per epoch, in schedule order. *)
  x_mean : float;  (** Mean steady X->Z over all epochs. *)
  x_min : float;  (** Worst steady X->Z. *)
  guarantee_met : float;
      (** Fraction of epochs whose steady X->Z meets the 450 Mbps trunk
          guarantee. *)
  converged_fraction : float;
  mean_periods : float;  (** Mean control periods per epoch. *)
}

val churn :
  ?eps:float ->
  ?max_periods:int ->
  ?n_senders:int ->
  ?p_active:float ->
  seed:int ->
  epochs:int ->
  Elastic.enforcement ->
  churn_result
(** The Fig. 13 scenario made dynamic: X -> Z is always active while each
    of [n_senders] (default 5) C2 senders independently joins or leaves
    per epoch with probability [p_active] (default 0.5), a seeded
    arrival/departure trace driven through {!Runtime.run_dynamic} on one
    persistent runtime (limiter state carries across epochs).  With
    [Tag_gp] every epoch's steady X->Z stays at or above the 450 Mbps
    trunk guarantee; with [Hose_gp] it collapses whenever enough senders
    are active — the per-trunk vs aggregate-hose comparison of §5 under
    churn. *)

(** {1 Enforcement under rack failures (ISSUE 6)} *)

type failure_epoch = {
  f_epoch : int;
  live_vms : int;  (** Worker VMs with a live flow this epoch. *)
  down_vms : int;  (** Workers with no flow (their rack is dark). *)
  violated_vms : int;
      (** Live flows whose steady throughput missed their GP pair
          guarantee.  Zero whenever the epoch's guarantees were feasible
          — the steady-state oracle grants at least the guarantee — so a
          non-zero value flags a partitioning bug. *)
  f_periods : int;
  f_converged : bool;
}

type failures_result = {
  f_enforcement : Elastic.enforcement;
  f_recovery : [ `None | `Lag of int ];
  f_events : int;  (** Failure events drawn by the schedule. *)
  f_points : failure_epoch list;
  vm_epochs_down : int;  (** Sum of [down_vms] over epochs. *)
  downtime_fraction : float;
      (** (down + violated) VM-epochs over total VM-epochs: the
          guarantee-downtime the tenant observes. *)
  restores : int;
  mean_restore_epochs : float;  (** Mean epochs from loss to restore. *)
  guarantee_violations : int;  (** Sum of [violated_vms]. *)
  reconverge_periods_mean : float;
      (** Mean control periods of epochs whose flow set changed. *)
}

val failures :
  ?eps:float ->
  ?max_periods:int ->
  ?n_racks:int ->
  ?vms_per_rack:int ->
  ?recovery:[ `None | `Lag of int ] ->
  ?rate:float ->
  ?mean_repair:float ->
  seed:int ->
  epochs:int ->
  Elastic.enforcement ->
  failures_result
(** Replay a correlated {!Cm_sim.Failure.schedule} against the live
    control loop: [n_racks] rack links (default 4) each homing
    [vms_per_rack] worker VMs (default 4) that send to a single sink
    over a shared bottleneck.  Each schedule event darkens one rack for
    its repair interval (the clock is the epoch index, Poisson [rate]
    per epoch, default 0.15; [mean_repair] as in the placement
    campaign).  A downed VM's flow disappears; with [`Lag k] recovery it
    is re-homed to the next alive rack after [k] whole epochs down
    (re-placement delay), with [`None] it stays dark until its own rack
    repairs.  Rack capacities admit any re-homing, so GP guarantees stay
    feasible throughout and live flows keep their guarantees — downtime
    is driven by absence, which is exactly what recovery speed
    controls.  Deterministic in [seed]; one persistent runtime carries
    limiter state across failures like {!churn}. *)

type fig4_result = {
  web_to_logic : float;  (** Aggregate web-tier throughput into logic. *)
  db_to_logic : float;
}

val fig4 : Elastic.enforcement -> fig4_result
(** Fig. 4: B1 = 500, B2 = 100, 600 Mbps bottleneck toward the logic VM;
    web and DB tiers each momentarily offer 500 Mbps.  Hose enforcement
    yields ~300:300 (failing the 500 guarantee); TAG yields 500:100. *)
