(** End-to-end integration of CloudMirror's three components: placement
    reservations (Eq. 1), ElasticSwitch-style guarantee partitioning, and
    flow-level bandwidth sharing on the physical tree.

    Given tenants already deployed on a {!Cm_topology.Tree.t}, the
    evaluator materializes their VMs, samples active VM pairs for every
    TAG edge (all flows backlogged), computes per-pair protections under
    the chosen enforcement mode, shares every tree link max-min, and
    checks each TAG edge's {e promise} — the per-pair guarantees the TAG
    model defines — against the achieved throughput.

    The system-level claim this makes testable: with CloudMirror
    placement and TAG enforcement, {e no} guarantee is violated under
    arbitrary backlog (the reservations provably cover the partitioned
    guarantees); with hose enforcement or no enforcement, violations
    appear exactly as §2.2 predicts. *)

type enforcement_mode = No_protection | Hose_protection | Tag_protection

val mode_to_string : enforcement_mode -> string

type tenant_report = {
  tenant_name : string;
  edges_total : int;  (** Guarantee-carrying TAG edges evaluated. *)
  edges_violated : int;
      (** Edges whose sampled pairs achieved less than their promised
          aggregate (beyond tolerance). *)
  worst_shortfall : float;
      (** Largest [1 - achieved/promised] over the tenant's edges. *)
}

type report = {
  tenants : tenant_report list;
  edges_total : int;
  edges_violated : int;
  violation_fraction : float;
  mean_shortfall : float;  (** Mean shortfall over violated edges (0 if none). *)
  flows : int;  (** Flow population evaluated. *)
}

val evaluate :
  ?pairs_per_edge:int ->
  ?background_flows:int ->
  rng:Cm_util.Rng.t ->
  tree:Cm_topology.Tree.t ->
  tenants:(Cm_tag.Tag.t * Cm_placement.Types.locations) list ->
  mode:enforcement_mode ->
  unit ->
  report
(** [pairs_per_edge] caps the sampled active pairs per TAG edge (default
    32).  [background_flows] adds that many unguaranteed backlogged flows
    between random servers (default 0) — congestion the enforcement must
    shield tenants from.  Deterministic given [rng].

    An edge to or from an external component (the Internet, a storage
    service) gives every VM of its tier one flow to or from that
    external, routed through the root.  The external side is uncapped
    (see {!Cm_enforce.Elastic.pair_guarantees}), so each such flow is
    promised its VM's [S] (outbound) or [R] (inbound) on the edge.  This
    is {!evaluate_with_tags} with [sold = actual]. *)

val evaluate_with_tags :
  ?pairs_per_edge:int ->
  ?background_flows:int ->
  rng:Cm_util.Rng.t ->
  tree:Cm_topology.Tree.t ->
  tenants:(Cm_tag.Tag.t * Cm_tag.Tag.t * Cm_placement.Types.locations) list ->
  mode:enforcement_mode ->
  unit ->
  report
(** Like {!evaluate}, but each tenant is [(actual, sold, locations)]:
    traffic follows the [actual] (possibly drifted) TAG while enforced
    guarantees are partitioned from the [sold] one — the TAG the
    provider last negotiated.  Placement [locations] are keyed by the
    sold TAG's components; VM identity is carried between the two TAGs
    by the shared global numbering (components concatenated in order).
    Violations are scored against the {e actual} per-pair promises, so
    the report quantifies what stale guarantees cost after drift — and
    why the streaming engine's renegotiation signal
    ({!Cm_inference.Stream.drift_events}) matters.  Both TAGs must be
    external-free and describe the same VM population; both are checked
    for every tenant before any pair is sampled.
    @raise Invalid_argument otherwise. *)
