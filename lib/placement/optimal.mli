(** Exhaustive-search placement for micro instances — a ground-truth
    oracle for measuring how far the CloudMirror heuristic sits from
    optimal.

    The paper notes the placement problem is NP-hard (§4.4); on tiny
    datacenters we can afford to enumerate every assignment of per-server
    component counts and check Eq. 1 feasibility exactly.  The search
    space is the product of compositions of each tier's size over the
    servers, so keep [total VMs <= ~12] and [servers <= ~6]. *)

val feasible :
  ?model:Cm_tag.Bandwidth.model ->
  Cm_topology.Tree.t ->
  Cm_tag.Tag.t ->
  Types.locations option
(** Some placement satisfying every slot and bandwidth constraint on the
    (empty or partially loaded) tree, or [None] if none exists.  The tree
    is left untouched.
    @raise Invalid_argument if the search space exceeds ~2 million
    states (guardrail against accidental blow-up). *)
