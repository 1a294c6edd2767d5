(** ElasticSwitch-style guarantee partitioning (GP) at flow granularity
    (paper §5.2).

    ElasticSwitch turns per-VM hose guarantees into per-VM-pair rate
    protections: a source VM's send guarantee is divided among the
    destinations it actively talks to, a destination's receive guarantee
    among its active sources, and the pair guarantee is the min of the
    two.  Enforcing a TAG instead of a hose is the paper's "30-line
    patch": the division happens {e per trunk / per self-loop} rather than
    over one aggregated hose, so traffic on one edge cannot consume
    another edge's guarantee. *)

type enforcement = Hose_gp | Tag_gp

type endpoint = { comp : int; vm : int }
(** A concrete VM of the tenant: component index and index within it. *)

type active_pair = { src : endpoint; dst : endpoint }

val pair_guarantees :
  ?demands:float list ->
  Cm_tag.Tag.t ->
  enforcement ->
  pairs:active_pair list ->
  (active_pair * float) list
(** Guarantee for each active pair, in input order.

    [Hose_gp] aggregates each VM's guarantees over all its TAG edges
    (self-loops included) into one send hose and one receive hose, then
    splits among the VM's active peers — what a hose-model ElasticSwitch
    would do to a TAG tenant.

    [Tag_gp] splits each edge's [<S, R>] among the active peers {e on
    that edge} only; pairs with no corresponding TAG edge get 0.

    An endpoint in an external component (the Internet, a storage
    service; its [vm] is ignored) has no hose of its own: its side of
    the pair is uncapped ([infinity]) in both modes, so the pair gets
    the VM side's share.  Without this, the external side's guarantee —
    0 by the {!Cm_tag.Tag.create} convention — would zero the pair.

    Without [demands] each hose is split equally.  With [demands] (one
    per pair, same order; [infinity] = backlogged) the split is
    ElasticSwitch's max-min GP: pairs needing less than their fair share
    of a hose donate the remainder to the hose's other pairs
    (water-filling per send hose and per receive hose; the pair
    guarantee is the min of its two allocations). *)

val enforcement_to_string : enforcement -> string
