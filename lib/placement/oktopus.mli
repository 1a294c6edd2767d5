(** Improved Oktopus baseline (paper §5): places the generalized VOC
    rendering of a tenant — one virtual cluster per TAG component, VOC
    bandwidth accounting (footnote 7) — on the tree.

    Per the paper, our Oktopus is substantially improved over the
    original: it retries when an allocation fails (instead of giving up),
    it places all clusters of one tenant under a common subtree to
    localize inter-cluster traffic, and it supports arbitrary per-cluster
    sizes and bandwidths.

    Each cluster is placed VC-style: find the lowest subtree (within the
    tenant's common subtree) able to host it, then pack its VMs into as
    few servers as possible — maximal colocation, the behaviour Table 1
    contrasts with CloudMirror's balancing.  The optional {!Types.ha_spec}
    adds the same Eq. 7 anti-affinity caps as CloudMirror (the OVOC+HA
    variant of Fig. 11). *)

type t

val create : Cm_topology.Tree.t -> t

val tree : t -> Cm_topology.Tree.t

val place :
  t -> Types.request -> (Types.placement, Types.reject_reason) result

val release : t -> Types.placement -> unit
