(** The CloudMirror VM placement algorithm (paper §4.4, Algorithm 1) with
    the high-availability extensions of §4.5.

    The scheduler deploys one TAG at a time onto a {!Cm_topology.Tree.t}:

    - [AllocTenant] searches bottom-up for the lowest subtree that can
      host the whole tenant ([FindLowestSubtree]) and retries one level
      higher on failure;
    - [Alloc] recursively distributes VMs over a subtree's children, first
      by [Colocate] (group tiers whose colocation provably saves uplink
      bandwidth — size conditions Eqs. 2/6 filtered, Eq. 4 verified), then
      by [Balance] ([MdSubsetSum]: fill the best child so that slot and
      both bandwidth directions approach full utilization together);
    - every placed VM's bandwidth impact is kept synchronized with the
      Eq. 1 requirement on each affected uplink, and any failed attempt is
      rolled back exactly;
    - before recursing into a switch child for a [Colocate] group, the
      child is skipped (marked exhausted, counted in [cm.alloc.pruned]
      and as one bandwidth failure for rejection attribution) when
      {!Alloc_state.uplink_refuses} shows its uplink would refuse every
      sub-group of it.  The recursion would have returned nothing, so
      decisions are unchanged; [Pipe_model] never skips.

    HA: a {!Types.ha_spec} enforces Eq. 7 anti-affinity caps (guaranteed
    WCS); the [opportunistic_ha] policy spreads VMs whenever bandwidth
    saving is infeasible or undesirable, without guarantees (§4.5). *)

type policy = {
  colocate : bool;  (** Enable the [Colocate] subroutine (Fig. 10 ablation). *)
  balance : bool;
      (** Enable [Balance]/[MdSubsetSum]; when off, remaining VMs are
          packed first-fit without resource balancing. *)
  verify_trunk_savings : bool;
      (** Verify actual trunk savings with Eq. 4 before colocating (the
          paper's caveat that Eq. 6 is necessary but not sufficient);
          turning this off is the ablation that colocates on the size
          condition alone.  Default true. *)
  opportunistic_ha : bool;  (** §4.5 opportunistic anti-affinity. *)
  model : Cm_tag.Bandwidth.model;
      (** Accounting abstraction used for reservations; [Tag_model] is
          CloudMirror proper, [Pipe_model] gives the paper's CM+pipe. *)
}

val default_policy : policy
(** Colocate and Balance on, opportunistic HA off, TAG accounting. *)

type t
(** A scheduler bound to one datacenter tree.  It carries the
    moving-average demand estimator used by opportunistic HA. *)

val create : ?policy:policy -> Cm_topology.Tree.t -> t

val tree : t -> Cm_topology.Tree.t
val policy : t -> policy

val place :
  t -> Types.request -> (Types.placement, Types.reject_reason) result
(** Deploy a tenant.  On success all slot and bandwidth reservations are
    committed to the tree; on rejection the tree is untouched. *)

val place_under :
  t ->
  root:int ->
  Types.request ->
  (Types.placement, Types.reject_reason) result
(** {!place} restricted to the subtree under [root]: candidate subtrees,
    the opportunistic-HA scarcity sample and the attempt ladder all stop
    at [root], path feasibility is clamped by
    [Tree.available_to_root root], and bandwidth syncs stop at [root]'s
    own uplink (inclusive) — nothing strictly above [root] is read in a
    racy way or written, so disjoint roots can place from parallel
    domains while a shard barrier is set (see {!Shard}).  Skips the
    accept/reject telemetry; callers account outcomes themselves. *)

val release : t -> Types.placement -> unit
(** Return a previously committed tenant's resources (departure). *)

(** {1 Auto-scaling (§3, §6)}

    The TAG model's per-VM guarantees make tier resizing a local
    operation: no other tier's guarantees change.  [resize] adjusts a
    deployed tenant in place — growing places only the new VMs
    (preferring subtrees where colocation with the tier's peers still
    saves bandwidth), shrinking removes VMs from the most-loaded fault
    domains first (which also preserves Eq. 7 caps) — and re-synchronizes
    every affected uplink reservation to the new Eq. 1 requirement. *)

val resize :
  t ->
  Types.placement ->
  comp:int ->
  new_size:int ->
  (Types.placement, Types.reject_reason) result
(** Returns the updated placement; the old placement value must no longer
    be used (its reservations are subsumed by the new one).  On [Error]
    the deployment is unchanged and the old placement remains valid.
    @raise Invalid_argument on an external component index or
    non-positive size. *)
