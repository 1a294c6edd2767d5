(** Per-pod sharded placement with epoch-batched arrivals.

    The tree is partitioned under its level-[pod_level] {e pod roots}
    (default: the children of the root).  Each pod gets its own {!Cm.t}
    allocator; a coordinator {!Cm.t} handles everything pods cannot
    decide alone — tenants too big for any pod, pod rejections, and
    cross-pod bandwidth conflicts.

    {!place_batch} places one epoch of concurrent arrivals: requests are
    routed to pods by parallel read-only probes of the availability
    index, the pods place their queues in parallel under a
    {!Cm_topology.Tree.set_shard_barrier} (each domain mutates only its
    own pod's subtree), and a serial phase then commits each winner's
    external demand on the shared links above its pod — deterministic
    conflict resolution in arrival order, so the outcome is identical
    for any [?domains] (jobs-invariant).  Batched placement is {e not}
    required to match one-at-a-time serial placement: pods decide
    concurrently against epoch-start state. *)

type t

val create :
  ?policy:Cm.policy ->
  ?pod_level:int ->
  Cm_topology.Tree.t ->
  t
(** [pod_level] defaults to [n_levels - 2] (children of the root).
    @raise Invalid_argument unless [1 <= pod_level <= n_levels - 2]. *)

val tree : t -> Cm_topology.Tree.t
val pod_level : t -> int
val n_pods : t -> int

val coordinator : t -> Cm.t
(** The serial coordinator; {!place}/{!release} go through it. *)

val pod_index : t -> int -> int
(** The pod (index into [0 .. n_pods - 1]) containing a node of level
    <= [pod_level]. *)

val place :
  t -> Types.request -> (Types.placement, Types.reject_reason) result
(** Serial placement through the coordinator (no batching). *)

val release : t -> Types.placement -> unit

val place_batch :
  ?domains:int ->
  t ->
  Types.request list ->
  (Types.placement, Types.reject_reason) result list
(** Place one epoch of arrivals; results are in arrival order.  All
    returned placements (from pods and coordinator alike) release
    through {!release}. *)
