(** Per-tenant allocation state shared by the placement algorithms.

    Tracks, for the tenant being placed, the number of VMs of each
    component inside every tree node's subtree, and keeps each touched
    node's uplink reservation synchronized with the abstraction model's
    requirement (Eq. 1 for TAG, footnote 7 for VOC, uniform pipes).

    Every mutation — slot takes, count updates, bandwidth adjustments — is
    journaled, so any suffix of the work can be rolled back exactly
    (Algorithm 1's [Dealloc]). *)

type t

val create :
  ?model:Cm_tag.Bandwidth.model ->
  ?ha:Types.ha_spec ->
  Cm_topology.Tree.t ->
  Cm_tag.Tag.t ->
  t
(** Fresh state for one tenant.  [model] (default [Tag_model]) selects the
    bandwidth-accounting abstraction; [ha] installs the Eq. 7 per-subtree
    caps. *)

val tree : t -> Cm_topology.Tree.t
val tag : t -> Cm_tag.Tag.t
val model : t -> Cm_tag.Bandwidth.model

val count : t -> node:int -> comp:int -> int
(** VMs of [comp] currently placed inside [node]'s subtree. *)

val counts_view : t -> node:int -> int array option
(** Borrowed, read-only view of the live inside-vector of [node]; [None]
    when nothing was ever placed under it.  The array is owned by the
    state and mutates with it — callers must only read, and must not
    hold it across a mutation.  One Hashtbl lookup for callers reading
    several components of the same node. *)

val counts_at : t -> node:int -> int array
(** Copy of the full inside-vector at a node (all zeros if untouched). *)

val placed_on_server : t -> server:int -> int array
(** Per-component VM counts on one server (for building
    {!Types.locations}). *)

val ha_cap : t -> node:int -> comp:int -> int
(** Remaining VMs of [comp] that Eq. 7 allows under [node].  [max_int]
    when no HA spec applies or the node is above the LAA level. *)

val seed : t -> old_tag:Cm_tag.Tag.t -> locations:Types.locations -> unit
(** Pre-populate the state with an already-committed placement: counts
    from [locations], and per-node bandwidth baselines computed with
    [old_tag] (what is actually reserved on the tree right now).  Used by
    auto-scaling, where this state's own tag has new component sizes and
    subsequent {!sync_bw} calls adjust by the delta.  The state must be
    fresh (nothing placed, nothing journaled). *)

val remove : t -> server:int -> comp:int -> n:int -> bool
(** Inverse of {!place} for scale-down: give back [n] committed slots on
    the server and decrement inside-counts on the path to the root.
    Fails (recording nothing) if fewer than [n] VMs of the component are
    on the server.  Bandwidth is adjusted by later {!sync_bw} calls. *)

val place : t -> server:int -> comp:int -> n:int -> bool
(** Take [n] slots on the server and update inside-counts on the whole
    path to the root.  Fails (recording nothing) if slots are missing or
    the Eq. 7 cap would be violated.  Does {e not} touch bandwidth — call
    {!sync_bw}. *)

val sync_bw : t -> node:int -> bool
(** Make the node's uplink reservation equal to the model requirement for
    the current inside-counts ([ReserveBW] for a single link).  Returns
    [false] — recording nothing — if the increase does not fit. *)

val uplink_refuses : t -> node:int -> group:int array -> bool
(** [true] when [node]'s uplink would refuse every nonzero sub-group of
    [group] added to its current inside counts: for each [y] with
    [0 <= y <= group] and [sum y >= 1], {!sync_bw} on [node] would fail
    once [node]'s subtree holds its current VMs plus [y].  The test prices
    the vertices of that set ([e_a], [g_a e_a], and for a second tier [b]
    also [e_b], [g_b e_b] and [g]) against the node's residual and its
    baseline from this state (so after {!seed} it compares against the old
    tag's reservation, as [sync_bw] does).  It is exact because each
    direction of the TAG, hose and VOC requirement is concave in the
    inside counts; the float test keeps a relative margin of [1e-9], so
    a near miss is never refused.  Always [false] under [Pipe_model]
    (bilinear), at the root, and for a group with no or more than two
    nonzero tiers.  Records nothing and, under [Tag_model], allocates
    nothing.
    @raise Invalid_argument if [group]'s length is not the component
    count. *)

val sync_path_above : ?top:int -> t -> node:int -> bool
(** [sync_bw] on every node from [node]'s parent up to [top] (inclusive;
    default the root — identical behaviour, since syncing the root's
    non-existent uplink is a no-op); rolls back its own partial syncs on
    failure.  Pod-scoped placement passes the pod root as [top] so
    nothing above the pod is written. *)

type checkpoint

val checkpoint : t -> checkpoint
val rollback_to : t -> checkpoint -> unit
val rollback : t -> unit

val commit : t -> Cm_topology.Reservation.committed
(** Seal all reservations for release at tenant departure. *)

val touched_nodes : t -> int list
(** Nodes whose subtree currently contains at least one tenant VM, in
    ascending level order. *)

val tracked_nodes : t -> int list
(** Every node the state has ever touched — including nodes whose counts
    have since dropped to zero but may still carry a reservation to
    re-price (scale-down).  Ascending level order. *)

val server_locations : t -> Types.locations
(** Per-component [(server, count)] pairs for everything placed so far. *)

val external_demand : t -> float * float
(** (out, in) bandwidth the fully-placed tenant needs across any subtree
    that contains all of it — nonzero only for TAGs with components acting
    as external entities; used by [FindLowestSubtree]'s uplink check. *)
