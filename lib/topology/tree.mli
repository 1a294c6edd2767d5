(** Tree-shaped datacenter topology with per-node VM slots and directional
    uplink capacities (paper §4, §5 simulation setup).

    Levels are numbered bottom-up: level 0 nodes are servers (they hold VM
    slots), the highest level is the single root.  Each non-root node has
    an uplink to its parent with separate capacities for traffic leaving
    the subtree ({e up}) and entering it ({e down}); reservations are
    tracked per direction.

    The structure is mutable — placement algorithms reserve and release
    slots and bandwidth — but all mutation goes through this interface and
    the {!Reservation} ledger so that releases are exact. *)

type t

type spec = {
  degrees : int list;
      (** Fan-out from the root downwards, e.g. [[8; 16; 16]] = root with 8
          aggregation switches, 16 ToRs each, 16 servers per ToR (2048
          servers, 4 levels including the root). *)
  slots_per_server : int;
  server_up_mbps : float;  (** Server NIC / uplink capacity, per direction. *)
  oversub : float list;
      (** Oversubscription factor of each switch level, bottom-up (first
          element = ToR, last = the level below the root).  A node's uplink
          capacity is the sum of its children's uplink capacities divided
          by the level's factor.  Must have [length degrees - 1]
          elements. *)
}

val default_spec : spec
(** The paper's simulated datacenter: 2048 servers in a 3-level tree
    ([[8; 16; 16]]), 25 slots per server, 10 Gbps server links, and the
    32:8:1 capacity ratio (ToR 4x, aggregation 8x oversubscription). *)

val create : spec -> t
(** Build a fresh, empty datacenter.  @raise Invalid_argument on malformed
    specs (empty/non-positive degrees, wrong [oversub] length...). *)

val create_default : unit -> t

(** {1 Structure queries} *)

val n_nodes : t -> int
val n_servers : t -> int
val n_levels : t -> int
(** Number of levels including the root; servers are level 0. *)

val root : t -> int
val level : t -> int -> int
val parent : t -> int -> int option

val parent_id : t -> int -> int
(** Allocation-free variant of {!parent}: the parent's id, or [-1] for the
    root.  Hot paths walk parent chains with this instead of building
    {!path_to_root} lists. *)

val children : t -> int -> int array
val is_server : t -> int -> bool
val servers : t -> int array

val nodes_at_level : t -> int -> int array
(** Node ids of a level in ascending order.  The array is owned by the
    tree — callers must not mutate it. *)

val server_range : t -> int -> int * int
(** [(lo, hi)] inclusive range of server ids under a node. *)

val subtree_servers : t -> int -> int array
(** Fresh array of the server ids under a node, ascending. *)

val path_to_root : t -> int -> int list
(** Node ids from the given node (inclusive) up to the root (inclusive). *)

val total_slots : t -> int

val level_subtree_size : t -> level:int -> int
(** Servers under one node of the given level (every node of a level
    covers the same number — trees are regular).  With {!server_range}
    this converts a node's range into positions inside
    {!nodes_at_level}: level-[l] nodes under a node with range
    [(lo, hi)] occupy positions [lo / size_l .. (hi + 1) / size_l - 1]
    where [size_l = level_subtree_size t ~level:l]. *)

(** {1 Slots} *)

val slots_per_server : t -> int
val free_slots : t -> int -> int
(** Free slots on one server (level 0 only; 0 otherwise). *)

val free_slots_subtree : t -> int -> int
(** Free slots summed over all servers under the node (maintained
    incrementally, O(1)). *)

(** {1 Bandwidth} *)

val uplink_capacity : t -> int -> float
(** Per-direction uplink capacity toward the parent; [infinity] at the
    root. *)

val reserved_up : t -> int -> float
val reserved_down : t -> int -> float
val available_up : t -> int -> float
val available_down : t -> int -> float

val available_updown : t -> int -> float
(** [min (available_up t id) (available_down t id)] in one node lookup —
    the bidirectional headroom of a node's uplink.  Shared by the
    placement scarcity/desirability heuristics. *)

val available_to_root : t -> int -> float * float
(** Minimum available (up, down) bandwidth along the path from the node's
    uplink to the root — the bandwidth a tenant placed entirely under the
    node could still use to talk to the rest of the datacenter. *)

(** {1 Raw mutation — used by {!Reservation}; keep reservations balanced} *)

val unchecked_take_slots : t -> server:int -> int -> unit
val unchecked_return_slots : t -> server:int -> int -> unit
val unchecked_add_bw : t -> node:int -> up:float -> down:float -> unit
(** [unchecked_add_bw] with negative amounts releases bandwidth. *)

val unchecked_set_bw : t -> node:int -> up:float -> down:float -> unit
(** Overwrite a node's reserved (up, down) bandwidth — restores a value
    journaled earlier, exactly (no float round trip). *)

val bw_epsilon : float
(** Tolerance used in capacity comparisons (guards against float drift in
    reserve/release cycles). *)

val fits_up : t -> node:int -> float -> bool
(** [fits_up t ~node amount]: would reserving [amount] more up-bandwidth
    still fit within capacity (within {!bw_epsilon})? *)

val fits_down : t -> node:int -> float -> bool

val utilization_summary : t -> level:int -> float * float
(** Mean (up, down) utilization fraction over nodes of a level. *)

val reserved_at_level : t -> level:int -> float * float
(** Total (up, down) Mbps reserved on uplinks of the given level —
    Table 1's "reserved bandwidth at server/ToR/agg level". *)

(** {1 Incremental availability index}

    For every internal node [v] and target level [tlevel < level v] the
    tree maintains, over the level-[tlevel] descendants [d] of [v]:
    the minimum packed selection key [(free_slots_subtree d, d)], the
    maximum [free_slots_subtree d], and the maximum over [d] of the minimum
    available up/down bandwidth along the path [(v..d]]
    ({!index_max_ext_up}/[_down]).  The aggregates are maintained lazily:
    {!unchecked_take_slots}, {!unchecked_return_slots},
    {!unchecked_add_bw} and {!unchecked_set_bw} — i.e. every mutation
    path of the reservation journals, including rollback — mark
    ancestors dirty, and reads clean dirty subtrees on first touch.  All three [index_*] reads may
    therefore mutate internal index state; {!index_flush} makes
    subsequent reads pure until the next tree mutation. *)

val index_key : t -> int -> int
(** [(free_slots_subtree t id) lsl bits lor id] — the packed,
    order-independent (fewest free slots, lowest id) selection key.
    Unique per node, so comparing keys never ties. *)

val index_key_id : t -> int -> int
(** Unpack the node id from a packed key. *)

val index_max_ext_up : t -> tlevel:int -> int -> float
val index_max_ext_down : t -> tlevel:int -> int -> float
(** Aggregates of internal node [v] over its level-[tlevel] descendants;
    only defined for [0 <= tlevel < level t v].  Cleans [v]'s dirty
    subtree on demand. *)

val index_min_feasible_free : t -> tlevel:int -> int -> vms:int -> int
(** A lower bound on the smallest [free_slots_subtree] value >= [vms]
    among [v]'s level-[tlevel] descendants, from a per-row bitset of
    present free values quantized into 63 per-target-level buckets;
    [max_int] when no descendant can have [vms] free slots.  Exact
    whenever the bucket width is 1 — i.e. whenever a level-[tlevel]
    subtree holds at most 62 slots, which covers servers in every
    realistic spec.  A best-fit descent uses it to skip a subtree whose
    cheapest feasible candidate cannot beat the incumbent — the prune
    that keeps the indexed search sublinear once full subtrees dominate
    at steady state.  Cleans [v]'s dirty subtree on demand. *)

val index_flush : t -> int
(** Clean every dirty index node; returns the number recomputed.  After a
    flush, [index_*] reads are pure until the next mutation — required
    before reading the index from parallel domains. *)

val index_verify : t -> bool
(** From-scratch oracle: flush, then rebuild every row bottom-up and
    compare with the incrementally maintained values.  [true] iff they
    are bit-identical.  Self-healing (the rebuilt values stay). *)

val index_stats : t -> int * int
(** [(marks, cleans)] — dirty-bit transitions and row recomputations so
    far.  Diagnostics only: approximate while a shard barrier lets
    several domains mutate disjoint subtrees concurrently. *)

(** {1 Shard barrier}

    While a barrier is set at level [k], slot bubbling and dirty marking
    stop at nodes of level > [k], so independent domains may safely
    mutate disjoint subtrees rooted at distinct level-[k] nodes: no
    shared ancestor state is written.  Ancestors of the mutated roots go
    stale and must be repaired with {!unchecked_settle_above} after the
    barrier is cleared. *)

val set_shard_barrier : t -> level:int -> unit
(** @raise Invalid_argument unless [1 <= level <= n_levels t - 2]. *)

val clear_shard_barrier : t -> unit

val unchecked_settle_above : t -> node:int -> taken:int -> unit
(** Subtract [taken] slots from [free_slots_subtree] of every strict
    ancestor of [node] and mark them all dirty (no early exit — they may
    be stale-while-clean after a barrier phase).  Call with the barrier
    cleared, once per formerly-barriered subtree root, even when [taken]
    is [0]: bandwidth inside the subtree changed regardless. *)
