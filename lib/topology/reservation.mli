(** Transactional ledger of slot and bandwidth reservations on a
    {!Tree.t}.

    Placement algorithms tentatively reserve resources while exploring
    (Algorithm 1 repeatedly calls [Alloc] and [Dealloc]); the ledger
    records every mutation so that any prefix can be rolled back exactly,
    and so that a committed tenant can be released at departure without
    drift.

    Bandwidth deltas may be negative: adding VMs inside a subtree can
    lower the Eq. 1 requirement on its uplink (the [min] terms), so
    placements {e adjust} each node's reservation rather than only adding
    to it.  Capacity is checked only for positive deltas.

    The ledger is a flat typed journal (parallel growable arrays):
    recording an op allocates nothing, {!checkpoint} is O(1), and
    {!rollback_to} undoes a contiguous suffix in place. *)

type t
type checkpoint
type committed

val start : Tree.t -> t
(** Open an empty transaction on the tree. *)

val tree : t -> Tree.t

val take_slots : t -> server:int -> int -> bool
(** Reserve [n] VM slots on a server.  Returns [false] (and records
    nothing) if fewer than [n] slots are free. *)

val return_slots : t -> server:int -> int -> bool
(** Give back [n] previously-committed slots (tenant scale-down).
    Returns [false] if that would exceed the server's slot count. *)

val reserve_bw : t -> node:int -> up:float -> down:float -> bool
(** Adjust the node's uplink reservation by the given deltas.  Returns
    [false] (recording nothing) if a positive delta exceeds remaining
    capacity in its direction.  The two directions are checked and applied
    atomically. *)

val checkpoint : t -> checkpoint
val rollback_to : t -> checkpoint -> unit
(** Undo every operation recorded after the checkpoint.  Each uplink an
    undone operation touched gets back its reservation from before that
    operation, bit for bit — so no other transaction may have changed
    that uplink since the checkpoint (it would be overwritten).
    Committed sets are undone by {!release}, which subtracts. *)

val rollback : t -> unit
(** Undo everything; the transaction becomes empty and reusable. *)

val commit : t -> committed
(** Seal the transaction.  The ledger is emptied; the returned value
    releases exactly the committed resources via {!release}. *)

val release : Tree.t -> committed -> unit
(** Return all committed resources to the tree (tenant departure). *)

val reapply : Tree.t -> committed -> unit
(** Re-install a previously released committed set, operation for
    operation (oldest first) — the exact inverse of {!release}.  Only
    valid when the resources freed by the release are still free (e.g.
    an atomic migrate-and-restore); slot availability is checked by
    assertion. *)

val merge : committed -> committed -> committed
(** [merge earlier later] combines two committed sets (e.g. a tenant's
    original deployment plus a later scale operation) so that releasing
    the result undoes both, newest operations first. *)

val is_empty : t -> bool
