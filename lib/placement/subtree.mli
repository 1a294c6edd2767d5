(** Shared subtree-search helpers used by the placement algorithms. *)

val find_lowest :
  Cm_topology.Tree.t ->
  total_vms:int ->
  ext:float * float ->
  level:int ->
  int option
(** [FindLowestSubtree] at one level: the best-fit (fewest free slots)
    node of the level with room for the whole tenant and enough
    path-to-root bandwidth for its external (out, in) demand; ties go to
    the lowest id.  Answered by branch-and-bound descent of
    {!Cm_topology.Tree}'s incremental availability index. *)

val find_lowest_under :
  Cm_topology.Tree.t ->
  root:int ->
  clamps:float * float ->
  total_vms:int ->
  ext:float * float ->
  level:int ->
  int option
(** {!find_lowest} restricted to the subtree rooted at [root].  [clamps]
    must be the (up, down) availability accumulated from the tree root
    down to and including [root]'s own uplink (i.e.
    [Tree.available_to_root root]) so that path feasibility matches the
    global search; with the tree root and [(infinity, infinity)] this is
    exactly {!find_lowest}.  A query may lazily clean dirty index rows —
    call [Tree.index_flush] first if reads must be pure (e.g. concurrent
    probes). *)

val all_under : Cm_topology.Tree.t -> int -> int list
(** Every node of the subtree rooted at the given node (including it),
    in ascending (level, id) order (servers first). *)

val all_under_array : Cm_topology.Tree.t -> int -> int array
(** Allocation-lean variant of {!all_under}: same nodes, same order, one
    array, computed arithmetically from [Tree.server_range] and
    [Tree.level_subtree_size] instead of a recursive collect + sort. *)

val contains : Cm_topology.Tree.t -> root:int -> int -> bool
(** Is a node within the subtree rooted at [root]? *)
