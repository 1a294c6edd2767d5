(** Louvain community detection (Blondel et al. 2008, the paper's [35])
    on weighted undirected graphs: greedy local moving that maximizes
    modularity, followed by graph aggregation, repeated until a level
    merges nothing.

    One graph form, per-vertex adjacency rows ({!graph}), serves the
    cold clustering, the streaming engine's seeded refinement and the
    aggregated coarse levels.  Both local-moving passes share one move
    rule: neighbour weights accumulate in ascending column order, and a
    vertex joins the community of exact maximum gain, ties broken
    towards the lowest community id, only when that beats staying by
    more than 1e-12.  The labels are therefore independent of hash or
    scan order, and the test suite's dense oracle reproduces them bit
    for bit.  The inner loops allocate nothing: scratch lives in a
    reusable {!frame}. *)

type graph = {
  n : int;
  cols : int array array;
      (** [cols.(i)]: vertex [i]'s neighbours, strictly ascending (a
          self-loop is [i] itself). *)
  vals : float array array;  (** Matching weights, all [> 0.]. *)
  k : float array;
      (** Weighted degrees: each row of [vals] summed in ascending
          column order. *)
  mutable m2 : float;  (** The degrees summed in vertex order. *)
}
(** A symmetric weighted graph as adjacency rows.  The streaming engine
    patches rows, degrees and [m2] in place as its similarity graph
    changes. *)

val of_csr : Cm_util.Csr.t -> graph
(** The rows of a symmetric matrix, degrees and [m2] included —
    degrees bit-identical to [Csr.row_sums]. *)

val modularity : ?resolution:float -> graph -> int array -> float
(** Newman modularity of a labelling; diagonal entries are self-loop
    weight.  [resolution] (default 1) is the Reichardt–Bornholdt gamma:
    larger values favour more, smaller communities.  The degree penalty
    is summed per community, so agreement with a pair-by-pair sum is
    to float tolerance, not bit-exact. *)

type frame
(** Scratch for every pass over graphs of up to a given vertex count. *)

val make_frame : int -> frame

val cluster : ?resolution:float -> ?frame:frame -> graph -> int array
(** Community label per vertex, renumbered to [0..k-1]: cold local
    moving from singletons (vertices swept in index order), then the
    aggregation cascade.  [frame] (default: a fresh one) must cover
    [n] vertices.
    @raise Invalid_argument on a frame smaller than the graph. *)

val refine_seeded :
  ?resolution:float ->
  ?frame:frame ->
  graph ->
  seed:int array ->
  frontier:int array ->
  int array * int
(** Incremental re-clustering: one seeded local-moving pass over a
    dirty-vertex [frontier], then the same aggregation cascade as
    {!cluster}.  Vertices start in their [seed] communities (labels in
    [[0, n)]) and only queued vertices are examined; an accepted move
    wakes the mover's neighbours and every member of the two touched
    communities (BFS expansion, the [Maxmin.Inc] dirty-component
    shape).  Moves follow {!cluster}'s rule, extended with a gain-0
    fresh-singleton escape so a seeded pass can split communities.
    Every accepted move strictly increases modularity, so the pass
    terminates (a generous work budget guards near-tie pathologies).
    Returns the canonical labels and the number of moves; when nothing
    moved, the labels are [seed] itself.
    @raise Invalid_argument on a seed label outside [[0, n)] or a frame
    smaller than the graph. *)

val aggregate : graph -> int array -> graph
(** Collapse each community of a canonical labelling to one vertex,
    summing edge weights (intra-community weight lands on the diagonal
    as a self-loop).  Each coarse cell receives its additions in
    row-major (i, j) order, and memory is linear in [n] plus the
    number of stored entries.  This is the step between {!cluster}'s
    levels, exposed for tests. *)
