(** Louvain community detection (Blondel et al. 2008, the paper's [35])
    on weighted undirected graphs: greedy local moving that maximizes
    modularity, followed by graph aggregation, repeated until no pass
    improves.

    Two interchangeable representations: the historical dense
    [float array array] reference, and the {!Cm_util.Csr} hot path whose
    inner loop is allocation-free (flat neighbour-community weight
    accumulator + touched-list reset instead of a per-node Hashtbl,
    scratch reused across aggregation levels).  For the same matrix the
    two produce {e identical} labels: neighbour weights accumulate in
    ascending-column order on both paths, and moves use an
    order-independent selection key — exact maximum gain, ties broken
    towards the lowest community id (folding a Hashtbl, as the dense
    path previously did, made equal-gain ties depend on hash order). *)

val modularity : ?resolution:float -> float array array -> int array -> float
(** Newman modularity of a labelling of the given symmetric adjacency
    matrix (diagonal entries are self-loop weights).  [resolution]
    (default 1) is the Reichardt–Bornholdt gamma: larger values favour
    more, smaller communities. *)

val modularity_csr : ?resolution:float -> Cm_util.Csr.t -> int array -> float
(** Same quantity over a sparse matrix.  The degree penalty is computed
    per community rather than per pair, so agreement with {!modularity}
    is to float tolerance, not bit-exact. *)

val modularity_graph :
  ?resolution:float ->
  n:int ->
  k:float array ->
  m2:float ->
  cols:int array array ->
  vals:float array array ->
  int array ->
  float
(** {!modularity_csr} over per-vertex adjacency rows: vertex [i]'s
    neighbours are [cols.(i)] (ascending) with weights [vals.(i)], and
    the weighted degrees [k] and their sum [m2] are supplied by the
    caller — the form the streaming engine's mutable similarity graph
    can answer without materializing a CSR.  The rows are read
    directly, so the pass allocates only the per-community degree
    sums. *)

val refine_seeded :
  ?resolution:float ->
  n:int ->
  k:float array ->
  m2:float ->
  cols:int array array ->
  vals:float array array ->
  seed:int array ->
  frontier:int array ->
  unit ->
  int array * int
(** One seeded local-moving pass over a dirty-vertex [frontier], on the
    graph given as {!modularity_graph}'s adjacency rows:
    vertices start in their [seed] communities (labels in [[0, n)]) and
    only queued vertices are examined; an accepted move wakes the
    mover's neighbours and every member of the two touched communities
    (BFS expansion, the [Maxmin.Inc] dirty-component shape).  Move
    selection is the cold pass's exact (max gain, lowest community id)
    rule, extended with a gain-0 fresh-singleton escape so a seeded
    pass can split communities.  Every accepted move strictly increases
    modularity, so the pass terminates (a generous work budget guards
    near-tie pathologies).  Returns deterministic {e unrenumbered}
    labels in [[0, n)] plus the number of vertices that moved.
    @raise Invalid_argument on a seed label outside [[0, n)]. *)

val renumber : int array -> int array
(** Canonicalize labels to [0..k-1] in order of first appearance — the
    normal form {!cluster} emits and the streaming engine applies after
    composing a {!refine_seeded} pass with a coarse re-clustering. *)

val cluster : ?resolution:float -> float array array -> int array
(** Community label per node, renumbered to [0..k-1].  Deterministic
    (nodes are scanned in index order; ties are order-independent). *)

val cluster_csr : ?resolution:float -> Cm_util.Csr.t -> int array
(** Sparse clustering; produces exactly {!cluster}'s labels for the
    same matrix. *)

(** {1 Single passes}

    Exposed for property tests (e.g. modularity is non-decreasing
    across aggregation levels); {!cluster}/{!cluster_csr} compose
    them. *)

val one_level : ?resolution:float -> float array array -> int array * bool
(** One local-moving pass; returns labels renumbered to [0..k-1] and
    whether any node moved. *)

val one_level_csr : ?resolution:float -> Cm_util.Csr.t -> int array * bool

val aggregate : float array array -> int array -> float array array
(** Collapse each community to one node, summing edge weights
    (intra-community weight lands on the diagonal as a self-loop). *)

val aggregate_csr : Cm_util.Csr.t -> int array -> Cm_util.Csr.t
