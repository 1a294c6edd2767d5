(** VM similarity from traffic matrices (paper §3, "Producing TAG
    models"): each VM's feature vector is the concatenation of its row
    (outgoing) and column (incoming) of the bandwidth-weighted traffic
    matrix; similarity is the angular similarity
    [1 - 2*acos(cosine)/pi] of two vectors, 1 for parallel and 0 for
    orthogonal ones; the projection graph carries one weighted edge per
    VM pair of positive similarity. *)

val projection_csr : ?prescale:bool -> Cm_util.Csr.t -> Cm_util.Csr.t
(** Sparse, symmetric projection graph with an empty diagonal.  Dot
    products run through an inverted index over each VM's sparse
    feature support (row nonzeros, then column nonzeros offset by n),
    one multiply-add per support coincidence instead of O(2n) per pair,
    through the {!Scatter} kernel that {!Stream} shares.  The values are
    first scaled by an exact power of two (largest cell in [0.5, 1)),
    so a matrix and its copy times [2^k] give the same graph even where
    unscaled products would overflow or underflow.  [~prescale:false]
    skips that step: {!Stream}, whose incremental dots are never
    prescaled, uses it so its reference agrees with them on every
    input.  Every sum visits its nonzero terms in ascending feature-dimension
    order, the order of a dense pair-by-pair loop, so the edge weights
    are bit-identical to that loop's; the test suite's dense oracle
    checks this. *)
