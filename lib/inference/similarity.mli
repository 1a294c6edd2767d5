(** VM similarity from traffic matrices (paper §3, "Producing TAG
    models"): each VM's feature vector is the concatenation of its row
    (outgoing) and column (incoming) of the bandwidth-weighted traffic
    matrix; similarity is the angular similarity
    [1 - 2*acos(cosine)/pi] of two vectors, 1 for parallel and 0 for
    orthogonal ones; the projection graph carries one weighted edge per
    VM pair of positive similarity. *)

val projection_csr : Cm_util.Csr.t -> Cm_util.Csr.t
(** Sparse, symmetric projection graph with an empty diagonal.  Dot
    products run through an inverted index over each VM's sparse
    feature support (row nonzeros, then column nonzeros offset by n),
    one multiply-add per support coincidence instead of O(2n) per pair,
    through the {!Scatter} kernel that {!Stream} shares.  Products that
    underflow to [0.] are harmless (a pair whose dot is [0.] gets no
    edge).  Every sum visits its nonzero terms in ascending feature-dimension
    order, the order of a dense pair-by-pair loop, so the edge weights
    are bit-identical to that loop's; the test suite's dense oracle
    checks this. *)
