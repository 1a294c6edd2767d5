(** Adjusted Mutual Information between two clusterings (Vinh, Epps &
    Bailey 2010 — the paper's [37]): mutual information corrected for
    chance under the hypergeometric permutation model, so that 0 means
    "no better than random" and 1 means identical clusterings. *)

val entropy : int array -> float
(** Shannon entropy (nats) of a labelling. *)

val mutual_information : int array -> int array -> float
(** MI (nats) of two labellings of the same items, summed over the
    nonzero contingency cells in ascending [(a, b)] label order, so its
    bits never depend on hash-table layout.
    @raise Invalid_argument on length mismatch or empty input. *)

val expected_mi : int array -> int array -> float
(** Exact expected MI under random permutations with the same cluster
    sizes. *)

val ami : ?average:[ `Max | `Arithmetic ] -> int array -> int array -> float
(** [(MI - E\[MI\]) / (avg(H(U), H(V)) - E\[MI\])], clamped to
    [\[-1, 1\]]; [average] picks the normalizer (default [`Max], Vinh et
    al.'s recommendation).  Returns 1 when both labellings are the same
    single cluster. *)
