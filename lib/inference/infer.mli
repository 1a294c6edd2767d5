(** End-to-end TAG inference (paper §3, "Producing TAG Models"): from a
    time series of VM-to-VM traffic matrices, cluster VMs with similar
    communication patterns into components and derive trunk / self-loop
    guarantees from the peak aggregate component-to-component rates
    (peaks of sums, not sums of peaks — the statistical-multiplexing
    saving the TAG model is designed to keep).

    The pipeline runs entirely on the sparse representation
    ({!Traffic_matrix.mean_csr} → {!Similarity.projection_csr} →
    {!Louvain.of_csr} → {!Louvain.cluster}) and emits [infer.*] {!Cm_obs.Span}s for the
    mean / projection / clustering stages. *)

type result = {
  labels : int array;  (** Inferred component of each VM. *)
  inferred : Cm_tag.Tag.t;  (** Reconstructed TAG. *)
  ami_vs_truth : float option;
      (** Adjusted mutual information vs ground truth; [None] when the
          matrix carries no truth labels (e.g. loaded via
          {!Traffic_matrix.of_csv}), where a score against the zeroed
          [truth] array would be meaningless. *)
  n_components : int;
}

val infer : ?resolution:float -> Traffic_matrix.t -> result
(** [resolution] is Louvain's gamma (default 1); larger values split
    more aggressively — useful when under-segmentation merges tiers. *)

val guarantees_of_labels : Traffic_matrix.t -> int array -> Cm_tag.Tag.t
(** Reconstruct a TAG from a given labelling: for each ordered component
    pair the trunk guarantee is the over-epochs peak of the aggregate
    rate, divided by the tier sizes into per-VM [<S, R>]; intra-component
    traffic becomes a self-loop sized the same way.  Equivalent to
    {!component_peaks} followed by {!tag_of_peaks}. *)

val component_peaks :
  Cm_util.Csr.t array -> int array -> int array * float array
(** [component_peaks epochs labels] is [(sizes, peaks)]: component
    sizes and the flat row-major [n_comp * n_comp] peak-over-epochs
    aggregate rate matrix.  Each epoch folds its stored entries in
    row-major order — the reference order the streaming engine's
    per-component re-derivation must (and does) reproduce bit-for-bit,
    which is what {!Stream.verify} checks. *)

val tag_of_peaks : sizes:int array -> float array -> Cm_tag.Tag.t
(** Build the inferred TAG from {!component_peaks} output.
    @raise Invalid_argument when [peaks] is not [n_comp ** 2] long. *)
