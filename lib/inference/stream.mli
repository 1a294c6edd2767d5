(** Streaming TAG inference: a persistent engine that ingests traffic
    epochs one at a time and maintains the inferred TAG incrementally.

    Layers, bottom up:

    - a sliding {!Cm_util.Csr.Window} of the last [window] epochs with
      an incrementally maintained windowed mean (O(nnz of the delta)
      per tick);
    - delta similarity: {!Similarity.projection_csr} rows are
      recomputed only for VMs whose windowed feature vector changed (a
      dirty row, or a column owned by one), via an inverted index over
      mutable mean mirrors, through the same {!Scatter} kernel as the
      batch projection — recomputed edge values are bit-identical to
      it.  Each VM's partial dots over its row
      dims are cached, so a VM whose own row did not change scatters
      only its column dims; the cache is refreshed for changed rows and
      rebuilt on the first incremental tick after a full one.  Changed
      edges are patched symmetrically into a mutable adjacency, each
      clean partner row rebuilt at most once per tick;
    - seeded clustering: {!Louvain.refine_seeded} runs a local-moving
      pass restricted to the BFS-expanded dirty frontier, followed by
      {!Louvain.cluster}'s aggregation cascade only when something
      moved, with a full {!Louvain.cluster} fallback on the same
      adjacency rows whenever modularity degrades more than
      [fallback_bound] below the best value seen since the last full
      pass (the incremental graph is exact, so the fallback lands on
      precisely the cold labelling);
    - guarantee re-derivation: per ring-slot flat component aggregates,
      bit-identical to {!Infer.component_peaks}; a tick that changes
      the labels re-aggregates every slot, one that keeps them only the
      incoming epoch's (the older slots already hold these labels'
      aggregates);
    - drift detection: per-tick label churn / AMI-vs-previous series
      ([infer.stream.*] in {!Cm_obs}) and {!event}s raised when churn,
      the relative guarantee shift against the last negotiated
      snapshot, or the component count crosses a threshold — the signal
      a deployment would use to renegotiate guarantees with the
      placement layer.

    {!verify} checks the maintained state against the batch pipeline
    recomputed from the window. *)

type cause =
  | Label_churn  (** Labelling changed on too many VMs in one tick. *)
  | Guarantee_shift
      (** A component-pair peak moved too far from the negotiated one. *)
  | Dimension_change  (** The number of components changed. *)

type event = {
  at : int;  (** Tick (0-based epoch index) the drift fired at. *)
  cause : cause;
  churn : float;  (** Fraction of VMs whose label changed that tick. *)
  shift : float;
      (** Max relative peak change vs the negotiated snapshot; [-1]
          when the component count changed (shapes not comparable). *)
  components : int;  (** Component count after the tick. *)
}

type config = {
  window : int;  (** Sliding-window capacity in epochs (default 4). *)
  resolution : float;  (** Louvain gamma (default 1). *)
  fallback_bound : float;
      (** Full re-cluster when modularity drops more than this below
          the best since the last full pass (default 0.02). *)
  dirty_full : float;
      (** Run the full pipeline when more than this fraction of rows is
          dirty — incremental bookkeeping would cost more than it saves
          (default 0.5). *)
  churn_threshold : float;  (** Label-churn drift threshold (default 0.05). *)
  shift_threshold : float;
      (** Relative guarantee-shift drift threshold (default 0.25). *)
  ami_parity : float;
      (** {!verify}: minimum AMI between incremental and batch labels on
          ticks where they may legitimately differ (default 0.8). *)
}

val default_config : config

type stats = {
  tick : int;
  full : bool;  (** Whole pipeline recomputed (warm-up / dirty). *)
  fallback : bool;  (** Modularity fallback re-cluster fired. *)
  dirty_rows : int;  (** Window rows whose mean changed. *)
  dirty_vertices : int;  (** Vertices whose feature vector changed. *)
  frontier : int;  (** Seed vertices handed to the local-moving pass. *)
  moved : int;  (** Vertices that changed community. *)
  label_churn : float;
  ami_prev : float;  (** AMI against the previous tick's labelling. *)
  modularity : float;
  drift : event option;
}

type t

val create :
  ?config:config -> ?series_prefix:string -> n:int -> unit -> t
(** Streaming inference over [n]-VM epochs.

    When [series_prefix] is given, every {!push} samples the
    per-epoch [Cm_obs] series [<prefix>.label_churn], [.ami_prev],
    [.dirty_frac] and [.modularity] at [x = tick].  Series rings are
    process-global with a monotone x axis, so give each observed
    stream its own prefix (e.g. ["infer.stream.16384"]); streams
    created without one stay silent (counters are still maintained).
    @raise Invalid_argument on a non-positive [n] or invalid config. *)

val push : ?domains:int -> t -> Cm_util.Csr.t -> stats
(** Ingest one epoch and refresh labelling, guarantees and drift state.
    [domains] parallelizes the dirty similarity rows ([Cm_util.Par];
    the result is independent of the domain count).
    @raise Invalid_argument on a dimension mismatch. *)

val verify : t -> (unit, string) result
(** Recompute the batch pipeline over the current window and compare:
    [Ok ()] iff the windowed mean, its mirrors, the row-part cache (when
    valid: per VM, the partial dots over its row dims), the similarity
    graph ([Similarity.projection_csr ~prescale:false]; every row in
    full, both halves)
    and its weighted degrees (each row summed in ascending column
    order), component sizes and guarantee peaks
    ({!Infer.component_peaks}) are bitwise equal, and the labels equal
    {!Louvain.cluster}'s after a full or fallback tick (AMI
    [>= ami_parity] after an incremental one).  [Ok ()] before the first
    {!push}.  Pure; tests call it between pushes. *)

val n_vms : t -> int

val ticks : t -> int
(** Epochs ingested so far. *)

(** The accessors below raise [Invalid_argument] before the first
    {!push}. *)

val labels : t -> int array
(** Current component of each VM (canonical, a copy). *)

val n_components : t -> int

val mean : t -> Cm_util.Csr.t
(** Windowed mean traffic matrix (bit-identical to
    [Traffic_matrix.mean_csr] over {!window_epochs}). *)

val projection : t -> Cm_util.Csr.t
(** Current similarity graph as a CSR snapshot of the engine's
    adjacency rows, both halves as stored (bit-identical to
    [Similarity.projection_csr ~prescale:false] of {!mean}; the same
    graph as the prescaled one unless similarity products leave the
    float range). *)

val window_epochs : t -> Cm_util.Csr.t array
(** Retained epochs, oldest first. *)

val peaks : t -> int array * float array
(** Component sizes and flat peak matrix, {!Infer.component_peaks}
    form (copies). *)

val tag : t -> Cm_tag.Tag.t
(** The inferred TAG for the current window and labelling. *)

val drift_events : t -> event list
(** All drift events so far, oldest first. *)
