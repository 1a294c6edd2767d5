(** Synthetic VM-to-VM traffic matrices with known ground truth.

    The paper evaluates TAG inference on the bing.com VM-level traffic
    matrices; those are proprietary, so we generate matrices {e from} a
    ground-truth TAG: every trunk and self-loop guarantee is spread over
    its VM pairs with log-normal load-balancer imbalance per epoch, plus
    optional low-rate background chatter between unrelated VMs (the
    management-service analog).  Inference quality is then measured
    against the known component labels.

    Epochs are stored sparsely ({!Cm_util.Csr}): real tenant matrices
    are overwhelmingly sparse, and every downstream pass (similarity
    projection, Louvain, guarantee extraction) folds over stored
    entries only. *)

type t = {
  n_vms : int;
  truth : int array;
      (** Ground-truth component of each VM.  Meaningless (all zeros)
          when [truth_known] is false, e.g. after {!of_csv}. *)
  truth_known : bool;
      (** Whether [truth] carries real labels.  [generate] sets it;
          {!of_csv} clears it, so AMI-vs-truth scores are suppressed for
          imported data. *)
  epochs : Cm_util.Csr.t array;
      (** [Csr.get epochs.(e) i j] = rate from VM i to VM j in epoch e. *)
}

val generate :
  ?epochs:int ->
  ?imbalance:float ->
  ?noise_rate:float ->
  ?noise_prob:float ->
  rng:Cm_util.Rng.t ->
  Cm_tag.Tag.t ->
  t
(** Defaults: 8 epochs; [imbalance] (sigma of the per-pair log-normal
    factor) 0.8; background noise flows with probability [noise_prob]
    (default 0.02) per ordered pair and rate [noise_rate] (default 2% of
    the mean legitimate pair rate).

    Structural traffic consumes [rng] in the historical edge-major
    order, so fixed-seed structural values reproduce bit-for-bit across
    the dense-to-sparse rewrite.  Background noise draws from a stream
    split off [rng] once per epoch and samples noisy cells by per-row
    geometric gaps — identical in distribution to the legacy n²
    Bernoulli scan at O(noisy cells) cost. *)

val of_epochs : ?truth:int array -> Cm_util.Csr.t array -> t
(** Wrap pre-built epoch matrices (e.g. the contents of a
    {!Cm_util.Csr.Window}) as a matrix series; [truth] labels are
    copied when given, otherwise [truth_known] is false.
    @raise Invalid_argument on an empty array, a dimension mismatch, or
    a [truth] length mismatch. *)

(** Structured traffic drift for the streaming-inference workloads.

    {!generate} redraws every cell's wobble each epoch — fine for batch
    inference, but it makes {e every} row dirty {e every} tick, which is
    not how long-running services behave (and would hide any benefit of
    incremental maintenance).  [Drift] instead keeps a persistent
    current matrix whose cells are constant until something drifts:

    - {e rate drift}: a VM redraws the log-normal wobbles on its
      existing cells (same partners, new rates);
    - {e role drift}: a VM moves to another component — its own row is
      rebuilt under the new component's edges, and every sender into
      the old/new components drops/gains its cell towards the VM, so
      the ground-truth labelling genuinely changes.

    Per-pair base rates are frozen from the original tier sizes (a
    replica set growing by one does not change existing flows' rates).
    Fully deterministic given the [rng]. *)
module Drift : sig
  type d

  val create : ?imbalance:float -> rng:Cm_util.Rng.t -> Cm_tag.Tag.t -> d
  (** Initial matrix: one cell per (edge, VM pair) like {!generate},
      wobble sigma [imbalance] (default 0.8), no background noise. *)

  val n_vms : d -> int

  val truth : d -> int array
  (** Current ground-truth component per VM (a copy). *)

  val step : ?rate_drifters:int -> ?role_drifters:int -> d -> Cm_util.Csr.t
  (** Apply the requested number of uniformly drawn rate/role drifts
      (defaults 0 — a stationary stream emits bit-identical epochs),
      then snapshot the current matrix.  The snapshot is independent of
      the generator's internal state. *)
end

val mean_csr : t -> Cm_util.Csr.t
(** Per-pair rate averaged over epochs (summed per cell, divided once). *)

(** {1 Import/export}

    CSV interchange so operators can feed measured matrices: one line
    per epoch cell, [epoch,src,dst,rate], after the header line
    [epoch,src,dst,rate].  Ground
    truth is unknown for imported data; [truth] is all zeros and
    [truth_known] is false. *)

val to_csv : t -> string

val max_csv_vms : int
(** Largest VM count {!of_csv} accepts (65,536; four times the largest
    population the repo infers). *)

val max_csv_epochs : int
(** Largest epoch count {!of_csv} accepts (256).  Every epoch is an
    [n]-row matrix, so parsing allocates O(epochs × VMs) words even for
    a single cell; the two bounds cap that at ~16.8M rows. *)

val of_csv : string -> (t, string) result
(** Parses the {!to_csv} format.  Dimensions are inferred from the
    largest indices; missing cells are 0.
    @return [Error] with a line-numbered message on malformed input,
    including a first line that is not the header, duplicate [(epoch,src,dst)] cells (previously the last
    line silently won), a negative or non-finite rate ([inf], [nan],
    or a literal such as [1e999] that overflows), an epoch or VM
    index at or beyond {!max_csv_epochs} / {!max_csv_vms}, and rates
    whose sum passes half the float range (inference's aggregates would
    overflow to [inf]). *)
