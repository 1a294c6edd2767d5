(** Bandwidth that must be allocated on a subtree uplink for a tenant under
    each abstraction model (paper §4.1, Eq. 1 and footnote 7), plus the
    colocation-saving conditions of §4.2 (Eqs. 2–6).

    Every function takes the tenant's TAG and an [inside] vector:
    [inside.(c)] is the number of VMs of component [c] currently placed
    inside the subtree of interest; [Tag.size t c - inside.(c)] VMs are
    outside.  The returned value is the bandwidth (Mbps) that must be
    reserved on the subtree's uplink in the stated direction.  Every
    function raises [Invalid_argument] unless [inside] has one entry per
    component with [0 <= inside.(c) <= size c]. *)

(** {1 TAG accounting — Eq. 1} *)

val tag_out : Tag.t -> inside:int array -> float
(** [C_X,out]: sum over all edges [(t, t')] (self-loops included) of
    [min (inside t * S) (outside t' * R)]. *)

val tag_in : Tag.t -> inside:int array -> float
(** [C_X,in]: traffic entering the subtree, computed symmetrically. *)

val tag_required : Tag.t -> inside:int array -> float * float
(** [(tag_out, tag_in)] in one walk over {!Tag.edge_view}, bitwise equal
    to the two separate sums (same terms, same per-class accumulation
    order).  The placement hot path prices uplinks with it, through
    [required Tag_model]. *)

(** {1 Generalized-hose accounting (§2.2)}

    The whole tenant as one hose: each VM's hose rate aggregates all of its
    guarantees, hiding which peer they are intended for. *)

val hose_out : Tag.t -> inside:int array -> float
val hose_in : Tag.t -> inside:int array -> float

(** {1 VOC accounting — footnote 7}

    One cluster per component: intra-cluster hoses plus a single
    oversubscribed hose aggregating all inter-cluster guarantees. *)

val voc_out : Tag.t -> inside:int array -> float
val voc_in : Tag.t -> inside:int array -> float

(** {1 Idealized-pipe accounting (§2.2, §5.1)}

    Each trunk and self-loop divided uniformly across its VM pairs. *)

val pipe_out : Tag.t -> inside:int array -> float
val pipe_in : Tag.t -> inside:int array -> float

(** {1 Colocation-saving conditions — §4.2} *)

val hose_saving_possible : n_total:int -> n_inside:int -> bool
(** Eq. 2: hose bandwidth shrinks with further colocation iff more than
    half of the tier's VMs are inside the subtree. *)

val trunk_size_condition :
  Tag.t -> Tag.edge -> src_inside:int -> dst_inside:int -> bool
(** Eq. 6 (necessary condition): more than half the VMs of the source or of
    the destination tier are inside. *)

val trunk_saving_condition :
  Tag.t -> Tag.edge -> src_inside:int -> dst_inside:int -> bool
(** Eq. 5 (exact condition for non-zero saving):
    [src_inside*S + dst_inside*R > N_dst * R]. *)

val trunk_saving_amount :
  Tag.t -> Tag.edge -> src_inside:int -> dst_inside:int -> float
(** Eq. 4: outgoing trunk bandwidth saved by the current partial
    colocation, [max (src_inside*S - (N_dst - dst_inside)*R) 0]. *)

(** {1 Model comparison helper} *)

type model = Tag_model | Hose_model | Voc_model | Pipe_model

val required : model -> Tag.t -> inside:int array -> float * float
(** [(out, in)] uplink requirement under the given abstraction. *)

val required_into : model -> Tag.t -> inside:int array -> float array -> unit
(** {!required} written into [out.(0)] and [out.(1)], bitwise the same.
    Allocates nothing under [Tag_model]; the other models price through
    their per-direction functions. *)

val model_name : model -> string
