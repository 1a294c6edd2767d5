(** Tenant pools for the §5 simulations.

    The paper samples arrivals uniformly from a pool of 80 tenants derived
    from the bing.com dataset of Bodík et al.; that dataset is
    proprietary, so {!bing_like} synthesizes a pool matched to every
    statistic the paper publishes: 80 tenants, mean size 57 VMs, largest
    732, several above 200; linear/star/ring/mesh/batch/tiered
    communication shapes; high (~90%) per-component inter-component
    traffic fraction; relative bandwidth units rescaled by the Bmax rule.
    {!hpcloud_like} and {!synthetic} mirror the paper's two other
    workloads. *)

type t = private {
  pool_name : string;
  tags : Cm_tag.Tag.t array;  (** Bandwidths in relative units until scaled. *)
}

val bing_like : ?n:int -> seed:int -> unit -> t
(** Default [n] = 80. *)

val hpcloud_like : ?n:int -> seed:int -> unit -> t
(** Smaller, measurement-driven tenants (default [n] = 40). *)

val synthetic : ?n:int -> seed:int -> unit -> t
(** Artificial mix of tiered web services and MapReduce-style batch jobs
    (default [n] = 60). *)

(** {1 Statistics} *)

val mean_size : t -> float
val max_size : t -> int

val max_mean_vm_demand : t -> float
(** Largest per-tenant average per-VM demand [B_vm] in the pool — the
    quantity the paper pins to [Bmax]. *)

val mean_inter_component_fraction : t -> float
(** Mean over tenants of the fraction of a tenant's aggregate
    guaranteed bandwidth carried by inter-component (trunk) edges. *)

val per_component_inter_fraction : Cm_tag.Tag.t -> float array
(** The paper's §2.2 metric: for each component, the fraction of its
    incident guaranteed bandwidth carried by inter-component (trunk)
    edges rather than its self-loop.  Components with no traffic report
    0. *)

val mean_per_component_inter_fraction : t -> float
(** Mean of {!per_component_inter_fraction} over every traffic-carrying
    component of every tenant — comparable to the paper's "the
    inter-component traffic fraction of each component averages 91%". *)

(** {1 Scaling} *)

val scale_to_bmax : t -> bmax:float -> t
(** Rescale every guarantee so the pool's largest [B_vm] equals [bmax]
    (Mbps) — §5.1's "we scale the bandwidth values such that the average
    per-VM demand of the tenant with the largest B_vm becomes Bmax". *)
