(** Explicit VM-to-VM pipe representation of a tenant (the pipe model of
    §2.2), used by the SecondNet baseline and by the enforcement
    simulator.  Converting a TAG to pipes divides each trunk and self-loop
    guarantee uniformly across the corresponding VM pairs — the "idealized
    pipe models" of §5.1. *)

type vm = { comp : int; idx : int }
(** A concrete VM: component index and position within the component
    ([0 <= idx < size comp]). *)

type pipe = { src_vm : vm; dst_vm : vm; bw : float }

val vms_of_tag : Tag.t -> vm array
(** Every VM of the tenant, ordered by component then index. *)

val of_tag : Tag.t -> pipe list
(** Idealized uniform pipes.  Zero-bandwidth pipes are omitted; a
    self-loop on a singleton component produces no pipes. *)

val crossing_bandwidth : pipe list -> src_in:(vm -> bool) -> float * float
(** [(out, in)] bandwidth of pipes crossing a boundary, where [src_in]
    says whether a VM lies inside the subtree. *)
