(** Uniform handle over the three placement algorithms, so the simulator
    and the benchmark harness can swap them freely. *)

type scheduler = {
  sched_name : string;
  place :
    Cm_placement.Types.request ->
    (Cm_placement.Types.placement, Cm_placement.Types.reject_reason) result;
  release : Cm_placement.Types.placement -> unit;
}

type maker = Cm_topology.Tree.t -> scheduler
(** A scheduler factory.  Replicated and parallel experiments take a
    [maker] rather than a [scheduler] so that every shard can build its
    own scheduler over its own tree — schedulers carry mutable
    reservation state and must never be shared across domains. *)

val cm : ?policy:Cm_placement.Cm.policy -> Cm_topology.Tree.t -> scheduler
(** CloudMirror (Algorithm 1).  The name reflects the policy: ["CM"],
    ["CM+oppHA"], ["CM-coloc"], ["CM-balance"], ["CM+pipe"]... *)

val oktopus : Cm_topology.Tree.t -> scheduler
(** The improved Oktopus/VOC baseline, named ["OVOC"]. *)

val secondnet : Cm_topology.Tree.t -> scheduler
(** The SecondNet pipe baseline, named ["SecondNet"]. *)

val round_robin : Cm_topology.Tree.t -> scheduler
(** Bandwidth-oblivious strawman: spread VMs round-robin over servers
    with free slots, reserving nothing.  Admission is slots-only, so its
    "guarantees" are not backed by reservations — the end-to-end
    evaluation uses it to show that enforcement cannot rescue an
    unchecked placement.  Named ["RR"]. *)

val backup : ?factor:float -> Cm_topology.Tree.t -> scheduler
(** Survivable-embedding baseline (Yu et al., PAPERS.md): CloudMirror
    placement of every TAG with all guarantees scaled by [factor]
    (default 1.3), modelling backup bandwidth reserved up front so a
    failed VM can be restarted elsewhere with its guarantee intact.
    Contrast with CloudMirror's anti-affinity + recovery re-placement,
    which spends nothing until a failure happens.  Named ["CM+backup"]. *)

val vc : Cm_topology.Tree.t -> scheduler
(** Oktopus placing the homogeneous virtual-cluster rendering of each
    tenant ({!Cm_tag.Convert.to_vc}) — the VC baseline §5.1 reports as
    always worse than VOC and TAG.  Named ["OVC"]. *)
