(** TAG generators for the communication patterns observed in the bing.com
    dataset (linear, star, ring, mesh — Fig. 7 of Bodík et al.) plus the
    tiered-web and batch shapes the paper's examples use.

    All trunks are bidirectional (two directed edges).  For an edge
    between tiers [u] and [v], [intensity] is the per-VM send guarantee of
    the smaller tier; the other side's guarantees are scaled by the size
    ratio so that total send equals total receive (the balanced-rate
    assumption of §4.2). *)

val linear : name:string -> sizes:int array -> intensities:float array -> Cm_tag.Tag.t
(** Chain [t0 - t1 - ... - tn]; [intensities] has [length sizes - 1]. *)

val star : name:string -> sizes:int array -> intensities:float array -> Cm_tag.Tag.t
(** Tier 0 is the hub; each other tier connects to it.
    [intensities] has [length sizes - 1]. *)

val ring : name:string -> sizes:int array -> intensities:float array -> Cm_tag.Tag.t
(** Cycle over the tiers; [intensities] has [length sizes] (>= 3 tiers). *)

val mesh : name:string -> sizes:int array -> intensity:float -> Cm_tag.Tag.t
(** All-pairs trunks with a common intensity (>= 2 tiers). *)

val tiered :
  name:string -> sizes:int array -> intensities:float array -> db_self:float -> Cm_tag.Tag.t
(** Linear chain with an extra self-loop on the last tier (the 3-tier web
    shape of Fig. 2 generalized to any depth). *)

val batch : name:string -> size:int -> bw:float -> Cm_tag.Tag.t
(** Single all-to-all component (MapReduce-like): one self-loop. *)
