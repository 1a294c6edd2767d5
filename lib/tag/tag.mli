(** Tenant Application Graph (TAG) — the network abstraction of
    CloudMirror (paper §3).

    A TAG is a directed graph whose vertices are application {e components}
    (tiers: sets of VMs performing the same function) and whose edges carry
    per-VM bandwidth guarantees:

    - a directed edge [u -> v] labelled [<S, R>] guarantees each VM of [u]
      bandwidth [S] for sending to [v], and each VM of [v] bandwidth [R]
      for receiving from [u] (a {e virtual trunk});
    - a self-loop [u -> u] labelled with a single value [SR] is a
      conventional hose among the VMs of [u].

    The hose and pipe models are special cases: a TAG with one component
    and a self-loop is a hose; a TAG with one VM per component and no
    self-loops is a pipe. *)

type component = private {
  name : string;  (** Human-readable tier name, e.g. ["web"]. *)
  size : int;  (** Number of VMs in the tier; positive. *)
  vm_slots : int;
      (** Slots each VM of the tier occupies (heterogeneous VM types,
          §4.4's "extending for heterogeneous cases"); default 1. *)
}

type edge = private {
  src : int;  (** Source component index. *)
  dst : int;  (** Destination component index; [src = dst] is a self-loop. *)
  snd_bw : float;
      (** Per-VM send guarantee S (Mbps) for VMs of [src] toward [dst]. *)
  rcv_bw : float;
      (** Per-VM receive guarantee R (Mbps) for VMs of [dst] from [src].
          Equal to [snd_bw] on self-loops. *)
}

type t

val validate :
  ?name:string ->
  ?externals:string list ->
  ?vm_slots:int list ->
  components:(string * int) list ->
  edges:(int * int * float * float) list ->
  unit ->
  (t, string) result
(** [validate ~components ~edges ()] builds a TAG, or says which rule
    the input breaks: it owns the TAG rules.  [components] is a list of
    [(name, size)]; [edges] of
    [(src, dst, snd_bw, rcv_bw)] with component indices referring to
    positions in [components].

    [vm_slots] optionally gives each regular component's per-VM slot
    cost (heterogeneous VM types); it must have one positive entry per
    component when present, and defaults to 1 everywhere.

    [externals] declares the paper's {e special components} — nodes
    external to the tenant's tiers (the Internet, a storage service,
    another tenant...).  They hold no VMs and are always outside every
    subtree; they are indexed {e after} the regular components, i.e. the
    first external has index [List.length components].  Edges to/from an
    external carry only the VM-side guarantee ([S] of the sending tier,
    [R] of the receiving tier); externals cannot have self-loops or
    edges to other externals.

    Names are unique across components and externals, every bandwidth
    passes {!check_bandwidth}, and no edge appears twice. *)

val create :
  ?name:string ->
  ?externals:string list ->
  ?vm_slots:int list ->
  components:(string * int) list ->
  edges:(int * int * float * float) list ->
  unit ->
  t
(** {!validate}, raising on a broken rule.
    @raise Invalid_argument with {!validate}'s message. *)

val check_bandwidth : float -> (unit, string) result
(** A guarantee or measured rate must be finite and [>= 0.]; [Error] is
    ["is not finite"] (NaN too) or ["is negative"]. *)

val hose : ?name:string -> tier:string -> size:int -> bw:float -> unit -> t
(** A single-component TAG with a self-loop: the classic hose model. *)

(** {1 Accessors} *)

val name : t -> string

val n_components : t -> int
(** Number of regular (VM-holding) components; externals not counted. *)

val n_externals : t -> int

val is_external : t -> int -> bool
(** True for indices in [n_components .. n_components + n_externals - 1]. *)

val component : t -> int -> component
(** Regular components only. *)

val size : t -> int -> int
(** Size of a regular component; 0 for an external index. *)

val component_name : t -> int -> string
(** Works for both regular and external indices. *)

val total_vms : t -> int

val vm_slots : t -> int -> int
(** Slots per VM of a regular component (1 unless declared otherwise);
    0 for external indices. *)

(** [total_slot_demand t] is the sum over components of
    [size * vm_slots] — the room a placement needs. *)

val total_slot_demand : t -> int
val edges : t -> edge array

(** Class of an edge, by where its endpoints live. *)
type edge_class =
  | Trunk  (** Between two distinct regular components. *)
  | Hose  (** A self-loop. *)
  | Ext_out  (** From a regular component to an external. *)
  | Ext_in  (** From an external to a regular component. *)

type edge_view = private {
  n_edges : int;
  src : int array;
  dst : int array;
  snd : float array;  (** [snd_bw] per edge. *)
  rcv : float array;  (** [rcv_bw] per edge. *)
  cls : edge_class array;
  src_size : int array;  (** [size t src]: 0 for an external. *)
  dst_size : int array;  (** [size t dst]: 0 for an external. *)
}
(** The edges as parallel flat arrays, index [i] of each array
    describing [(edges t).(i)].  Built once with the TAG (and rebuilt by
    {!with_size} and {!scale_bw}) for the placement hot path, which
    prices every edge on each uplink sync: no record or list indirection
    per edge.  The arrays are shared and must not be mutated. *)

val edge_view : t -> edge_view
val out_edges : t -> int -> edge list
val in_edges : t -> int -> edge list
val self_loop : t -> int -> edge option

val find_edge : t -> src:int -> dst:int -> edge option
(** The unique edge from [src] to [dst], if present. *)

(** {1 Derived quantities} *)

val b_total : t -> edge -> float
(** Total guaranteed tier-to-tier bandwidth for an edge:
    [min (S * N_src) (R * N_dst)] — the paper's [B_{u->v}]. *)

val aggregate_bandwidth : t -> float
(** Sum of [b_total] over all edges; used as a tenant's "bandwidth demand"
    when reporting rejected-bandwidth ratios. *)

val per_vm_send : t -> int -> float
(** Per-VM total send guarantee of a component: sum of [snd_bw] over its
    outgoing edges, counting its self-loop once. *)

val per_vm_recv : t -> int -> float
(** Per-VM total receive guarantee (incoming edges + self-loop). *)

val mean_vm_demand : t -> float
(** VM-weighted mean of [max (per_vm_send c) (per_vm_recv c)] — the
    tenant's average per-VM demand B_vm used by the paper's Bmax scaling
    rule. *)

(** {1 Transformations} *)

val scale_bw : t -> float -> t
(** Multiply every guarantee by a factor (non-negative). *)

val with_name : t -> string -> t

val with_size : t -> comp:int -> size:int -> t
(** Resize one regular component (auto-scaling): per-VM guarantees are
    unchanged, which is the TAG model's key flexibility — unlike pipe or
    aggregate models, nothing else needs recomputation.
    @raise Invalid_argument on an external index or non-positive size. *)

(** {1 Pretty-printing and equality} *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string

val to_dot : t -> string
(** Graphviz rendering, for documentation and debugging. *)
