(** Process-wide registry of named counters, gauges and fixed-bucket
    histograms.

    Hot-path updates are O(1) and domain-safe: counter and histogram
    cells are sharded by domain id (atomics per shard), so concurrent
    workers in the {!Cm_util.Par} pool never contend on a single cell.
    Reads merge the shards in fixed index order, which makes snapshots
    deterministic for a given set of recorded values.

    Metrics observe — they never perturb.  Nothing in this module feeds
    back into the instrumented computation, so experiment outputs are
    bit-identical with metrics enabled or disabled, at any [--jobs N]. *)

type counter
type gauge
type histogram

val counter : string -> counter
(** Registers (or retrieves) the counter called [name].
    @raise Invalid_argument if [name] is registered as another kind. *)

val incr : ?by:int -> counter -> unit
(** Add [by] (default 1) — one atomic add on this domain's shard. *)

val counter_value : counter -> int

val gauge : string -> gauge
val set : gauge -> float -> unit
(** Last-writer-wins across domains. *)

val gauge_value : gauge -> float

val histogram : ?buckets:float array -> string -> histogram
(** Registers (or retrieves) a histogram.  [buckets] are strictly
    increasing inclusive upper bounds; observations above the last bound
    land in an overflow bucket.  The bucket layout is fixed at first
    registration; a differing layout on re-registration raises.  The
    default layout is powers of two from 1 microsecond to ~537 seconds,
    for durations in seconds, the registry's most common payload. *)

val observe : histogram -> float -> unit

type histogram_snapshot = {
  upper_bounds : float array;
  counts : int array;  (** [length upper_bounds + 1]; last = overflow. *)
  count : int;
  sum : float;
  min_v : float;
      (** Minimum over the (deterministic, fixed-order) shard merge.
          [nan] observations are ignored; [nan] when no non-nan value
          was ever observed (empty, or nan-only). *)
  max_v : float;  (** Same semantics as [min_v]. *)
}

val snapshot : histogram -> histogram_snapshot

val reset : unit -> unit
(** Zero every registered metric (registrations survive).  Test helper;
    not safe concurrently with writers. *)

val names : unit -> string list
(** Sorted names of all registered metrics. *)

val gc_prefix : string
(** ["spangc."] — counters named [spangc.<label>.<field>] (with
    [field] one of [minor_words]/[promoted_words]/[major_collections];
    maintained by {!Span}) are not listed under ["counters"] but folded
    into the matching span's ["gc"] object. *)

val document : ?extra:(string * Json.t) list -> unit -> Json.t
(** Stable-schema JSON snapshot of the whole registry:

    {v
    { "schema": "cloudmirror.metrics/2",
      ...extra fields...,
      "counters":   { name: int, ... },
      "gauges":     { name: float, ... },
      "histograms": { name: {"count","sum","mean","min","max",
                             "le": [bounds...], "counts": [...]}, ... },
      "spans":      { label: histogram object
                             + "gc": {"minor_words","promoted_words",
                                      "major_collections"}, ... },
      "series":     { name: {"capacity","n","dropped",
                             "x": [...], "y": [...]}, ... } }
    v}

    Schema [/2] is a strict superset of the [/1] documents written up
    to PR 6: every [/1] field is still present with the same meaning,
    [/2] adds the per-span ["gc"] objects and the top-level ["series"]
    map ({!Series}).  Histograms registered under a ["span."] prefix
    (see {!Span}) are reported in ["spans"] with the prefix stripped.
    All maps are sorted by name. *)

val write_file : ?extra:(string * Json.t) list -> string -> unit
(** {!document} serialized to [path], with a trailing newline. *)
