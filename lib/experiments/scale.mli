(** The scale benchmarks: the placement, enforcement and inference hot
    paths timed at and beyond the paper's sizes.  Each checks its own
    results in-process (index vs rebuild, incremental vs oracle, jobs
    invariance, streaming parity) and raises [Failure] on a divergence.
    Results are exported as [bench.*] gauges, registered only when the
    section runs. *)

val time : ?runs:int -> (unit -> 'a) -> float * 'a
(** [time f] is the wall time of [f ()] in seconds on the monotonic
    clock, with its result; with [runs], the fastest of that many runs
    (the earliest on a tie). *)

val sections :
  seed:int -> arrivals:int -> (string * (unit -> Cm_util.Table.t list)) list
(** [placement], [placement-scale], [enforce], [enforce-scale],
    [inference] and [inference-stream], in that order.  Below 10,000
    [arrivals], [enforce-scale] and [inference-stream] run their fast
    sizes; [placement] and [placement-scale] simulate [arrivals]
    arrivals.  Each handler runs inside a ["section.<name>"]
    {!Cm_obs.Span} whose label has the name's dashes as underscores
    (["section.placement_scale"]). *)
