(** Deterministic domain-parallel execution.

    A fixed-size pool of OCaml 5 domains runs a work list and returns the
    results {e in input order}, so any caller whose work items are
    independent (no shared mutable state; all randomness derived from
    explicit per-item seeds) gets output that is bit-identical to the
    sequential run — the determinism contract every experiment sweep in
    this repository relies on.

    The pool size defaults to {!default_domains}, which
    bin/cloudmirror.exe overrides from [--jobs].  With one domain (or a
    single-core host) every combinator degrades to its plain [List]
    equivalent, with no domains spawned at all. *)

val available_domains : unit -> int
(** [Domain.recommended_domain_count ()]: what the hardware offers. *)

val set_default_domains : int -> unit
(** Set the pool size used when [?domains] is omitted.  Values below 1
    are clamped to 1.  This is the hook behind [--jobs N]. *)

val default_domains : unit -> int
(** Current default pool size: the last {!set_default_domains} value, or
    {!available_domains} if never set. *)

val map : ?domains:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~domains f xs] applies [f] to every element of [xs] on a pool of
    at most [domains] worker domains and returns the results in input
    order.  Equivalent to [List.map f xs] whenever [f]'s work items are
    independent.

    If any application of [f] raises, the first exception observed is
    re-raised in the calling domain (with its backtrace) after all
    workers have stopped; remaining unstarted items are abandoned. *)

val mapi : ?domains:int -> (int -> 'a -> 'b) -> 'a list -> 'b list
(** Like {!map}, passing each element's index. *)

val iter : ?domains:int -> ('a -> unit) -> 'a list -> unit
(** [map] for effects only. *)

val map_rng :
  ?domains:int -> rng:Rng.t -> (Rng.t -> 'a -> 'b) -> 'a list -> 'b list
(** [map_rng ~rng f xs] splits [rng] into [List.length xs] independent
    streams ({!Rng.split_n}) and runs [f stream_i x_i] in parallel.
    Because stream [i] depends only on [rng]'s state at the call and on
    [i], the result is independent of the domain count — the bridge
    between shared-generator sequential code and sharded parallel code. *)
