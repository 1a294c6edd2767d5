(** Plain-text serialization of TAG models, so tenants can describe
    applications in a file and tools can exchange them:

    {v
    # three-tier web service
    tag shop
    component web 4
    component logic 4
    component db 2
    external internet
    edge web logic 300 200      # per-VM <send, recv> Mbps
    edge logic web 200 300
    selfloop db 50              # intra-tier hose
    edge web internet 25 0
    v}

    Lines are [tag NAME], [component NAME SIZE] (or
    [component NAME SIZE SLOTS] for heterogeneous VM types),
    [external NAME],
    [edge SRC DST SEND RECV], [duplex A B FWD BACK] (footnote 6's
    undirected shorthand: expands to the two directed edges),
    [selfloop NAME SR]; [#] starts a comment;
    blank lines are ignored.  Components must be declared before the
    edges that use them. *)

val of_string : string -> (Tag.t, string) result
(** Parse.  A malformed line or a bandwidth that fails
    {!Tag.check_bandwidth} ([inf], [nan], overflowing literals such as
    [1e999]) is reported with its line number; a broken TAG rule
    (duplicate names, non-positive sizes...) with {!Tag.validate}'s
    message. *)

val to_text : Tag.t -> string
(** Render a TAG in the same format; [of_string (to_text t)] succeeds
    and yields an equal TAG. *)

val of_file : string -> (Tag.t, string) result
(** Read and parse a file. *)
