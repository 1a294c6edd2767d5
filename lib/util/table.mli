(** Plain-text table rendering for the experiment sections: aligned
    columns, a header rule, and optional caption — the "rows the paper
    reports" style of every [cloudmirror experiment] table. *)

type align = Left | Right

type t

val create : ?caption:string -> (string * align) list -> t
(** [create ~caption headers] starts a table with the given column headers
    and alignments. *)

val add_row : t -> string list -> unit
(** Append a row.  Rows shorter than the header are padded with empty
    cells; longer rows raise [Invalid_argument]. *)

val add_float_row : t -> ?dec:int -> string -> float list -> unit
(** [add_float_row t label values] appends [label] followed by the values
    printed with [dec] decimals (default 1). *)

val render : t -> string
(** Render the whole table to a string (with trailing newline). *)

val print : t -> unit
(** [render] to stdout. *)
