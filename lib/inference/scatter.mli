(** The sparse similarity scatter, written once for
    {!Similarity.projection_csr} and the streaming engine ({!Stream}).

    A similarity row is a set of dot products computed through an
    inverted index: for each feature dim of a VM, the dim's owners
    (one {e inverted row}, strictly ascending indices) receive the
    product of the VM's value and theirs in a flat accumulator.  Walking
    the VM's dims in ascending order lands every pair's common terms in
    ascending dim order, the order of a dense pair-by-pair loop, so the
    sums are bit-identical to that loop's.

    A frame holds the accumulator, the list of touched partners and the
    staging arrays an emitter writes its result into.  The scatter's
    inner loop runs without bounds checks: {!add} checks the inverted
    row's length and its first and last index once, and the rows'
    strict ascending order bounds every index in between. *)

type t

val create : int -> t
(** An empty frame for partners [0 .. n - 1]. *)

val add :
  t -> skip:int -> float array -> int -> int array -> float array -> int ->
  int -> unit
(** [add t ~skip fs fi idx v lo hi] adds [fs.(fi) *. v.(q)] into
    partner [idx.(q)]'s partial dot for [q = lo .. hi - 1], ascending,
    skipping the entries whose index is [skip].  The factor travels as
    an array and an index so that no float is boxed per call.  A
    partner's first touch appends it to {!touched}; the partial dots
    stay [>= 0.] (the frame keeps their absolute value, the identity on
    the non-negative terms of a traffic matrix), so a partner is
    appended at most once between two emits whatever the input.

    [idx.(lo .. hi - 1)] must be strictly ascending: then its first and
    last entries bound every entry, and these are the only indices
    checked.
    @raise Invalid_argument, before reading any entry, if
    [Array.length v <> Array.length idx], [lo < 0], [hi > Array.length
    idx], [idx.(lo) < 0] or [idx.(hi - 1) >= n] (the last two only
    when [lo < hi]). *)

val emit_positive : t -> int
(** Sort the touched partners and stage, ascending, those with a
    positive partial dot in {!cols}/{!vals}; reset the frame.  Returns
    the staged count. *)

val emit_angular : t -> norms:float array -> int -> int
(** [emit_angular t ~norms i] sorts the touched partners and stages,
    ascending, each partner [j]'s angular similarity to [i],
    [1 - 2 acos (dot / sqrt (norms.(i) * norms.(j))) / pi] (cosine clamped to
    [[0, 1]]; [0] when either squared norm is [0]) where it is
    positive; resets the frame.  Returns the staged count. *)

val cols : t -> int array
(** The staging partners: after an emit returning [e], cells
    [0 .. e - 1].  An emit also uses it as sort scratch, so callers may
    use it as scratch between emits. *)

val vals : t -> float array
(** The staging values, matching {!cols}. *)

val take : t -> int -> int array * float array
(** [take t e]: fresh copies of the first [e] staged partners and
    values. *)

val touched : t -> int array
(** The partners touched since the last emit, in first-touch order (a
    copy). *)

val partial : t -> int -> float
(** [partial t j]: partner [j]'s partial dot since the last emit, [-1.]
    when untouched. *)
