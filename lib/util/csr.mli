(** Compressed-sparse-row (CSR) square matrices of non-negative floats.

    The inference pipeline's traffic matrices, similarity projection
    graphs and aggregated community graphs are overwhelmingly sparse
    (background noise probability ~2%), so every hot pass over them
    iterates stored entries only.  The representation is the classic
    three-array layout: [row_ptr] (length [n + 1]) delimits each row's
    slice of [col_idx]/[values], and within a row columns are strictly
    increasing.

    Contract: stored values are strictly positive.  Constructors drop
    entries that are [<= 0.], so [to_dense] reconstructs exactly the
    dense matrices the rest of the system would have produced (the
    dense code paths never distinguish an absent cell from a stored
    zero).  Matrices with meaningful negative or explicit-zero entries
    are out of scope. *)

type t = private {
  n : int;  (** Rows = columns. *)
  row_ptr : int array;  (** Length [n + 1]; [row_ptr.(n)] = nnz. *)
  col_idx : int array;  (** Column of each stored entry, ascending per row. *)
  values : float array;  (** Stored entries, all [> 0.]. *)
}

val of_dense : float array array -> t
(** Keeps the strictly positive cells of a square dense matrix.
    @raise Invalid_argument if the matrix is not square. *)

val to_dense : t -> float array array
(** Dense reconstruction; absent cells are [0.]. *)

val of_row_lists : n:int -> (int * float) list array -> t
(** [of_row_lists ~n rows] builds a matrix from per-row contribution
    lists: [rows.(i)] holds [(col, delta)] pairs in chronological order.
    Duplicate columns are summed {e in list order} (so float rounding
    matches an equivalent sequence of dense [m.(i).(j) <- m.(i).(j) +. d]
    updates); cells whose sum is [<= 0.] are dropped.
    @raise Invalid_argument on a column outside [0, n) or when
    [Array.length rows <> n]. *)

val of_upper : n:int -> (int array * float array) array -> t
(** [of_upper ~n upper] builds a {e symmetric} matrix from its strict
    upper triangle: [upper.(i) = (cols, vals)] lists row [i]'s entries
    with [i < cols.(p) < n], columns strictly ascending.  Each kept
    entry [(i, j, v)] is stored at both [(i, j)] and [(j, i)]; entries
    with [vals.(p) <= 0.] are dropped.  Allocation-lean (two counting
    passes straight into the final arrays) — this is the constructor
    for similarity projection graphs.
    @raise Invalid_argument on a row-count, length or column-order
    violation. *)

val of_sorted_rows : n:int -> (int array * float array) array -> t
(** [of_sorted_rows ~n rows] builds a matrix from per-row
    already-sorted entry arrays: [rows.(i) = (cols, vals)] with columns
    strictly ascending in [0, n) and every value [> 0.].  Unlike the
    other constructors this one {e rejects} non-positive values instead
    of dropping them — callers hand it pre-compacted rows (windowed
    sums, drift-generator snapshots) where a non-positive cell is a
    bug, not a deletion.
    @raise Invalid_argument on any contract violation. *)

val of_arrays :
  n:int -> row_ptr:int array -> col_idx:int array -> values:float array -> t
(** [of_arrays ~n ~row_ptr ~col_idx ~values] adopts the three CSR arrays
    as they are (no copy): [row_ptr] of length [n + 1], starting at [0]
    and non-decreasing, [row_ptr.(n)] the length of [col_idx] and of
    [values], columns strictly ascending in [0, n) within each row and
    every value [> 0.].  The caller must not mutate the arrays
    afterwards.
    @raise Invalid_argument on any contract violation. *)

val nnz : t -> int
val row_nnz : t -> int -> int

val get : t -> int -> int -> float
(** [get t i j] is the stored value at [(i, j)], or [0.] — binary search
    within row [i]. *)

val iter_row : t -> int -> (int -> float -> unit) -> unit
(** Visit row [i]'s stored entries in ascending column order. *)

val iter_nz : t -> (int -> int -> float -> unit) -> unit
(** Visit every stored entry in row-major (ascending [i], then [j])
    order. *)

val row_sums : t -> float array
(** Per-row sums, each accumulated in ascending column order —
    bit-identical to folding [( +. )] over the dense row, because
    adding absent ([0.]) cells never changes a non-negative float
    sum. *)

val total : t -> float
(** Sum of all stored entries, row-major accumulation order. *)

val transpose : t -> t
(** Columns become rows; entry order within each transposed row is
    ascending (counting sort), i.e. the dense column read order. *)

val equal : t -> t -> bool
(** Structural equality of dimension, pattern and values (exact float
    comparison). *)

(** Sliding window of traffic epochs with an incrementally maintained
    windowed aggregate.

    [Window] keeps the last [capacity] epoch matrices in a ring plus,
    per row, the cached column-wise sum over the window.  A [push]
    re-folds only the rows that could have changed — a row is skipped
    when it is constant across the union of the outgoing and incoming
    windows, so a quiet tick costs O(nnz of the delta), not O(nnz of
    the window).  Re-folded rows accumulate the ring epochs oldest to
    newest, the exact per-cell order [Traffic_matrix.mean_csr] uses,
    so {!Window.mean} is bit-identical to a from-scratch mean over the
    same epoch contents ([Stream.verify] in the inference library checks
    this).

    Pushed matrices are retained by reference until they slide out of
    the window. *)
module Window : sig
  type w

  val create : n:int -> capacity:int -> w
  (** Window over [n]-VM epochs keeping the last [capacity] of them.
      @raise Invalid_argument if [n < 0] or [capacity < 1]. *)

  val push : w -> t -> unit
  (** Append one epoch, evicting the oldest once the ring is full, and
      refresh the cached sums of every row with a change event in
      range.  @raise Invalid_argument on a dimension mismatch. *)

  val n : w -> int
  val capacity : w -> int

  val pushes : w -> int
  (** Total epochs ever pushed. *)

  val length : w -> int
  (** Epochs currently in the window: [min (pushes w) (capacity w)]. *)

  val divisor : w -> float
  (** [float_of_int (length w)] — the mean divisor. *)

  val last_dirty : w -> int array
  (** Rows whose windowed {e mean} changed on the last push, ascending.
      While the window is still filling this is every non-empty row
      (the divisor moved); afterwards it is the rows whose re-folded
      sums differ from the cache. *)

  val last_recomputed : w -> int
  (** Rows re-folded by the last push (dirty superset; cost proxy). *)

  val mean_row : w -> int -> int array * float array
  (** Row [r] of {!mean}: [(cols, vals)], columns ascending, each cached
      sum divided by {!divisor}.  Cells whose quotient underflows to
      [0.] are dropped, as [Traffic_matrix.mean_csr] drops them.  [cols]
      is shared with the cache when nothing is dropped — do not
      mutate. *)

  val mean : w -> t
  (** The windowed mean matrix, {!mean_row} for every row; bit-identical
      to [Traffic_matrix.mean_csr] over {!epochs}, subnormal sums
      included.
      @raise Invalid_argument on an empty window. *)

  val epoch : w -> int -> t
  (** [epoch w i] is the [i]-th oldest retained epoch,
      [0 <= i < length w]. *)

  val epochs : w -> t array
  (** Retained epochs, oldest first. *)
end
