(** In-place prefix sort for int scratch arrays.

    The inference hot loops collect "touched" index sets into the head
    of a large reusable array and need them ascending; sorting the
    prefix in place avoids the [Array.sub] copy [Array.sort] would
    force on every row. *)

val sort_prefix : tmp:int array -> int array -> int -> unit
(** [sort_prefix ~tmp a len] sorts [a.(0) .. a.(len - 1)] ascending, in
    place, leaving the rest of [a] untouched.  [tmp] is merge scratch
    owned by the caller (its contents on return are unspecified), so a
    call allocates nothing.

    A natural merge sort: ascending runs are found, runs shorter than 16
    are widened by insertion sort, and adjacent runs are merged pairwise
    until one is left.  The callers' prefixes are a few long ascending
    runs (first touches from ascending owner lists or epoch rows,
    appended one after another), which this sorts in one or two linear
    merges.  Random input costs
    O(len log len).

    The implementation must stay [int]-typed throughout: an unannotated
    comparison compiles to the polymorphic [caml_compare] call and an
    unannotated array access re-checks for a flat float array on every
    cell.  The previous, unannotated quicksort paid both and ran about
    twice as slow per element as the stdlib's [Array.sort] on two-run
    prefixes.
    @raise Invalid_argument if [len] is negative, exceeds the length of
    [a], or exceeds the length of [tmp]. *)
