(* In-place ascending sort of the first [len] cells of an int array.
   The stdlib's [Array.sort] cannot sort a prefix without an
   [Array.sub] copy; the hot inference loops (similarity projection,
   streaming similarity rows, windowed row re-folds) sort short
   touched-prefixes of large reusable scratch arrays thousands of times
   per epoch, so the copy matters.

   The prefixes are concatenations of a few ascending runs (each owner
   list an inverted-index walk appends is ascending), so the sort is a
   natural merge sort: find ascending runs, widen short ones to [minrun]
   by insertion, then merge adjacent runs pairwise until one is left.
   A merge copies its left run into the caller's [tmp] and merges back
   into [a], so no call allocates.

   Every binding is annotated [int array]: left polymorphic, [<] would
   compile to a [caml_compare] call and every access would test for a
   flat float array. *)

let minrun = 16

(* Sort [a.(lo) .. a.(hi - 1)], given that [a.(lo) .. a.(sorted - 1)]
   is already ascending. *)
let insertion (a : int array) lo sorted hi =
  for p = sorted to hi - 1 do
    let v = a.(p) in
    let q = ref (p - 1) in
    while !q >= lo && a.(!q) > v do
      a.(!q + 1) <- a.(!q);
      decr q
    done;
    a.(!q + 1) <- v
  done

(* End (exclusive) of the run starting at [lo]: the natural ascending
   run, widened by insertion to at least [minrun] cells (or [len]). *)
let run_end (a : int array) lo len =
  let e = ref (lo + 1) in
  while !e < len && a.(!e - 1) <= a.(!e) do
    incr e
  done;
  let want = min len (lo + minrun) in
  if !e < want then begin
    insertion a lo !e want;
    want
  end
  else !e

(* Merge the ascending runs [a.(lo) .. a.(m - 1)] and [a.(m) .. a.(hi - 1)]
   in place.  Left-run cells already no greater than [a.(m)] stay put;
   the rest of the left run moves to [tmp] and is merged back from the
   front, so writes never overtake the right run's read cursor. *)
let merge (a : int array) (tmp : int array) lo m hi =
  let first = a.(m) in
  let lo = ref lo in
  while !lo < m && a.(!lo) <= first do
    incr lo
  done;
  let lo = !lo in
  let nl = m - lo in
  if nl > 0 then begin
    Array.blit a lo tmp 0 nl;
    let i = ref 0 and j = ref m and out = ref lo in
    while !i < nl && !j < hi do
      let x = tmp.(!i) and y = a.(!j) in
      if y < x then begin
        a.(!out) <- y;
        incr j
      end
      else begin
        a.(!out) <- x;
        incr i
      end;
      incr out
    done;
    (* Right run exhausted: the left remainder fills the tail.  (Left
       exhausted: the right remainder is already in place.) *)
    if !i < nl then Array.blit tmp !i a !out (nl - !i)
  end

let sort_prefix ~(tmp : int array) (a : int array) len =
  if len < 0 || len > Array.length a then
    invalid_arg "Intsort.sort_prefix: length out of range";
  if len > Array.length tmp then
    invalid_arg "Intsort.sort_prefix: tmp shorter than length";
  (* Bottom-up passes, each merging adjacent run pairs; a pass that
     started from at most two runs leaves one. *)
  let sorted = ref (len < 2) in
  while not !sorted do
    let lo = ref 0 and runs = ref 0 in
    while !lo < len do
      let m = run_end a !lo len in
      if m >= len then begin
        incr runs;
        lo := len
      end
      else begin
        let hi = run_end a m len in
        merge a tmp !lo m hi;
        runs := !runs + 2;
        lo := hi
      end
    done;
    sorted := !runs <= 2
  done
