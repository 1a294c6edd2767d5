type t = {
  acc : float array;  (* [-1.] = untouched *)
  touched : int array;
  mutable nt : int;
  cols : int array;
  vals : float array;
}

let create n =
  {
    acc = Array.make n (-1.);
    touched = Array.make n 0;
    nt = 0;
    cols = Array.make n 0;
    vals = Array.make n 0.;
  }

(* The unchecked accesses below are in bounds:
   - [lo <= q < hi <= Array.length idx = Array.length v] covers
     [idx.(q)] and [v.(q)];
   - [idx] ascends on [lo .. hi - 1], so [0 <= idx.(lo) <= j <=
     idx.(hi - 1) < Array.length acc] covers [acc.(j)];
   - a partner is appended to [touched] only while its entry is the
     sentinel [-1.], and every later write stores an absolute value
     (never negative), so the [nt] partners appended since the last emit
     are distinct: [nt <= Array.length acc = Array.length touched].
     [Float.abs] is the identity on the sums of non-negative terms, so
     it changes no bit of a traffic matrix's dots. *)
let add t ~skip (fs : float array) fi (idx : int array) (v : float array) lo
    hi =
  let acc = t.acc in
  if
    Array.length v <> Array.length idx
    || lo < 0
    || hi > Array.length idx
    || (lo < hi && (idx.(lo) < 0 || idx.(hi - 1) >= Array.length acc))
  then invalid_arg "Scatter.add: inverted row out of bounds";
  let f = fs.(fi) and touched = t.touched in
  let nt = ref t.nt in
  for q = lo to hi - 1 do
    let j = Array.unsafe_get idx q in
    if j <> skip then begin
      let x = f *. Array.unsafe_get v q in
      let a = Array.unsafe_get acc j in
      if a < 0. then begin
        Array.unsafe_set touched !nt j;
        incr nt;
        Array.unsafe_set acc j (Float.abs x)
      end
      else Array.unsafe_set acc j (Float.abs (a +. x))
    end
  done;
  t.nt <- !nt

let emit_positive t =
  let nt = t.nt in
  Cm_util.Intsort.sort_prefix ~tmp:t.cols t.touched nt;
  let e = ref 0 in
  for p = 0 to nt - 1 do
    let j = t.touched.(p) in
    let x = t.acc.(j) in
    t.acc.(j) <- -1.;
    if x > 0. then begin
      t.cols.(!e) <- j;
      t.vals.(!e) <- x;
      incr e
    end
  done;
  t.nt <- 0;
  !e

let emit_angular t ~(norms : float array) i =
  let nu = norms.(i) and nt = t.nt in
  Cm_util.Intsort.sort_prefix ~tmp:t.cols t.touched nt;
  let e = ref 0 in
  for p = 0 to nt - 1 do
    let j = t.touched.(p) in
    let dot = t.acc.(j) in
    t.acc.(j) <- -1.;
    let c =
      if nu = 0. || norms.(j) = 0. then 0.
      else Float.max 0. (Float.min 1. (dot /. sqrt (nu *. norms.(j))))
    in
    let s = Float.max 0. (1. -. (2. *. acos c /. Float.pi)) in
    if s > 0. then begin
      t.cols.(!e) <- j;
      t.vals.(!e) <- s;
      incr e
    end
  done;
  t.nt <- 0;
  !e

let cols t = t.cols
let vals t = t.vals
let take t e = (Array.sub t.cols 0 e, Array.sub t.vals 0 e)
let touched t = Array.sub t.touched 0 t.nt
let partial t j = t.acc.(j)
