module Csr = Cm_util.Csr

let projection_csr (m : Csr.t) =
  let n = m.Csr.n in
  let mt = Csr.transpose m in
  (* VM i's sparse feature vector: row i of [m] (feature dim = column)
     followed by row i of [mt] (feature dim = n + column), both
     ascending — exactly the nonzeros of the dense feature vector in
     dim order, so every sum below reproduces the dense one bit for bit
     (the skipped terms multiply or add a [0.], a no-op on non-negative
     accumulators). *)
  let norms = Array.make n 0. in
  let sq_sum (a : Csr.t) i acc =
    let acc = ref acc in
    for p = a.Csr.row_ptr.(i) to a.Csr.row_ptr.(i + 1) - 1 do
      acc := !acc +. (a.Csr.values.(p) *. a.Csr.values.(p))
    done;
    !acc
  in
  for i = 0 to n - 1 do
    norms.(i) <- sq_sum mt i (sq_sum m i 0.)
  done;
  (* All dot products against VMs j > i at once, via the inverted
     index: the owners of feature dim k < n are row k of [mt], the
     owners of dim n + r are row r of [m].  Walking i's support in
     ascending dim order lands each pair's common terms on the flat
     accumulator in ascending dim order — the dense loop's order —
     at a cost of one multiply-add per support coincidence instead of
     O(2n) per pair.  [acc.(j) = 0.] doubles as "untouched" (stored
     values are positive, so partial dots are too). *)
  (* One flat accumulator frame reused across all rows (the Louvain
     local_moving idiom): [acc]/[touched] for the scatter, and shared
     column/value staging buffers so the only per-row allocations left
     are the final right-sized [Array.sub]s handed to [of_upper].
     [cols_buf] is free while [touched] is sorted, so it doubles as the
     sort's merge scratch. *)
  let acc = Array.make n 0. in
  let touched = Array.make n 0 in
  let cols_buf = Array.make n 0 in
  let svals_buf = Array.make n 0. in
  let upper = Array.make n ([||], [||]) in
  let mrp = m.Csr.row_ptr and mci = m.Csr.col_idx and mv = m.Csr.values in
  let trp = mt.Csr.row_ptr and tci = mt.Csr.col_idx and tv = mt.Csr.values in
  (* First index in [lo, hi) of the ascending [ci] with entry > i, so
     owner scans start past the j <= i prefix already handled by
     symmetry. *)
  let past ci lo hi i =
    let lo = ref lo and hi = ref hi in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if ci.(mid) <= i then lo := mid + 1 else hi := mid
    done;
    !lo
  in
  for i = 0 to n - 1 do
    let nt = ref 0 in
    for p = mrp.(i) to mrp.(i + 1) - 1 do
      let fik = mv.(p) and k = mci.(p) in
      for q = past tci trp.(k) trp.(k + 1) i to trp.(k + 1) - 1 do
        let j = tci.(q) in
        if acc.(j) = 0. then begin
          touched.(!nt) <- j;
          incr nt
        end;
        acc.(j) <- acc.(j) +. (fik *. tv.(q))
      done
    done;
    for p = trp.(i) to trp.(i + 1) - 1 do
      let fir = tv.(p) and r = tci.(p) in
      for q = past mci mrp.(r) mrp.(r + 1) i to mrp.(r + 1) - 1 do
        let j = mci.(q) in
        if acc.(j) = 0. then begin
          touched.(!nt) <- j;
          incr nt
        end;
        acc.(j) <- acc.(j) +. (fir *. mv.(q))
      done
    done;
    let ni = norms.(i) in
    Cm_util.Intsort.sort_prefix ~tmp:cols_buf touched !nt;
    let e = ref 0 in
    for p = 0 to !nt - 1 do
      let j = touched.(p) in
      let dot = acc.(j) in
      acc.(j) <- 0.;
      let c =
        if ni = 0. || norms.(j) = 0. then 0.
        else Float.max 0. (Float.min 1. (dot /. sqrt (ni *. norms.(j))))
      in
      let s = Float.max 0. (1. -. (2. *. acos c /. Float.pi)) in
      if s > 0. then begin
        cols_buf.(!e) <- j;
        svals_buf.(!e) <- s;
        incr e
      end
    done;
    upper.(i) <- (Array.sub cols_buf 0 !e, Array.sub svals_buf 0 !e)
  done;
  Csr.of_upper ~n upper
