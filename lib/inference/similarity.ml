module Csr = Cm_util.Csr

let projection_csr ?(prescale = true) (m : Csr.t) =
  let n = m.Csr.n in
  let mt = Csr.transpose m in
  (* VM i's sparse feature vector: row i of [m] (feature dim = column)
     followed by row i of [mt] (feature dim = n + column), both
     ascending — exactly the nonzeros of the dense feature vector in
     dim order, so every sum below reproduces the dense one bit for bit
     (the skipped terms multiply or add a [0.], a no-op on non-negative
     accumulators).  Cosine is scale-free, so every value is first
     scaled by the power of two that puts the largest in [0.5, 1): the
     squared norms and dots then neither overflow (rates near 1e300) nor
     underflow (rates near 1e-300), and since the scale is exact,
     in-range inputs give the same bits. *)
  let shift =
    if prescale then
      -snd (Float.frexp (Array.fold_left Float.max 0. m.Csr.values))
    else 0
  in
  let scaled v =
    if shift = 0 then v else Array.map (fun x -> Float.ldexp x shift) v
  in
  let mv = scaled m.Csr.values and tv = scaled mt.Csr.values in
  let mrp = m.Csr.row_ptr and mci = m.Csr.col_idx in
  let trp = mt.Csr.row_ptr and tci = mt.Csr.col_idx in
  let norms = Array.make n 0. in
  let sq_sum rp v i acc =
    let acc = ref acc in
    for p = rp.(i) to rp.(i + 1) - 1 do
      acc := !acc +. (v.(p) *. v.(p))
    done;
    !acc
  in
  for i = 0 to n - 1 do
    norms.(i) <- sq_sum trp tv i (sq_sum mrp mv i 0.)
  done;
  (* All dot products against VMs j > i at once, via the inverted
     index: the owners of feature dim k < n are row k of [mt], the
     owners of dim n + r are row r of [m], and [Scatter] lands each
     pair's common terms in ascending dim order.  One frame serves all
     rows, so the only per-row allocations are the right-sized copies
     handed to [of_upper]. *)
  let fr = Scatter.create n in
  let upper = Array.make n ([||], [||]) in
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
    for p = mrp.(i) to mrp.(i + 1) - 1 do
      let k = mci.(p) in
      let hi = trp.(k + 1) in
      Scatter.add fr ~skip:i mv p tci tv (past tci trp.(k) hi i) hi
    done;
    for p = trp.(i) to trp.(i + 1) - 1 do
      let r = tci.(p) in
      let hi = mrp.(r + 1) in
      Scatter.add fr ~skip:i tv p mci mv (past mci mrp.(r) hi i) hi
    done;
    upper.(i) <- Scatter.take fr (Scatter.emit_angular fr ~norms i)
  done;
  Csr.of_upper ~n upper
