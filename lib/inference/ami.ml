module Intsort = Cm_util.Intsort

(* Dense ranks of a labelling: [rank.(i)] is the position of label
   [labels.(i)] among the distinct labels in ascending order, and
   [counts.(r)] the size of rank [r].  Flat arrays throughout, so every
   float sum below runs in label order, never in hash-table order. *)
let ranks labels =
  let n = Array.length labels in
  let distinct = Array.copy labels in
  Intsort.sort_prefix ~tmp:(Array.make n 0) distinct n;
  let nd = ref 0 in
  for p = 0 to n - 1 do
    if p = 0 || distinct.(p) <> distinct.(p - 1) then begin
      distinct.(!nd) <- distinct.(p);
      incr nd
    end
  done;
  let counts = Array.make !nd 0 in
  let rank =
    Array.map
      (fun l ->
        let lo = ref 0 and hi = ref (!nd - 1) in
        while !lo < !hi do
          let mid = (!lo + !hi) / 2 in
          if distinct.(mid) < l then lo := mid + 1 else hi := mid
        done;
        counts.(!lo) <- counts.(!lo) + 1;
        !lo)
      labels
  in
  (rank, counts)

let counts_of labels = snd (ranks labels)

let entropy labels =
  let n = Array.length labels in
  if n = 0 then invalid_arg "Ami.entropy: empty labelling";
  let counts = counts_of labels in
  let nf = float_of_int n in
  Array.fold_left
    (fun acc c ->
      if c = 0 then acc
      else
        let p = float_of_int c /. nf in
        acc -. (p *. log p))
    0. counts

let mutual_information a b =
  if Array.length a <> Array.length b then
    invalid_arg "Ami: labelling length mismatch";
  if Array.length a = 0 then invalid_arg "Ami: empty labelling";
  let len = Array.length a in
  let n = float_of_int len in
  let ra, ca = ranks a and rb, cb = ranks b in
  let nb = Array.length cb in
  (* Contingency cells as sorted (a, b) rank keys: each run of equal
     keys is one nonzero cell, visited in ascending (a, b) order. *)
  let keys = Array.init len (fun i -> (ra.(i) * nb) + rb.(i)) in
  Intsort.sort_prefix ~tmp:(Array.make len 0) keys len;
  let acc = ref 0. in
  let p = ref 0 in
  while !p < len do
    let key = keys.(!p) in
    let q = ref (!p + 1) in
    while !q < len && keys.(!q) = key do
      incr q
    done;
    let pij = float_of_int (!q - !p) /. n in
    let pi = float_of_int ca.(key / nb) /. n in
    let pj = float_of_int cb.(key mod nb) /. n in
    acc := !acc +. (pij *. log (pij /. (pi *. pj)));
    p := !q
  done;
  !acc

(* Exact E[MI] under the hypergeometric model (Vinh et al., Eq. 24). *)
let expected_mi a b =
  let n = Array.length a in
  let nf = float_of_int n in
  let ai = counts_of a and bj = counts_of b in
  (* log k! table. *)
  let lf = Array.make (n + 1) 0. in
  for k = 2 to n do
    lf.(k) <- lf.(k - 1) +. log (float_of_int k)
  done;
  let emi = ref 0. in
  Array.iter
    (fun a_i ->
      Array.iter
        (fun b_j ->
          let lo = max 1 (a_i + b_j - n) and hi = min a_i b_j in
          for nij = lo to hi do
            let nijf = float_of_int nij in
            let term =
              nijf /. nf
              *. log (nf *. nijf /. (float_of_int a_i *. float_of_int b_j))
            in
            let logp =
              lf.(a_i) +. lf.(b_j) +. lf.(n - a_i) +. lf.(n - b_j)
              -. lf.(n) -. lf.(nij) -. lf.(a_i - nij) -. lf.(b_j - nij)
              -. lf.(n - a_i - b_j + nij)
            in
            emi := !emi +. (term *. exp logp)
          done)
        bj)
    ai;
  !emi

let ami ?(average = `Max) a b =
  let mi = mutual_information a b in
  let emi = expected_mi a b in
  let hu = entropy a and hv = entropy b in
  let norm =
    match average with
    | `Max -> Float.max hu hv
    | `Arithmetic -> (hu +. hv) /. 2.
  in
  let denom = norm -. emi in
  if Float.abs denom < 1e-12 then if Float.abs (mi -. emi) < 1e-12 then 1. else 0.
  else Float.max (-1.) (Float.min 1. ((mi -. emi) /. denom))
