(* The inference stage's oracle: the dense reference pipeline that the
   sparse production path (Similarity.projection_csr, then Louvain over
   adjacency rows) must reproduce bit for bit.  It is self-contained on
   purpose: it calls nothing from Cm_inference, so a bug there cannot
   hide by appearing on both sides of a comparison.

   Every sum here visits its terms in the order the production path
   does — feature dimensions ascending, neighbours ascending, coarse
   cells in row-major (i, j) order — so agreement is exact, not to a
   tolerance.  Absent cells are [0.], and adding [0.] to a non-negative
   sum leaves its bits unchanged, which is why a dense scan and a
   sparse one agree. *)

(* {1 Dense projection} *)

(* VM i's feature vector: row i of [m] followed by column i. *)
let feature_vectors m =
  let n = Array.length m in
  Array.init n (fun i ->
      Array.init (2 * n) (fun k -> if k < n then m.(i).(k) else m.(k - n).(i)))

(* Cosine in [0, 1] for non-negative vectors; 0 when either is zero. *)
let cosine a b =
  let dot = ref 0. and na = ref 0. and nb = ref 0. in
  for i = 0 to Array.length a - 1 do
    dot := !dot +. (a.(i) *. b.(i));
    na := !na +. (a.(i) *. a.(i));
    nb := !nb +. (b.(i) *. b.(i))
  done;
  if !na = 0. || !nb = 0. then 0.
  else Float.max 0. (Float.min 1. (!dot /. sqrt (!na *. !nb)))

let angular_similarity a b = 1. -. (2. *. acos (cosine a b) /. Float.pi)

(* Symmetric VM-by-VM similarity matrix with a zero diagonal. *)
let projection_graph m =
  let features = feature_vectors m in
  let n = Array.length m in
  let g = Array.make_matrix n n 0. in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let s = Float.max 0. (angular_similarity features.(i) features.(j)) in
      g.(i).(j) <- s;
      g.(j).(i) <- s
    done
  done;
  g

(* {1 Dense Louvain} *)

let degrees adj = Array.map (Array.fold_left ( +. ) 0.) adj

(* Labels to 0..k-1 in order of first appearance. *)
let renumber labels =
  let mapping = Array.make (Array.length labels) (-1) in
  let next = ref 0 in
  Array.map
    (fun l ->
      if mapping.(l) < 0 then begin
        mapping.(l) <- !next;
        incr next
      end;
      mapping.(l))
    labels

(* Newman modularity, pair by pair. *)
let modularity ?(resolution = 1.) adj labels =
  let n = Array.length adj in
  let k = degrees adj in
  let m2 = Array.fold_left ( +. ) 0. k in
  if m2 = 0. then 0.
  else begin
    let q = ref 0. in
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if labels.(i) = labels.(j) then
          q := !q +. adj.(i).(j) -. (resolution *. k.(i) *. k.(j) /. m2)
      done
    done;
    !q /. m2
  end

(* One local-moving pass from singletons: vertices in index order, each
   row scanned in ascending column order, the move going to the
   (max gain, lowest community id) neighbouring community when it beats
   staying by more than 1e-12.  Returns renumbered labels. *)
let local_moving ~resolution adj =
  let n = Array.length adj in
  let k = degrees adj in
  let m2 = Array.fold_left ( +. ) 0. k in
  let community = Array.init n Fun.id in
  let sigma_tot = Array.copy k in
  let w = Array.make n 0. and near = Array.make n false in
  let moved = ref (m2 > 0.) and rounds = ref 0 in
  while !moved && !rounds < 100 do
    moved := false;
    incr rounds;
    for i = 0 to n - 1 do
      let ci = community.(i) in
      sigma_tot.(ci) <- sigma_tot.(ci) -. k.(i);
      for j = 0 to n - 1 do
        if j <> i && adj.(i).(j) > 0. then begin
          let c = community.(j) in
          near.(c) <- true;
          w.(c) <- w.(c) +. adj.(i).(j)
        end
      done;
      let gain c = w.(c) -. (resolution *. sigma_tot.(c) *. k.(i) /. m2) in
      let stay = gain ci in
      let best_c = ref ci and best = ref stay in
      for c = 0 to n - 1 do
        if near.(c) then begin
          let g = gain c in
          if g > !best || (g = !best && c < !best_c) then begin
            best_c := c;
            best := g
          end;
          near.(c) <- false;
          w.(c) <- 0.
        end
      done;
      let dest =
        if !best_c <> ci && !best > stay +. 1e-12 then begin
          moved := true;
          !best_c
        end
        else ci
      in
      community.(i) <- dest;
      sigma_tot.(dest) <- sigma_tot.(dest) +. k.(i)
    done
  done;
  renumber community

(* One vertex per community; cell (a, b) sums the weights between their
   members in row-major (i, j) order, the diagonal keeping the
   intra-community weight as a self-loop. *)
let aggregate adj labels =
  let n_comm = 1 + Array.fold_left max 0 labels in
  let small = Array.make_matrix n_comm n_comm 0. in
  Array.iteri
    (fun i row ->
      Array.iteri
        (fun j w ->
          if w > 0. then
            small.(labels.(i)).(labels.(j)) <-
              small.(labels.(i)).(labels.(j)) +. w)
        row)
    adj;
  small

(* Local moving, then aggregation, level after level until a level
   merges nothing; returns the composed, renumbered labels. *)
let cluster ?(resolution = 1.) adj =
  let n = Array.length adj in
  let assignment = Array.init n Fun.id in
  let rec loop adj =
    let labels = local_moving ~resolution adj in
    if 1 + Array.fold_left max 0 labels < Array.length adj then begin
      for i = 0 to n - 1 do
        assignment.(i) <- labels.(assignment.(i))
      done;
      loop (aggregate adj labels)
    end
  in
  loop adj;
  renumber assignment
