module Csr = Cm_util.Csr

let degrees adj = Array.map (fun row -> Array.fold_left ( +. ) 0. row) adj

(* Renumber labels (all in [0, n)) to 0..k-1 in first-appearance order. *)
let renumber labels =
  let n = Array.length labels in
  let mapping = Array.make (max n 1) (-1) in
  let next = ref 0 in
  Array.map
    (fun l ->
      if mapping.(l) >= 0 then mapping.(l)
      else begin
        let x = !next in
        mapping.(l) <- x;
        incr next;
        x
      end)
    labels

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

let modularity_csr ?(resolution = 1.) (adj : Csr.t) labels =
  let n = adj.Csr.n in
  let k = Csr.row_sums adj in
  let m2 = Array.fold_left ( +. ) 0. k in
  if m2 = 0. then 0.
  else begin
    (* Links inside communities, over stored entries only... *)
    let intra = ref 0. in
    Csr.iter_nz adj (fun i j v -> if labels.(i) = labels.(j) then intra := !intra +. v);
    (* ...and the degree penalty via per-community degree sums:
       sum_{labels i = labels j} k_i k_j = sum_c (sum_{i in c} k_i)^2. *)
    let n_comm = 1 + Array.fold_left max 0 labels in
    let s = Array.make n_comm 0. in
    for i = 0 to n - 1 do
      s.(labels.(i)) <- s.(labels.(i)) +. k.(i)
    done;
    let penalty = Array.fold_left (fun acc sc -> acc +. (sc *. sc)) 0. s in
    (!intra -. (resolution *. penalty /. m2)) /. m2
  end

(* Mutable scratch shared across aggregation levels (levels only
   shrink, so level-0 sizing covers the whole run) — the same frame
   idiom as the placement hot path. *)
type frame = {
  mutable k : float array;  (* node degree *)
  mutable community : int array;
  mutable sigma_tot : float array;  (* total degree per community *)
  mutable w : float array;
      (* weight from the current node into each community; values are
         sums of positive edge weights, so [0.] doubles as "untouched" *)
  mutable touched : int array;  (* communities to reset in [w] *)
}

let make_frame n =
  let n = max n 1 in
  {
    k = Array.make n 0.;
    community = Array.make n 0;
    sigma_tot = Array.make n 0.;
    w = Array.make n 0.;
    touched = Array.make n 0;
  }

(* Links from vertex [i] into each neighbouring community: scans the
   neighbour slice [cols.(lo) .. cols.(hi - 1)] (weights in [vals]),
   adding into [w] and listing first-touched communities in [touched];
   returns how many were touched.  Self-loops are skipped. *)
let gather ~(w : float array) ~(touched : int array) ~(community : int array) i
    (cols : int array) (vals : float array) lo hi =
  let nt = ref 0 in
  for p = lo to hi - 1 do
    let j = cols.(p) in
    if j <> i then begin
      let c = community.(j) in
      if w.(c) = 0. then begin
        touched.(!nt) <- c;
        incr nt
      end;
      w.(c) <- w.(c) +. vals.(p)
    end
  done;
  !nt

(* Modularity gain of joining community [c] for a vertex of degree [ki]
   (already removed from its own community). *)
let gain ~resolution ~m2 (w : float array) (sigma_tot : float array) ki c =
  w.(c) -. (resolution *. sigma_tot.(c) *. ki /. m2)

(* Order-independent move selection shared by the dense and CSR
   passes.  The best community is the exact (max gain, then lowest
   community id) over the touched neighbour communities — float
   equality, not epsilon, so the winner does not depend on scan order.
   The epsilon appears only in the final move-vs-stay guard. *)
let local_moving fr ~resolution ~n ~m2 (adj : Csr.t) =
  let k = fr.k and community = fr.community in
  let rp = adj.Csr.row_ptr and cidx = adj.Csr.col_idx and cv = adj.Csr.values in
  let sigma_tot = fr.sigma_tot and w = fr.w and touched = fr.touched in
  for i = 0 to n - 1 do
    community.(i) <- i;
    sigma_tot.(i) <- k.(i)
  done;
  let improved = ref false in
  if m2 > 0. then begin
    let moved = ref true in
    let rounds = ref 0 in
    while !moved && !rounds < 100 do
      moved := false;
      incr rounds;
      for i = 0 to n - 1 do
        let ci = community.(i) in
        sigma_tot.(ci) <- sigma_tot.(ci) -. k.(i);
        (* Accumulate links from i into each neighbouring community. *)
        let nt = gather ~w ~touched ~community i cidx cv rp.(i) rp.(i + 1) in
        let ki = k.(i) in
        let stay = gain ~resolution ~m2 w sigma_tot ki ci in
        let best_c = ref ci and best_gain = ref stay in
        for t = 0 to nt - 1 do
          let c = touched.(t) in
          let g = gain ~resolution ~m2 w sigma_tot ki c in
          if g > !best_gain || (g = !best_gain && c < !best_c) then begin
            best_c := c;
            best_gain := g
          end
        done;
        for t = 0 to nt - 1 do
          w.(touched.(t)) <- 0.
        done;
        let dest =
          if !best_c <> ci && !best_gain > stay +. 1e-12 then begin
            moved := true;
            improved := true;
            !best_c
          end
          else ci
        in
        community.(i) <- dest;
        sigma_tot.(dest) <- sigma_tot.(dest) +. k.(i)
      done
    done
  end;
  (renumber (Array.sub community 0 n), !improved)

let ensure_frame fr n =
  if Array.length fr.k < n then begin
    fr.k <- Array.make n 0.;
    fr.community <- Array.make n 0;
    fr.sigma_tot <- Array.make n 0.;
    fr.w <- Array.make n 0.;
    fr.touched <- Array.make n 0
  end

let one_level_dense fr ~resolution adj =
  let n = Array.length adj in
  ensure_frame fr n;
  let m2 = ref 0. in
  for i = 0 to n - 1 do
    let s = Array.fold_left ( +. ) 0. adj.(i) in
    fr.k.(i) <- s;
    m2 := !m2 +. s
  done;
  (* The CSR form lists each row's positive cells in ascending column
     order, the order the dense scan visits them. *)
  local_moving fr ~resolution ~n ~m2:!m2 (Csr.of_dense adj)

let one_level_csr_frame fr ~resolution (adj : Csr.t) =
  let n = adj.Csr.n in
  ensure_frame fr n;
  let m2 = ref 0. in
  let rp = adj.Csr.row_ptr and cv = adj.Csr.values in
  for i = 0 to n - 1 do
    let s = ref 0. in
    for p = rp.(i) to rp.(i + 1) - 1 do
      s := !s +. cv.(p)
    done;
    fr.k.(i) <- !s;
    m2 := !m2 +. !s
  done;
  local_moving fr ~resolution ~n ~m2:!m2 adj

let one_level ?(resolution = 1.) adj =
  one_level_dense (make_frame (Array.length adj)) ~resolution adj

let one_level_csr ?(resolution = 1.) adj =
  one_level_csr_frame (make_frame adj.Csr.n) ~resolution adj

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

let aggregate_csr (adj : Csr.t) labels =
  let n_comm = 1 + Array.fold_left max 0 labels in
  (* Flat n_comm² accumulator; the row-major stored-entry scan adds
     into each cell in exactly the dense aggregate's order. *)
  let acc = Array.make (n_comm * n_comm) 0. in
  Csr.iter_nz adj (fun i j v ->
      let idx = (labels.(i) * n_comm) + labels.(j) in
      acc.(idx) <- acc.(idx) +. v);
  let rows =
    Array.init n_comm (fun i ->
        let cells = ref [] in
        for j = n_comm - 1 downto 0 do
          let v = acc.((i * n_comm) + j) in
          if v > 0. then cells := (j, v) :: !cells
        done;
        !cells)
  in
  Csr.of_row_lists ~n:n_comm rows

let modularity_graph ?(resolution = 1.) ~n ~k ~m2 ~(cols : int array array)
    ~(vals : float array array) (labels : int array) =
  if m2 = 0. then 0.
  else begin
    let intra = ref 0. in
    for i = 0 to n - 1 do
      let li = labels.(i) and gc = cols.(i) and gv = vals.(i) in
      for p = 0 to Array.length gc - 1 do
        if labels.(gc.(p)) = li then intra := !intra +. gv.(p)
      done
    done;
    let n_comm = 1 + Array.fold_left max 0 labels in
    let s = Array.make n_comm 0. in
    for i = 0 to n - 1 do
      s.(labels.(i)) <- s.(labels.(i)) +. k.(i)
    done;
    let penalty = Array.fold_left (fun acc sc -> acc +. (sc *. sc)) 0. s in
    (!intra -. (resolution *. penalty /. m2)) /. m2
  end

(* Seeded local moving over a dirty-vertex frontier: instead of sweeping
   every vertex until quiescence, start from a previous partition and a
   queue of vertices whose incident weights changed, and let moves wake
   their neighbours plus the members of both touched communities (the
   same BFS-expansion shape as the Maxmin.Inc dirty-component solver).
   Moves use exactly the cold pass's gain formula and (max gain, lowest
   community id) tie-break, with one extension the cold pass gets for
   free by starting from singletons: a vertex may also leave for a
   fresh singleton community (gain 0) when every alternative is
   negative — without it a seeded pass could never split a community.
   Returns raw (unrenumbered, but deterministic) labels in [0, n) and
   the number of vertices that changed community. *)
let refine_seeded ?(resolution = 1.) ~n ~k ~m2 ~(cols : int array array)
    ~(vals : float array array) ~seed ~frontier () =
  if n = 0 then ([||], 0)
  else begin
    let community = Array.sub seed 0 n in
    let sigma_tot = Array.make n 0. in
    let w = Array.make n 0. in
    let touched = Array.make n 0 in
    (* Community membership as intrusive doubly-linked lists, so waking
       "everyone in the two touched communities" is proportional to
       their size. *)
    let head = Array.make n (-1) in
    let next = Array.make n (-1) in
    let prev = Array.make n (-1) in
    let n_seed = ref 0 in
    for i = 0 to n - 1 do
      let c = community.(i) in
      if c < 0 || c >= n then invalid_arg "Louvain.refine_seeded: seed label";
      if c >= !n_seed then n_seed := c + 1;
      sigma_tot.(c) <- sigma_tot.(c) +. k.(i)
    done;
    for i = n - 1 downto 0 do
      (* Downward scan links members ascending within each list. *)
      let c = community.(i) in
      next.(i) <- head.(c);
      prev.(i) <- -1;
      if head.(c) >= 0 then prev.(head.(c)) <- i;
      head.(c) <- i
    done;
    (* Fresh community ids: everything the seed does not use, plus ids
       reclaimed when a community empties — ids therefore never run
       out.  Popped in ascending order for determinism. *)
    let free = Array.make n 0 in
    let n_free = ref 0 in
    for c = n - 1 downto !n_seed do
      free.(!n_free) <- c;
      incr n_free
    done;
    let pop_free () =
      decr n_free;
      free.(!n_free)
    in
    let unlink i =
      let c = community.(i) in
      if prev.(i) >= 0 then next.(prev.(i)) <- next.(i)
      else head.(c) <- next.(i);
      if next.(i) >= 0 then prev.(next.(i)) <- prev.(i);
      if head.(c) < 0 then begin
        (* Emptied: reclaim the id (sigma_tot is reset on reuse). *)
        free.(!n_free) <- c;
        incr n_free
      end
    in
    let link i c =
      next.(i) <- head.(c);
      prev.(i) <- -1;
      if head.(c) >= 0 then prev.(head.(c)) <- i;
      head.(c) <- i;
      community.(i) <- c
    in
    let moves = ref 0 in
    (* Cold local_moving leaves an isolated (zero-degree) vertex in its
       own singleton; match that so identical-content ticks stay
       label-identical. *)
    let solo i =
      let c = community.(i) in
      if not (head.(c) = i && next.(i) = -1) then begin
        unlink i;
        let c' = pop_free () in
        sigma_tot.(c') <- 0.;
        link i c';
        sigma_tot.(c') <- k.(i);
        incr moves
      end
    in
    if m2 = 0. then
      (* Degenerate graph: the cold pass returns all-singletons. *)
      for i = 0 to n - 1 do
        solo i
      done
    else begin
      Array.iter (fun i -> if k.(i) = 0. then solo i) frontier;
      (* FIFO work queue; [in_queue] bounds it to n entries. *)
      let queue = Array.make (max n 1) 0 in
      let in_queue = Array.make n false in
      let qhead = ref 0 and qtail = ref 0 and qlen = ref 0 in
      let enqueue i =
        if not in_queue.(i) then begin
          in_queue.(i) <- true;
          queue.(!qtail) <- i;
          qtail := (!qtail + 1) mod n;
          incr qlen
        end
      in
      Array.iter (fun i -> if k.(i) > 0. then enqueue i) frontier;
      let wake c =
        let m = ref head.(c) in
        while !m >= 0 do
          enqueue !m;
          m := next.(!m)
        done
      in
      let wake_neighbours i =
        let gc = cols.(i) in
        for p = 0 to Array.length gc - 1 do
          if gc.(p) <> i then enqueue gc.(p)
        done
      in
      (* Every accepted move strictly increases modularity, so the loop
         terminates; the budget is a backstop against pathological
         near-tie churn (callers fall back to a full re-cluster when
         quality degrades anyway). *)
      let budget = ref (max 1000 (20 * n)) in
      while !qlen > 0 && !budget > 0 do
        decr budget;
        let i = queue.(!qhead) in
        qhead := (!qhead + 1) mod n;
        decr qlen;
        in_queue.(i) <- false;
        let ci = community.(i) in
        sigma_tot.(ci) <- sigma_tot.(ci) -. k.(i);
        let gc = cols.(i) in
        let nt = gather ~w ~touched ~community i gc vals.(i) 0 (Array.length gc) in
        let ki = k.(i) in
        let stay = gain ~resolution ~m2 w sigma_tot ki ci in
        let best_c = ref ci and best_gain = ref stay in
        for t = 0 to nt - 1 do
          let c = touched.(t) in
          let g = gain ~resolution ~m2 w sigma_tot ki c in
          if g > !best_gain || (g = !best_gain && c < !best_c) then begin
            best_c := c;
            best_gain := g
          end
        done;
        for t = 0 to nt - 1 do
          w.(touched.(t)) <- 0.
        done;
        (* A fresh singleton is always available at gain 0.; its id is
           by construction higher than any occupied one, so it wins
           only on strictly better gain. *)
        let go_solo = 0. > !best_gain in
        if go_solo && 0. > stay +. 1e-12 then begin
          unlink i;
          let c' = pop_free () in
          sigma_tot.(c') <- 0.;
          link i c';
          sigma_tot.(c') <- sigma_tot.(c') +. k.(i);
          incr moves;
          wake_neighbours i;
          wake ci
        end
        else begin
          let dest =
            if !best_c <> ci && !best_gain > stay +. 1e-12 then !best_c else ci
          in
          if dest <> ci then begin
            unlink i;
            link i dest;
            incr moves;
            wake_neighbours i;
            wake ci;
            wake dest
          end;
          sigma_tot.(dest) <- sigma_tot.(dest) +. k.(i)
        end
      done
    end;
    (community, !moves)
  end

let cluster ?(resolution = 1.) adj =
  let n = Array.length adj in
  let assignment = Array.init n Fun.id in
  let fr = make_frame n in
  let rec loop adj =
    let labels, improved = one_level_dense fr ~resolution adj in
    if not improved then ()
    else begin
      (* Compose into the node-level assignment. *)
      for i = 0 to n - 1 do
        assignment.(i) <- labels.(assignment.(i))
      done;
      let n_comm = 1 + Array.fold_left max 0 labels in
      if n_comm < Array.length adj then loop (aggregate adj labels)
    end
  in
  loop adj;
  renumber assignment

let cluster_csr ?(resolution = 1.) (adj : Csr.t) =
  let n = adj.Csr.n in
  let assignment = Array.init n Fun.id in
  let fr = make_frame n in
  let rec loop (adj : Csr.t) =
    let labels, improved = one_level_csr_frame fr ~resolution adj in
    if not improved then ()
    else begin
      for i = 0 to n - 1 do
        assignment.(i) <- labels.(assignment.(i))
      done;
      let n_comm = 1 + Array.fold_left max 0 labels in
      if n_comm < adj.Csr.n then loop (aggregate_csr adj labels)
    end
  in
  loop adj;
  renumber assignment
