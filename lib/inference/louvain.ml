module Csr = Cm_util.Csr
module Intsort = Cm_util.Intsort

type graph = {
  n : int;
  cols : int array array;
  vals : float array array;
  k : float array;
  mutable m2 : float;
}

(* Degrees are each row summed in ascending column order, and [m2]
   sums them in vertex order: the bits every caller compares against
   ([Csr.row_sums] and its fold). *)
let of_rows ~n cols vals =
  let k = Array.make n 0. in
  let m2 = ref 0. in
  for i = 0 to n - 1 do
    let gv = vals.(i) in
    let s = ref 0. in
    for p = 0 to Array.length gv - 1 do
      s := !s +. gv.(p)
    done;
    k.(i) <- !s;
    m2 := !m2 +. !s
  done;
  { n; cols; vals; k; m2 = !m2 }

let of_csr (a : Csr.t) =
  let n = a.Csr.n and rp = a.Csr.row_ptr in
  let slice src i = Array.sub src rp.(i) (rp.(i + 1) - rp.(i)) in
  of_rows ~n
    (Array.init n (slice a.Csr.col_idx))
    (Array.init n (slice a.Csr.values))

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

let modularity ?(resolution = 1.) g (labels : int array) =
  if g.m2 = 0. then 0.
  else begin
    (* Links inside communities, over stored entries only... *)
    let intra = ref 0. in
    for i = 0 to g.n - 1 do
      let li = labels.(i) and gc = g.cols.(i) and gv = g.vals.(i) in
      for p = 0 to Array.length gc - 1 do
        if labels.(gc.(p)) = li then intra := !intra +. gv.(p)
      done
    done;
    (* ...and the degree penalty via per-community degree sums:
       sum_{labels i = labels j} k_i k_j = sum_c (sum_{i in c} k_i)^2. *)
    let s = Array.make (1 + Array.fold_left max 0 labels) 0. in
    for i = 0 to g.n - 1 do
      s.(labels.(i)) <- s.(labels.(i)) +. g.k.(i)
    done;
    let penalty = Array.fold_left (fun acc sc -> acc +. (sc *. sc)) 0. s in
    (!intra -. (resolution *. penalty /. g.m2)) /. g.m2
  end

(* Scratch for every pass over graphs of up to [capacity] vertices;
   levels only shrink, so one frame serves a whole cascade, and a
   caller that clusters repeatedly (the streaming engine) keeps one. *)
type frame = {
  community : int array;
  sigma_tot : float array;  (* total degree per community *)
  w : float array;
      (* weight from the current vertex (or coarse row) into each
         community; weights are positive, so [0.] doubles as
         "untouched" *)
  touched : int array;  (* communities to reset in [w] *)
  tmp : int array;  (* sort scratch *)
  (* Seeded pass: community membership as intrusive doubly-linked
     lists, free community ids, and the FIFO work queue. *)
  head : int array;
  next : int array;
  prev : int array;
  free : int array;
  queue : int array;
  in_queue : bool array;
  (* Aggregation: vertices bucketed by community, ascending. *)
  start : int array;
  order : int array;
}

let make_frame capacity =
  let c = max capacity 1 in
  {
    community = Array.make c 0;
    sigma_tot = Array.make c 0.;
    w = Array.make c 0.;
    touched = Array.make c 0;
    tmp = Array.make c 0;
    head = Array.make c 0;
    next = Array.make c 0;
    prev = Array.make c 0;
    free = Array.make c 0;
    queue = Array.make c 0;
    in_queue = Array.make c false;
    start = Array.make (c + 1) 0;
    order = Array.make c 0;
  }

let frame_for frame g =
  match frame with
  | None -> make_frame g.n
  | Some fr ->
      if Array.length fr.community < g.n then
        invalid_arg "Louvain: frame smaller than the graph";
      fr

(* Modularity gain of joining community [c] for a vertex of degree [ki]
   (already removed from its own community). *)
let gain ~resolution ~m2 (w : float array) (sigma_tot : float array) ki c =
  w.(c) -. (resolution *. sigma_tot.(c) *. ki /. m2)

(* The move rule of both local-moving passes, for vertex [i] already
   taken out of its community [ci].  Neighbour weights accumulate in
   ascending column order (self-loops skipped); the best community is
   the exact (max gain, then lowest community id) over [ci] and the
   touched neighbour communities — float equality, not epsilon, so the
   winner does not depend on scan order.  The epsilon appears only in
   the move-vs-stay guard.  With [solo], a fresh singleton is also on
   offer at gain 0: returns [-1] when it beats every alternative. *)
let choose fr ~resolution g ~solo i ci =
  let w = fr.w and touched = fr.touched and community = fr.community in
  let sigma_tot = fr.sigma_tot and m2 = g.m2 in
  let gc = g.cols.(i) and gv = g.vals.(i) in
  let nt = ref 0 in
  for p = 0 to Array.length gc - 1 do
    let j = gc.(p) in
    if j <> i then begin
      let c = community.(j) in
      if w.(c) = 0. then begin
        touched.(!nt) <- c;
        incr nt
      end;
      w.(c) <- w.(c) +. gv.(p)
    end
  done;
  let ki = g.k.(i) in
  let stay = gain ~resolution ~m2 w sigma_tot ki ci in
  let best_c = ref ci and best_gain = ref stay in
  for t = 0 to !nt - 1 do
    let c = touched.(t) in
    let gain_c = gain ~resolution ~m2 w sigma_tot ki c in
    if gain_c > !best_gain || (gain_c = !best_gain && c < !best_c) then begin
      best_c := c;
      best_gain := gain_c
    end
  done;
  for t = 0 to !nt - 1 do
    w.(touched.(t)) <- 0.
  done;
  (* A fresh singleton's id is by construction higher than any
     occupied one, so it wins only on strictly better gain. *)
  if solo && 0. > !best_gain && 0. > stay +. 1e-12 then -1
  else if !best_c <> ci && !best_gain > stay +. 1e-12 then !best_c
  else ci

(* Cold local moving: every vertex starts alone and vertices are swept
   in index order until a sweep moves nothing.  Returns the renumbered
   labels. *)
let local_moving fr ~resolution g =
  let n = g.n and k = g.k in
  let community = fr.community and sigma_tot = fr.sigma_tot in
  for i = 0 to n - 1 do
    community.(i) <- i;
    sigma_tot.(i) <- k.(i)
  done;
  if g.m2 > 0. then begin
    let moved = ref true in
    let rounds = ref 0 in
    while !moved && !rounds < 100 do
      moved := false;
      incr rounds;
      for i = 0 to n - 1 do
        let ci = community.(i) in
        sigma_tot.(ci) <- sigma_tot.(ci) -. k.(i);
        let dest = choose fr ~resolution g ~solo:false i ci in
        if dest <> ci then moved := true;
        community.(i) <- dest;
        sigma_tot.(dest) <- sigma_tot.(dest) +. k.(i)
      done
    done
  end;
  renumber (Array.sub community 0 n)

(* Collapse each community of [labels] (canonical, [0, n_comm)) to one
   vertex.  Coarse row [a] scans its members' rows, members ascending,
   so each cell receives its additions in row-major (i, j) order; the
   intra-community weight lands on the diagonal as a self-loop.  Memory
   is O(n + nnz): one accumulator row at a time. *)
let aggregate_with fr g (labels : int array) =
  let n_comm = 1 + Array.fold_left max 0 labels in
  let start = fr.start and order = fr.order in
  (* Counting sort of the vertices by label: [start.(c + 1)] counts
     community [c]'s members; as prefix sums, [start.(c)] is where
     [c]'s bucket begins. *)
  Array.fill start 0 (n_comm + 1) 0;
  for i = 0 to g.n - 1 do
    let c = labels.(i) + 1 in
    start.(c) <- start.(c) + 1
  done;
  for c = 1 to n_comm do
    start.(c) <- start.(c) + start.(c - 1)
  done;
  for i = 0 to g.n - 1 do
    let c = labels.(i) in
    order.(start.(c)) <- i;
    start.(c) <- start.(c) + 1
  done;
  (* Filling advanced each start to the next bucket's; shift back. *)
  for c = n_comm downto 1 do
    start.(c) <- start.(c - 1)
  done;
  start.(0) <- 0;
  let w = fr.w and touched = fr.touched in
  let cols = Array.make n_comm [||] and vals = Array.make n_comm [||] in
  for a = 0 to n_comm - 1 do
    let nt = ref 0 in
    for q = start.(a) to start.(a + 1) - 1 do
      let i = order.(q) in
      let gc = g.cols.(i) and gv = g.vals.(i) in
      for p = 0 to Array.length gc - 1 do
        let b = labels.(gc.(p)) in
        if w.(b) = 0. then begin
          touched.(!nt) <- b;
          incr nt
        end;
        w.(b) <- w.(b) +. gv.(p)
      done
    done;
    Intsort.sort_prefix ~tmp:fr.tmp touched !nt;
    let rc = Array.make !nt 0 and rv = Array.make !nt 0. in
    for t = 0 to !nt - 1 do
      let b = touched.(t) in
      rc.(t) <- b;
      rv.(t) <- w.(b);
      w.(b) <- 0.
    done;
    cols.(a) <- rc;
    vals.(a) <- rv
  done;
  of_rows ~n:n_comm cols vals

let aggregate g labels = aggregate_with (make_frame g.n) g labels

(* The aggregation cascade above a first level's canonical [labels]:
   collapse, run cold local moving on the coarse graph, compose, until
   a level merges nothing.  Returns the composed, renumbered labels. *)
let cascade fr ~resolution g labels =
  let assignment = Array.copy labels in
  let rec loop g labels =
    if 1 + Array.fold_left max 0 labels < g.n then begin
      let coarse = aggregate_with fr g labels in
      let labels = local_moving fr ~resolution coarse in
      for i = 0 to Array.length assignment - 1 do
        assignment.(i) <- labels.(assignment.(i))
      done;
      loop coarse labels
    end
  in
  loop g labels;
  renumber assignment

let cluster ?(resolution = 1.) ?frame g =
  let fr = frame_for frame g in
  cascade fr ~resolution g (local_moving fr ~resolution g)

(* Seeded local moving over a dirty-vertex frontier: instead of sweeping
   every vertex until quiescence, start from a previous partition and a
   queue of vertices whose incident weights changed, and let moves wake
   their neighbours plus the members of both touched communities (the
   same BFS-expansion shape as the Maxmin.Inc dirty-component solver).
   Moves use [choose] with the fresh-singleton escape the cold pass
   gets for free by starting from singletons — without it a seeded pass
   could never split a community.  Leaves deterministic, unrenumbered
   labels in [fr.community] and returns the number of moves. *)
let seeded_pass fr ~resolution g ~seed ~frontier =
  let n = g.n and k = g.k in
  let community = fr.community and sigma_tot = fr.sigma_tot in
  let head = fr.head and next = fr.next and prev = fr.prev in
  let free = fr.free in
  Array.blit seed 0 community 0 n;
  Array.fill sigma_tot 0 n 0.;
  Array.fill head 0 n (-1);
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
    if prev.(i) >= 0 then next.(prev.(i)) <- next.(i) else head.(c) <- next.(i);
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
  (* Cold local moving leaves an isolated (zero-degree) vertex in its
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
  if g.m2 = 0. then
    (* Degenerate graph: the cold pass returns all-singletons. *)
    for i = 0 to n - 1 do
      solo i
    done
  else begin
    Array.iter (fun i -> if k.(i) = 0. then solo i) frontier;
    (* FIFO work queue; [in_queue] bounds it to n entries. *)
    let queue = fr.queue and in_queue = fr.in_queue in
    Array.fill in_queue 0 n false;
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
      let gc = g.cols.(i) in
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
      let dest = choose fr ~resolution g ~solo:true i ci in
      if dest < 0 then begin
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
  !moves

let refine_seeded ?(resolution = 1.) ?frame g ~seed ~frontier =
  if g.n = 0 then (seed, 0)
  else begin
    let fr = frame_for frame g in
    let moves = seeded_pass fr ~resolution g ~seed ~frontier in
    if moves = 0 then (seed, 0)
    else
      let first = renumber (Array.sub fr.community 0 g.n) in
      (cascade fr ~resolution g first, moves)
  end
