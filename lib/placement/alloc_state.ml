module Tree = Cm_topology.Tree
module Reservation = Cm_topology.Reservation
module Tag = Cm_tag.Tag
module Bandwidth = Cm_tag.Bandwidth

(* The undo journal is a flat typed log in parallel growable arrays — one
   entry per journaled mutation, written as immediates (no closure
   allocation on the place/sync hot path).  [j_kind] 0 is a path-count
   delta: [j_delta] VMs of [j_comp] were added to every node on the
   [j_node](server)→root path, undone by re-walking the path with the
   negated delta.  [j_kind] 1 is a bandwidth baseline: [t.bw]'s entry for
   [j_node] was replaced, undone by restoring the saved ([j_up], [j_down])
   pair. *)
type t = {
  the_tree : Tree.t;
  the_tag : Tag.t;
  the_model : Bandwidth.model;
  ha : Types.ha_spec option;
  ha_bounds : int array; (* per component; max_int rows when no HA *)
  txn : Reservation.t;
  counts : (int, int array) Hashtbl.t;
  bw : (int, float * float) Hashtbl.t;
  zero_counts : int array; (* shared all-zeros inside-vector; never mutated *)
  (* Scratch for [uplink_refuses] and [sync_bw]: an inside-vector to
     price, and the (out, in) requirement priced into a flat row. *)
  probe : int array;
  price : float array;
  (* Cache of the count rows along the server→root path most recently
     walked: rows are stable (entries are added to [counts], never
     removed or replaced), so resolving the Hashtbl chain once per
     server lets the per-component walks of one allocation reuse the
     row pointers.  [path_server] = -1 when empty. *)
  mutable path_server : int;
  mutable path_len : int;
  path_rows : int array array;
  mutable j_kind : int array;
  mutable j_node : int array;
  mutable j_comp : int array;
  mutable j_delta : int array;
  mutable j_up : float array;
  mutable j_down : float array;
  mutable jlen : int;
}

type checkpoint = { jcp : int; rcp : Reservation.checkpoint }

let journal_capacity = 32

let create ?(model = Bandwidth.Tag_model) ?ha the_tree the_tag =
  let n = Tag.n_components the_tag in
  let ha_bounds =
    match ha with
    | None -> Array.make n max_int
    | Some { Types.rwcs; _ } ->
        Array.init n (fun c ->
            Types.eq7_bound ~n_total:(Tag.size the_tag c) ~rwcs)
  in
  {
    the_tree;
    the_tag;
    the_model = model;
    ha;
    ha_bounds;
    txn = Reservation.start the_tree;
    counts = Hashtbl.create 64;
    bw = Hashtbl.create 64;
    zero_counts = Array.make n 0;
    probe = Array.make n 0;
    price = Array.make 2 0.;
    path_server = -1;
    path_len = 0;
    path_rows = Array.make (Tree.n_levels the_tree) [||];
    j_kind = Array.make journal_capacity 0;
    j_node = Array.make journal_capacity 0;
    j_comp = Array.make journal_capacity 0;
    j_delta = Array.make journal_capacity 0;
    j_up = Array.make journal_capacity 0.;
    j_down = Array.make journal_capacity 0.;
    jlen = 0;
  }

let tree t = t.the_tree
let tag t = t.the_tag
let model t = t.the_model

let ensure_journal_room t =
  if t.jlen = Array.length t.j_kind then begin
    let cap = 2 * Array.length t.j_kind in
    let grow_int a =
      let b = Array.make cap 0 in
      Array.blit a 0 b 0 t.jlen;
      b
    in
    let grow_float a =
      let b = Array.make cap 0. in
      Array.blit a 0 b 0 t.jlen;
      b
    in
    t.j_kind <- grow_int t.j_kind;
    t.j_node <- grow_int t.j_node;
    t.j_comp <- grow_int t.j_comp;
    t.j_delta <- grow_int t.j_delta;
    t.j_up <- grow_float t.j_up;
    t.j_down <- grow_float t.j_down
  end

let journal_counts t ~server ~comp ~delta =
  ensure_journal_room t;
  let i = t.jlen in
  t.j_kind.(i) <- 0;
  t.j_node.(i) <- server;
  t.j_comp.(i) <- comp;
  t.j_delta.(i) <- delta;
  t.j_up.(i) <- 0.;
  t.j_down.(i) <- 0.;
  t.jlen <- i + 1

let journal_bw t ~node ~up ~down =
  ensure_journal_room t;
  let i = t.jlen in
  t.j_kind.(i) <- 1;
  t.j_node.(i) <- node;
  t.j_comp.(i) <- 0;
  t.j_delta.(i) <- 0;
  t.j_up.(i) <- up;
  t.j_down.(i) <- down;
  t.jlen <- i + 1

let node_counts t node =
  match Hashtbl.find_opt t.counts node with
  | Some arr -> arr
  | None ->
      let arr = Array.make (Tag.n_components t.the_tag) 0 in
      Hashtbl.add t.counts node arr;
      arr

let count t ~node ~comp =
  match Hashtbl.find_opt t.counts node with
  | None -> 0
  | Some arr -> arr.(comp)

(* Borrowed, read-only view of the live inside-vector of [node]; [None]
   when nothing was ever placed under it.  Lets a caller that reads
   several components of one node pay the Hashtbl lookup once. *)
let counts_view t ~node = Hashtbl.find_opt t.counts node

let counts_at t ~node =
  match Hashtbl.find_opt t.counts node with
  | None -> Array.make (Tag.n_components t.the_tag) 0
  | Some arr -> Array.copy arr

let placed_on_server t ~server = counts_at t ~node:server

(* Apply a count delta on every node of the server→root path, via raw
   parent ids (no path list allocation).  The resolved rows are cached
   per server: a multi-component allocation walks the same path once
   per component, and only the first walk pays the Hashtbl chain. *)
let add_along_path t server comp delta =
  if t.path_server <> server then begin
    let len = ref 0 in
    let id = ref server in
    while !id >= 0 do
      t.path_rows.(!len) <- node_counts t !id;
      incr len;
      id := Tree.parent_id t.the_tree !id
    done;
    t.path_len <- !len;
    t.path_server <- server
  end;
  for i = 0 to t.path_len - 1 do
    let arr = t.path_rows.(i) in
    arr.(comp) <- arr.(comp) + delta
  done

let ha_cap t ~node ~comp =
  match t.ha with
  | None -> max_int
  | Some { Types.laa_level; _ } ->
      if Tree.level t.the_tree node > laa_level then max_int
      else
        (* The binding Eq. 7 constraint sits at the LAA-level ancestor:
           lower subtrees can only hold fewer VMs than it. *)
        let rec up id =
          if Tree.level t.the_tree id >= laa_level then id
          else
            match Tree.parent t.the_tree id with
            | Some p -> up p
            | None -> id
        in
        t.ha_bounds.(comp) - count t ~node:(up node) ~comp

let seed t ~old_tag ~locations =
  if t.jlen > 0 || not (Reservation.is_empty t.txn) then
    invalid_arg "Alloc_state.seed: state is not fresh";
  Array.iteri
    (fun c placed ->
      List.iter
        (fun (server, n) -> add_along_path t server c n)
        placed)
    locations;
  Hashtbl.iter
    (fun node inside ->
      if node <> Tree.root t.the_tree then
        Hashtbl.replace t.bw node
          (Bandwidth.required t.the_model old_tag ~inside))
    t.counts

let remove t ~server ~comp ~n =
  if n < 0 then invalid_arg "Alloc_state.remove: negative count";
  if n = 0 then true
  else if count t ~node:server ~comp < n then false
  else if
    not
      (Reservation.return_slots t.txn ~server
         (n * Tag.vm_slots t.the_tag comp))
  then false
  else begin
    add_along_path t server comp (-n);
    journal_counts t ~server ~comp ~delta:(-n);
    true
  end

let place t ~server ~comp ~n =
  if n < 0 then invalid_arg "Alloc_state.place: negative count";
  if n = 0 then true
  else if not (Tree.is_server t.the_tree server) then
    invalid_arg "Alloc_state.place: not a server"
  else if ha_cap t ~node:server ~comp < n then false
  else if
    not
      (Reservation.take_slots t.txn ~server (n * Tag.vm_slots t.the_tag comp))
  then false
  else begin
    add_along_path t server comp n;
    journal_counts t ~server ~comp ~delta:n;
    true
  end

(* The node's journaled (up, down) reservation: the stored pair itself,
   so reading it allocates nothing. *)
let baseline t node =
  match Hashtbl.find t.bw node with
  | p -> p
  | exception Not_found -> (0., 0.)

let sync_bw t ~node =
  if node = Tree.root t.the_tree then true
  else begin
    (* Borrow the live inside-vector (shared zeros when untouched):
       pricing only reads it, so no defensive copy. *)
    let inside =
      match Hashtbl.find t.counts node with
      | arr -> arr
      | exception Not_found -> t.zero_counts
    in
    Bandwidth.required_into t.the_model t.the_tag ~inside t.price;
    let required_up = t.price.(0) and required_down = t.price.(1) in
    let cur_up, cur_down = baseline t node in
    let d_up = required_up -. cur_up and d_down = required_down -. cur_down in
    if d_up = 0. && d_down = 0. then true
    else if Reservation.reserve_bw t.txn ~node ~up:d_up ~down:d_down then begin
      Hashtbl.replace t.bw node (required_up, required_down);
      journal_bw t ~node ~up:cur_up ~down:cur_down;
      true
    end
    else false
  end

(* {1 Refusal before recursion}

   [sync_bw] on a node fails when the positive change of its uplink
   requirement exceeds the residual, [reserved + (R x - baseline) > cap +
   bw_epsilon], in either direction.  Under the TAG, hose and VOC models
   each direction of [R] is a sum of mins of affine functions of the
   inside counts, hence concave, so over the inside vectors [base + y]
   with [0 <= y <= group] and [sum y >= 1] it is lowest at a vertex of
   that polytope.  For a group of one tier [a] the vertices are [e_a] and
   [g_a e_a]; a second tier [b] adds [e_b], [g_b e_b] and [g].  If every
   vertex misses in the same direction, every sub-group misses there too.

   Rounding: every Eq. 1 term is nonnegative, so the computed sum is
   within a few ulps per edge of the exact one, relative to itself, and
   the fit test adds a few more ulps of its operands.  [refuse_margin]
   is a relative slack far above both, so a vertex that misses by more
   than it also makes [sync_bw]'s own float test fail at every
   sub-group. *)

let refuse_margin = 1e-9

(* [t.probe] priced against [node]'s uplink: bit 0 set when the out
   direction misses by more than the margin, bit 1 for the in
   direction. *)
let probe_misses t ~node =
  Bandwidth.required_into t.the_model t.the_tag ~inside:t.probe t.price;
  let cur_up, cur_down = baseline t node in
  let tree = t.the_tree in
  let cap = Tree.uplink_capacity tree node in
  let limit = cap +. Tree.bw_epsilon in
  let r_up = t.price.(0) and r_down = t.price.(1) in
  let res_up = Tree.reserved_up tree node
  and res_down = Tree.reserved_down tree node in
  let d_up = r_up -. cur_up and d_down = r_down -. cur_down in
  let m_up =
    refuse_margin *. (r_up +. Float.abs cur_up +. Float.abs res_up +. cap)
  and m_down =
    refuse_margin
    *. (r_down +. Float.abs cur_down +. Float.abs res_down +. cap)
  in
  (if d_up > m_up && res_up +. d_up > limit +. m_up then 1 else 0)
  lor if d_down > m_down && res_down +. d_down > limit +. m_down then 2 else 0

let uplink_refuses t ~node ~group =
  let n = Tag.n_components t.the_tag in
  if Array.length group <> n then
    invalid_arg "Alloc_state.uplink_refuses: group length";
  let a = ref (-1) and b = ref (-1) and tiers = ref 0 in
  for c = 0 to n - 1 do
    if group.(c) > 0 then begin
      incr tiers;
      if !a < 0 then a := c else if !b < 0 then b := c
    end
  done;
  if
    t.the_model = Bandwidth.Pipe_model
    || node = Tree.root t.the_tree
    || !tiers = 0 || !tiers > 2
  then false
  else begin
    let a = !a and b = !b in
    let x = t.probe in
    (match Hashtbl.find t.counts node with
    | row -> Array.blit row 0 x 0 n
    | exception Not_found -> Array.fill x 0 n 0);
    let base_a = x.(a) and ga = group.(a) in
    x.(a) <- base_a + 1;
    let miss = ref (probe_misses t ~node) in
    if !miss <> 0 && ga > 1 then begin
      x.(a) <- base_a + ga;
      miss := !miss land probe_misses t ~node
    end;
    if !miss <> 0 && b >= 0 then begin
      let base_b = x.(b) and gb = group.(b) in
      x.(a) <- base_a;
      x.(b) <- base_b + 1;
      miss := !miss land probe_misses t ~node;
      if !miss <> 0 && gb > 1 then begin
        x.(b) <- base_b + gb;
        miss := !miss land probe_misses t ~node
      end;
      if !miss <> 0 then begin
        x.(a) <- base_a + ga;
        x.(b) <- base_b + gb;
        miss := !miss land probe_misses t ~node
      end
    end;
    !miss <> 0
  end

let checkpoint t = { jcp = t.jlen; rcp = Reservation.checkpoint t.txn }

let undo_journal_suffix t jcp =
  for i = t.jlen - 1 downto jcp do
    if t.j_kind.(i) = 0 then
      add_along_path t t.j_node.(i) t.j_comp.(i) (-t.j_delta.(i))
    else Hashtbl.replace t.bw t.j_node.(i) (t.j_up.(i), t.j_down.(i))
  done;
  t.jlen <- jcp

let rollback_to t { jcp; rcp } =
  if jcp < 0 || jcp > t.jlen then invalid_arg "Alloc_state.rollback_to";
  undo_journal_suffix t jcp;
  Reservation.rollback_to t.txn rcp

let rollback t =
  undo_journal_suffix t 0;
  Reservation.rollback t.txn

let sync_path_above ?top t ~node =
  (* [top] stops the upward sync at that node (inclusive): ancestors
     strictly above it are left untouched.  The default — the root — is
     the historical behaviour: syncing the root itself is a no-op (no
     uplink), so stopping at it is the same as walking past it. *)
  let stop = Option.value top ~default:(Tree.root t.the_tree) in
  let cp = checkpoint t in
  let rec go id =
    if id = stop then true
    else
      match Tree.parent t.the_tree id with
      | None -> true
      | Some p -> if sync_bw t ~node:p then go p else false
  in
  if go node then true
  else begin
    rollback_to t cp;
    false
  end

let commit t =
  t.jlen <- 0;
  Reservation.commit t.txn

let by_level t nodes =
  List.sort
    (fun a b ->
      compare (Tree.level t.the_tree a, a) (Tree.level t.the_tree b, b))
    nodes

let touched_nodes t =
  Hashtbl.fold
    (fun node arr acc ->
      if Array.exists (fun n -> n > 0) arr then node :: acc else acc)
    t.counts []
  |> by_level t

let tracked_nodes t =
  Hashtbl.fold (fun node _ acc -> node :: acc) t.counts [] |> by_level t

let server_locations t =
  let locations = Array.make (Tag.n_components t.the_tag) [] in
  Hashtbl.iter
    (fun node arr ->
      if Tree.is_server t.the_tree node then
        Array.iteri
          (fun c n -> if n > 0 then locations.(c) <- (node, n) :: locations.(c))
          arr)
    t.counts;
  Array.map (List.sort compare) locations

let external_demand t =
  let inside = Array.init (Tag.n_components t.the_tag) (Tag.size t.the_tag) in
  Bandwidth.required t.the_model t.the_tag ~inside
