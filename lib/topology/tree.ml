type node = {
  level : int;
  parent : int; (* -1 for the root *)
  children : int array;
  up_capacity : float;
  mutable reserved_up : float;
  mutable reserved_down : float;
  mutable free_slots : int; (* servers only *)
  mutable free_subtree : int; (* free slots in the whole subtree *)
}

type t = {
  nodes : node array;
  root_id : int;
  server_ids : int array;
  slots_per_server : int;
  n_levels : int;
  (* Inclusive server-id range under each node (server ids are assigned
     contiguously left-to-right, so every subtree is a range). *)
  ranges : (int * int) array;
  level_index : int array array; (* node ids per level, ascending *)
  level_subtree_sizes : int array; (* servers under one node, per level *)
  (* {2 Incremental availability index}

     For every internal node [v] and every target level [l < level v],
     the index aggregates, over the level-[l] descendants [d] of [v]:

     - [idx_mink.(l).(v)]: the minimum selection key
       [(free_subtree d) lsl idx_id_bits lor d] — the packed form of
       FindLowestSubtree's order-independent (fewest free slots, lowest
       id) key, so a branch-and-bound descent reproduces the linear
       scan's argmin exactly (keys are unique: the id is embedded);
     - [idx_maxfree.(l).(v)]: max [free_subtree d] — an admissible bound
       for the scan's free-slots prune ([free_subtree] is a subtree sum,
       so a parent's count dominates every descendant's);
     - [idx_gup.(l).(v)] / [idx_gdown.(l).(v)]: max over [d] of the
       minimum available up/down bandwidth along the path (v..d] — an
       admissible bound for the scan's external-bandwidth prune;
     - [idx_fmask.(l).(v)]: a bitset of the [free_subtree] values
       present among the descendants [d], quantized into 63 buckets of
       width [idx_fq.(l)] (bit [b] set means some [d] has free slots in
       [[b*q, (b+1)*q)]; the width is 1 — exact — whenever a level-[l]
       subtree holds at most 62 slots, e.g. servers).  From it a
       descent derives a sound lower bound on the smallest {e feasible}
       (>= the tenant's demand) free value under [v] — the bound the
       plain min-key cannot give once full subtrees (free 0) dominate
       at steady state.

     Maintenance is lazy: every mutation ([unchecked_take_slots],
     [unchecked_return_slots], [unchecked_add_bw] — i.e. every path the
     Reservation/Alloc_state journals use for place, release, rollback
     and re-apply) marks the affected ancestors dirty, and a query
     recomputes dirty nodes from their children on first touch.  Marking
     stops walking at the first already-dirty node (its ancestors are
     dirty by induction), so steady-state cost is O(depth) bytes per
     mutation and cleaning is amortized against the marks.

     [idx_barrier] scopes the maintenance for the sharded batch phase:
     while set to level k, slot bubbling and dirty marking stop at nodes
     of level > k, so parallel per-pod allocators under distinct level-k
     roots never write shared ancestor state.  The coordinator repairs
     the skipped ancestors afterwards with [unchecked_settle_above]. *)
  idx_id_bits : int;
  idx_mink : int array array; (* [target level].(node) *)
  idx_maxfree : int array array;
  idx_fmask : int array array;
  idx_fq : int array; (* free-mask bucket width per target level *)
  idx_gup : float array array;
  idx_gdown : float array array;
  idx_dirty : Bytes.t;
  mutable idx_barrier : int; (* -1 = no barrier *)
  mutable idx_marks : int; (* diagnostics; approximate under barrier *)
  mutable idx_cleans : int;
}

type spec = {
  degrees : int list;
  slots_per_server : int;
  server_up_mbps : float;
  oversub : float list;
}

let default_spec =
  {
    degrees = [ 8; 16; 16 ];
    slots_per_server = 25;
    server_up_mbps = 10_000.;
    oversub = [ 4.; 8. ];
  }

let bw_epsilon = 1e-6

let validate_spec spec =
  if spec.degrees = [] then invalid_arg "Tree.create: empty degrees";
  List.iter
    (fun d -> if d <= 0 then invalid_arg "Tree.create: non-positive degree")
    spec.degrees;
  if spec.slots_per_server <= 0 then
    invalid_arg "Tree.create: non-positive slots_per_server";
  if spec.server_up_mbps <= 0. then
    invalid_arg "Tree.create: non-positive server uplink";
  if List.length spec.oversub <> List.length spec.degrees - 1 then
    invalid_arg "Tree.create: oversub must have (length degrees - 1) entries";
  List.iter
    (fun o -> if o <= 0. then invalid_arg "Tree.create: non-positive oversub")
    spec.oversub

(* Recompute every index row of internal node [v] from its children.
   This is the single aggregation function: [create] uses it bottom-up to
   build the index, lazy cleaning uses it on dirty nodes, and
   [index_verify] uses it as the from-scratch oracle — so incremental and
   rebuilt values are bit-identical by construction. *)
let idx_recompute t v =
  let nv = t.nodes.(v) in
  let lv = nv.level in
  let children = nv.children in
  let bits = t.idx_id_bits in
  for l = 0 to lv - 1 do
    let mink = ref max_int in
    let maxfree = ref min_int in
    let fmask = ref 0 in
    let gup = ref neg_infinity in
    let gdown = ref neg_infinity in
    if l = lv - 1 then
      (* Children sit at the target level: aggregate them directly.
         Path (v..c] = {c}, so the bandwidth bound is c's own headroom. *)
      Array.iter
        (fun c ->
          let nc = t.nodes.(c) in
          let key = (nc.free_subtree lsl bits) lor c in
          if key < !mink then mink := key;
          if nc.free_subtree > !maxfree then maxfree := nc.free_subtree;
          fmask := !fmask lor (1 lsl min (nc.free_subtree / t.idx_fq.(l)) 62);
          let au = nc.up_capacity -. nc.reserved_up in
          let ad = nc.up_capacity -. nc.reserved_down in
          if au > !gup then gup := au;
          if ad > !gdown then gdown := ad)
        children
    else
      (* Children are internal: fold their rows, clamping the bandwidth
         bound by each child's own headroom (the path enters through it). *)
      Array.iter
        (fun c ->
          let nc = t.nodes.(c) in
          let k = t.idx_mink.(l).(c) in
          if k < !mink then mink := k;
          let mf = t.idx_maxfree.(l).(c) in
          if mf > !maxfree then maxfree := mf;
          fmask := !fmask lor t.idx_fmask.(l).(c);
          let au = Float.min (nc.up_capacity -. nc.reserved_up) t.idx_gup.(l).(c) in
          let ad =
            Float.min (nc.up_capacity -. nc.reserved_down) t.idx_gdown.(l).(c)
          in
          if au > !gup then gup := au;
          if ad > !gdown then gdown := ad)
        children;
    t.idx_mink.(l).(v) <- !mink;
    t.idx_maxfree.(l).(v) <- !maxfree;
    t.idx_fmask.(l).(v) <- !fmask;
    t.idx_gup.(l).(v) <- !gup;
    t.idx_gdown.(l).(v) <- !gdown
  done

let create spec =
  validate_spec spec;
  let depth = List.length spec.degrees in
  (* Level of a node, bottom-up: servers are 0, root is [depth]. *)
  let n_servers = List.fold_left ( * ) 1 spec.degrees in
  let subtree_sizes_per_level =
    (* servers under one node of each level, index = level *)
    let arr = Array.make (depth + 1) 1 in
    let rec fill level = function
      | [] -> ()
      | d :: rest ->
          arr.(level) <- arr.(level - 1) * d;
          fill (level + 1) rest
    in
    fill 1 (List.rev spec.degrees);
    arr
  in
  (* Uplink capacity of a node at each level. *)
  let capacities = Array.make (depth + 1) infinity in
  capacities.(0) <- spec.server_up_mbps;
  let oversub = Array.of_list spec.oversub in
  let degrees_bottom_up = Array.of_list (List.rev spec.degrees) in
  for l = 1 to depth - 1 do
    capacities.(l) <-
      float_of_int degrees_bottom_up.(l - 1)
      *. capacities.(l - 1) /. oversub.(l - 1)
  done;
  let n_internal =
    let count = ref 1 in
    let per_level = ref 1 in
    List.iter
      (fun d ->
        per_level := !per_level * d;
        count := !count + !per_level)
      spec.degrees;
    !count - n_servers
  in
  let n_nodes = n_servers + n_internal in
  let dummy =
    {
      level = -1;
      parent = -1;
      children = [||];
      up_capacity = 0.;
      reserved_up = 0.;
      reserved_down = 0.;
      free_slots = 0;
      free_subtree = 0;
    }
  in
  let nodes = Array.make n_nodes dummy in
  let ranges = Array.make n_nodes (0, 0) in
  let next_server = ref 0 in
  let next_internal = ref n_servers in
  let degrees_top_down = Array.of_list spec.degrees in
  (* Build recursively; [depth_from_top] 0 = root. *)
  let rec build depth_from_top parent =
    let level = depth - depth_from_top in
    if level = 0 then begin
      let id = !next_server in
      incr next_server;
      nodes.(id) <-
        {
          level = 0;
          parent;
          children = [||];
          up_capacity = capacities.(0);
          reserved_up = 0.;
          reserved_down = 0.;
          free_slots = spec.slots_per_server;
          free_subtree = spec.slots_per_server;
        };
      ranges.(id) <- (id, id);
      id
    end
    else begin
      let id = !next_internal in
      incr next_internal;
      let degree = degrees_top_down.(depth_from_top) in
      let children =
        Array.init degree (fun _ -> build (depth_from_top + 1) id)
      in
      nodes.(id) <-
        {
          level;
          parent;
          children;
          up_capacity = capacities.(level);
          reserved_up = 0.;
          reserved_down = 0.;
          free_slots = 0;
          free_subtree = subtree_sizes_per_level.(level) * spec.slots_per_server;
        };
      ranges.(id) <- (fst ranges.(children.(0)), snd ranges.(children.(degree - 1)));
      id
    end
  in
  let root_id = build 0 (-1) in
  let level_index =
    let counts = Array.make (depth + 1) 0 in
    Array.iter (fun node -> counts.(node.level) <- counts.(node.level) + 1) nodes;
    let index = Array.map (fun n -> Array.make n 0) counts in
    let filled = Array.make (depth + 1) 0 in
    for id = 0 to n_nodes - 1 do
      let l = nodes.(id).level in
      index.(l).(filled.(l)) <- id;
      filled.(l) <- filled.(l) + 1
    done;
    index
  in
  let idx_id_bits =
    let b = ref 1 in
    while 1 lsl !b < n_nodes do
      incr b
    done;
    !b
  in
  let total_slots = n_servers * spec.slots_per_server in
  if total_slots > max_int lsr (idx_id_bits + 1) then
    invalid_arg "Tree.create: topology too large for packed selection keys";
  let t =
    {
      nodes;
      root_id;
      server_ids = Array.init n_servers (fun i -> i);
      slots_per_server = spec.slots_per_server;
      n_levels = depth + 1;
      ranges;
      level_index;
      level_subtree_sizes = subtree_sizes_per_level;
      idx_id_bits;
      idx_mink = Array.init (depth + 1) (fun _ -> Array.make n_nodes max_int);
      idx_maxfree = Array.init (depth + 1) (fun _ -> Array.make n_nodes min_int);
      idx_fmask = Array.init (depth + 1) (fun _ -> Array.make n_nodes 0);
      idx_fq =
        Array.init (depth + 1) (fun l ->
            let max_free = subtree_sizes_per_level.(l) * spec.slots_per_server in
            max 1 ((max_free + 61) / 62));
      idx_gup = Array.init (depth + 1) (fun _ -> Array.make n_nodes neg_infinity);
      idx_gdown =
        Array.init (depth + 1) (fun _ -> Array.make n_nodes neg_infinity);
      idx_dirty = Bytes.make n_nodes '\000';
      idx_barrier = -1;
      idx_marks = 0;
      idx_cleans = 0;
    }
  in
  (* Build the availability index bottom-up: levels ascending, so every
     internal node aggregates already-computed child rows. *)
  for l = 1 to depth do
    Array.iter (fun v -> idx_recompute t v) level_index.(l)
  done;
  t

let create_default () = create default_spec

let n_nodes t = Array.length t.nodes
let n_servers t = Array.length t.server_ids
let n_levels t = t.n_levels
let root t = t.root_id
let level t id = t.nodes.(id).level

let parent t id =
  let p = t.nodes.(id).parent in
  if p < 0 then None else Some p

let parent_id t id = t.nodes.(id).parent

let children t id = t.nodes.(id).children
let is_server t id = t.nodes.(id).level = 0
let servers t = t.server_ids
let nodes_at_level t l = t.level_index.(l)
let server_range t id = t.ranges.(id)

let subtree_servers t id =
  let lo, hi = t.ranges.(id) in
  Array.init (hi - lo + 1) (fun i -> lo + i)

let path_to_root t id =
  let rec go id acc =
    let acc = id :: acc in
    let p = t.nodes.(id).parent in
    if p < 0 then List.rev acc else go p acc
  in
  go id []

let total_slots (t : t) = n_servers t * t.slots_per_server
let slots_per_server (t : t) = t.slots_per_server

let free_slots t id =
  if is_server t id then t.nodes.(id).free_slots else 0

let free_slots_subtree t id = t.nodes.(id).free_subtree
let uplink_capacity t id = t.nodes.(id).up_capacity
let reserved_up t id = t.nodes.(id).reserved_up
let reserved_down t id = t.nodes.(id).reserved_down

let available_up t id =
  t.nodes.(id).up_capacity -. t.nodes.(id).reserved_up

let available_down t id =
  t.nodes.(id).up_capacity -. t.nodes.(id).reserved_down

let available_updown t id =
  let node = t.nodes.(id) in
  Float.min
    (node.up_capacity -. node.reserved_up)
    (node.up_capacity -. node.reserved_down)

let available_to_root t id =
  let rec go id (up, down) =
    if id = t.root_id then (up, down)
    else
      let up = Float.min up (available_up t id) in
      let down = Float.min down (available_down t id) in
      go t.nodes.(id).parent (up, down)
  in
  go id (infinity, infinity)

(* Mark an internal node dirty if it is clean; plain-int counter bump.
   [idx_marks]/[idx_cleans] are diagnostics only: under the sharded batch
   phase several domains may bump them concurrently and lose updates,
   which is benign (no gate or decision ever reads them for exact
   values). *)
let idx_mark t id =
  if Bytes.unsafe_get t.idx_dirty id = '\000' then begin
    Bytes.unsafe_set t.idx_dirty id '\001';
    t.idx_marks <- t.idx_marks + 1
  end

(* Walk ancestors of [id] (inclusive) marking them dirty, stopping at the
   shard barrier and at the first already-dirty node.  The early exit is
   sound because marking always extends the dirty chain up to the
   barrier, and cleaning clears whole subtrees top-down — so a dirty node
   implies dirty ancestors (up to the barrier) by induction. *)
let idx_mark_up t id =
  let barrier = t.idx_barrier in
  let rec go id =
    if id >= 0 then begin
      let nd = t.nodes.(id) in
      if
        nd.level > 0
        && (barrier < 0 || nd.level <= barrier)
        && Bytes.unsafe_get t.idx_dirty id = '\000'
      then begin
        Bytes.unsafe_set t.idx_dirty id '\001';
        t.idx_marks <- t.idx_marks + 1;
        go nd.parent
      end
    end
  in
  go id

let unchecked_take_slots t ~server n =
  let node = t.nodes.(server) in
  assert (node.level = 0);
  node.free_slots <- node.free_slots - n;
  assert (node.free_slots >= 0);
  let barrier = t.idx_barrier in
  let rec bubble id =
    let nd = t.nodes.(id) in
    if barrier < 0 || nd.level <= barrier then begin
      nd.free_subtree <- nd.free_subtree - n;
      assert (nd.free_subtree >= 0);
      if nd.level > 0 then idx_mark t id;
      if nd.parent >= 0 then bubble nd.parent
    end
  in
  bubble server

let unchecked_return_slots t ~server n =
  let node = t.nodes.(server) in
  assert (node.level = 0);
  node.free_slots <- node.free_slots + n;
  assert (node.free_slots <= t.slots_per_server);
  let barrier = t.idx_barrier in
  let rec bubble id =
    let nd = t.nodes.(id) in
    if barrier < 0 || nd.level <= barrier then begin
      nd.free_subtree <- nd.free_subtree + n;
      if nd.level > 0 then idx_mark t id;
      if nd.parent >= 0 then bubble nd.parent
    end
  in
  bubble server

let unchecked_add_bw t ~node ~up ~down =
  let n = t.nodes.(node) in
  n.reserved_up <- Float.max 0. (n.reserved_up +. up);
  n.reserved_down <- Float.max 0. (n.reserved_down +. down);
  (* [node]'s own rows aggregate strict descendants only, so just the
     ancestors go stale. *)
  idx_mark_up t n.parent

let unchecked_set_bw t ~node ~up ~down =
  let n = t.nodes.(node) in
  n.reserved_up <- up;
  n.reserved_down <- down;
  idx_mark_up t n.parent

(* {2 Availability-index queries and maintenance} *)

let rec idx_clean t v =
  if Bytes.get t.idx_dirty v = '\001' then begin
    Array.iter
      (fun c -> if t.nodes.(c).level > 0 then idx_clean t c)
      t.nodes.(v).children;
    idx_recompute t v;
    Bytes.set t.idx_dirty v '\000';
    t.idx_cleans <- t.idx_cleans + 1
  end

let index_flush t =
  let before = t.idx_cleans in
  idx_clean t t.root_id;
  t.idx_cleans - before

let index_key t id = (t.nodes.(id).free_subtree lsl t.idx_id_bits) lor id
let index_key_id t key = key land ((1 lsl t.idx_id_bits) - 1)

(* Lowest set bit index of a non-zero int, branchless-ish binary
   search. *)
let lowest_bit_index x =
  let x = x land -x in
  let n = ref 0 in
  let x = ref x in
  if !x land 0xFFFFFFFF = 0 then begin
    n := !n + 32;
    x := !x lsr 32
  end;
  if !x land 0xFFFF = 0 then begin
    n := !n + 16;
    x := !x lsr 16
  end;
  if !x land 0xFF = 0 then begin
    n := !n + 8;
    x := !x lsr 8
  end;
  if !x land 0xF = 0 then begin
    n := !n + 4;
    x := !x lsr 4
  end;
  if !x land 0x3 = 0 then begin
    n := !n + 2;
    x := !x lsr 2
  end;
  if !x land 0x1 = 0 then n := !n + 1;
  !n

let index_min_feasible_free t ~tlevel v ~vms =
  idx_clean t v;
  let q = t.idx_fq.(tlevel) in
  let mask = t.idx_fmask.(tlevel).(v) in
  (* Buckets strictly below [vms]'s own hold only values < vms; the
     bucket containing [vms] may hold feasible and infeasible values
     alike, so it stays a candidate. *)
  let b_low = min (vms / q) 62 in
  let cands = mask land (-1 lsl b_low) in
  if cands = 0 then max_int
  else
    (* Values in bucket [b] are >= b*q; a feasible one is also >= vms.
       Both are sound, and when q = 1 (level-0 rows in practice) the
       bound is the exact smallest feasible free count. *)
    max vms (lowest_bit_index cands * q)

let index_max_ext_up t ~tlevel v =
  idx_clean t v;
  t.idx_gup.(tlevel).(v)

let index_max_ext_down t ~tlevel v =
  idx_clean t v;
  t.idx_gdown.(tlevel).(v)

let index_verify t =
  ignore (index_flush t);
  let ok = ref true in
  (* Bottom-up: children are re-validated (and left recomputed) before
     their parents, so each recompute is a genuine from-scratch rebuild.
     Comparison is exact — incremental maintenance runs the same
     [idx_recompute] over the same child rows, so any drift is a bug.
     Recomputing in place also makes verification self-healing. *)
  for l = 1 to t.n_levels - 1 do
    Array.iter
      (fun v ->
        let lv = t.nodes.(v).level in
        let saved =
          Array.init lv (fun tl ->
              ( t.idx_mink.(tl).(v),
                t.idx_maxfree.(tl).(v),
                t.idx_fmask.(tl).(v),
                t.idx_gup.(tl).(v),
                t.idx_gdown.(tl).(v) ))
        in
        idx_recompute t v;
        for tl = 0 to lv - 1 do
          if
            saved.(tl)
            <> ( t.idx_mink.(tl).(v),
                 t.idx_maxfree.(tl).(v),
                 t.idx_fmask.(tl).(v),
                 t.idx_gup.(tl).(v),
                 t.idx_gdown.(tl).(v) )
          then ok := false
        done)
      t.level_index.(l)
  done;
  !ok

let index_stats t = (t.idx_marks, t.idx_cleans)

let set_shard_barrier t ~level =
  if level < 1 || level > t.n_levels - 2 then
    invalid_arg "Tree.set_shard_barrier: level out of range";
  t.idx_barrier <- level

let clear_shard_barrier t = t.idx_barrier <- -1

let unchecked_settle_above t ~node ~taken =
  (* After a barrier phase: apply the subtree's net slot delta to the
     strict ancestors that bubbling skipped, and unconditionally re-mark
     them dirty — they may have gone stale while clean during the
     barrier, which would defeat [idx_mark_up]'s early exit.  Call with
     the barrier cleared, once per formerly-barriered subtree root, even
     when [taken] is 0 (internal bandwidth changed regardless). *)
  let rec go id =
    if id >= 0 then begin
      let nd = t.nodes.(id) in
      nd.free_subtree <- nd.free_subtree - taken;
      assert (nd.free_subtree >= 0);
      if Bytes.get t.idx_dirty id = '\000' then begin
        Bytes.set t.idx_dirty id '\001';
        t.idx_marks <- t.idx_marks + 1
      end;
      go nd.parent
    end
  in
  go t.nodes.(node).parent

let level_subtree_size t ~level = t.level_subtree_sizes.(level)

let fits_up t ~node amount =
  t.nodes.(node).reserved_up +. amount
  <= t.nodes.(node).up_capacity +. bw_epsilon

let fits_down t ~node amount =
  t.nodes.(node).reserved_down +. amount
  <= t.nodes.(node).up_capacity +. bw_epsilon

let utilization_summary t ~level =
  let ids = t.level_index.(level) in
  let n = Array.length ids in
  if n = 0 then (0., 0.)
  else
    let up, down =
      Array.fold_left
        (fun (u, d) id ->
          let node = t.nodes.(id) in
          if Float.is_finite node.up_capacity && node.up_capacity > 0. then
            ( u +. (node.reserved_up /. node.up_capacity),
              d +. (node.reserved_down /. node.up_capacity) )
          else (u, d))
        (0., 0.) ids
    in
    (up /. float_of_int n, down /. float_of_int n)

let reserved_at_level t ~level =
  Array.fold_left
    (fun (u, d) id ->
      (u +. t.nodes.(id).reserved_up, d +. t.nodes.(id).reserved_down))
    (0., 0.) t.level_index.(level)
