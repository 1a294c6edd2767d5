module Tree = Cm_topology.Tree
module Metrics = Cm_obs.Metrics

let m_index_queries = Metrics.counter "cm.index.queries"

(* FindLowestSubtree by descent of the tree's incremental availability
   index.  The answer is the per-candidate argmin over the level's nodes
   (fewest free slots, then lowest id) among those with room for the
   tenant and enough clamped path-to-root bandwidth for [ext]; the
   descent finds it without visiting every candidate because every prune
   is admissible and the selection key is unique:

   - [index_min_feasible_free c >= total_vms] is required for any
     level-[level] descendant of [c] to fit the tenant, and it subsumes
     a per-edge [free c >= total_vms] check (free counts are subtree
     sums, so it passes whenever a candidate exists below); [max_int]
     means no descendant fits at all;
   - [min clamp index_max_ext + eps < ext] implies every candidate's
     clamped path availability fails the comparison (the index stores
     the max over candidates of the path minimum), and it subsumes a
     per-edge clamp check;
   - children are explored in ascending id order, and sibling subtrees
     hold disjoint, ordered id ranges at every level, so once a best key
     with free value [f*] is held, a later sibling whose cheapest
     feasible free value is >= [f*] cannot improve it: a strictly
     larger free value loses outright, and an equal one loses the id
     tie-break to the earlier subtree.  That bound — unlike the plain
     minimum key, which full (0-free) subtrees pin below any feasible
     key at steady state — prunes exactly the regions a best-fit search
     must not waste time in. *)
let find_lowest_under tree ~root ~clamps:(u0, d0) ~total_vms
    ~ext:(ext_out, ext_in) ~level =
  Metrics.incr m_index_queries;
  let eps = Tree.bw_epsilon in
  let best = ref max_int in
  let best_free = ref max_int in
  let rec go id up down =
    let children = Tree.children tree id in
    if Tree.level tree id - 1 = level then
      Array.iter
        (fun c ->
          let free = Tree.free_slots_subtree tree c in
          if free >= total_vms then begin
            let cu = Float.min up (Tree.available_up tree c) in
            let cd = Float.min down (Tree.available_down tree c) in
            if cu +. eps >= ext_out && cd +. eps >= ext_in then begin
              let k = Tree.index_key tree c in
              if k < !best then begin
                best := k;
                best_free := free
              end
            end
          end)
        children
    else
      Array.iter
        (fun c ->
          let lb =
            Tree.index_min_feasible_free tree ~tlevel:level c ~vms:total_vms
          in
          if lb < !best_free then begin
            let cu = Float.min up (Tree.available_up tree c) in
            let cd = Float.min down (Tree.available_down tree c) in
            if
              Float.min cu (Tree.index_max_ext_up tree ~tlevel:level c) +. eps
              >= ext_out
              && Float.min cd (Tree.index_max_ext_down tree ~tlevel:level c)
                 +. eps
                 >= ext_in
            then go c cu cd
          end)
        children
  in
  if
    Tree.free_slots_subtree tree root >= total_vms
    && u0 +. eps >= ext_out
    && d0 +. eps >= ext_in
  then
    if Tree.level tree root = level then best := Tree.index_key tree root
    else go root u0 d0;
  if !best = max_int then None else Some (Tree.index_key_id tree !best)

let find_lowest tree ~total_vms ~ext ~level =
  find_lowest_under tree ~root:(Tree.root tree) ~clamps:(infinity, infinity)
    ~total_vms ~ext ~level

(* Nodes of a subtree in (level, id) ascending order, computed
   arithmetically: server ids are contiguous left-to-right, so the
   level-[l] nodes under a root with server range [(lo, hi)] sit at
   positions [lo / size_l .. (hi + 1) / size_l - 1] of
   [nodes_at_level l] — no recursive collection, no sort, no per-call
   list cells. *)
let all_under_array tree root =
  let lo, hi = Tree.server_range tree root in
  let rlevel = Tree.level tree root in
  let span = hi - lo + 1 in
  let n = ref 0 in
  for l = 0 to rlevel do
    n := !n + (span / Tree.level_subtree_size tree ~level:l)
  done;
  let out = Array.make !n 0 in
  let pos = ref 0 in
  for l = 0 to rlevel do
    let size = Tree.level_subtree_size tree ~level:l in
    let ids = Tree.nodes_at_level tree l in
    for i = lo / size to ((hi + 1) / size) - 1 do
      out.(!pos) <- ids.(i);
      incr pos
    done
  done;
  out

let all_under tree root = Array.to_list (all_under_array tree root)

let contains tree ~root id =
  let rlo, rhi = Tree.server_range tree root in
  let lo, hi = Tree.server_range tree id in
  rlo <= lo && hi <= rhi && Tree.level tree id <= Tree.level tree root
