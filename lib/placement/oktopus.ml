module Tree = Cm_topology.Tree
module Tag = Cm_tag.Tag
module Bandwidth = Cm_tag.Bandwidth
module State = Alloc_state

type t = { the_tree : Tree.t }

let create the_tree = { the_tree }
let tree t = t.the_tree

(* Pack as many of [want] VMs of [comp] as possible onto one server,
   preferring maximal colocation: try the largest count first and back off
   until the server's uplink fits the VOC requirement. *)
let place_max_on_server state ~server ~comp ~want =
  let the_tree = State.tree state in
  let cost = Tag.vm_slots (State.tag state) comp in
  let cap =
    min
      (min want (Tree.free_slots the_tree server / cost))
      (State.ha_cap state ~node:server ~comp)
  in
  let rec try_k k =
    if k <= 0 then 0
    else begin
      let cp = State.checkpoint state in
      if
        State.place state ~server ~comp ~n:k
        && State.sync_bw state ~node:server
      then k
      else begin
        State.rollback_to state cp;
        try_k (k - 1)
      end
    end
  in
  try_k cap

(* Place one whole cluster under [sub] by packing servers greedily in
   id order (contiguous ids keep the cluster within as few racks as
   possible).  All-or-nothing: rolls back on failure. *)
let place_cluster_under state ~comp ~n sub =
  let the_tree = State.tree state in
  let cp = State.checkpoint state in
  let remaining = ref n in
  Array.iter
    (fun server ->
      if !remaining > 0 then
        remaining :=
          !remaining
          - place_max_on_server state ~server ~comp ~want:!remaining)
    (Tree.subtree_servers the_tree sub);
  if !remaining = 0 then true
  else begin
    State.rollback_to state cp;
    false
  end

(* VC-style cluster placement: lowest subtree within [st] that can host
   the whole cluster, retrying higher candidates when one fails (the
   "handle Alloc failure" improvement). *)
let place_cluster state ~comp st =
  let the_tree = State.tree state in
  let n = Tag.size (State.tag state) comp in
  let slot_demand = n * Tag.vm_slots (State.tag state) comp in
  (* Lazy walk over the subtree's nodes in the same (level, id) order the
     eager filter + List.exists used; equivalent because a failed
     [place_cluster_under] rolls back exactly, so later candidates see
     the same free counts either way — and stopping at the first success
     skips the rest of the filter's allocation entirely. *)
  let candidates = Subtree.all_under_array the_tree st in
  let n_cand = Array.length candidates in
  let placed = ref false in
  let i = ref 0 in
  while (not !placed) && !i < n_cand do
    let sub = candidates.(!i) in
    if Tree.free_slots_subtree the_tree sub >= slot_demand then
      placed := place_cluster_under state ~comp ~n sub;
    incr i
  done;
  !placed

(* After all clusters landed, bring every switch uplink inside [st] in
   line with the VOC requirement (server uplinks were synced during
   packing but cluster interleaving may have changed them too). *)
let sync_inside state st =
  List.for_all
    (fun node -> State.sync_bw state ~node)
    (List.filter
       (Subtree.contains (State.tree state) ~root:st)
       (State.touched_nodes state))

let place t (req : Types.request) =
  let tag = req.tag in
  let the_tree = t.the_tree in
  let total_vms = Tag.total_slot_demand tag in
  let state =
    State.create ~model:Bandwidth.Voc_model ?ha:req.ha the_tree tag
  in
  let ext = State.external_demand state in
  let clusters =
    List.init (Tag.n_components tag) Fun.id
    |> List.sort (fun a b -> compare (Tag.size tag b) (Tag.size tag a))
  in
  let top = Tree.n_levels the_tree - 1 in
  let reject () =
    if Tree.free_slots_subtree the_tree (Tree.root the_tree) < total_vms then
      Types.No_slots
    else Types.No_bandwidth
  in
  let rec attempt level =
    if level > top then Error (reject ())
    else
      match
        Subtree.find_lowest the_tree ~total_vms ~ext ~level
      with
      | None -> attempt (level + 1)
      | Some st ->
          let cp = State.checkpoint state in
          let ok =
            List.for_all (fun comp -> place_cluster state ~comp st) clusters
            && sync_inside state st
            && State.sync_path_above state ~node:st
          in
          if ok then begin
            let locations = State.server_locations state in
            let committed = State.commit state in
            Ok { Types.req; locations; committed }
          end
          else begin
            State.rollback_to state cp;
            attempt (Tree.level the_tree st + 1)
          end
  in
  attempt 0

let release t (placement : Types.placement) =
  Cm_topology.Reservation.release t.the_tree placement.committed
