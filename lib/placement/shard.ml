module Tree = Cm_topology.Tree
module Reservation = Cm_topology.Reservation
module Tag = Cm_tag.Tag
module Bandwidth = Cm_tag.Bandwidth
module Par = Cm_util.Par
module Metrics = Cm_obs.Metrics
module Span = Cm_obs.Span
module Series = Cm_obs.Series

let m_epochs = Metrics.counter "shard.batch.epochs"
let m_requests = Metrics.counter "shard.batch.requests"
let m_pod_placed = Metrics.counter "shard.batch.pod_placed"
let m_serialized = Metrics.counter "shard.batch.serialized"
let m_conflicts = Metrics.counter "shard.batch.conflicts"
let m_flush_cleaned = Metrics.counter "shard.index.flush_cleaned"

(* Per-pod sharded placement: one {!Cm.t} per level-[pod_level] pod root
   plus a coordinator {!Cm.t} for everything the pods cannot decide
   alone.  [place_batch] runs one epoch of arrivals through the pods in
   parallel (see the phase protocol below); [place]/[release] are the
   plain serial path through the coordinator. *)
type t = {
  the_tree : Tree.t;
  pod_level : int;
  pods : int array; (* level-[pod_level] roots, ascending id *)
  pod_scheds : Cm.t array;
  coordinator : Cm.t;
  mutable epochs : int;
}

let create ?policy ?pod_level tree =
  let top = Tree.n_levels tree - 1 in
  let pod_level = Option.value pod_level ~default:(top - 1) in
  if pod_level < 1 || pod_level > top - 1 then
    invalid_arg "Shard.create: pod_level out of range";
  let pods = Array.copy (Tree.nodes_at_level tree pod_level) in
  {
    the_tree = tree;
    pod_level;
    pods;
    pod_scheds = Array.map (fun _ -> Cm.create ?policy tree) pods;
    coordinator = Cm.create ?policy tree;
    epochs = 0;
  }

let tree t = t.the_tree
let pod_level t = t.pod_level
let n_pods t = Array.length t.pods
let coordinator t = t.coordinator
let place t req = Cm.place t.coordinator req
let release t placement = Cm.release t.coordinator placement

(* Which pod holds [node] (node must be at level <= pod_level). *)
let pod_index t node =
  let lo, _ = Tree.server_range t.the_tree node in
  lo / Tree.level_subtree_size t.the_tree ~level:t.pod_level

let external_demand t tag =
  let inside = Array.init (Tag.n_components tag) (Tag.size tag) in
  Bandwidth.required (Cm.policy t.coordinator).Cm.model tag ~inside

(* Route one request: the pod of the lowest globally feasible subtree
   strictly below the pod level, or [-1] when no such subtree exists
   (the tenant needs a whole pod or more, or cannot be placed at all) —
   those go through the serial coordinator.  Routing is a heuristic:
   pods re-verify everything locally and phase 4 re-serializes whatever
   they cannot finish, so a stale or imperfect probe only costs a retry,
   never correctness.  Must run on a flushed index (pure reads).  [ext]
   is the request's [external_demand]. *)
let route t ~ext req =
  let slot_demand = Tag.total_slot_demand req.Types.tag in
  let rec probe level =
    if level >= t.pod_level then -1
    else
      match
        Subtree.find_lowest t.the_tree ~total_vms:slot_demand ~ext ~level
      with
      | Some st -> pod_index t st
      | None -> probe (level + 1)
  in
  probe 0

(* Reserve a fully-pod-internal tenant's external demand on the strict
   ancestors of its pod root (excluding the tree root, which has no
   uplink).  For such a tenant the Eq. 1 requirement above the pod is
   exactly the external (out, in) pair — every inside-count on those
   links is the full tier size — so this reproduces what the serial
   [sync_path_above] would have reserved there. *)
let reserve_above t ~pod ~ext:(eo, ei) =
  let tree = t.the_tree in
  let txn = Reservation.start tree in
  let root = Tree.root tree in
  let rec up id =
    if id = root || id < 0 then true
    else Reservation.reserve_bw txn ~node:id ~up:eo ~down:ei && up (Tree.parent_id tree id)
  in
  if up (Tree.parent_id tree t.pods.(pod)) then Some (Reservation.commit txn)
  else begin
    Reservation.rollback txn;
    None
  end

(* One epoch of arrivals, in four phases:

   1. flush the availability index, then probe every request's routing
      pod in parallel (pure index reads);
   2. group requests per pod, preserving arrival order;
   3. set the shard barrier at [pod_level] and run the per-pod queues in
      parallel — each domain mutates only its own pod's subtree (slot
      bubbles, dirty marks and bandwidth syncs all stop at the pod
      root), while everything above the barrier stays frozen; then
      clear the barrier and settle each active pod's net slot delta
      onto its ancestors;
   4. serially, in arrival order: commit each pod placement by
      reserving its external demand on the links above its pod —
      failure there is a cross-pod conflict, resolved deterministically
      by releasing the pod placement and retrying through the
      coordinator — and run every unrouted request through the
      coordinator.

   The result list is in arrival order.  Deterministic and
   jobs-invariant: phase 1 and 3 are [Par.map]s with deterministic
   result order over disjoint state, phases 2 and 4 are serial.  Note
   the outcome is NOT required to match one-at-a-time serial placement
   (pods decide concurrently on epoch-start state); it is required to
   be identical for any [?domains]. *)
let place_batch ?domains t reqs =
  Span.with_ "shard.place_batch" @@ fun () ->
  let tree = t.the_tree in
  let reqs_arr = Array.of_list reqs in
  let n = Array.length reqs_arr in
  Metrics.incr m_epochs;
  Metrics.incr ~by:n m_requests;
  (* Phase 1: routing probes on a flushed (read-only) index. *)
  let cleaned = Tree.index_flush tree in
  Metrics.incr ~by:cleaned m_flush_cleaned;
  (* One Eq. 1 pricing per request, shared by routing and phase 4. *)
  let exts = Array.map (fun req -> external_demand t req.Types.tag) reqs_arr in
  let routes =
    Array.of_list (Par.mapi ?domains (fun i req -> route t ~ext:exts.(i) req) reqs)
  in
  (* Phase 2: per-pod queues in arrival order. *)
  let queues = Array.make (Array.length t.pods) [] in
  for i = n - 1 downto 0 do
    let p = routes.(i) in
    if p >= 0 then queues.(p) <- (i, reqs_arr.(i)) :: queues.(p)
  done;
  let active =
    let acc = ref [] in
    for p = Array.length t.pods - 1 downto 0 do
      if queues.(p) <> [] then acc := p :: !acc
    done;
    !acc
  in
  (* Phase 3: parallel pod placement under the barrier. *)
  let free_before =
    List.map (fun p -> Tree.free_slots_subtree tree t.pods.(p)) active
  in
  let pod_results =
    Tree.set_shard_barrier tree ~level:t.pod_level;
    Fun.protect
      ~finally:(fun () -> Tree.clear_shard_barrier tree)
      (fun () ->
        Par.map ?domains
          (fun p ->
            List.map
              (fun (i, req) ->
                (i, Cm.place_under t.pod_scheds.(p) ~root:t.pods.(p) req))
              queues.(p))
          active)
  in
  List.iter2
    (fun p before ->
      let taken = before - Tree.free_slots_subtree tree t.pods.(p) in
      Tree.unchecked_settle_above tree ~node:t.pods.(p) ~taken)
    active free_before;
  (* Phase 4: serial commit / conflict resolution, arrival order. *)
  let pod_result = Array.make n None in
  List.iter
    (List.iter (fun (i, r) -> pod_result.(i) <- Some r))
    pod_results;
  let results =
    Array.mapi
      (fun i req ->
        match pod_result.(i) with
        | Some (Ok placement) -> (
            let pod = routes.(i) in
            match reserve_above t ~pod ~ext:exts.(i) with
            | Some above ->
                Metrics.incr m_pod_placed;
                Ok
                  {
                    placement with
                    Types.committed =
                      Reservation.merge placement.Types.committed above;
                  }
            | None ->
                (* Cross-pod conflict: the pod fit the tenant but the
                   shared links above cannot carry its external demand
                   alongside this epoch's other winners.  Undo and
                   retry through the coordinator. *)
                Metrics.incr m_conflicts;
                Reservation.release tree placement.Types.committed;
                Cm.place t.coordinator req)
        | Some (Error _) | None ->
            (* Pod-rejected or never routed: the serial coordinator has
               the whole tree (other pods included) to try. *)
            Metrics.incr m_serialized;
            Cm.place t.coordinator req)
      reqs_arr
  in
  if Series.enabled () then begin
    let cap =
      float_of_int
        (Tree.level_subtree_size tree ~level:t.pod_level
        * Tree.slots_per_server tree)
    in
    let occ_min = ref infinity and occ_max = ref neg_infinity in
    let occ_sum = ref 0. in
    Array.iter
      (fun pod ->
        let occ =
          1. -. (float_of_int (Tree.free_slots_subtree tree pod) /. cap)
        in
        if occ < !occ_min then occ_min := occ;
        if occ > !occ_max then occ_max := occ;
        occ_sum := !occ_sum +. occ)
      t.pods;
    (* x is the process-global epoch count, not this shard's: several
       shard instances (e.g. a bench sweep) share the named rings, and
       the series contract requires a monotone x axis. *)
    let x = float_of_int (Metrics.counter_value m_epochs) in
    Series.sample_named "shard.occupancy.min" ~x !occ_min;
    Series.sample_named "shard.occupancy.mean" ~x
      (!occ_sum /. float_of_int (Array.length t.pods));
    Series.sample_named "shard.occupancy.max" ~x !occ_max
  end;
  t.epochs <- t.epochs + 1;
  Array.to_list results
