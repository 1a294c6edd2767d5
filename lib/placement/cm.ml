module Tree = Cm_topology.Tree
module Tag = Cm_tag.Tag
module Bandwidth = Cm_tag.Bandwidth
module State = Alloc_state

module Log = Cm_obs.Log.Make (struct
  let name = "placement"
end)

module Metrics = Cm_obs.Metrics

(* Telemetry of §5.1's "Algorithm runtime" quantities: how often the
   subset-sum greedy runs, how often it exhausts a child, how often a
   whole subtree attempt is rolled back, and why tenants are rejected.
   Counters only observe — placement decisions never read them. *)
let m_subset_sum_calls = Metrics.counter "cm.subset_sum.calls"
let m_subset_sum_child_exhausted = Metrics.counter "cm.subset_sum.child_exhausted"
let m_place_backtracks = Metrics.counter "cm.place.backtracks"
let m_place_accepted = Metrics.counter "cm.place.accepted"
let m_reject_no_slots = Metrics.counter "cm.place.reject.no_slots"
let m_reject_no_bandwidth = Metrics.counter "cm.place.reject.no_bandwidth"

(* Colocate candidates whose switch child was skipped because its uplink
   refuses every sub-group of the candidate ([State.uplink_refuses]). *)
let m_alloc_pruned = Metrics.counter "cm.alloc.pruned"

(* Rejection attribution (ISSUE 7): which constraint actually ended the
   search.  [No_slots] is unambiguous; a [No_bandwidth] verdict is
   classified by the evidence the attempt left in its [ctx] — uplink
   reservations refused by [State.sync_bw] mean real bandwidth
   exhaustion, while a search that never hit a bandwidth wall but had
   Eq. 7 anti-affinity caps bind somewhere was ended by the HA spread
   requirement.  The evidence writes are plain field updates on the
   per-placement scratch context — no branch on any telemetry flag —
   so decisions are untouched. *)
let m_reject_c_slots = Metrics.counter "cm.place.reject.constraint.slots"
let m_reject_c_bandwidth = Metrics.counter "cm.place.reject.constraint.bandwidth"

let m_reject_c_anti_affinity =
  Metrics.counter "cm.place.reject.constraint.anti_affinity"

(* Tree level of the last subtree a rejected search attempted (one
   observation per rejection that got past FindLowestSubtree). *)
let m_reject_level =
  Metrics.histogram ~buckets:[| 0.; 1.; 2.; 3.; 4.; 5.; 6.; 7. |]
    "cm.place.reject.level"

type policy = {
  colocate : bool;
  balance : bool;
  verify_trunk_savings : bool;
  opportunistic_ha : bool;
  model : Bandwidth.model;
}

let default_policy =
  {
    colocate = true;
    balance = true;
    verify_trunk_savings = true;
    opportunistic_ha = false;
    model = Bandwidth.Tag_model;
  }

type t = {
  the_tree : Tree.t;
  the_policy : policy;
  (* Moving average of arriving tenants' mean per-VM demand (Mbps); the
     "expected contribution of future tenant VMs" of §4.5. *)
  mutable demand_ewma : float;
  mutable n_seen : int;
}

let create ?(policy = default_policy) the_tree =
  { the_tree; the_policy = policy; demand_ewma = 0.; n_seen = 0 }

let tree t = t.the_tree
let policy t = t.the_policy

let total = Array.fold_left ( + ) 0

let vm_demand tag c =
  Float.max (Tag.per_vm_send tag c) (Tag.per_vm_recv tag c)

let demand_estimate sched tag =
  let current = Tag.mean_vm_demand tag in
  if sched.n_seen = 0 then current else Float.max current sched.demand_ewma

(* Lowest tree level at which containing a tenant saves scarce bandwidth;
   opportunistic HA starts FindLowestSubtree there.  [root] restricts the
   scarcity sample to the nodes under it (used by pod-scoped placement);
   the default — the whole tree — iterates every level in the same
   ascending-id order as before, so global decisions are unchanged. *)
let opp_start_level ?root sched tag =
  let tree = sched.the_tree in
  let estimate = demand_estimate sched tag in
  let root = Option.value root ~default:(Tree.root tree) in
  let top = Tree.level tree root in
  let lo, hi = Tree.server_range tree root in
  let level_scarce l =
    let size = Tree.level_subtree_size tree ~level:l in
    let ids = Tree.nodes_at_level tree l in
    let bw = ref 0. and free = ref 0 in
    for i = lo / size to ((hi + 1) / size) - 1 do
      let id = ids.(i) in
      let f = Tree.free_slots_subtree tree id in
      if f > 0 then begin
        free := !free + f;
        bw := !bw +. Tree.available_updown tree id
      end
    done;
    !free > 0 && !bw /. float_of_int !free < estimate
  in
  let rec search l = if l >= top then top else if level_scarce l then l else search (l + 1) in
  search 0

(* {1 Per-placement allocation context}

   One [Alloc] of a tenant walks the subtree recursively, and every switch
   visit used to rebuild child lists, re-sort them, recompute the
   bandwidth-per-slot yardstick and allocate fresh scratch arrays inside
   each Colocate/Balance iteration.  A [ctx] hoists everything that is
   constant per placement (per-component demands, the server fill order),
   and one [frame] per tree level owns the mutable per-switch working set.
   Frames can be statically per-level because [alloc] only ever recurses
   strictly downward, so a level is never re-entered while in use, and all
   nodes of a level share one degree. *)

type frame = {
  mutable st : int; (* switch this frame currently serves *)
  (* Alive-children cache: child ids with free slots, not marked dead,
     ordered by (free slots desc, id asc) — rebuilt lazily on [fresh]
     = false.  [keys.(k)]'s low bits hold the child's index within
     [Tree.children], used for [dead] marking. *)
  keys : int array;
  order : int array;
  mutable n_alive : int;
  dead : bool array;
  mutable fresh : bool;
  (* Available bandwidth per free slot across all children (free > 0,
     dead or not) — the yardstick for both "low-bandwidth tier"
     exclusion and §4.5 saving desirability; [nan] when no child has
     free slots.  Cached together with the ordering. *)
  mutable bw_per_slot : float;
  (* Per-component scratch rows: the group a Colocate/Balance step hands
     to a child, per-call caps, and (Colocate only) the child's inside
     counts and low-bandwidth flags. *)
  gsub : int array;
  caps : int array;
  inside : int array;
  low : bool array;
  remaining : int array;
  placed : int array;
}

type ctx = {
  sched : t;
  state : State.t;
  ctree : Tree.t;
  ctag : Tag.t;
  n_comp : int;
  demand : float array; (* vm_demand per component *)
  slots : int array; (* Tag.vm_slots per component *)
  comp_order : int array; (* component indices, demand desc then index asc *)
  (* Colocation candidates, precomputed once per placement: hose tiers
     with a sending self-loop, and internal trunk edges between distinct
     components with any guarantee.  Both keep the underlying iteration
     order (component index / edge index ascending), so scanning them is
     decision-identical to scanning everything and skipping. *)
  hose_comps : int array;
  hose_bw : float array; (* self-loop snd_bw, parallel to [hose_comps] *)
  trunk_edges : Cm_tag.Tag.edge array;
  frames : frame array; (* index = tree level *)
  (* Rejection-attribution evidence, accumulated over the whole search
     and read only if the tenant is rejected. *)
  mutable att_bw_failures : int; (* State.sync_bw refusals *)
  mutable att_ha_capped : bool; (* an Eq. 7 cap bound below the ask *)
  mutable att_last_level : int; (* level of the last attempted subtree *)
}

let idx_bits = 20
let idx_mask = (1 lsl idx_bits) - 1

let make_frame tree n_comp level =
  let rep = (Tree.nodes_at_level tree level).(0) in
  let degree = Array.length (Tree.children tree rep) in
  {
    st = -1;
    keys = Array.make degree 0;
    order = Array.make degree 0;
    n_alive = 0;
    dead = Array.make degree false;
    fresh = false;
    bw_per_slot = Float.nan;
    gsub = Array.make n_comp 0;
    caps = Array.make n_comp 0;
    inside = Array.make n_comp 0;
    low = Array.make n_comp false;
    remaining = Array.make n_comp 0;
    placed = Array.make n_comp 0;
  }

let make_ctx sched state tag =
  let tree = sched.the_tree in
  let n_comp = Tag.n_components tag in
  let demand = Array.init n_comp (vm_demand tag) in
  let comp_order = Array.init n_comp Fun.id in
  (* Demand-descending with an explicit ascending-index tiebreak — the
     order the old stable sort produced. *)
  Array.sort
    (fun a b ->
      let c = compare demand.(b) demand.(a) in
      if c <> 0 then c else compare a b)
    comp_order;
  let hose = ref [] in
  for c = n_comp - 1 downto 0 do
    match Tag.self_loop tag c with
    | Some (e : Tag.edge) when e.snd_bw > 0. -> hose := (c, e.snd_bw) :: !hose
    | Some _ | None -> ()
  done;
  let hose_comps = Array.of_list (List.map fst !hose) in
  let hose_bw = Array.of_list (List.map snd !hose) in
  let trunk_edges =
    Array.of_seq
      (Seq.filter
         (fun (e : Tag.edge) ->
           (not (Tag.is_external tag e.src))
           && (not (Tag.is_external tag e.dst))
           && e.src <> e.dst
           && (e.snd_bw > 0. || e.rcv_bw > 0.))
         (Array.to_seq (Tag.edges tag)))
  in
  {
    sched;
    state;
    ctree = tree;
    ctag = tag;
    n_comp;
    demand;
    slots = Array.init n_comp (Tag.vm_slots tag);
    comp_order;
    hose_comps;
    hose_bw;
    trunk_edges;
    frames = Array.init (Tree.n_levels tree) (make_frame tree n_comp);
    att_bw_failures = 0;
    att_ha_capped = false;
    att_last_level = -1;
  }

(* Rebuild the alive-children ordering and the bandwidth-per-slot cache.
   Invalidated ([fresh] <- false) whenever a child placement changes free
   slots/bandwidth or a child is marked dead; between invalidations every
   consumer reads the same snapshot, which is what keeps decisions
   bit-identical to the rebuild-per-call original. *)
let refresh ctx frame =
  if not frame.fresh then begin
    let tree = ctx.ctree in
    let children = Tree.children tree frame.st in
    let bw = ref 0. and free_total = ref 0 and n = ref 0 in
    for i = 0 to Array.length children - 1 do
      let f = Tree.free_slots_subtree tree children.(i) in
      if f > 0 then begin
        free_total := !free_total + f;
        bw := !bw +. Tree.available_updown tree children.(i);
        if not frame.dead.(i) then begin
          (* Key sorts ascending as (free desc, index asc); index order
             is id order, children ids being assigned left-to-right. *)
          frame.keys.(!n) <- (((1 lsl 42) - f) lsl idx_bits) lor i;
          incr n
        end
      end
    done;
    (* Insertion sort: child counts are small and the array is scratch. *)
    for k = 1 to !n - 1 do
      let key = frame.keys.(k) in
      let j = ref (k - 1) in
      while !j >= 0 && frame.keys.(!j) > key do
        frame.keys.(!j + 1) <- frame.keys.(!j);
        decr j
      done;
      frame.keys.(!j + 1) <- key
    done;
    for k = 0 to !n - 1 do
      frame.order.(k) <- children.(frame.keys.(k) land idx_mask)
    done;
    frame.n_alive <- !n;
    frame.bw_per_slot <-
      (if !free_total = 0 then Float.nan
       else !bw /. float_of_int !free_total);
    frame.fresh <- true
  end

let mark_dead frame idx =
  frame.dead.(idx) <- true;
  frame.fresh <- false

(* Bandwidth saving below the frame's switch is desirable when the
   bandwidth available per free slot is scarcer than the expected per-VM
   demand (§4.5). *)
let saving_desirable ctx frame =
  refresh ctx frame;
  (not (Float.is_nan frame.bw_per_slot))
  && frame.bw_per_slot < demand_estimate ctx.sched ctx.ctag

(* Saving of Eq. 4 applied to the reverse (incoming) direction of a trunk
   edge: worst case is all of [src] outside the subtree. *)
let trunk_saving_in tag (e : Tag.edge) ~src_inside ~dst_inside =
  let n_src = Tag.size tag e.src in
  Float.max
    ((float_of_int dst_inside *. e.rcv_bw)
    -. (float_of_int (n_src - src_inside) *. e.snd_bw))
    0.

(* FindTiersToColoc (§4.4): pick the child with the most room and the
   tier group whose colocation into it saves the most uplink bandwidth,
   filtering with the size conditions (Eqs. 2/6) and verifying actual
   savings (Eq. 4).  Low-bandwidth tiers are left for Balance.

   Every per-component quantity a candidate reads — its cap in the
   child, its inside count there, its low-bandwidth flag — is fixed for
   the whole call, so it is computed once per component up front rather
   than once per edge endpoint.  A candidate is a group of at most two
   tiers; the scan keeps the best one as (tiers, counts) and writes
   [frame.gsub] once, for the winner. *)
let find_tiers_to_coloc ~verify ctx frame remaining =
  refresh ctx frame;
  if frame.n_alive = 0 then None
  else begin
    let tree = ctx.ctree and tag = ctx.ctag and state = ctx.state in
    let n_comp = ctx.n_comp and slots = ctx.slots in
    let child = frame.order.(0) in
    let child_idx = frame.keys.(0) land idx_mask in
    let free = Tree.free_slots_subtree tree child in
    let threshold =
      if Float.is_nan frame.bw_per_slot then 0. else frame.bw_per_slot
    in
    let caps = frame.caps and inside = frame.inside and low = frame.low in
    (match State.counts_view state ~node:child with
    | None -> Array.fill inside 0 n_comp 0
    | Some row -> Array.blit row 0 inside 0 n_comp);
    for c = 0 to n_comp - 1 do
      low.(c) <- ctx.demand.(c) <= threshold;
      caps.(c) <-
        min
          (min remaining.(c) (free / slots.(c)))
          (State.ha_cap state ~node:child ~comp:c)
    done;
    (* Best candidate so far: [best_a] gets [best_ka] VMs and, for a
       trunk pair, [best_b] gets [best_kb].  Only a strictly better,
       non-empty candidate replaces it, so ties keep the earlier one. *)
    let best_score = ref 0. in
    let best_a = ref (-1) and best_ka = ref 0 in
    let best_b = ref (-1) and best_kb = ref 0 in
    (* Hose (self-loop) tiers: Eq. 2.  [hose_comps] preserves component
       order, so candidates are considered exactly as the full scan
       did. *)
    for h = 0 to Array.length ctx.hose_comps - 1 do
      let c = ctx.hose_comps.(h) in
      if not low.(c) then begin
        let k = caps.(c) in
        if k > 0 then begin
          let after = inside.(c) + k in
          let n_total = Tag.size tag c in
          if Bandwidth.hose_saving_possible ~n_total ~n_inside:after then begin
            let score = float_of_int ((2 * after) - n_total) *. ctx.hose_bw.(h) in
            if score > 0. && score > !best_score then begin
              best_score := score;
              best_a := c;
              best_ka := k;
              best_b := -1
            end
          end
        end
      end
    done;
    (* Trunk pairs: Eq. 6 filter, Eq. 4 verification, both directions.
       Edges to external components never benefit from colocation;
       [trunk_edges] pre-filters them in edge order. *)
    let edges = ctx.trunk_edges in
    for ei = 0 to Array.length edges - 1 do
      let e = edges.(ei) in
      if not (low.(e.src) && low.(e.dst)) then begin
        let cap_src = caps.(e.src) and cap_dst = caps.(e.dst) in
        let cost_src = slots.(e.src) and cost_dst = slots.(e.dst) in
        let k_src, k_dst =
          if (cap_src * cost_src) + (cap_dst * cost_dst) <= free then
            (cap_src, cap_dst)
          else
            let slots_src =
              if cap_src + cap_dst = 0 then 0
              else
                free * (cap_src * cost_src)
                / ((cap_src * cost_src) + (cap_dst * cost_dst))
            in
            let k_src = min (slots_src / cost_src) cap_src in
            (k_src, min ((free - (k_src * cost_src)) / cost_dst) cap_dst)
        in
        let in_src = inside.(e.src) + k_src
        and in_dst = inside.(e.dst) + k_dst in
        if
          Bandwidth.trunk_size_condition tag e ~src_inside:in_src
            ~dst_inside:in_dst
        then begin
          (* Eq. 6 is only necessary; verify real savings (Eq. 4)
             unless the ablation disables it. *)
          let score =
            if verify then
              Bandwidth.trunk_saving_amount tag e ~src_inside:in_src
                ~dst_inside:in_dst
              +. trunk_saving_in tag e ~src_inside:in_src ~dst_inside:in_dst
            else Tag.b_total tag e
          in
          if score > 0. && score > !best_score && k_src + k_dst > 0 then begin
            best_score := score;
            best_a := e.src;
            best_ka := k_src;
            best_b := e.dst;
            best_kb := k_dst
          end
        end
      end
    done;
    if !best_score > 0. then begin
      let gsub = frame.gsub in
      Array.fill gsub 0 n_comp 0;
      gsub.(!best_a) <- !best_ka;
      if !best_b >= 0 then gsub.(!best_b) <- !best_kb;
      Some (child_idx, child, gsub)
    end
    else None
  end

(* MdSubsetSum (§4.4): fill the roomiest child so that slots and both
   bandwidth directions approach full utilization together.  The greedy
   repeatedly adds the VM whose tier keeps the running mean per-VM demand
   closest to the child's available bandwidth-per-slot target.  In
   [single] mode (§4.5 opportunistic HA) only one VM is returned. *)
let md_subset_sum ctx frame remaining ~single =
  Metrics.incr m_subset_sum_calls;
  refresh ctx frame;
  let tree = ctx.ctree and state = ctx.state in
  let n_comp = ctx.n_comp and demand = ctx.demand and cost = ctx.slots in
  (* Walk the alive snapshot taken above; children exhausted mid-call are
     marked dead for later calls but the snapshot itself is not refreshed
     (matching the original, which listed children once per call). *)
  let rec try_children k =
    if k >= frame.n_alive then None
    else begin
      let child = frame.order.(k) in
      let free = Tree.free_slots_subtree tree child in
      let avail = Tree.available_updown tree child in
      let target = avail /. float_of_int free in
      let caps = frame.caps in
      for c = 0 to n_comp - 1 do
        let cap_ha = State.ha_cap state ~node:child ~comp:c in
        if cap_ha < remaining.(c) then ctx.att_ha_capped <- true;
        caps.(c) <- min remaining.(c) cap_ha
      done;
      let gsub = frame.gsub in
      Array.fill gsub 0 n_comp 0;
      let placed_n = ref 0 and placed_demand = ref 0. in
      let slots = ref free in
      let continue = ref true in
      while !continue && !slots > 0 do
        (* Pick the component whose next VM lands the mean closest to
           the target; first index wins ties. *)
        let best_c = ref (-1) and best_gap = ref infinity in
        for c = 0 to n_comp - 1 do
          if gsub.(c) < caps.(c) && cost.(c) <= !slots then begin
            let mean_after =
              (!placed_demand +. demand.(c)) /. float_of_int (!placed_n + 1)
            in
            let fits =
              !placed_demand +. demand.(c) <= avail +. Tree.bw_epsilon
            in
            if fits then begin
              let gap = Float.abs (mean_after -. target) in
              if gap < !best_gap then begin
                best_gap := gap;
                best_c := c
              end
            end
          end
        done;
        if !best_c < 0 then continue := false
        else begin
          let c = !best_c in
          gsub.(c) <- gsub.(c) + 1;
          placed_n := !placed_n + 1;
          placed_demand := !placed_demand +. demand.(c);
          slots := !slots - cost.(c);
          if single then continue := false
        end
      done;
      if !placed_n > 0 then Some (frame.keys.(k) land idx_mask, child, gsub)
      else begin
        Metrics.incr m_subset_sum_child_exhausted;
        mark_dead frame (frame.keys.(k) land idx_mask);
        try_children (k + 1)
      end
    end
  in
  try_children 0

(* Fallback when Balance is disabled (Fig. 10 "Coloc"-only ablation):
   first-fit packing into the roomiest child, no resource balancing. *)
let rec naive_fill ctx frame remaining =
  refresh ctx frame;
  if frame.n_alive = 0 then None
  else begin
    let tree = ctx.ctree and state = ctx.state in
    let n_comp = ctx.n_comp in
    let child = frame.order.(0) in
    let child_idx = frame.keys.(0) land idx_mask in
    let free = ref (Tree.free_slots_subtree tree child) in
    let gsub = frame.gsub in
    Array.fill gsub 0 n_comp 0;
    for c = 0 to n_comp - 1 do
      let cost = ctx.slots.(c) in
      let want = min remaining.(c) (!free / cost) in
      let cap_ha = State.ha_cap state ~node:child ~comp:c in
      if cap_ha < want then ctx.att_ha_capped <- true;
      let n = min want cap_ha in
      if n > 0 then begin
        gsub.(c) <- n;
        free := !free - (n * cost)
      end
    done;
    if total gsub > 0 then Some (child_idx, child, gsub)
    else begin
      mark_dead frame child_idx;
      naive_fill ctx frame remaining
    end
  end

let rec alloc ctx g st =
  if Tree.is_server ctx.ctree st then alloc_server ctx g st
  else alloc_switch ctx g st

(* Alloc, server case: take slots (respecting Eq. 7 caps) and reserve the
   server's uplink per the accounting model.  The returned array is the
   level-0 frame's buffer — valid until the next server allocation. *)
and alloc_server ctx g st =
  let tree = ctx.ctree and state = ctx.state in
  let n_comp = ctx.n_comp in
  let cp = State.checkpoint state in
  let placed = ctx.frames.(0).placed in
  Array.fill placed 0 n_comp 0;
  let free = ref (Tree.free_slots tree st) in
  for i = 0 to n_comp - 1 do
    let c = ctx.comp_order.(i) in
    let cost = ctx.slots.(c) in
    if g.(c) > 0 && !free >= cost then begin
      let want = min g.(c) (!free / cost) in
      let cap_ha = State.ha_cap state ~node:st ~comp:c in
      if cap_ha < want then ctx.att_ha_capped <- true;
      let n = min want cap_ha in
      if n > 0 && State.place state ~server:st ~comp:c ~n then begin
        placed.(c) <- n;
        free := !free - (n * cost)
      end
    end
  done;
  if total placed = 0 then begin
    State.rollback_to state cp;
    placed
  end
  else if State.sync_bw state ~node:st then placed
  else begin
    ctx.att_bw_failures <- ctx.att_bw_failures + 1;
    State.rollback_to state cp;
    Array.fill placed 0 n_comp 0;
    placed
  end

(* Alloc, switch case: Colocate then Balance over the children, then
   reserve st's own uplink; roll everything back if it does not fit.
   The returned array is this level's frame buffer — valid until the
   next allocation at the same level. *)
and alloc_switch ctx g st =
  let state = ctx.state in
  let n_comp = ctx.n_comp in
  let frame = ctx.frames.(Tree.level ctx.ctree st) in
  frame.st <- st;
  Array.fill frame.dead 0 (Array.length frame.dead) false;
  frame.fresh <- false;
  let cp = State.checkpoint state in
  let remaining = frame.remaining and placed = frame.placed in
  Array.blit g 0 remaining 0 n_comp;
  Array.fill placed 0 n_comp 0;
  let try_child idx child gsub =
    let sub = alloc ctx gsub child in
    if total sub = 0 then mark_dead frame idx
    else begin
      for c = 0 to n_comp - 1 do
        placed.(c) <- placed.(c) + sub.(c);
        remaining.(c) <- remaining.(c) - sub.(c)
      done;
      frame.fresh <- false
    end
  in
  let coloc_allowed =
    ctx.sched.the_policy.colocate
    && ((not ctx.sched.the_policy.opportunistic_ha)
       || saving_desirable ctx frame)
  in
  if coloc_allowed then begin
    let continue = ref true in
    while !continue && total remaining > 0 do
      match
        find_tiers_to_coloc ~verify:ctx.sched.the_policy.verify_trunk_savings
          ctx frame remaining
      with
      | None -> continue := false
      | Some (idx, child, gsub) ->
          (* A switch child whose uplink refuses every sub-group would
             run its whole subtree only to fail its own [sync_bw] and
             return nothing: skip it with the same outcome, and count the
             refusal as that sync's bandwidth failure. *)
          if
            (not (Tree.is_server ctx.ctree child))
            && State.uplink_refuses state ~node:child ~group:gsub
          then begin
            Metrics.incr m_alloc_pruned;
            ctx.att_bw_failures <- ctx.att_bw_failures + 1;
            mark_dead frame idx
          end
          else try_child idx child gsub
    done
  end;
  if total remaining > 0 then begin
    (* Balance starts over with every child considered again. *)
    Array.fill frame.dead 0 (Array.length frame.dead) false;
    frame.fresh <- false;
    let single =
      ctx.sched.the_policy.opportunistic_ha
      && not (saving_desirable ctx frame)
    in
    let continue = ref true in
    while !continue && total remaining > 0 do
      let choice =
        if ctx.sched.the_policy.balance then
          md_subset_sum ctx frame remaining ~single
        else naive_fill ctx frame remaining
      in
      match choice with
      | None -> continue := false
      | Some (idx, child, gsub) -> try_child idx child gsub
    done
  end;
  if total placed = 0 then begin
    State.rollback_to state cp;
    placed
  end
  else if State.sync_bw state ~node:st then placed
  else begin
    ctx.att_bw_failures <- ctx.att_bw_failures + 1;
    State.rollback_to state cp;
    Array.fill placed 0 n_comp 0;
    placed
  end

let update_ewma sched tag =
  let d = Tag.mean_vm_demand tag in
  if sched.n_seen = 0 then sched.demand_ewma <- d
  else sched.demand_ewma <- (0.9 *. sched.demand_ewma) +. (0.1 *. d);
  sched.n_seen <- sched.n_seen + 1

(* The placement loop, scoped to the subtree under [root].  [clamps]
   must be [Tree.available_to_root root] (or infinities at the tree
   root); [sync_top] bounds the bandwidth sync so nothing above [root]
   is written — pod-sharded batching relies on that to run disjoint pods
   from parallel domains.  [observe:false] skips the accept/reject
   counters, trace instants and logs so pod-internal attempts don't
   pollute the global decision-attribution telemetry (the shard
   coordinator accounts outcomes itself). *)
let place_scoped sched ~root ~clamps ~observe (req : Types.request) =
  let tag = req.tag in
  let tree = sched.the_tree in
  let total_vms = Tag.total_vms tag in
  let slot_demand = Tag.total_slot_demand tag in
  let state =
    State.create ~model:sched.the_policy.model ?ha:req.ha tree tag
  in
  let ctx = make_ctx sched state tag in
  let ext = State.external_demand state in
  let g0 = Array.init (Tag.n_components tag) (Tag.size tag) in
  let start_level =
    if sched.the_policy.opportunistic_ha then opp_start_level ~root sched tag
    else 0
  in
  let top = Tree.level tree root in
  let sync_top = if root = Tree.root tree then None else Some root in
  let reject () =
    if Tree.free_slots_subtree tree root < slot_demand then Types.No_slots
    else Types.No_bandwidth
  in
  let rec attempt level =
    if level > top then begin
      let reason = reject () in
      if observe then begin
        (match reason with
        | Types.No_slots -> Metrics.incr m_reject_no_slots
        | Types.No_bandwidth -> Metrics.incr m_reject_no_bandwidth);
        let constr =
          match reason with
          | Types.No_slots ->
              Metrics.incr m_reject_c_slots;
              "slots"
          | Types.No_bandwidth ->
              if ctx.att_ha_capped && ctx.att_bw_failures = 0 then begin
                Metrics.incr m_reject_c_anti_affinity;
                "anti_affinity"
              end
              else begin
                Metrics.incr m_reject_c_bandwidth;
                "bandwidth"
              end
        in
        if ctx.att_last_level >= 0 then
          Metrics.observe m_reject_level (float_of_int ctx.att_last_level);
        if Cm_obs.Trace.enabled () then
          Cm_obs.Trace.instant "cm.place.reject"
            ~args:
              [
                ("tenant", Cm_obs.Json.String (Tag.name tag));
                ("vms", Cm_obs.Json.Number (float_of_int total_vms));
                ("reason", Cm_obs.Json.String (Types.reject_to_string reason));
                ("constraint", Cm_obs.Json.String constr);
                ( "last_level",
                  Cm_obs.Json.Number (float_of_int ctx.att_last_level) );
                ( "sync_bw_failures",
                  Cm_obs.Json.Number (float_of_int ctx.att_bw_failures) );
                ("ha_capped", Cm_obs.Json.Bool ctx.att_ha_capped);
              ];
        Log.info (fun m ->
            m "reject tenant %s (%d VMs): %s" (Tag.name tag) total_vms
              (Types.reject_to_string reason))
      end;
      Error reason
    end
    else
      match
        Subtree.find_lowest_under tree ~root ~clamps ~total_vms:slot_demand
          ~ext ~level
      with
      | None -> attempt (level + 1)
      | Some st ->
          ctx.att_last_level <- Tree.level tree st;
          let cp = State.checkpoint state in
          let placed = alloc ctx g0 st in
          if
            total placed = total_vms
            && State.sync_path_above ?top:sync_top state ~node:st
          then begin
            let locations = State.server_locations state in
            let committed = State.commit state in
            if observe then begin
              Metrics.incr m_place_accepted;
              Log.debug (fun m ->
                  m "placed tenant %s (%d VMs) under node %d (level %d)"
                    (Tag.name tag) total_vms st (Tree.level tree st))
            end;
            Ok { Types.req; locations; committed }
          end
          else begin
            if observe then begin
              Metrics.incr m_place_backtracks;
              Log.debug (fun m ->
                  m "tenant %s: subtree %d (level %d) failed with %d/%d VMs \
                     placed; retrying higher"
                    (Tag.name tag) st (Tree.level tree st) (total placed)
                    total_vms)
            end;
            State.rollback_to state cp;
            attempt (Tree.level tree st + 1)
          end
  in
  let result = attempt start_level in
  update_ewma sched tag;
  result

let place sched (req : Types.request) =
  place_scoped sched ~root:(Tree.root sched.the_tree)
    ~clamps:(infinity, infinity) ~observe:true req

let place_under sched ~root (req : Types.request) =
  let clamps = Tree.available_to_root sched.the_tree root in
  place_scoped sched ~root ~clamps ~observe:false req

let release sched (placement : Types.placement) =
  Cm_topology.Reservation.release sched.the_tree placement.committed

(* {1 Auto-scaling} *)

let resync_everything state =
  List.for_all
    (fun node -> State.sync_bw state ~node)
    (State.tracked_nodes state)

let finish_resize (placement : Types.placement) new_tag state =
  let locations = State.server_locations state in
  let committed =
    Cm_topology.Reservation.merge placement.committed (State.commit state)
  in
  Ok { Types.req = { placement.req with tag = new_tag }; locations; committed }

let grow sched (placement : Types.placement) ~comp ~delta =
  let tree = sched.the_tree in
  let old_tag = placement.req.tag in
  let new_tag =
    Tag.with_size old_tag ~comp ~size:(Tag.size old_tag comp + delta)
  in
  let state =
    State.create ~model:sched.the_policy.model ?ha:placement.req.ha tree
      new_tag
  in
  State.seed state ~old_tag ~locations:placement.locations;
  let ctx = make_ctx sched state new_tag in
  let g0 = Array.make (Tag.n_components new_tag) 0 in
  g0.(comp) <- delta;
  let delta_slots = delta * Tag.vm_slots new_tag comp in
  let top = Tree.n_levels tree - 1 in
  let reject () =
    if Tree.free_slots_subtree tree (Tree.root tree) < delta_slots then
      Types.No_slots
    else Types.No_bandwidth
  in
  (* External demand is already reserved for the existing VMs; the new
     VMs' share is verified by the resync, so the subtree search only
     needs free slots. *)
  let rec attempt level =
    if level > top then Error (reject ())
    else
      match
        Subtree.find_lowest tree ~total_vms:delta_slots ~ext:(0., 0.) ~level
      with
      | None -> attempt (level + 1)
      | Some st ->
          let cp = State.checkpoint state in
          let placed = alloc ctx g0 st in
          if
            total placed = delta
            (* Growing a tier raises the Eq. 1 requirement even on nodes
               that only hold pre-existing VMs (their outside counts
               changed): re-price every touched uplink. *)
            && resync_everything state
          then finish_resize placement new_tag state
          else begin
            State.rollback_to state cp;
            attempt (Tree.level tree st + 1)
          end
  in
  attempt 0

let shrink sched (placement : Types.placement) ~comp ~delta =
  let tree = sched.the_tree in
  let old_tag = placement.req.tag in
  let new_tag =
    Tag.with_size old_tag ~comp ~size:(Tag.size old_tag comp - delta)
  in
  let state =
    State.create ~model:sched.the_policy.model ?ha:placement.req.ha tree
      new_tag
  in
  State.seed state ~old_tag ~locations:placement.locations;
  (* Remove from the most-loaded servers first: frees contiguous room,
     improves survivability, and keeps Eq. 7 caps satisfied under the
     shrunken bound. *)
  let by_load =
    List.sort (fun (_, a) (_, b) -> compare b a) placement.locations.(comp)
  in
  let rec drop remaining = function
    | [] -> remaining = 0
    | (server, have) :: rest ->
        if remaining = 0 then true
        else
          let n = min remaining have in
          State.remove state ~server ~comp ~n && drop (remaining - n) rest
  in
  if drop delta by_load && resync_everything state then
    finish_resize placement new_tag state
  else begin
    (* Shrinking cannot raise any requirement, so this is unreachable in
       practice; fail closed regardless. *)
    State.rollback state;
    Error Types.No_bandwidth
  end

let resize sched (placement : Types.placement) ~comp ~new_size =
  let tag = placement.req.tag in
  if Tag.is_external tag comp then
    invalid_arg "Cm.resize: external component";
  if new_size <= 0 then invalid_arg "Cm.resize: non-positive size";
  let old_size = Tag.size tag comp in
  if new_size = old_size then Ok placement
  else if new_size > old_size then
    grow sched placement ~comp ~delta:(new_size - old_size)
  else shrink sched placement ~comp ~delta:(old_size - new_size)
