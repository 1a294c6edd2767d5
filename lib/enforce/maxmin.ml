module Vec = Cm_util.Vec

type link = { link_id : int; capacity : float }

type flow = {
  flow_id : int;
  path : int list;
  demand : float;
  guarantee : float;
}

let eps = 1e-9

(* The max-min allocation decomposes over connected components of the
   flow/link sharing graph: two flows interact only if a chain of
   shared links connects them, so each component's fixed point is a
   pure function of that component's flows, demands, guarantees and
   link capacities.  The incremental solver below exploits exactly
   this — a churn delta dirties the links on the changed flows' paths,
   the dirty frontier is expanded through the incidence lists to whole
   components, and only those components are re-converged; everything
   else keeps the previous epoch's fixed point verbatim.  Because a
   component is always solved by the same code over the same canonical
   flow order (ascending external flow id), re-solving a clean
   component reproduces its rates bit-for-bit — which makes the
   incremental path bitwise-identical to a from-scratch solve, and lets
   [Runtime.verify] compare against {!with_guarantees} with zero
   tolerance. *)

module Inc = struct
  type stats = {
    components : int;
    flows_resolved : int;
    flows_total : int;
    links_dirty : int;
  }

  let no_stats =
    { components = 0; flows_resolved = 0; flows_total = 0; links_dirty = 0 }

  type t = {
    (* Dense link tables (SoA): index [l] is a dense link index; the
       external id and capacity live in flat arrays. *)
    n_links : int;
    link_ids : int array;
    link_index : (int, int) Hashtbl.t;
    caps : float array;
    (* Flow slots (SoA).  A flow occupies one slot for its lifetime;
       departed slots go on a free list and are reused.  [ext.(s)] is
       the external flow id (-1 = free slot). *)
    mutable slot_cap : int;
    mutable n_slots : int;  (* high-water mark *)
    mutable live_flows : int;
    free : Vec.t;
    ids : (int, int) Hashtbl.t;  (* external flow id -> slot *)
    mutable ext : int array;
    mutable demand : float array;
    mutable guarantee : float array;
    mutable rate : float array;
    (* CSR flow->link adjacency: slot [s]'s path is
       [path_buf.(path_off.(s) + k)] (dense link indices) for
       [k < path_len.(s)].  Segments of departed flows are leaked and
       reclaimed by compaction once dead cells outnumber live ones.
       [pos_buf] is parallel to [path_buf]: the flow's position inside
       [inc_flows.(l)], enabling O(1) swap-removal from the incidence
       list on departure. *)
    mutable path_off : int array;
    mutable path_len : int array;
    path_buf : Vec.t;
    pos_buf : Vec.t;
    mutable path_live : int;
    (* Link -> flow incidence (the reverse adjacency the dirty frontier
       expands through).  [inc_k.(l)] is parallel to [inc_flows.(l)]:
       which position of the flow's own path points back here. *)
    inc_flows : Vec.t array;
    inc_k : Vec.t array;
    (* Dirty tracking: links whose bottleneck set may have changed, plus
       pathless flows (their rate is recomputed directly — they never
       join a component). *)
    dirty : bool array;
    dirty_links : Vec.t;
    pathless_dirty : Vec.t;
    mutable stats : stats;
  }

  let create ~links =
    let links = Array.of_list links in
    let n = Array.length links in
    let link_index = Hashtbl.create (2 * n) in
    Array.iteri (fun i l -> Hashtbl.replace link_index l.link_id i) links;
    if Hashtbl.length link_index <> n then
      invalid_arg "Maxmin.Inc.create: duplicate link ids";
    {
      n_links = n;
      link_ids = Array.map (fun l -> l.link_id) links;
      link_index;
      caps = Array.map (fun l -> l.capacity) links;
      slot_cap = 0;
      n_slots = 0;
      live_flows = 0;
      free = Vec.create ();
      ids = Hashtbl.create 64;
      ext = [||];
      demand = [||];
      guarantee = [||];
      rate = [||];
      path_off = [||];
      path_len = [||];
      path_buf = Vec.create ~capacity:64 ();
      pos_buf = Vec.create ~capacity:64 ();
      path_live = 0;
      inc_flows = Array.init n (fun _ -> Vec.create ~capacity:4 ());
      inc_k = Array.init n (fun _ -> Vec.create ~capacity:4 ());
      dirty = Array.make n false;
      dirty_links = Vec.create ();
      pathless_dirty = Vec.create ();
      stats = no_stats;
    }

  let n_flows t = t.live_flows
  let mem t flow_id = Hashtbl.mem t.ids flow_id
  let last_stats t = t.stats

  let mark_dirty t l =
    if not t.dirty.(l) then begin
      t.dirty.(l) <- true;
      Vec.push t.dirty_links l
    end

  let grow t =
    let cap = max 16 (2 * t.slot_cap) in
    let extend a fill = Array.append a (Array.make (cap - t.slot_cap) fill) in
    t.ext <- extend t.ext (-1);
    t.demand <- extend t.demand 0.;
    t.guarantee <- extend t.guarantee 0.;
    t.rate <- extend t.rate 0.;
    t.path_off <- extend t.path_off 0;
    t.path_len <- extend t.path_len 0;
    t.slot_cap <- cap

  (* Reclaim leaked path segments: rewrite every live slot's segment
     into a fresh buffer.  Incidence positions are untouched (pos_buf
     cells move with their segment). *)
  let compact t =
    let buf = Vec.create ~capacity:(max 64 (2 * t.path_live)) () in
    let pos = Vec.create ~capacity:(max 64 (2 * t.path_live)) () in
    for s = 0 to t.n_slots - 1 do
      if t.ext.(s) >= 0 then begin
        let off = t.path_off.(s) and len = t.path_len.(s) in
        t.path_off.(s) <- Vec.length buf;
        for k = 0 to len - 1 do
          let l = Vec.get t.path_buf (off + k) in
          let p = Vec.get t.pos_buf (off + k) in
          Vec.push buf l;
          Vec.push pos p;
          (* The incidence entry's back-pointer is (slot, k): unchanged. *)
        done
      end
    done;
    Vec.clear t.path_buf;
    Vec.clear t.pos_buf;
    Vec.iter (Vec.push t.path_buf) buf;
    Vec.iter (Vec.push t.pos_buf) pos

  let unlink t s =
    let off = t.path_off.(s) and len = t.path_len.(s) in
    for k = 0 to len - 1 do
      let l = Vec.get t.path_buf (off + k) in
      let p = Vec.get t.pos_buf (off + k) in
      let last = Vec.length t.inc_flows.(l) - 1 in
      if p < last then begin
        (* Swap the incidence tail into the vacated position and fix the
           moved flow's back-pointer. *)
        let ms = Vec.get t.inc_flows.(l) last in
        let mk = Vec.get t.inc_k.(l) last in
        Vec.set t.inc_flows.(l) p ms;
        Vec.set t.inc_k.(l) p mk;
        Vec.set t.pos_buf (t.path_off.(ms) + mk) p
      end;
      Vec.swap_remove t.inc_flows.(l) last;
      Vec.swap_remove t.inc_k.(l) last
    done;
    t.path_live <- t.path_live - len

  let remove t flow_id =
    match Hashtbl.find_opt t.ids flow_id with
    | None -> ()
    | Some s ->
        let off = t.path_off.(s) and len = t.path_len.(s) in
        for k = 0 to len - 1 do
          mark_dirty t (Vec.get t.path_buf (off + k))
        done;
        unlink t s;
        Hashtbl.remove t.ids flow_id;
        t.ext.(s) <- -1;
        t.path_len.(s) <- 0;
        t.live_flows <- t.live_flows - 1;
        Vec.push t.free s;
        if Vec.length t.path_buf > 128
           && t.path_live * 2 < Vec.length t.path_buf
        then compact t

  (* Validate and translate a path to dense link indices, rejecting
     unknown links and duplicate links within the path (a duplicate
     would double-count the flow in the per-link active counters and
     double-charge the link's remaining capacity). *)
  let dense_path t flow_id path =
    let dense =
      List.map
        (fun l ->
          match Hashtbl.find_opt t.link_index l with
          | Some i -> i
          | None -> invalid_arg (Printf.sprintf "Maxmin: unknown link %d" l))
        path
    in
    let rec dup = function
      | [] -> ()
      | l :: rest ->
          if List.mem l rest then
            invalid_arg
              (Printf.sprintf "Maxmin: duplicate link %d in flow %d's path"
                 t.link_ids.(l) flow_id);
          dup rest
    in
    dup dense;
    dense

  let alloc_slot t =
    if Vec.length t.free > 0 then Vec.pop t.free
    else begin
      if t.n_slots = t.slot_cap then grow t;
      let s = t.n_slots in
      t.n_slots <- t.n_slots + 1;
      s
    end

  let same_path t s dense =
    let off = t.path_off.(s) and len = t.path_len.(s) in
    List.length dense = len
    && snd
         (List.fold_left
            (fun (k, ok) l -> (k + 1, ok && Vec.get t.path_buf (off + k) = l))
            (0, true) dense)

  let set t (f : flow) =
    let dense = dense_path t f.flow_id f.path in
    match Hashtbl.find_opt t.ids f.flow_id with
    | Some s when same_path t s dense ->
        (* Parameter-only update: dirty the existing path, or the
           pathless queue when there is no path to dirty. *)
        if t.demand.(s) <> f.demand || t.guarantee.(s) <> f.guarantee then begin
          t.demand.(s) <- f.demand;
          t.guarantee.(s) <- f.guarantee;
          let off = t.path_off.(s) and len = t.path_len.(s) in
          if len = 0 then Vec.push t.pathless_dirty s
          else
            for k = 0 to len - 1 do
              mark_dirty t (Vec.get t.path_buf (off + k))
            done
        end
    | Some _ | None ->
        remove t f.flow_id;
        let s = alloc_slot t in
        Hashtbl.replace t.ids f.flow_id s;
        t.ext.(s) <- f.flow_id;
        t.demand.(s) <- f.demand;
        t.guarantee.(s) <- f.guarantee;
        t.rate.(s) <- 0.;
        t.path_off.(s) <- Vec.length t.path_buf;
        t.path_len.(s) <- List.length dense;
        List.iteri
          (fun k l ->
            Vec.push t.path_buf l;
            Vec.push t.pos_buf (Vec.length t.inc_flows.(l));
            Vec.push t.inc_flows.(l) s;
            Vec.push t.inc_k.(l) k;
            mark_dirty t l)
          dense;
        t.path_live <- t.path_live + List.length dense;
        t.live_flows <- t.live_flows + 1;
        if dense = [] then Vec.push t.pathless_dirty s

  let invalidate_all t =
    for l = 0 to t.n_links - 1 do
      mark_dirty t l
    done;
    for s = 0 to t.n_slots - 1 do
      if t.ext.(s) >= 0 && t.path_len.(s) = 0 then Vec.push t.pathless_dirty s
    done

  (* {2 Component solve}

     Progressive filling restricted to one component, replaying the
     reference algorithm's float operations: phase 1 hands out
     guarantees (capped by demand) in ascending external-flow-id order;
     phase 2 raises all unfrozen flows together, freezing on demand
     satisfaction or link saturation, subtracting each round's
     increment once per active flow per link.  All state is local to
     the call, so components solve in parallel without sharing. *)

  type component = { slots : int array; links : int array }

  exception Infeasible

  let solve_component t (c : component) =
    let nl = Array.length c.links in
    let nf = Array.length c.slots in
    let local = Hashtbl.create (2 * nl) in
    Array.iteri (fun i l -> Hashtbl.replace local l i) c.links;
    let remaining = Array.map (fun l -> t.caps.(l)) c.links in
    let n_active = Array.make nl 0 in
    let base = Array.make nf 0. in
    let granted = Array.make nf 0. in
    let active = Array.make nf false in
    (* Local (dense within the component) copies of each flow's path. *)
    let paths =
      Array.map
        (fun s ->
          let off = t.path_off.(s) in
          Array.init t.path_len.(s) (fun k ->
              Hashtbl.find local (Vec.get t.path_buf (off + k))))
        c.slots
    in
    (* Phase 1: guarantees, in canonical (ascending flow id) order. *)
    Array.iteri
      (fun i s ->
        let g = Float.min t.guarantee.(s) t.demand.(s) in
        base.(i) <- g;
        Array.iter
          (fun l ->
            let r = remaining.(l) -. g in
            if r < -.eps then raise Infeasible;
            remaining.(l) <- Float.max 0. r)
          paths.(i))
      c.slots;
    (* Phase 2: progressive filling of the residual demand. *)
    let n_left = ref 0 in
    Array.iteri
      (fun i s ->
        if Float.max 0. (t.demand.(s) -. base.(i)) > eps then begin
          active.(i) <- true;
          incr n_left;
          Array.iter (fun l -> n_active.(l) <- n_active.(l) + 1) paths.(i)
        end)
      c.slots;
    let continue_ = ref (!n_left > 0) in
    while !continue_ do
      let link_limit = ref infinity in
      for l = 0 to nl - 1 do
        if n_active.(l) > 0 then
          link_limit :=
            Float.min !link_limit (remaining.(l) /. float_of_int n_active.(l))
      done;
      let demand_limit = ref infinity in
      for i = 0 to nf - 1 do
        if active.(i) then
          let residual = Float.max 0. (t.demand.(c.slots.(i)) -. base.(i)) in
          demand_limit := Float.min !demand_limit (residual -. granted.(i))
      done;
      let inc = Float.min !link_limit !demand_limit in
      if inc = infinity then continue_ := false
      else begin
        let inc = Float.max inc 0. in
        for i = 0 to nf - 1 do
          if active.(i) then begin
            granted.(i) <- granted.(i) +. inc;
            Array.iter (fun l -> remaining.(l) <- remaining.(l) -. inc) paths.(i)
          end
        done;
        let frozen = ref 0 in
        for i = 0 to nf - 1 do
          if active.(i) then begin
            let residual = Float.max 0. (t.demand.(c.slots.(i)) -. base.(i)) in
            let keep =
              residual -. granted.(i) > eps
              && not (Array.exists (fun l -> remaining.(l) <= eps) paths.(i))
            in
            if not keep then begin
              active.(i) <- false;
              Array.iter (fun l -> n_active.(l) <- n_active.(l) - 1) paths.(i);
              incr frozen;
              decr n_left
            end
          end
        done;
        if !n_left = 0 || (!frozen = 0 && inc <= eps) then continue_ := false
      end
    done;
    Array.mapi (fun i _ -> base.(i) +. granted.(i)) c.slots

  (* Expand the dirty-link frontier to whole components.  Flows and
     links are collected with generation stamps (no per-solve clearing);
     slots within a component are sorted by external flow id so the
     solve order — and therefore every float — is independent of
     discovery order. *)
  let collect_components t =
    let link_seen = Array.make t.n_links false in
    let slot_seen = Array.make (max 1 t.n_slots) false in
    let frontier = Vec.create () in
    let components = ref [] in
    Vec.iter
      (fun l0 ->
        if not link_seen.(l0) then begin
          link_seen.(l0) <- true;
          Vec.clear frontier;
          Vec.push frontier l0;
          let slots = Vec.create () and links = Vec.create () in
          Vec.push links l0;
          while Vec.length frontier > 0 do
            let l = Vec.pop frontier in
            Vec.iter
              (fun s ->
                if not slot_seen.(s) then begin
                  slot_seen.(s) <- true;
                  Vec.push slots s;
                  let off = t.path_off.(s) in
                  for k = 0 to t.path_len.(s) - 1 do
                    let l' = Vec.get t.path_buf (off + k) in
                    if not link_seen.(l') then begin
                      link_seen.(l') <- true;
                      Vec.push links l';
                      Vec.push frontier l'
                    end
                  done
                end)
              t.inc_flows.(l)
          done;
          let slots = Vec.to_array slots in
          Array.sort
            (fun a b -> compare t.ext.(a) t.ext.(b))
            slots;
          components := { slots; links = Vec.to_array links } :: !components
        end)
      t.dirty_links;
    List.rev !components

  (* Re-solving a component below this population is cheaper than a
     domain round-trip; larger batches shard across the pool. *)
  let par_threshold = 8192

  let solve ?domains t =
    let components = collect_components t in
    let resolved =
      List.fold_left (fun acc c -> acc + Array.length c.slots) 0 components
    in
    let solved =
      let work c =
        match solve_component t c with
        | rates -> Ok rates
        | exception Infeasible -> Error ()
      in
      if resolved >= par_threshold && List.length components > 1 then
        Cm_util.Par.map ?domains work components
      else List.map work components
    in
    List.iter2
      (fun c res ->
        match res with
        | Error () ->
            invalid_arg "Maxmin.with_guarantees: infeasible guarantees"
        | Ok rates ->
            Array.iteri (fun i s -> t.rate.(s) <- rates.(i)) c.slots)
      components solved;
    (* Pathless flows: unconstrained, so the rate is the demand when
       finite, else the (demand-capped) guarantee. *)
    Vec.iter
      (fun s ->
        if t.ext.(s) >= 0 && t.path_len.(s) = 0 then
          t.rate.(s) <-
            (if t.demand.(s) = infinity then
               Float.min t.guarantee.(s) t.demand.(s)
             else t.demand.(s)))
      t.pathless_dirty;
    let links_dirty = Vec.length t.dirty_links in
    Vec.iter (fun l -> t.dirty.(l) <- false) t.dirty_links;
    Vec.clear t.dirty_links;
    Vec.clear t.pathless_dirty;
    t.stats <-
      {
        components = List.length components;
        flows_resolved = resolved;
        flows_total = t.live_flows;
        links_dirty;
      }

  let rate t flow_id =
    match Hashtbl.find_opt t.ids flow_id with
    | Some s -> t.rate.(s)
    | None -> invalid_arg (Printf.sprintf "Maxmin.Inc.rate: unknown flow %d" flow_id)
end

(* {1 From-scratch entry points}

   Both are one cold pass of the incremental solver: every link starts
   dirty, so every component is solved from scratch.  Keeping a single
   solver core is what makes [with_guarantees] a bit-exact oracle for
   the incremental path. *)

let check_paths ~links ~flows =
  let known = Hashtbl.create 16 in
  List.iter (fun l -> Hashtbl.replace known l.link_id ()) links;
  List.iter
    (fun f ->
      let rec go = function
        | [] -> ()
        | l :: rest ->
            if not (Hashtbl.mem known l) then
              invalid_arg (Printf.sprintf "Maxmin: unknown link %d" l);
            if List.mem l rest then
              invalid_arg
                (Printf.sprintf "Maxmin: duplicate link %d in flow %d's path" l
                   f.flow_id);
            go rest
      in
      go f.path)
    flows

let with_guarantees ~links ~flows =
  check_paths ~links ~flows;
  let t = Inc.create ~links in
  List.iter (fun f -> Inc.set t f) flows;
  Inc.solve t;
  Array.of_list (List.map (fun f -> (f.flow_id, Inc.rate t f.flow_id)) flows)

let max_min ~links ~flows =
  with_guarantees ~links
    ~flows:(List.map (fun f -> { f with guarantee = 0. }) flows)
