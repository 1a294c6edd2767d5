module Tree = Cm_topology.Tree
module Tag = Cm_tag.Tag
module Types = Cm_placement.Types
module Elastic = Cm_enforce.Elastic
module Maxmin = Cm_enforce.Maxmin
module Rng = Cm_util.Rng

type enforcement_mode = No_protection | Hose_protection | Tag_protection

let mode_to_string = function
  | No_protection -> "none"
  | Hose_protection -> "hose"
  | Tag_protection -> "TAG"

type tenant_report = {
  tenant_name : string;
  edges_total : int;
  edges_violated : int;
  worst_shortfall : float;
}

type report = {
  tenants : tenant_report list;
  edges_total : int;
  edges_violated : int;
  violation_fraction : float;
  mean_shortfall : float;
  flows : int;
}

(* Tree links as Maxmin links: uplink of node n is 2n (up direction,
   toward the root) and 2n+1 (down direction). *)
let up_link n = 2 * n
let down_link n = (2 * n) + 1

let links_of_tree tree =
  let acc = ref [] in
  for n = 0 to Tree.n_nodes tree - 1 do
    if n <> Tree.root tree then begin
      let c = Tree.uplink_capacity tree n in
      acc :=
        { Maxmin.link_id = up_link n; capacity = c }
        :: { Maxmin.link_id = down_link n; capacity = c }
        :: !acc
    end
  done;
  !acc

(* Path between two servers: up-links to (and excluding) the lowest
   common ancestor, then down-links on the other side. *)
let path_between tree s1 s2 =
  if s1 = s2 then []
  else begin
    let inside node s =
      let lo, hi = Tree.server_range tree node in
      lo <= s && s <= hi
    in
    let rec ups node acc =
      if inside node s2 then (node, acc)
      else
        match Tree.parent tree node with
        | Some p -> ups p (up_link node :: acc)
        | None -> (node, acc)
    in
    let lca, up_part = ups s1 [] in
    let rec downs node acc =
      if node = lca then acc
      else
        match Tree.parent tree node with
        | Some p -> downs p (down_link node :: acc)
        | None -> acc
    in
    List.rev_append up_part (downs s2 [])
  end

let path_to_root tree s =
  List.filter_map
    (fun node -> if node = Tree.root tree then None else Some (up_link node))
    (Tree.path_to_root tree s)

(* Materialize each VM's server from the locations table. *)
let vm_servers tree (locations : Types.locations) =
  ignore tree;
  Array.map
    (fun placed ->
      Array.concat
        (List.map (fun (server, n) -> Array.make n server) placed))
    locations

(* Sample up to [cap] ordered pairs for an edge without replacement
   beyond necessity; deterministic given the rng. *)
let sample_pairs rng ~n_src ~n_dst ~self ~cap =
  let all = if self then n_src * (n_src - 1) else n_src * n_dst in
  if all <= 0 then []
  else if all <= cap then begin
    let acc = ref [] in
    for i = 0 to n_src - 1 do
      for j = 0 to n_dst - 1 do
        if not (self && i = j) then acc := (i, j) :: !acc
      done
    done;
    !acc
  end
  else
    List.init cap (fun _ ->
        let i = Rng.int rng n_src in
        let j = ref (Rng.int rng n_dst) in
        if self then while !j = i do j := Rng.int rng n_dst done;
        (i, !j))

type flow_meta = {
  tenant_ix : int;
  edge_ix : int;  (** Index into the tenant's edge array; -1 = background. *)
  promise : float;  (** TAG pair guarantee — what the tenant was sold. *)
}

(* The evaluator's tail: feasibility-cap the guarantees, run the max-min
   allocation and score each sampled pair against its promise.
   [tenant_edges] holds each tenant's (name, edge count). *)
let allocate_and_report ~links ~flows ~metas ~tenant_edges =
  let metas = Array.of_list (List.rev metas) in
  (* Feasibility cap: hose-partitioned guarantees can exceed what the
     links can carry (that is the §2.2 waste); scale each flow's
     protection by its most-overloaded link so the allocator stays
     feasible — exactly what a rate limiter in front of a thinner link
     achieves. *)
  let guarantee_load = Hashtbl.create 256 in
  List.iter
    (fun (f : Maxmin.flow) ->
      List.iter
        (fun l ->
          Hashtbl.replace guarantee_load l
            (f.guarantee
            +. Option.value ~default:0. (Hashtbl.find_opt guarantee_load l)))
        f.path)
    flows;
  let capacity = Hashtbl.create 256 in
  List.iter
    (fun (l : Maxmin.link) -> Hashtbl.replace capacity l.link_id l.capacity)
    links;
  let scale_of l =
    let load = Option.value ~default:0. (Hashtbl.find_opt guarantee_load l) in
    let cap = Hashtbl.find capacity l in
    if load > cap then cap /. load else 1.
  in
  let flows =
    List.map
      (fun (f : Maxmin.flow) ->
        let factor =
          List.fold_left (fun acc l -> Float.min acc (scale_of l)) 1. f.path
        in
        { f with guarantee = f.guarantee *. factor })
      flows
  in
  let rates = Maxmin.with_guarantees ~links ~flows in
  (* The TAG promise is per VM pair: a pair whose rate falls short is a
     violation regardless of how much its edge's other (e.g. colocated)
     pairs over-deliver. *)
  let pair_sets : (int * int, int * int * float) Hashtbl.t =
    (* (tenant, edge) -> (pairs, violated, worst shortfall) *)
    Hashtbl.create 64
  in
  Array.iteri
    (fun ix (fid, rate) ->
      ignore fid;
      let m = metas.(ix) in
      if m.tenant_ix >= 0 && m.promise > 1e-9 then begin
        let key = (m.tenant_ix, m.edge_ix) in
        let n, v, w =
          Option.value ~default:(0, 0, 0.) (Hashtbl.find_opt pair_sets key)
        in
        let violated = rate < m.promise -. 1e-6 in
        let shortfall =
          if violated then 1. -. (rate /. m.promise) else 0.
        in
        Hashtbl.replace pair_sets key
          (n + 1, (v + if violated then 1 else 0), Float.max w shortfall)
      end)
    rates;
  let shortfalls = ref [] in
  let tenant_reports =
    List.mapi
      (fun tenant_ix (name, n_edges) ->
        let edges_total = ref 0
        and edges_violated = ref 0
        and worst = ref 0. in
        for edge_ix = 0 to n_edges - 1 do
          match Hashtbl.find_opt pair_sets (tenant_ix, edge_ix) with
          | None -> ()
          | Some (_, v, w) ->
              incr edges_total;
              if v > 0 then begin
                incr edges_violated;
                worst := Float.max !worst w;
                shortfalls := w :: !shortfalls
              end
        done;
        {
          tenant_name = name;
          edges_total = !edges_total;
          edges_violated = !edges_violated;
          worst_shortfall = !worst;
        })
      tenant_edges
  in
  let edges_total =
    List.fold_left
      (fun acc (r : tenant_report) -> acc + r.edges_total)
      0 tenant_reports
  in
  let edges_violated =
    List.fold_left
      (fun acc (r : tenant_report) -> acc + r.edges_violated)
      0 tenant_reports
  in
  {
    tenants = tenant_reports;
    edges_total;
    edges_violated;
    violation_fraction =
      (if edges_total = 0 then 0.
       else float_of_int edges_violated /. float_of_int edges_total);
    mean_shortfall =
      (match !shortfalls with
      | [] -> 0.
      | l -> Cm_util.Stats.mean (Array.of_list l));
    flows = List.length flows;
  }

(* Map (component, vm) coordinates of one TAG to the other through the
   shared global VM numbering (components concatenated in order). *)
let vm_offsets tag =
  let nc = Tag.n_components tag in
  let offs = Array.make (nc + 1) 0 in
  for c = 0 to nc - 1 do
    offs.(c + 1) <- offs.(c) + Tag.size tag c
  done;
  offs

let of_global offs g =
  let c = ref 0 in
  while offs.(!c + 1) <= g do
    incr c
  done;
  (!c, g - offs.(!c))

(* The one pair evaluator.  Each tenant is [(actual, sold, locations)]:
   active pairs are sampled from [actual] and promised its per-pair
   guarantees, while the enforced guarantees are partitioned from
   [sold], whose components key [locations].  An external endpoint is
   the pseudo VM 0 of the edge's own external, and keeps its index in
   [sold]; only [evaluate] passes TAGs with externals, and there
   [sold == actual]. *)
let evaluate_tenants ~pairs_per_edge ~background_flows ~rng ~tree ~tenants
    ~mode =
  let links = links_of_tree tree in
  let flows = ref [] and metas = ref [] in
  let next_id = ref 0 in
  List.iteri
    (fun tenant_ix (actual, sold, locations) ->
      let servers = vm_servers tree locations in
      let vm comp vm = { Elastic.comp; vm } in
      let sampled = ref [] in
      Array.iteri
        (fun edge_ix (e : Tag.edge) ->
          let add src dst =
            sampled := (edge_ix, { Elastic.src; dst }) :: !sampled
          in
          if Tag.is_external actual e.src then
            (* Traffic from an external: per-VM receive flows routed from
               the root. *)
            for j = 0 to Tag.size actual e.dst - 1 do
              add (vm e.src 0) (vm e.dst j)
            done
          else if Tag.is_external actual e.dst then
            for i = 0 to Tag.size actual e.src - 1 do
              add (vm e.src i) (vm e.dst 0)
            done
          else
            List.iter
              (fun (i, j) -> add (vm e.src i) (vm e.dst j))
              (sample_pairs rng ~n_src:(Tag.size actual e.src)
                 ~n_dst:(Tag.size actual e.dst) ~self:(e.src = e.dst)
                 ~cap:pairs_per_edge))
        (Tag.edges actual);
      let edge_ixs, pairs = List.split (List.rev !sampled) in
      let edge_ixs = Array.of_list edge_ixs in
      (* The same pairs in the sold TAG's coordinates: guarantees are
         enforced from what was negotiated, which may be stale. *)
      let a_offs = vm_offsets actual and s_offs = vm_offsets sold in
      let to_sold (ep : Elastic.endpoint) =
        if Tag.is_external actual ep.comp then ep
        else
          let comp, v = of_global s_offs (a_offs.(ep.comp) + ep.vm) in
          vm comp v
      in
      let sold_pairs =
        List.map
          (fun (p : Elastic.active_pair) ->
            { Elastic.src = to_sold p.src; dst = to_sold p.dst })
          pairs
      in
      let guarantees tag gp pairs =
        Array.of_list (List.map snd (Elastic.pair_guarantees tag gp ~pairs))
      in
      (* The promise is what the tenant's application now needs. *)
      let promises = guarantees actual Elastic.Tag_gp pairs in
      let enforced =
        match mode with
        | No_protection -> Array.make (Array.length promises) 0.
        | Hose_protection -> guarantees sold Elastic.Hose_gp sold_pairs
        | Tag_protection -> guarantees sold Elastic.Tag_gp sold_pairs
      in
      List.iteri
        (fun k (p : Elastic.active_pair) ->
          let server (ep : Elastic.endpoint) = servers.(ep.comp).(ep.vm) in
          let path =
            if Tag.is_external sold p.src.comp then
              (* up -> down links on the same path *)
              List.map (fun l -> l + 1) (path_to_root tree (server p.dst))
            else if Tag.is_external sold p.dst.comp then
              path_to_root tree (server p.src)
            else path_between tree (server p.src) (server p.dst)
          in
          let id = !next_id in
          incr next_id;
          flows :=
            {
              Maxmin.flow_id = id;
              path;
              demand = infinity;
              guarantee = enforced.(k);
            }
            :: !flows;
          metas :=
            { tenant_ix; edge_ix = edge_ixs.(k); promise = promises.(k) }
            :: !metas)
        sold_pairs)
    tenants;
  (* Unguaranteed background congestion. *)
  let servers = Tree.servers tree in
  for _ = 1 to background_flows do
    let s1 = Rng.pick rng servers and s2 = Rng.pick rng servers in
    let id = !next_id in
    incr next_id;
    flows :=
      {
        Maxmin.flow_id = id;
        path = path_between tree s1 s2;
        demand = infinity;
        guarantee = 0.;
      }
      :: !flows;
    metas := { tenant_ix = -1; edge_ix = -1; promise = 0. } :: !metas
  done;
  allocate_and_report ~links ~flows:(List.rev !flows) ~metas:!metas
    ~tenant_edges:
      (List.map
         (fun (actual, _, _) ->
           (Tag.name actual, Array.length (Tag.edges actual)))
         tenants)

let evaluate ?(pairs_per_edge = 32) ?(background_flows = 0) ~rng ~tree
    ~tenants ~mode () =
  evaluate_tenants ~pairs_per_edge ~background_flows ~rng ~tree ~mode
    ~tenants:(List.map (fun (tag, locations) -> (tag, tag, locations)) tenants)

let evaluate_with_tags ?(pairs_per_edge = 32) ?(background_flows = 0) ~rng
    ~tree ~tenants ~mode () =
  List.iter
    (fun (actual, sold, _) ->
      if Tag.n_externals actual > 0 || Tag.n_externals sold > 0 then
        invalid_arg "evaluate_with_tags: external components unsupported";
      if Tag.total_vms actual <> Tag.total_vms sold then
        invalid_arg "evaluate_with_tags: actual/sold VM count mismatch")
    tenants;
  evaluate_tenants ~pairs_per_edge ~background_flows ~rng ~tree ~tenants ~mode
