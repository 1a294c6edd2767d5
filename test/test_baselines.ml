(* Tests for the baseline placement algorithms (Oktopus/VOC and
   SecondNet/pipe) and for the Alloc_state machinery they share with
   CloudMirror. *)

module Tree = Cm_topology.Tree
module Tag = Cm_tag.Tag
module Bandwidth = Cm_tag.Bandwidth
module Examples = Cm_tag.Examples
module Types = Cm_placement.Types
module Alloc_state = Cm_placement.Alloc_state
module Oktopus = Cm_placement.Oktopus
module Secondnet = Cm_placement.Secondnet
module Subtree = Cm_placement.Subtree

let check_float = Alcotest.(check (float 1e-6))

let spec =
  {
    Tree.degrees = [ 2; 4 ];
    slots_per_server = 8;
    server_up_mbps = 1000.;
    oversub = [ 4. ];
  }

let total_reserved tree =
  let acc = ref 0. in
  for l = 0 to Tree.n_levels tree - 1 do
    let up, down = Tree.reserved_at_level tree ~level:l in
    acc := !acc +. up +. down
  done;
  !acc

(* {1 Alloc_state} *)

let test_state_place_and_counts () =
  let tree = Tree.create spec in
  let tag = Examples.storm ~s:4 ~b:10. in
  let st = Alloc_state.create tree tag in
  let server = (Tree.servers tree).(0) in
  Alcotest.(check bool) "place ok" true
    (Alloc_state.place st ~server ~comp:0 ~n:3);
  Alcotest.(check int) "server count" 3
    (Alloc_state.count st ~node:server ~comp:0);
  Alcotest.(check int) "root count" 3
    (Alloc_state.count st ~node:(Tree.root tree) ~comp:0);
  Alcotest.(check int) "other comp zero" 0
    (Alloc_state.count st ~node:server ~comp:1);
  Alcotest.(check int) "slots taken" 5 (Tree.free_slots tree server)

let test_state_place_over_capacity () =
  let tree = Tree.create spec in
  let tag = Examples.storm ~s:20 ~b:10. in
  let st = Alloc_state.create tree tag in
  let server = (Tree.servers tree).(0) in
  Alcotest.(check bool) "over slots fails" false
    (Alloc_state.place st ~server ~comp:0 ~n:9);
  Alcotest.(check int) "nothing changed" 8 (Tree.free_slots tree server)

let test_state_sync_bw_matches_eq1 () =
  let tree = Tree.create spec in
  let tag = Examples.storm ~s:4 ~b:10. in
  let st = Alloc_state.create tree tag in
  let server = (Tree.servers tree).(0) in
  ignore (Alloc_state.place st ~server ~comp:0 ~n:2 : bool);
  Alcotest.(check bool) "sync ok" true (Alloc_state.sync_bw st ~node:server);
  let inside = Alloc_state.counts_at st ~node:server in
  let out, into = Bandwidth.required Bandwidth.Tag_model tag ~inside in
  check_float "up matches" out (Tree.reserved_up tree server);
  check_float "down matches" into (Tree.reserved_down tree server);
  (* Re-sync after more placements adjusts by delta, not by re-adding. *)
  ignore (Alloc_state.place st ~server ~comp:1 ~n:2 : bool);
  Alcotest.(check bool) "re-sync ok" true (Alloc_state.sync_bw st ~node:server);
  let inside = Alloc_state.counts_at st ~node:server in
  let out2, _ = Bandwidth.required Bandwidth.Tag_model tag ~inside in
  check_float "up re-synced" out2 (Tree.reserved_up tree server)

let test_state_rollback_checkpoint () =
  let tree = Tree.create spec in
  let tag = Examples.storm ~s:4 ~b:10. in
  let st = Alloc_state.create tree tag in
  let server = (Tree.servers tree).(0) in
  ignore (Alloc_state.place st ~server ~comp:0 ~n:1 : bool);
  ignore (Alloc_state.sync_bw st ~node:server : bool);
  let cp = Alloc_state.checkpoint st in
  ignore (Alloc_state.place st ~server ~comp:1 ~n:4 : bool);
  ignore (Alloc_state.sync_bw st ~node:server : bool);
  Alloc_state.rollback_to st cp;
  Alcotest.(check int) "counts restored" 0
    (Alloc_state.count st ~node:server ~comp:1);
  Alcotest.(check int) "slots restored" 7 (Tree.free_slots tree server);
  let inside = Alloc_state.counts_at st ~node:server in
  let out, _ = Bandwidth.required Bandwidth.Tag_model tag ~inside in
  check_float "bw restored to checkpoint" out (Tree.reserved_up tree server)

let test_state_ha_cap () =
  let tree = Tree.create spec in
  let tag = Tag.hose ~tier:"t" ~size:8 ~bw:1. () in
  let ha = { Types.rwcs = 0.5; laa_level = 0 } in
  let st = Alloc_state.create ~ha tree tag in
  let server = (Tree.servers tree).(0) in
  Alcotest.(check int) "cap is 4" 4
    (Alloc_state.ha_cap st ~node:server ~comp:0);
  Alcotest.(check bool) "within cap" true
    (Alloc_state.place st ~server ~comp:0 ~n:4);
  Alcotest.(check bool) "beyond cap rejected" false
    (Alloc_state.place st ~server ~comp:0 ~n:1);
  Alcotest.(check int) "cap exhausted" 0
    (Alloc_state.ha_cap st ~node:server ~comp:0)

let test_state_server_locations () =
  let tree = Tree.create spec in
  let tag = Examples.storm ~s:4 ~b:10. in
  let st = Alloc_state.create tree tag in
  let s0 = (Tree.servers tree).(0) and s1 = (Tree.servers tree).(1) in
  ignore (Alloc_state.place st ~server:s0 ~comp:0 ~n:2 : bool);
  ignore (Alloc_state.place st ~server:s1 ~comp:0 ~n:2 : bool);
  ignore (Alloc_state.place st ~server:s1 ~comp:2 ~n:1 : bool);
  let locations = Alloc_state.server_locations st in
  Alcotest.(check (list (pair int int))) "comp0" [ (s0, 2); (s1, 2) ]
    locations.(0);
  Alcotest.(check (list (pair int int))) "comp2" [ (s1, 1) ] locations.(2);
  Alcotest.(check (list (pair int int))) "comp1 empty" [] locations.(1)

(* {1 Refusal before recursion: [Alloc_state.uplink_refuses]}

   Cases sit under one ToR of a two-rack tree whose servers have room for
   any sub-group.  The ToR holds a random base placement, synced for real,
   so its baseline is a real [sync_bw]'s.  Its residual is then set near
   one sub-group's need (exactly at it, a hair either side, or anywhere),
   so refusals and near misses both occur.  Whenever the predicate
   refuses, placing any nonzero sub-group of the group on the ToR's
   server and syncing the ToR must fail. *)

let refuse_spec =
  {
    Tree.degrees = [ 2; 2 ];
    slots_per_server = 500;
    server_up_mbps = 1e7;
    oversub = [ 1. ];
  }

let refuse_tag_gen =
  let open QCheck.Gen in
  let* n_comp = int_range 1 4 in
  let* n_ext = int_range 0 1 in
  let* sizes = list_repeat n_comp (int_range 1 6) in
  let* vm_slots = list_repeat n_comp (int_range 1 3) in
  let n_total = n_comp + n_ext in
  let pairs =
    List.concat_map
      (fun i ->
        List.filter_map
          (fun j -> if i >= n_comp && j >= n_comp then None else Some (i, j))
          (List.init n_total Fun.id))
      (List.init n_total Fun.id)
  in
  let pick (i, j) =
    let* keep = bool in
    if not keep then return None
    else
      let* s = float_range 0. 1000. in
      if i = j then return (Some (i, j, s, s))
      else
        let* r = float_range 0. 1000. in
        return (Some (i, j, s, r))
  in
  let* edges = flatten_l (List.map pick pairs) in
  return
    (Tag.create ~vm_slots
       ~externals:(List.init n_ext (Printf.sprintf "x%d"))
       ~components:(List.mapi (fun i n -> (Printf.sprintf "c%d" i, n)) sizes)
       ~edges:(List.filter_map Fun.id edges)
       ())

(* A residual relative to one sub-group's need: the sub-group's index
   (taken modulo their number), a factor on its need, and an amount
   taken off it, inside or outside the fit test's [bw_epsilon]. *)
let residual_gen =
  let open QCheck.Gen in
  triple nat
    (frequency
       [
         (2, return 1.);
         (1, return (1. -. 1e-12));
         (1, return (1. +. 1e-12));
         (1, return 0.);
         (3, float_range 0. 1.5);
       ])
    (oneofl [ 0.; 0.5 *. Tree.bw_epsilon; 2. *. Tree.bw_epsilon ])

let refuse_case =
  let open QCheck.Gen in
  let gen =
    let* tag = refuse_tag_gen in
    let n = Tag.n_components tag in
    let* model =
      oneofl Bandwidth.[ Tag_model; Hose_model; Voc_model ]
    in
    let* base =
      flatten_l (List.init n (fun c -> int_range 0 (Tag.size tag c)))
    in
    let base = Array.of_list base in
    let* a = int_range 0 (n - 1) in
    let* b = int_range 0 (n - 1) in
    let* two = bool in
    let* fa = float_range 0. 1. and* fb = float_range 0. 1. in
    let group = Array.make n 0 in
    let take c f =
      let room = Tag.size tag c - base.(c) in
      group.(c) <- (if room = 0 then 0 else 1 + int_of_float (f *. float_of_int (room - 1)))
    in
    take a fa;
    if two && b <> a then take b fb;
    let* up = residual_gen and* down = residual_gen in
    return (tag, model, base, group, up, down)
  in
  let print (tag, model, base, group, (iu, fu, ou), (id, fd, od)) =
    let ints a = String.concat "; " (Array.to_list (Array.map string_of_int a)) in
    Printf.sprintf
      "%s\nmodel %s\nbase [%s]\ngroup [%s]\nup %d %h %h, down %d %h %h"
      (Tag.to_string tag) (Bandwidth.model_name model) (ints base) (ints group)
      iu fu ou id fd od
  in
  QCheck.make ~print gen

(* Every nonzero [y <= group], in lexicographic order. *)
let sub_groups group =
  let n = Array.length group in
  let rec go c acc =
    if c = n then [ Array.of_list (List.rev acc) ]
    else List.concat_map (fun k -> go (c + 1) (k :: acc)) (List.init (group.(c) + 1) Fun.id)
  in
  List.filter (Array.exists (fun k -> k > 0)) (go 0 [])

let prop_uplink_refuses_sound =
  QCheck.Test.make ~name:"uplink_refuses only when every sub-group fails sync"
    ~count:1000 refuse_case
    (fun (tag, model, base, group, (iu, fu, ou), (id, fd, od)) ->
      let tree = Tree.create refuse_spec in
      let server = (Tree.servers tree).(0) in
      let node = Option.get (Tree.parent tree server) in
      let st = Alloc_state.create ~model tree tag in
      Array.iteri
        (fun comp n -> assert (Alloc_state.place st ~server ~comp ~n))
        base;
      assert (Alloc_state.sync_bw st ~node);
      let cur_up = Tree.reserved_up tree node
      and cur_down = Tree.reserved_down tree node in
      let subs = Array.of_list (sub_groups group) in
      if Array.length subs = 0 then
        not (Alloc_state.uplink_refuses st ~node ~group)
      else begin
        let need y =
          let inside = Array.mapi (fun c k -> base.(c) + k) y in
          let up, down = Bandwidth.required model tag ~inside in
          (up -. cur_up, down -. cur_down)
        in
        let residual i f off dir =
          Float.max 0.
            ((f *. dir (need subs.(i mod Array.length subs))) -. off)
        in
        let cap = Tree.uplink_capacity tree node in
        Tree.unchecked_set_bw tree ~node
          ~up:(cap -. residual iu fu ou fst)
          ~down:(cap -. residual id fd od snd);
        (not (Alloc_state.uplink_refuses st ~node ~group))
        || Array.for_all
             (fun y ->
               let cp = Alloc_state.checkpoint st in
               Array.iteri
                 (fun comp n -> assert (Alloc_state.place st ~server ~comp ~n))
                 y;
               let synced = Alloc_state.sync_bw st ~node in
               Alloc_state.rollback_to st cp;
               not synced)
             subs
      end)

(* An 8-VM hose with one VM under a ToR whose uplink has nothing left:
   one or two more VMs there raise its requirement, so the TAG model
   refuses.  Pipe accounting is
   bilinear, not concave, and is never refused. *)
let refuse_setup model =
  let tree = Tree.create refuse_spec in
  let server = (Tree.servers tree).(0) in
  let node = Option.get (Tree.parent tree server) in
  let tag = Tag.hose ~tier:"t" ~size:8 ~bw:10. () in
  let st = Alloc_state.create ~model tree tag in
  assert (Alloc_state.place st ~server ~comp:0 ~n:1);
  assert (Alloc_state.sync_bw st ~node);
  let cap = Tree.uplink_capacity tree node in
  Tree.unchecked_set_bw tree ~node ~up:cap ~down:cap;
  (st, node)

let test_state_refuses_tag_not_pipe () =
  let group = [| 2 |] in
  let st, node = refuse_setup Bandwidth.Tag_model in
  Alcotest.(check bool) "TAG refuses a full uplink" true
    (Alloc_state.uplink_refuses st ~node ~group);
  let st, node = refuse_setup Bandwidth.Pipe_model in
  Alcotest.(check bool) "pipe is never refused" false
    (Alloc_state.uplink_refuses st ~node ~group)

let test_state_refuses_allocates_nothing () =
  let st, node = refuse_setup Bandwidth.Tag_model in
  let group = [| 2 |] in
  let refused = ref true in
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    refused := !refused && Alloc_state.uplink_refuses st ~node ~group
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool) "refused every time" true !refused;
  Alcotest.(check (float 0.)) "minor words" 0. words

(* {1 Subtree helpers} *)

let test_subtree_all_under () =
  let tree = Tree.create spec in
  let root = Tree.root tree in
  Alcotest.(check int) "all nodes" (Tree.n_nodes tree)
    (List.length (Subtree.all_under tree root));
  let tor = (Tree.nodes_at_level tree 1).(0) in
  (* 4 servers + the ToR itself. *)
  Alcotest.(check int) "tor subtree" 5 (List.length (Subtree.all_under tree tor));
  (* Ascending level order: servers first. *)
  match Subtree.all_under tree tor with
  | first :: _ -> Alcotest.(check bool) "server first" true (Tree.is_server tree first)
  | [] -> Alcotest.fail "empty"

let test_subtree_contains () =
  let tree = Tree.create spec in
  let tor = (Tree.nodes_at_level tree 1).(0) in
  let lo, hi = Tree.server_range tree tor in
  Alcotest.(check bool) "contains own server" true
    (Subtree.contains tree ~root:tor lo);
  Alcotest.(check bool) "contains itself" true
    (Subtree.contains tree ~root:tor tor);
  Alcotest.(check bool) "not foreign server" false
    (Subtree.contains tree ~root:tor (hi + 1));
  Alcotest.(check bool) "not the root" false
    (Subtree.contains tree ~root:tor (Tree.root tree))

(* {1 Oktopus} *)

let test_oktopus_places_and_releases () =
  let tree = Tree.create spec in
  let sched = Oktopus.create tree in
  let tag = Examples.three_tier ~b1:20. ~b2:10. ~b3:5. () in
  match Oktopus.place sched (Types.request tag) with
  | Error r -> Alcotest.failf "rejected: %s" (Types.reject_to_string r)
  | Ok p ->
      Alcotest.(check int) "all placed" (Tag.total_vms tag)
        (Types.vm_count p.locations);
      Oktopus.release sched p;
      check_float "released" 0. (total_reserved tree);
      Alcotest.(check int) "slots back" (Tree.total_slots tree)
        (Tree.free_slots_subtree tree (Tree.root tree))

let test_oktopus_reservations_are_voc () =
  (* Oktopus must reserve exactly the VOC requirement for its placement. *)
  let tree = Tree.create spec in
  let sched = Oktopus.create tree in
  let tag = Examples.storm ~s:6 ~b:30. in
  match Oktopus.place sched (Types.request tag) with
  | Error r -> Alcotest.failf "rejected: %s" (Types.reject_to_string r)
  | Ok p ->
      let n_comp = Tag.n_components tag in
      for node = 0 to Tree.n_nodes tree - 1 do
        if node <> Tree.root tree then begin
          let lo, hi = Tree.server_range tree node in
          let inside = Array.make n_comp 0 in
          Array.iteri
            (fun c placed ->
              List.iter
                (fun (s, n) ->
                  if s >= lo && s <= hi then inside.(c) <- inside.(c) + n)
                placed)
            p.locations;
          let out, into = Bandwidth.required Bandwidth.Voc_model tag ~inside in
          check_float (Printf.sprintf "node %d up" node) out
            (Tree.reserved_up tree node);
          check_float (Printf.sprintf "node %d down" node) into
            (Tree.reserved_down tree node)
        end
      done

let test_oktopus_packs_clusters () =
  (* With no bandwidth pressure, each cluster lands on as few servers as
     possible (maximal colocation). *)
  let tree = Tree.create { spec with server_up_mbps = 1e9 } in
  let sched = Oktopus.create tree in
  let tag =
    Tag.create ~components:[ ("a", 8); ("b", 8) ]
      ~edges:[ (0, 1, 10., 10.) ]
      ()
  in
  match Oktopus.place sched (Types.request tag) with
  | Error r -> Alcotest.failf "rejected: %s" (Types.reject_to_string r)
  | Ok p ->
      Array.iteri
        (fun c placed ->
          Alcotest.(check int)
            (Printf.sprintf "cluster %d on one server" c)
            1 (List.length placed))
        p.locations

let test_oktopus_ha_spreads () =
  let tree = Tree.create spec in
  let sched = Oktopus.create tree in
  let tag = Tag.hose ~tier:"t" ~size:8 ~bw:10. () in
  let ha = { Types.rwcs = 0.75; laa_level = 0 } in
  match Oktopus.place sched (Types.request ~ha tag) with
  | Error r -> Alcotest.failf "rejected: %s" (Types.reject_to_string r)
  | Ok p ->
      List.iter
        (fun (_, n) -> Alcotest.(check bool) "<=2 per server" true (n <= 2))
        p.locations.(0)

let test_oktopus_rejects_too_big () =
  let tree = Tree.create spec in
  let sched = Oktopus.create tree in
  let tag = Tag.hose ~tier:"t" ~size:100 ~bw:1. () in
  match Oktopus.place sched (Types.request tag) with
  | Error Types.No_slots -> ()
  | Error Types.No_bandwidth -> Alcotest.fail "expected No_slots"
  | Ok _ -> Alcotest.fail "expected rejection"

(* {1 SecondNet} *)

let test_secondnet_places_and_releases () =
  let tree = Tree.create spec in
  let sched = Secondnet.create tree in
  let tag = Examples.storm ~s:3 ~b:20. in
  match Secondnet.place sched (Types.request tag) with
  | Error r -> Alcotest.failf "rejected: %s" (Types.reject_to_string r)
  | Ok p ->
      Alcotest.(check int) "all placed" 12 (Types.vm_count p.locations);
      Secondnet.release sched p;
      check_float "released" 0. (total_reserved tree)

let test_secondnet_localizes () =
  (* A heavily-communicating pair should land close together. *)
  let tree = Tree.create spec in
  let sched = Secondnet.create tree in
  let tag =
    Tag.create ~components:[ ("a", 2); ("b", 2) ]
      ~edges:[ (0, 1, 400., 400.) ]
      ()
  in
  match Secondnet.place sched (Types.request tag) with
  | Error r -> Alcotest.failf "rejected: %s" (Types.reject_to_string r)
  | Ok p ->
      let racks =
        Array.to_list p.locations
        |> List.concat_map (List.map (fun (s, _) -> Option.get (Tree.parent tree s)))
        |> List.sort_uniq compare
      in
      Alcotest.(check int) "one rack" 1 (List.length racks)

let test_secondnet_respects_pipe_capacity () =
  (* Per-pipe reservations must never oversubscribe a link. *)
  let tree = Tree.create spec in
  let sched = Secondnet.create tree in
  let tags =
    List.init 6 (fun i ->
        Tag.with_name (Examples.storm ~s:2 ~b:50.) (Printf.sprintf "t%d" i))
  in
  List.iter
    (fun tag -> ignore (Secondnet.place sched (Types.request tag)))
    tags;
  for node = 0 to Tree.n_nodes tree - 1 do
    if node <> Tree.root tree then begin
      Alcotest.(check bool) "up within capacity" true
        (Tree.reserved_up tree node
        <= Tree.uplink_capacity tree node +. 1e-6);
      Alcotest.(check bool) "down within capacity" true
        (Tree.reserved_down tree node
        <= Tree.uplink_capacity tree node +. 1e-6)
    end
  done

let test_secondnet_rejects_oversized () =
  let tree = Tree.create spec in
  let sched = Secondnet.create tree in
  let tag = Tag.hose ~tier:"t" ~size:80 ~bw:1. () in
  match Secondnet.place sched (Types.request tag) with
  | Error Types.No_slots -> ()
  | Error Types.No_bandwidth | Ok _ -> Alcotest.fail "expected No_slots"

let test_oktopus_localizes_tenant_clusters () =
  (* The "common subtree" improvement: with room to spare, all clusters
     of one tenant land under the lowest subtree that fits the whole
     tenant, not scattered across the datacenter. *)
  let big_spec = { spec with Tree.degrees = [ 4; 4 ] } in
  let tree = Tree.create big_spec in
  let sched = Oktopus.create tree in
  let tag = Examples.storm ~s:8 ~b:1. in
  match Oktopus.place sched (Types.request tag) with
  | Error r -> Alcotest.failf "rejected: %s" (Types.reject_to_string r)
  | Ok p ->
      let racks =
        Array.to_list p.locations
        |> List.concat_map
             (List.map (fun (s, _) -> Option.get (Tree.parent tree s)))
        |> List.sort_uniq compare
      in
      (* 32 VMs fit in one 32-slot rack. *)
      Alcotest.(check int) "single rack" 1 (List.length racks)

let test_secondnet_ha_support () =
  let tree = Tree.create spec in
  let sched = Secondnet.create tree in
  let tag = Tag.hose ~tier:"t" ~size:8 ~bw:5. () in
  let ha = { Types.rwcs = 0.75; laa_level = 0 } in
  match Secondnet.place sched (Types.request ~ha tag) with
  | Error r -> Alcotest.failf "rejected: %s" (Types.reject_to_string r)
  | Ok p ->
      List.iter
        (fun (_, n) -> Alcotest.(check bool) "<= 2 per server" true (n <= 2))
        p.locations.(0)

(* Oktopus's live reservations equal the VOC requirement for arbitrary
   random TAGs (the OVOC counterpart of CM's exactness property). *)
let prop_oktopus_reservations_voc_exact =
  QCheck.Test.make ~name:"OVOC reservations equal VOC pricing" ~count:80
    QCheck.(pair (int_range 1 3) (int_range 1 60))
    (fun (n_comp, bw) ->
      let components =
        List.init n_comp (fun i -> (Printf.sprintf "c%d" i, 2 + i))
      in
      let edges =
        List.concat
          (List.init n_comp (fun i ->
               if i + 1 < n_comp then
                 [ (i, i + 1, float_of_int bw, float_of_int bw) ]
               else [ (i, i, float_of_int bw, float_of_int bw) ]))
      in
      let tag = Tag.create ~components ~edges () in
      let tree = Tree.create spec in
      let sched = Oktopus.create tree in
      match Oktopus.place sched (Types.request tag) with
      | Error _ -> true
      | Ok p ->
          let ok = ref true in
          for node = 0 to Tree.n_nodes tree - 1 do
            if node <> Tree.root tree then begin
              let lo, hi = Tree.server_range tree node in
              let inside = Array.make (Tag.n_components tag) 0 in
              Array.iteri
                (fun c placed ->
                  List.iter
                    (fun (s, n) ->
                      if s >= lo && s <= hi then inside.(c) <- inside.(c) + n)
                    placed)
                p.locations;
              let out, into =
                Bandwidth.required Bandwidth.Voc_model tag ~inside
              in
              if
                Float.abs (out -. Tree.reserved_up tree node) > 1e-6
                || Float.abs (into -. Tree.reserved_down tree node) > 1e-6
              then ok := false
            end
          done;
          !ok)

(* {1 The VC rendering and its scheduler} *)

let test_vc_conversion () =
  let tag = Examples.three_tier ~b1:100. ~b2:40. ~b3:30. () in
  let vc = Cm_tag.Convert.to_vc tag in
  Alcotest.(check int) "one component" 1 (Tag.n_components vc);
  Alcotest.(check int) "same vms" (Tag.total_vms tag) (Tag.total_vms vc);
  (* Logic tier is the hungriest: 100 + 40 per VM. *)
  check_float "hose rate" 140. (Cm_tag.Convert.vc_per_vm_bw tag);
  Alcotest.(check bool) "hose self-loop" true (Tag.self_loop vc 0 <> None)

let test_vc_conversion_singleton () =
  let tag = Tag.create ~components:[ ("only", 1) ] ~edges:[] () in
  let vc = Cm_tag.Convert.to_vc tag in
  Alcotest.(check int) "kept vm" 1 (Tag.total_vms vc);
  Alcotest.(check int) "no edges" 0 (Array.length (Tag.edges vc))

let test_vc_scheduler_works_and_overreserves () =
  let tag = Examples.storm ~s:4 ~b:50. in
  (* VC renders every VM at the max per-VM rate (100), so the same
     placement reserves more than TAG would. *)
  let tree = Tree.create spec in
  let vc_sched = Cm_sim.Driver.vc tree in
  (match vc_sched.Cm_sim.Driver.place (Types.request tag) with
  | Error r -> Alcotest.failf "OVC rejected: %s" (Types.reject_to_string r)
  | Ok p ->
      Alcotest.(check int) "all placed" 16 (Types.vm_count p.locations);
      Alcotest.(check int) "collapsed tag" 1 (Tag.n_components p.req.tag);
      vc_sched.Cm_sim.Driver.release p);
  check_float "clean release" 0. (total_reserved tree)

let test_vc_rejects_more_than_cm () =
  (* A tenant whose per-VM demands are heterogeneous: the homogeneous VC
     hose must assume the max everywhere and fails where CM+TAG fits. *)
  let tag =
    Tag.create ~name:"skewed"
      ~components:[ ("hot", 2); ("cold", 30) ]
      ~edges:[ (0, 0, 900., 900.); (1, 1, 10., 10.) ]
      ()
  in
  let cm_tree = Tree.create spec in
  let cm_ok =
    match (Cm_sim.Driver.cm cm_tree).place (Types.request tag) with
    | Ok _ -> true
    | Error _ -> false
  in
  let vc_tree = Tree.create spec in
  let vc_ok =
    match (Cm_sim.Driver.vc vc_tree).place (Types.request tag) with
    | Ok _ -> true
    | Error _ -> false
  in
  Alcotest.(check bool) "CM accepts" true cm_ok;
  Alcotest.(check bool) "OVC rejects" false vc_ok

(* {1 Round-robin strawman} *)

let test_round_robin_spreads () =
  let tree = Tree.create spec in
  let sched = Cm_sim.Driver.round_robin tree in
  let tag = Tag.hose ~tier:"t" ~size:8 ~bw:1000. () in
  match sched.Cm_sim.Driver.place (Types.request tag) with
  | Error _ -> Alcotest.fail "round robin only checks slots"
  | Ok p ->
      (* One VM per server, and no bandwidth reserved at all. *)
      List.iter
        (fun (_, n) -> Alcotest.(check int) "1 per server" 1 n)
        p.locations.(0);
      check_float "reserves nothing" 0. (total_reserved tree);
      sched.Cm_sim.Driver.release p;
      Alcotest.(check int) "slots restored" (Tree.total_slots tree)
        (Tree.free_slots_subtree tree (Tree.root tree))

let test_round_robin_slot_rejection () =
  let tree = Tree.create spec in
  let sched = Cm_sim.Driver.round_robin tree in
  let tag = Tag.hose ~tier:"t" ~size:100 ~bw:1. () in
  match sched.Cm_sim.Driver.place (Types.request tag) with
  | Error Types.No_slots ->
      Alcotest.(check int) "nothing leaked" (Tree.total_slots tree)
        (Tree.free_slots_subtree tree (Tree.root tree))
  | Error Types.No_bandwidth | Ok _ -> Alcotest.fail "expected No_slots"

(* {1 Eq. 4 verification ablation} *)

let test_no_eq4_verify_policy_places () =
  let tree = Tree.create spec in
  let policy =
    { Cm_placement.Cm.default_policy with verify_trunk_savings = false }
  in
  let sched = Cm_placement.Cm.create ~policy tree in
  let tag = Examples.storm ~s:6 ~b:30. in
  match Cm_placement.Cm.place sched (Types.request tag) with
  | Error r -> Alcotest.failf "rejected: %s" (Types.reject_to_string r)
  | Ok p ->
      Alcotest.(check int) "placed" 24 (Types.vm_count p.locations);
      (* Reservations are still exact regardless of the colocation
         scoring. *)
      let n_comp = Tag.n_components tag in
      for node = 0 to Tree.n_nodes tree - 1 do
        if node <> Tree.root tree then begin
          let lo, hi = Tree.server_range tree node in
          let inside = Array.make n_comp 0 in
          Array.iteri
            (fun c placed ->
              List.iter
                (fun (s, n) ->
                  if s >= lo && s <= hi then inside.(c) <- inside.(c) + n)
                placed)
            p.locations;
          let out, _ = Bandwidth.required Bandwidth.Tag_model tag ~inside in
          check_float
            (Printf.sprintf "node %d" node)
            out (Tree.reserved_up tree node)
        end
      done;
      Cm_placement.Cm.release sched p

(* All three algorithms agree on feasibility of easy tenants and restore
   the tree when the tenant departs. *)
let prop_all_algorithms_clean_release =
  QCheck.Test.make ~name:"all algorithms release exactly" ~count:25
    QCheck.(pair (int_range 1 10) (int_range 1 30))
    (fun (size, bw) ->
      let tag = Tag.hose ~tier:"t" ~size ~bw:(float_of_int bw) () in
      List.for_all
        (fun make ->
          let tree = Tree.create spec in
          let sched = make tree in
          (match sched.Cm_sim.Driver.place (Types.request tag) with
          | Ok p -> sched.Cm_sim.Driver.release p
          | Error _ -> ());
          (* Fractional pipe rates leave sub-epsilon float residue. *)
          Float.abs (total_reserved tree) < Tree.bw_epsilon
          && Tree.free_slots_subtree tree (Tree.root tree)
             = Tree.total_slots tree)
        [ Cm_sim.Driver.cm; Cm_sim.Driver.oktopus; Cm_sim.Driver.secondnet ])

let () =
  Alcotest.run "cm_baselines"
    [
      ( "alloc-state",
        [
          Alcotest.test_case "place and counts" `Quick test_state_place_and_counts;
          Alcotest.test_case "over capacity" `Quick test_state_place_over_capacity;
          Alcotest.test_case "sync matches Eq.1" `Quick test_state_sync_bw_matches_eq1;
          Alcotest.test_case "rollback to checkpoint" `Quick
            test_state_rollback_checkpoint;
          Alcotest.test_case "ha cap" `Quick test_state_ha_cap;
          Alcotest.test_case "server locations" `Quick test_state_server_locations;
          Alcotest.test_case "refuses under TAG, never under pipe" `Quick
            test_state_refuses_tag_not_pipe;
          Alcotest.test_case "refusal test allocates nothing" `Quick
            test_state_refuses_allocates_nothing;
          QCheck_alcotest.to_alcotest prop_uplink_refuses_sound;
        ] );
      ( "subtree",
        [
          Alcotest.test_case "all_under" `Quick test_subtree_all_under;
          Alcotest.test_case "contains" `Quick test_subtree_contains;
        ] );
      ( "oktopus",
        [
          Alcotest.test_case "place/release" `Quick test_oktopus_places_and_releases;
          Alcotest.test_case "VOC reservations" `Quick
            test_oktopus_reservations_are_voc;
          Alcotest.test_case "packs clusters" `Quick test_oktopus_packs_clusters;
          Alcotest.test_case "ha spreads" `Quick test_oktopus_ha_spreads;
          Alcotest.test_case "rejects too big" `Quick test_oktopus_rejects_too_big;
          Alcotest.test_case "localizes clusters" `Quick
            test_oktopus_localizes_tenant_clusters;
          QCheck_alcotest.to_alcotest prop_oktopus_reservations_voc_exact;
        ] );
      ( "secondnet",
        [
          Alcotest.test_case "place/release" `Quick test_secondnet_places_and_releases;
          Alcotest.test_case "localizes pairs" `Quick test_secondnet_localizes;
          Alcotest.test_case "pipe capacity" `Quick
            test_secondnet_respects_pipe_capacity;
          Alcotest.test_case "rejects oversized" `Quick test_secondnet_rejects_oversized;
          Alcotest.test_case "ha support" `Quick test_secondnet_ha_support;
        ] );
      ( "round-robin",
        [
          Alcotest.test_case "spreads, reserves nothing" `Quick
            test_round_robin_spreads;
          Alcotest.test_case "slot rejection" `Quick
            test_round_robin_slot_rejection;
        ] );
      ( "ablation-flags",
        [
          Alcotest.test_case "no Eq.4 verify still exact" `Quick
            test_no_eq4_verify_policy_places;
        ] );
      ( "vc",
        [
          Alcotest.test_case "conversion" `Quick test_vc_conversion;
          Alcotest.test_case "singleton" `Quick test_vc_conversion_singleton;
          Alcotest.test_case "scheduler" `Quick
            test_vc_scheduler_works_and_overreserves;
          Alcotest.test_case "rejects more than CM" `Quick
            test_vc_rejects_more_than_cm;
        ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_all_algorithms_clean_release ] );
    ]
