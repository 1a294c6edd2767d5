(* ISSUE 8 guard-rails for the region-scale placement machinery:

   - qcheck property: random interleavings of take/return/reserve/
     checkpoint/rollback/commit/release keep the incremental
     availability index consistent with a from-scratch rebuild
     ([Tree.index_verify] oracle), with lazy [find_lowest] queries
     mixed in mid-transaction.
   - oracle differential: [find_lowest] and [find_lowest_under] at the
     tree root with infinite clamps both equal a brute-force argmin
     over the level's nodes, per query.
   - [Subtree.all_under_array] against an independent recursive
     reference, for every node of the tree.
   - [Shard.place_batch]: identical results at any domain count,
     pristine tree after releasing everything, and the cross-pod
     conflict path (serial re-placement through the coordinator)
     actually exercised at a low [pod_level]. *)

module Tree = Cm_topology.Tree
module Reservation = Cm_topology.Reservation
module Tag = Cm_tag.Tag
module Bandwidth = Cm_tag.Bandwidth
module Examples = Cm_tag.Examples
module Types = Cm_placement.Types
module Subtree = Cm_placement.Subtree
module Shard = Cm_placement.Shard
module Cm = Cm_placement.Cm
module Metrics = Cm_obs.Metrics
module Rng = Cm_util.Rng

let diff_spec =
  {
    Tree.degrees = [ 2; 4; 4 ];
    slots_per_server = 4;
    server_up_mbps = 1000.;
    oversub = [ 2.; 2. ];
  }

let pod_spec =
  {
    Tree.degrees = [ 4; 4; 4 ];
    slots_per_server = 4;
    server_up_mbps = 1000.;
    oversub = [ 2.; 2. ];
  }

let random_tag rng =
  let bw lo hi = Rng.range_float rng ~lo ~hi in
  match Rng.int rng 4 with
  | 0 -> Examples.batch ~size:(2 + Rng.int rng 8) ~bw:(bw 20. 200.) ()
  | 1 ->
      Examples.three_tier ~n_web:(1 + Rng.int rng 3)
        ~n_logic:(1 + Rng.int rng 3) ~n_db:(1 + Rng.int rng 3) ~b1:(bw 10. 120.)
        ~b2:(bw 10. 120.) ~b3:(bw 5. 60.) ()
  | 2 -> Examples.storm ~s:(1 + Rng.int rng 3) ~b:(bw 5. 60.)
  | _ ->
      Examples.fig5 ~n1:(1 + Rng.int rng 3) ~n2:(1 + Rng.int rng 3)
        ~b1:(bw 10. 150.) ~b2:(bw 10. 150.) ~b2_in:(bw 0. 80.)

(* {1 qcheck: index consistent with a from-scratch rebuild}

   Drive the raw reservation journal through random interleavings —
   exactly the mutation paths [Cm.place]/[release]/rollback use — and
   assert the lazily-maintained index matches a full bottom-up
   recomputation.  Lazy queries run mid-transaction so cleaning
   interleaves with dirtying. *)

(* FindLowestSubtree by its per-candidate definition: among the level's
   nodes with room for the tenant and enough path-to-root bandwidth for
   [ext], the fewest free slots, ties to the lowest id. *)
let brute_find_lowest tree ~total_vms ~ext:(ext_out, ext_in) ~level =
  let eps = Tree.bw_epsilon in
  let best = ref None in
  Array.iter
    (fun id ->
      let free = Tree.free_slots_subtree tree id in
      let up, down = Tree.available_to_root tree id in
      if free >= total_vms && up +. eps >= ext_out && down +. eps >= ext_in
      then
        match !best with
        | Some (bf, _) when bf <= free -> ()
        | _ -> best := Some (free, id))
    (Tree.nodes_at_level tree level);
  Option.map snd !best

let lazy_query tree rng =
  let level = Rng.int rng (Tree.n_levels tree - 1) in
  let total_vms = 1 + Rng.int rng 6 in
  let ext =
    (Rng.range_float rng ~lo:0. ~hi:400., Rng.range_float rng ~lo:0. ~hi:400.)
  in
  let expect = brute_find_lowest tree ~total_vms ~ext ~level in
  if Subtree.find_lowest tree ~total_vms ~ext ~level <> expect then
    QCheck.Test.fail_reportf "find_lowest differs from brute force at level %d"
      level

let prop_index_interleavings =
  QCheck.Test.make ~name:"random journal interleavings keep index exact"
    ~count:60 QCheck.small_int (fun seed ->
      let tree = Tree.create diff_spec in
      let rng = Rng.create (seed + 1) in
      let root = Tree.root tree in
      let n_servers = Tree.n_servers tree in
      let n_nodes = Tree.n_nodes tree in
      let committed = ref [] in
      for _round = 1 to 6 do
        let txn = Reservation.start tree in
        let cps = ref [] in
        for _op = 1 to 25 do
          match Rng.int rng 6 with
          | 0 ->
              ignore
                (Reservation.take_slots txn ~server:(Rng.int rng n_servers)
                   (1 + Rng.int rng 3))
          | 1 ->
              let node = Rng.int rng n_nodes in
              if node <> root then
                ignore
                  (Reservation.reserve_bw txn ~node
                     ~up:(Rng.range_float rng ~lo:0. ~hi:300.)
                     ~down:(Rng.range_float rng ~lo:0. ~hi:300.))
          | 2 ->
              ignore
                (Reservation.return_slots txn ~server:(Rng.int rng n_servers)
                   (1 + Rng.int rng 2))
          | 3 -> cps := Reservation.checkpoint txn :: !cps
          | 4 -> (
              match !cps with
              | [] -> ()
              | cp :: rest ->
                  Reservation.rollback_to txn cp;
                  cps := rest)
          | _ -> lazy_query tree rng
        done;
        if Rng.int rng 3 = 0 then Reservation.rollback txn
        else committed := Reservation.commit txn :: !committed;
        (match !committed with
        | c :: rest when Rng.int rng 2 = 0 ->
            Reservation.release tree c;
            committed := rest
        | _ -> ());
        if not (Tree.index_verify tree) then
          QCheck.Test.fail_report "index diverged from rebuild mid-workload"
      done;
      List.iter (Reservation.release tree) !committed;
      if not (Tree.index_verify tree) then
        QCheck.Test.fail_report "index diverged after releasing everything";
      if Tree.free_slots_subtree tree root <> Tree.total_slots tree then
        QCheck.Test.fail_report "slots not restored after releasing everything";
      true)

(* {1 find_lowest_under at the root == find_lowest} *)

let test_under_root_is_global () =
  let tree = Tree.create diff_spec in
  let sched = Cm.create tree in
  let rng = Rng.create 7 in
  for _ = 1 to 10 do
    ignore (Cm.place sched (Types.request (random_tag rng)))
  done;
  let root = Tree.root tree in
  (* Load uplinks unevenly so that path bandwidth, not only free slots,
     decides which candidates qualify. *)
  let txn = Reservation.start tree in
  for _ = 1 to 40 do
    let node = Rng.int rng (Tree.n_nodes tree) in
    if node <> root then
      ignore
        (Reservation.reserve_bw txn ~node
           ~up:(Rng.range_float rng ~lo:0. ~hi:500.)
           ~down:(Rng.range_float rng ~lo:0. ~hi:500.))
  done;
  ignore (Reservation.commit txn);
  for level = 0 to Tree.n_levels tree - 2 do
    for vms = 1 to 6 do
      for k = 0 to 4 do
        let ext = (float_of_int (k * 100), float_of_int ((4 - k) * 100)) in
        let expect = brute_find_lowest tree ~total_vms:vms ~ext ~level in
        let global = Subtree.find_lowest tree ~total_vms:vms ~ext ~level in
        let scoped =
          Subtree.find_lowest_under tree ~root ~clamps:(infinity, infinity)
            ~total_vms:vms ~ext ~level
        in
        let name = Printf.sprintf "level %d, %d VMs, ext %d" level vms k in
        Alcotest.(check (option int)) (name ^ ": global") expect global;
        Alcotest.(check (option int)) (name ^ ": scoped") expect scoped
      done
    done
  done;
  Alcotest.(check bool) "index verifies after queries" true
    (Tree.index_verify tree)

(* {1 all_under_array vs. an independent recursive reference} *)

let test_all_under_array () =
  let tree = Tree.create diff_spec in
  let reference root =
    (* Collect the subtree by child recursion, then order by (level, id)
       — the documented contract. *)
    let acc = ref [] in
    let rec go id =
      acc := id :: !acc;
      Array.iter go (Tree.children tree id)
    in
    go root;
    List.sort
      (fun a b ->
        match compare (Tree.level tree a) (Tree.level tree b) with
        | 0 -> compare a b
        | c -> c)
      !acc
  in
  for node = 0 to Tree.n_nodes tree - 1 do
    let expect = reference node in
    Alcotest.(check (list int))
      (Printf.sprintf "all_under_array node %d" node)
      expect
      (Array.to_list (Subtree.all_under_array tree node));
    Alcotest.(check (list int))
      (Printf.sprintf "all_under node %d" node)
      expect
      (Subtree.all_under tree node)
  done

(* {1 Shard batches: jobs-invariant, pristine release, conflict path} *)

let result_digest results =
  String.concat ";"
    (List.map
       (function
         | Ok (p : Types.placement) ->
             String.concat "|"
               (Array.to_list
                  (Array.map
                     (fun l ->
                       String.concat ","
                         (List.map (fun (s, n) -> Printf.sprintf "%d@%d" n s) l))
                     p.Types.locations))
         | Error r -> "!" ^ Types.reject_to_string r)
       results)

let check_pristine name tree =
  let root = Tree.root tree in
  Alcotest.(check int) (name ^ ": all slots free") (Tree.total_slots tree)
    (Tree.free_slots_subtree tree root);
  for node = 0 to Tree.n_nodes tree - 1 do
    if node <> root then begin
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "%s: node %d up" name node)
        0. (Tree.reserved_up tree node);
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "%s: node %d down" name node)
        0.
        (Tree.reserved_down tree node)
    end
  done;
  Alcotest.(check bool) (name ^ ": index verifies") true
    (Tree.index_verify tree)

let batch_workload ?pod_level ~domains ~reqs spec =
  let tree = Tree.create spec in
  let shard = Shard.create ?pod_level tree in
  let placements = ref [] in
  let digests =
    List.map
      (fun epoch ->
        let results = Shard.place_batch ~domains shard epoch in
        List.iter
          (function Ok p -> placements := p :: !placements | Error _ -> ())
          results;
        result_digest results)
      reqs
  in
  (tree, shard, !placements, String.concat "#" digests)

let epochs_of_tags tags ~epoch =
  let rec chunk = function
    | [] -> []
    | l ->
        let rec split i acc = function
          | rest when i = epoch -> (List.rev acc, rest)
          | [] -> (List.rev acc, [])
          | x :: rest -> split (i + 1) (x :: acc) rest
        in
        let e, rest = split 0 [] l in
        e :: chunk rest
  in
  chunk (List.map Types.request tags)

let test_batch_jobs_invariant () =
  let tags =
    let rng = Rng.create 11 in
    List.init 80 (fun _ -> random_tag rng)
  in
  let reqs = epochs_of_tags tags ~epoch:16 in
  let run domains = batch_workload ~domains ~reqs pod_spec in
  let _, _, _, d1 = run 1 in
  let tree4, shard4, placements4, d4 = run 4 in
  Alcotest.(check string) "identical batches at --jobs 1 and --jobs 4" d1 d4;
  Alcotest.(check bool) "some tenants were placed" true (placements4 <> []);
  List.iter (Shard.release shard4) placements4;
  check_pristine "after releasing all batches" tree4

(* A tenant of [vms] VMs pulling [inbound] Mbps from an external source
   (the Internet): per-VM R = inbound / vms, so its Eq. 1 demand above
   any subtree holding the whole tenant is exactly (0, inbound). *)
let sink_tag ~vms ~inbound =
  let r = inbound /. float_of_int vms in
  Tag.create ~name:"sink" ~externals:[ "net" ]
    ~components:[ ("w", vms) ]
    ~edges:[ (1, 0, r, r) ]
    ()

let test_batch_conflict_path () =
  (* pod_level 1: pods are 4-server racks, so a winner's external demand
     must also be committed on the level-2 aggregation link its pod
     hangs from.  Fat 4000-Mbps server uplinks with oversub [2; 2] give
     caps server 4000 / rack 8000 / aggregation 16000.  Shape free
     slots so six 3000-Mbps tenants of sizes 2/2/3/3/4/4 route
     pairwise into racks 0, 1 and 2 (all under aggregation link 0):
     every rack accepts its pair (6000 <= 8000), but the serial commit
     phase fits only five externals on the shared link (15000 <= 16000)
     — the sixth is a cross-pod conflict and must be re-placed through
     the coordinator, deterministically. *)
  let spec =
    {
      Tree.degrees = [ 2; 4; 4 ];
      slots_per_server = 4;
      server_up_mbps = 4000.;
      oversub = [ 2.; 2. ];
    }
  in
  let tags =
    List.concat_map
      (fun vms -> [ sink_tag ~vms ~inbound:3000.; sink_tag ~vms ~inbound:3000. ])
      [ 2; 3; 4 ]
  in
  (* Checked assumption behind the arithmetic above. *)
  List.iter
    (fun tag ->
      let inside = Array.init (Tag.n_components tag) (Tag.size tag) in
      let _, ei = Bandwidth.required Bandwidth.Tag_model tag ~inside in
      Alcotest.(check (float 1e-6)) "sink external inbound" 3000. ei)
    tags;
  let conflicts = Metrics.counter "shard.batch.conflicts" in
  let pod_placed = Metrics.counter "shard.batch.pod_placed" in
  let run domains =
    let tree = Tree.create spec in
    let shard = Shard.create ~pod_level:1 tree in
    (* Shape rack free counts so best-fit routing spreads the sizes:
       rack 0 keeps two 2-free servers, rack 1 two 3-free, rack 2 two
       4-free.  Racks 3..7 stay pristine (all servers 4-free) but lose
       every tie to rack 2's lower server ids, so the size-4 pair still
       routes to rack 2. *)
    let plugs =
      let txn = Reservation.start tree in
      let take server n =
        Alcotest.(check bool) "plug take_slots" true
          (Reservation.take_slots txn ~server n)
      in
      take 0 2; take 1 2; take 2 4; take 3 4;
      take 4 1; take 5 1; take 6 4; take 7 4;
      take 10 4; take 11 4;
      Reservation.commit txn
    in
    let results = Shard.place_batch ~domains shard (List.map Types.request tags) in
    (tree, shard, plugs, results)
  in
  let before = Metrics.counter_value conflicts in
  let placed_before = Metrics.counter_value pod_placed in
  let tree, shard, plugs, results = run 1 in
  let d1 = result_digest results in
  List.iter
    (fun r -> Alcotest.(check bool) "every tenant placed" true (Result.is_ok r))
    results;
  Alcotest.(check int) "exactly one cross-pod conflict"
    (before + 1)
    (Metrics.counter_value conflicts);
  Alcotest.(check int) "five tenants committed via the pod fast path"
    (placed_before + 5)
    (Metrics.counter_value pod_placed);
  List.iter
    (function Ok p -> Shard.release shard p | Error _ -> ())
    results;
  Reservation.release tree plugs;
  check_pristine "after conflict workload" tree;
  (* The conflict path is deterministic too: same digest at any domain
     count. *)
  let tree4, shard4, plugs4, results4 = run 4 in
  Alcotest.(check string) "conflict workload jobs-invariant" d1
    (result_digest results4);
  List.iter
    (function Ok p -> Shard.release shard4 p | Error _ -> ())
    results4;
  Reservation.release tree4 plugs4;
  check_pristine "after parallel conflict workload" tree4

(* {1 Decision golden: a seeded batch trace with the mesh tenant}

   Eight epochs of 32 arrivals dealt in shuffled rounds from the
   bing-like pool, scaled to Bmax 800, with a seeded quarter of the live
   tenants departing after each epoch, on a 512-server tree.  The pool's
   732-VM tenant (12 tiers in a full mesh) arrives four times: it is
   accepted once and refused for bandwidth three times, each refusal a
   full root-level Algorithm 1 search through the coordinator.  The MD5 of
   the concatenated per-epoch [result_digest]s was captured on the code
   before the flat Eq. 1 kernel and the hoisted Colocate scan; any
   decision drift in the placement hot path shows up as a mismatch. *)

let golden_shard_md5 = "0d05bea248d4f4beeff6049a26d43c09"

(* [epochs] batches; after each, every live tenant departs with
   probability [1 / leave]. *)
let golden_shard_trace ~epochs ~leave =
  let pool =
    Cm_workload.Pool.scale_to_bmax
      (Cm_workload.Pool.bing_like ~seed:1 ())
      ~bmax:800.
  in
  let tags = pool.Cm_workload.Pool.tags in
  let tree =
    Tree.create
      {
        Tree.degrees = [ 4; 8; 16 ];
        slots_per_server = 25;
        server_up_mbps = 10_000.;
        oversub = [ 4.; 8. ];
      }
  in
  let shard = Shard.create tree in
  let rng = Rng.create 1 in
  let deck = ref [||] and next = ref 0 in
  let deal () =
    if !next >= Array.length !deck then begin
      deck := Array.copy tags;
      Rng.shuffle rng !deck;
      next := 0
    end;
    let tag = !deck.(!next) in
    incr next;
    Types.request tag
  in
  let live = ref [] in
  let digests =
    List.init epochs (fun _ ->
        let results =
          Shard.place_batch ~domains:1 shard (List.init 32 (fun _ -> deal ()))
        in
        (* Each live tenant, oldest first, departs with probability
           1/leave. *)
        live :=
          List.filter
            (fun p ->
              if Rng.int rng leave = 0 then begin
                Shard.release shard p;
                false
              end
              else true)
            (!live @ List.filter_map Result.to_option results);
        result_digest results)
  in
  (Array.exists (fun t -> Tag.total_vms t = 732) tags, digests)

let test_golden_shard () =
  let has_mesh, digests = golden_shard_trace ~epochs:8 ~leave:4 in
  Alcotest.(check bool) "pool holds the 732-VM tenant" true has_mesh;
  Alcotest.(check string) "batch decisions match the pre-optimisation capture"
    golden_shard_md5
    (Digest.to_hex (Digest.string (String.concat "#" digests)))

(* {1 Refusal before recursion: a trace where it fires}

   The same tree, pool and dealing as above, over sixteen epochs with an
   eighth of the live tenants departing after each, so the tree fills
   and Colocate meets switch children whose uplinks refuse the whole
   group.  The MD5 was captured before [Alloc_state.uplink_refuses]
   existed: skipping those children must change no decision. *)

let golden_prune_md5 = "92f8da64f4902afb271606152b198c25"

let test_golden_prune () =
  let pruned = Metrics.counter "cm.alloc.pruned" in
  let before = Metrics.counter_value pruned in
  let _, digests = golden_shard_trace ~epochs:16 ~leave:8 in
  Alcotest.(check bool) "some Colocate child was skipped" true
    (Metrics.counter_value pruned > before);
  Alcotest.(check string) "batch decisions match the capture without the skip"
    golden_prune_md5
    (Digest.to_hex (Digest.string (String.concat "#" digests)))

(* {1 Batched arrival loop golden}

   [Runner.run_batched] on the 512-server tree at load 1.3, so both
   rejection reasons occur.  The digests were captured before [run] and
   [run_batched] shared one arrival loop; each must hold at epochs 1, 7
   and 64 and at 1 and 2 domains. *)

let sim_digest (r : Cm_sim.Runner.result) =
  Printf.sprintf "%d/%d/%d/%d/%d/%d/%d/%.3f/%.3f/%.6f/%d/%.6f" r.arrivals
    r.accepted r.rejected r.rejected_no_slots r.rejected_no_bw r.offered_vms
    r.rejected_vms r.offered_bw r.rejected_bw r.mean_utilization
    (Array.length r.wcs_per_component)
    (Array.fold_left ( +. ) 0. r.wcs_per_component)

let golden_batched =
  [
    ( 1,
      "600/557/43/31/12/42023/10243/6292007.810/2110285.234/0.739607/1948/\
       242.833766" );
    ( 7,
      "600/585/15/10/5/40547/5326/5235045.899/919599.882/0.751985/2144/\
       278.994670" );
    ( 64,
      "600/557/43/16/27/43415/9653/5920988.335/1654935.474/0.683596/1938/\
       262.962638" );
  ]

let test_golden_batched () =
  let pool =
    Cm_workload.Pool.scale_to_bmax
      (Cm_workload.Pool.bing_like ~seed:1 ())
      ~bmax:800.
  in
  let config =
    { Cm_sim.Runner.default_config with seed = 5; n_arrivals = 600; load = 1.3 }
  in
  List.iter
    (fun (epoch, expect) ->
      List.iter
        (fun domains ->
          let saved = Cm_util.Par.default_domains () in
          Cm_util.Par.set_default_domains domains;
          let tree =
            Tree.create
              {
                Tree.degrees = [ 4; 8; 16 ];
                slots_per_server = 25;
                server_up_mbps = 10_000.;
                oversub = [ 4.; 8. ];
              }
          in
          let r =
            Fun.protect
              ~finally:(fun () -> Cm_util.Par.set_default_domains saved)
              (fun () ->
                Cm_sim.Runner.run_batched ~epoch (Shard.create tree) pool
                  config)
          in
          Alcotest.(check string)
            (Printf.sprintf "epoch %d, %d domains" epoch domains)
            expect (sim_digest r);
          check_pristine (Printf.sprintf "epoch %d drained" epoch) tree)
        [ 1; 2 ])
    golden_batched

let test_shard_geometry () =
  let tree = Tree.create pod_spec in
  let shard = Shard.create tree in
  Alcotest.(check int) "default pod level" (Tree.n_levels tree - 2)
    (Shard.pod_level shard);
  Alcotest.(check int) "one pod per root child" 4 (Shard.n_pods shard);
  let pod_size = Tree.level_subtree_size tree ~level:(Shard.pod_level shard) in
  for s = 0 to Tree.n_servers tree - 1 do
    Alcotest.(check int)
      (Printf.sprintf "server %d pod" s)
      (s / pod_size)
      (Shard.pod_index shard s)
  done;
  Alcotest.check_raises "pod_level 0 rejected"
    (Invalid_argument "Shard.create: pod_level out of range") (fun () ->
      ignore (Shard.create ~pod_level:0 tree))

let () =
  Alcotest.run "cm_scale"
    [
      ( "index",
        [
          QCheck_alcotest.to_alcotest prop_index_interleavings;
          Alcotest.test_case "find_lowest_under root == find_lowest" `Quick
            test_under_root_is_global;
          Alcotest.test_case "all_under_array vs recursive reference" `Quick
            test_all_under_array;
        ] );
      ( "shard",
        [
          Alcotest.test_case "place_batch jobs-invariant + pristine release"
            `Quick test_batch_jobs_invariant;
          Alcotest.test_case "cross-pod conflict path" `Quick
            test_batch_conflict_path;
          Alcotest.test_case "seeded batch trace decision golden" `Quick
            test_golden_shard;
          Alcotest.test_case "refusal skip fires, decisions unchanged" `Quick
            test_golden_prune;
          Alcotest.test_case "pod geometry and validation" `Quick
            test_shard_geometry;
          Alcotest.test_case "run_batched digest golden" `Quick
            test_golden_batched;
        ] );
    ]
