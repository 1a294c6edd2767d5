(* Hot-path overhaul guard-rails: these tests pin the placement engine's
   observable behaviour across the shared-scan / typed-journal / scratch-
   buffer optimisations.

   - Golden digests: full simulator runs (CM and OVOC) and the fig8 table
     must reproduce values captured from the pre-optimisation code,
     bit for bit, at --jobs 1 and --jobs 4.
   - Differential workload: a seeded arrival/departure mix is checked
     against a from-scratch Eq. 1 oracle that reprices every node from
     the live placements alone, the whole run must replay identically
     from scratch, and its trace must match a pinned digest.
   - Journal rollback: nested checkpoints and aborted partial placements
     must restore the exact tree snapshot. *)

module Tree = Cm_topology.Tree
module Reservation = Cm_topology.Reservation
module Tag = Cm_tag.Tag
module Bandwidth = Cm_tag.Bandwidth
module Examples = Cm_tag.Examples
module Types = Cm_placement.Types
module Cm = Cm_placement.Cm
module Alloc_state = Cm_placement.Alloc_state
module Rng = Cm_util.Rng
module Runner = Cm_sim.Runner
module E = Cm_experiments.Experiments

(* {1 Golden digests: bit-identical before/after the optimisation}

   The three constants below were captured by running exactly this
   configuration on the pre-optimisation tree/journal/inner-loop code
   (the parent commit); the optimised engine must reproduce them
   exactly.  Any behavioural drift in the hot path shows up here as a
   digest mismatch. *)

let golden_fig8_md5 = "30904993435f85e2a4617b93132b6c97"

let golden_cm =
  "2000/1954/46/44/2/124260/7683/8512334.681/385763.707/0.688688/7831/867.966352"

let golden_ovoc =
  "2000/1951/49/46/3/124169/8449/8806383.493/532129.047/0.688959/7820/622.505915"

let digest (r : Runner.result) =
  Printf.sprintf "%d/%d/%d/%d/%d/%d/%d/%.3f/%.3f/%.6f/%d/%.6f" r.arrivals
    r.accepted r.rejected r.rejected_no_slots r.rejected_no_bw r.offered_vms
    r.rejected_vms r.offered_bw r.rejected_bw r.mean_utilization
    (Array.length r.wcs_per_component)
    (Array.fold_left ( +. ) 0. r.wcs_per_component)

let golden_run make =
  let pool =
    Cm_workload.Pool.scale_to_bmax
      (Cm_workload.Pool.bing_like ~seed:3 ())
      ~bmax:500.
  in
  let tree = Tree.create_default () in
  let sched = make tree in
  Runner.run sched tree pool
    { Runner.default_config with seed = 3; n_arrivals = 2000; load = 1.3 }

let test_golden_cm () =
  Alcotest.(check string) "CM digest matches pre-optimisation capture"
    golden_cm
    (digest (golden_run (fun t -> Cm_sim.Driver.cm t)))

let test_golden_ovoc () =
  Alcotest.(check string) "OVOC digest matches pre-optimisation capture"
    golden_ovoc
    (digest (golden_run Cm_sim.Driver.oktopus))

let with_jobs jobs f =
  let saved = Cm_util.Par.default_domains () in
  Cm_util.Par.set_default_domains jobs;
  Fun.protect ~finally:(fun () -> Cm_util.Par.set_default_domains saved) f

let test_fig8_jobs_invariant_golden () =
  let small = { E.seed = 3; arrivals = 250; bmax = 800.; load = 0.9 } in
  let render () = Cm_util.Table.render (E.fig8 small ~loads:[ 0.3; 0.9 ]) in
  let s1 = with_jobs 1 render in
  let s4 = with_jobs 4 render in
  Alcotest.(check string) "fig8 identical under --jobs 1 and --jobs 4" s1 s4;
  Alcotest.(check string) "fig8 table matches pre-optimisation capture"
    golden_fig8_md5
    (Digest.to_hex (Digest.string s1))

(* {1 Differential workload vs. from-scratch Eq. 1 oracle} *)

let diff_spec =
  {
    Tree.degrees = [ 2; 4; 4 ];
    slots_per_server = 4;
    server_up_mbps = 1000.;
    oversub = [ 2.; 2. ];
  }

let random_tag rng =
  let bw lo hi = Rng.range_float rng ~lo ~hi in
  match Rng.int rng 4 with
  | 0 -> Examples.batch ~size:(2 + Rng.int rng 10) ~bw:(bw 20. 200.) ()
  | 1 ->
      Examples.three_tier ~n_web:(1 + Rng.int rng 4)
        ~n_logic:(1 + Rng.int rng 4) ~n_db:(1 + Rng.int rng 4) ~b1:(bw 10. 120.)
        ~b2:(bw 10. 120.) ~b3:(bw 5. 60.) ()
  | 2 -> Examples.storm ~s:(1 + Rng.int rng 3) ~b:(bw 5. 60.)
  | _ ->
      Examples.fig5 ~n1:(1 + Rng.int rng 4) ~n2:(1 + Rng.int rng 4)
        ~b1:(bw 10. 150.) ~b2:(bw 10. 150.) ~b2_in:(bw 0. 80.)

let locs_string (locs : Types.locations) =
  String.concat "|"
    (Array.to_list
       (Array.map
          (fun l ->
            String.concat ","
              (List.map (fun (s, n) -> Printf.sprintf "%d@%d" n s) l))
          locs))

(* Seeded arrival/departure mix on a 32-server tree.  Returns the
   scheduler, tree, live placements, and a trace string encoding every
   accept (with server locations), reject (with reason), and departure. *)
let run_workload () =
  let tree = Tree.create diff_spec in
  let sched = Cm.create tree in
  let rng = Rng.create 42 in
  let live = ref [] in
  let next_id = ref 0 in
  let trace = Buffer.create 4096 in
  for _step = 1 to 150 do
    if !live <> [] && Rng.int rng 10 < 4 then begin
      let arr = Array.of_list !live in
      let id, p = arr.(Rng.int rng (Array.length arr)) in
      Cm.release sched p;
      live := List.filter (fun (i, _) -> i <> id) !live;
      Buffer.add_string trace (Printf.sprintf "D%d;" id)
    end
    else begin
      let tag = random_tag rng in
      match Cm.place sched (Types.request tag) with
      | Ok p ->
          let id = !next_id in
          incr next_id;
          live := (id, p) :: !live;
          Buffer.add_string trace
            (Printf.sprintf "A%d[%s];" id (locs_string p.Types.locations))
      | Error r ->
          Buffer.add_string trace
            (Printf.sprintf "R(%s);" (Types.reject_to_string r))
    end
  done;
  (sched, tree, !live, Buffer.contents trace)

(* Reprice every node from the live placements alone (no incremental
   state) and compare against what the optimised engine left on the
   tree: Eq. 1 reservations on every link and free-slot counts on every
   server. *)
let check_oracle tree live =
  let n_nodes = Tree.n_nodes tree in
  let root = Tree.root tree in
  let exp_up = Array.make n_nodes 0. in
  let exp_down = Array.make n_nodes 0. in
  let exp_used = Array.make (Tree.n_servers tree) 0 in
  List.iter
    (fun (_, (p : Types.placement)) ->
      let tag = p.Types.req.Types.tag in
      let n_comp = Tag.n_components tag in
      Array.iter
        (List.iter (fun (s, n) -> exp_used.(s) <- exp_used.(s) + n))
        p.Types.locations;
      for node = 0 to n_nodes - 1 do
        if node <> root then begin
          let lo, hi = Tree.server_range tree node in
          let inside = Array.make n_comp 0 in
          Array.iteri
            (fun c l ->
              List.iter
                (fun (s, n) ->
                  if s >= lo && s <= hi then inside.(c) <- inside.(c) + n)
                l)
            p.Types.locations;
          let out, into = Bandwidth.required Bandwidth.Tag_model tag ~inside in
          exp_up.(node) <- exp_up.(node) +. out;
          exp_down.(node) <- exp_down.(node) +. into
        end
      done)
    live;
  let close = Alcotest.(check (float 1e-3)) in
  for node = 0 to n_nodes - 1 do
    if node <> root then begin
      close
        (Printf.sprintf "node %d reserved up" node)
        exp_up.(node) (Tree.reserved_up tree node);
      close
        (Printf.sprintf "node %d reserved down" node)
        exp_down.(node)
        (Tree.reserved_down tree node)
    end;
    if Tree.is_server tree node then
      Alcotest.(check int)
        (Printf.sprintf "server %d free slots" node)
        (Tree.slots_per_server tree - exp_used.(node))
        (Tree.free_slots tree node)
  done

let test_differential_oracle () =
  let sched, tree, live, trace = run_workload () in
  Alcotest.(check bool) "workload saw accepts and departures" true
    (String.contains trace 'A' && String.contains trace 'D');
  check_oracle tree live;
  (* Departure exactness: releasing everything must leave the tree
     pristine, with no reservation drift from the journaled adjustments. *)
  List.iter (fun (_, p) -> Cm.release sched p) live;
  check_oracle tree []

let test_differential_replay_identical () =
  let _, _, _, t1 = run_workload () in
  let _, _, _, t2 = run_workload () in
  Alcotest.(check string)
    "same decisions and server locations on a from-scratch replay" t1 t2

(* The seeded arrival/departure mix — including every rollback-and-retry
   inside [Cm.place] — must take the decisions pinned below: the MD5 of
   its trace, captured by running this workload on the commit that
   still carried the linear-scan FindLowestSubtree, where the scan, the
   availability index and a per-query cross-check all produced this
   same trace. *)
let golden_workload_trace_md5 = "41274c3fd2f3f891e61179ef06b733dc"

let test_workload_trace_golden () =
  let sched, tree, live, trace = run_workload () in
  List.iter (fun (_, p) -> Cm.release sched p) live;
  Alcotest.(check bool) "index verifies" true (Tree.index_verify tree);
  Alcotest.(check string) "workload trace digest" golden_workload_trace_md5
    (Digest.to_hex (Digest.string trace))

(* {1 Journal rollback: nested checkpoints, aborted partial placements} *)

let two_rack_spec =
  {
    Tree.degrees = [ 2; 4 ];
    slots_per_server = 8;
    server_up_mbps = 1000.;
    oversub = [ 4. ];
  }

let snapshot tree =
  Array.init (Tree.n_nodes tree) (fun id ->
      ( Tree.reserved_up tree id,
        Tree.reserved_down tree id,
        Tree.free_slots tree id,
        Tree.free_slots_subtree tree id ))

let check_snapshot name expected tree =
  let close = Alcotest.(check (float 1e-9)) in
  Array.iteri
    (fun id (up, down, free, free_sub) ->
      close (Printf.sprintf "%s: node %d up" name id) up
        (Tree.reserved_up tree id);
      close
        (Printf.sprintf "%s: node %d down" name id)
        down
        (Tree.reserved_down tree id);
      Alcotest.(check int)
        (Printf.sprintf "%s: node %d free" name id)
        free (Tree.free_slots tree id);
      Alcotest.(check int)
        (Printf.sprintf "%s: node %d free subtree" name id)
        free_sub
        (Tree.free_slots_subtree tree id))
    expected

let place_and_sync st ~server ~comp ~n =
  Alcotest.(check bool) "place ok" true (Alloc_state.place st ~server ~comp ~n);
  Alcotest.(check bool) "sync server ok" true
    (Alloc_state.sync_bw st ~node:server);
  Alcotest.(check bool) "sync path ok" true
    (Alloc_state.sync_path_above st ~node:server)

let test_nested_checkpoints () =
  let tree = Tree.create two_rack_spec in
  let tag = Examples.three_tier ~b1:20. ~b2:10. ~b3:5. () in
  let st = Alloc_state.create tree tag in
  let s0 = snapshot tree in
  let cp0 = Alloc_state.checkpoint st in
  place_and_sync st ~server:0 ~comp:0 ~n:2;
  let s1 = snapshot tree in
  let cp1 = Alloc_state.checkpoint st in
  place_and_sync st ~server:4 ~comp:1 ~n:2;
  (* Inner rollback must restore exactly the stage-1 tree and counts. *)
  Alloc_state.rollback_to st cp1;
  check_snapshot "after inner rollback" s1 tree;
  Alcotest.(check int) "stage-1 count kept" 2
    (Alloc_state.count st ~node:(Tree.root tree) ~comp:0);
  Alcotest.(check int) "stage-2 count undone" 0
    (Alloc_state.count st ~node:(Tree.root tree) ~comp:1);
  Alcotest.(check (array int)) "server 4 emptied" [| 0; 0; 0 |]
    (Alloc_state.placed_on_server st ~server:4);
  (* The journal stays reusable: redo stage 2, then unwind to the
     outermost checkpoint. *)
  place_and_sync st ~server:4 ~comp:1 ~n:2;
  Alloc_state.rollback_to st cp0;
  check_snapshot "after outer rollback" s0 tree;
  Alcotest.(check int) "all counts undone" 0
    (Alloc_state.count st ~node:(Tree.root tree) ~comp:0)

let test_rollback_after_partial_place () =
  let tree = Tree.create two_rack_spec in
  let tag = Examples.batch ~size:6 ~bw:100. () in
  let st = Alloc_state.create tree tag in
  let s0 = snapshot tree in
  let cp = Alloc_state.checkpoint st in
  (* Half the tenant lands and is priced, then the attempt aborts. *)
  place_and_sync st ~server:0 ~comp:0 ~n:3;
  Alcotest.(check bool) "oversized place refused" false
    (Alloc_state.place st ~server:1 ~comp:0 ~n:9);
  Alloc_state.rollback_to st cp;
  check_snapshot "partial place fully undone" s0 tree;
  Alcotest.(check (array int)) "server 0 emptied" [| 0 |]
    (Alloc_state.placed_on_server st ~server:0);
  (* State is reusable after the abort: a full placement commits, and
     releasing it restores the pristine tree. *)
  place_and_sync st ~server:0 ~comp:0 ~n:6;
  let committed = Alloc_state.commit st in
  Reservation.release tree committed;
  check_snapshot "released back to pristine" s0 tree

let () =
  Alcotest.run "cm_hotpath"
    [
      ( "golden",
        [
          Alcotest.test_case "CM simulator digest" `Slow test_golden_cm;
          Alcotest.test_case "OVOC simulator digest" `Slow test_golden_ovoc;
          Alcotest.test_case "fig8 jobs-invariant + pinned md5" `Slow
            test_fig8_jobs_invariant_golden;
        ] );
      ( "differential",
        [
          Alcotest.test_case "Eq. 1 oracle over seeded workload" `Quick
            test_differential_oracle;
          Alcotest.test_case "from-scratch replay identical" `Quick
            test_differential_replay_identical;
          Alcotest.test_case "workload trace pinned digest" `Quick
            test_workload_trace_golden;
        ] );
      ( "journal",
        [
          Alcotest.test_case "nested checkpoints" `Quick
            test_nested_checkpoints;
          Alcotest.test_case "rollback after partial place" `Quick
            test_rollback_after_partial_place;
        ] );
    ]
