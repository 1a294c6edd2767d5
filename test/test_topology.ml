(* Tests for Cm_topology: tree construction, capacity derivation,
   slot/bandwidth accounting, and the transactional reservation ledger. *)

module Tree = Cm_topology.Tree
module Reservation = Cm_topology.Reservation

let check_float = Alcotest.(check (float 1e-6))

let small_spec =
  {
    Tree.degrees = [ 2; 2; 2 ];
    slots_per_server = 4;
    server_up_mbps = 100.;
    oversub = [ 2.; 2. ];
  }

(* {1 Construction} *)

let test_default_shape () =
  let t = Tree.create_default () in
  Alcotest.(check int) "servers" 2048 (Tree.n_servers t);
  Alcotest.(check int) "levels" 4 (Tree.n_levels t);
  Alcotest.(check int) "slots" (2048 * 25) (Tree.total_slots t);
  Alcotest.(check int) "tors" 128 (Array.length (Tree.nodes_at_level t 1));
  Alcotest.(check int) "aggs" 8 (Array.length (Tree.nodes_at_level t 2));
  Alcotest.(check int) "root" 1 (Array.length (Tree.nodes_at_level t 3))

let test_default_capacities () =
  let t = Tree.create_default () in
  let server = (Tree.servers t).(0) in
  check_float "server up" 10_000. (Tree.uplink_capacity t server);
  let tor = (Tree.nodes_at_level t 1).(0) in
  (* 16 servers * 10G / 4 = 40G. *)
  check_float "tor up" 40_000. (Tree.uplink_capacity t tor);
  let agg = (Tree.nodes_at_level t 2).(0) in
  (* 16 tors * 40G / 8 = 80G. *)
  check_float "agg up" 80_000. (Tree.uplink_capacity t agg);
  Alcotest.(check bool) "root infinite" true
    (Tree.uplink_capacity t (Tree.root t) = infinity)

let test_small_structure () =
  let t = Tree.create small_spec in
  Alcotest.(check int) "servers" 8 (Tree.n_servers t);
  Alcotest.(check int) "nodes" 15 (Tree.n_nodes t);
  let root = Tree.root t in
  Alcotest.(check int) "root level" 3 (Tree.level t root);
  Alcotest.(check bool) "root no parent" true (Tree.parent t root = None);
  Array.iter
    (fun s ->
      Alcotest.(check bool) "server level 0" true (Tree.is_server t s);
      Alcotest.(check int) "path length" 4 (List.length (Tree.path_to_root t s)))
    (Tree.servers t)

let test_server_ranges () =
  let t = Tree.create small_spec in
  let root = Tree.root t in
  Alcotest.(check (pair int int)) "root range" (0, 7) (Tree.server_range t root);
  let tor0 = (Tree.nodes_at_level t 1).(0) in
  let lo, hi = Tree.server_range t tor0 in
  Alcotest.(check int) "tor covers 2 servers" 1 (hi - lo);
  Alcotest.(check (array int)) "subtree servers" [| lo; hi |]
    (Tree.subtree_servers t tor0)

let test_parent_child_consistency () =
  let t = Tree.create small_spec in
  for id = 0 to Tree.n_nodes t - 1 do
    Array.iter
      (fun c ->
        Alcotest.(check (option int)) "child's parent" (Some id)
          (Tree.parent t c))
      (Tree.children t id)
  done

let test_invalid_specs () =
  let expect spec =
    Alcotest.check_raises "rejected" (Invalid_argument "")
      (fun () ->
        try ignore (Tree.create spec)
        with Invalid_argument _ -> raise (Invalid_argument ""))
  in
  expect { small_spec with degrees = [] };
  expect { small_spec with degrees = [ 2; 0 ] };
  expect { small_spec with slots_per_server = 0 };
  expect { small_spec with oversub = [ 2. ] };
  expect { small_spec with server_up_mbps = -1. }

(* {1 Slots} *)

let test_slots_accounting () =
  let t = Tree.create small_spec in
  let s0 = (Tree.servers t).(0) in
  Alcotest.(check int) "initial free" 4 (Tree.free_slots t s0);
  Alcotest.(check int) "root free" 32 (Tree.free_slots_subtree t (Tree.root t));
  Tree.unchecked_take_slots t ~server:s0 3;
  Alcotest.(check int) "after take" 1 (Tree.free_slots t s0);
  Alcotest.(check int) "subtree decremented" 29
    (Tree.free_slots_subtree t (Tree.root t));
  Tree.unchecked_return_slots t ~server:s0 3;
  Alcotest.(check int) "after return" 4 (Tree.free_slots t s0);
  Alcotest.(check int) "subtree restored" 32
    (Tree.free_slots_subtree t (Tree.root t))

(* {1 Bandwidth} *)

let test_bw_accounting () =
  let t = Tree.create small_spec in
  let s0 = (Tree.servers t).(0) in
  check_float "avail up" 100. (Tree.available_up t s0);
  Tree.unchecked_add_bw t ~node:s0 ~up:30. ~down:50.;
  check_float "reserved up" 30. (Tree.reserved_up t s0);
  check_float "avail up after" 70. (Tree.available_up t s0);
  check_float "avail down after" 50. (Tree.available_down t s0);
  Alcotest.(check bool) "fits 70" true (Tree.fits_up t ~node:s0 70.);
  Alcotest.(check bool) "does not fit 71" false (Tree.fits_up t ~node:s0 71.)

let test_available_to_root () =
  let t = Tree.create small_spec in
  let s0 = (Tree.servers t).(0) in
  let tor = Option.get (Tree.parent t s0) in
  (* tor capacity = 2*100/2 = 100. *)
  Tree.unchecked_add_bw t ~node:tor ~up:60. ~down:0.;
  let up, down = Tree.available_to_root t s0 in
  check_float "up min over path" 40. up;
  (* agg capacity = 2*100/2 = 100, untouched; down limited by 100. *)
  check_float "down unaffected" 100. down

let test_reserved_at_level () =
  let t = Tree.create small_spec in
  Tree.unchecked_add_bw t ~node:(Tree.servers t).(0) ~up:10. ~down:5.;
  Tree.unchecked_add_bw t ~node:(Tree.servers t).(3) ~up:7. ~down:2.;
  let up, down = Tree.reserved_at_level t ~level:0 in
  check_float "level up" 17. up;
  check_float "level down" 7. down

let test_utilization_summary () =
  let t = Tree.create small_spec in
  let up0, down0 = Tree.utilization_summary t ~level:0 in
  check_float "empty up" 0. up0;
  check_float "empty down" 0. down0;
  (* Fill one of eight server uplinks halfway. *)
  Tree.unchecked_add_bw t ~node:(Tree.servers t).(0) ~up:50. ~down:100.;
  let up, down = Tree.utilization_summary t ~level:0 in
  check_float "mean up 1/16" (0.5 /. 8.) up;
  check_float "mean down 1/8" (1. /. 8.) down

(* {1 Reservation ledger} *)

let test_reservation_commit_release () =
  let t = Tree.create small_spec in
  let s0 = (Tree.servers t).(0) in
  let txn = Reservation.start t in
  Alcotest.(check bool) "slots ok" true (Reservation.take_slots txn ~server:s0 2);
  Alcotest.(check bool) "bw ok" true
    (Reservation.reserve_bw txn ~node:s0 ~up:40. ~down:40.);
  let committed = Reservation.commit txn in
  Alcotest.(check int) "slots held" 2 (Tree.free_slots t s0);
  Reservation.release t committed;
  Alcotest.(check int) "slots back" 4 (Tree.free_slots t s0);
  check_float "bw back" 0. (Tree.reserved_up t s0)

let test_reservation_rollback () =
  let t = Tree.create small_spec in
  let s0 = (Tree.servers t).(0) in
  let txn = Reservation.start t in
  ignore (Reservation.take_slots txn ~server:s0 2 : bool);
  ignore (Reservation.reserve_bw txn ~node:s0 ~up:40. ~down:0. : bool);
  Reservation.rollback txn;
  Alcotest.(check int) "slots restored" 4 (Tree.free_slots t s0);
  check_float "bw restored" 0. (Tree.reserved_up t s0);
  Alcotest.(check bool) "empty again" true (Reservation.is_empty txn)

let test_reservation_partial_rollback () =
  let t = Tree.create small_spec in
  let s0 = (Tree.servers t).(0) and s1 = (Tree.servers t).(1) in
  let txn = Reservation.start t in
  ignore (Reservation.take_slots txn ~server:s0 1 : bool);
  let cp = Reservation.checkpoint txn in
  ignore (Reservation.take_slots txn ~server:s1 2 : bool);
  ignore (Reservation.reserve_bw txn ~node:s1 ~up:10. ~down:10. : bool);
  Reservation.rollback_to txn cp;
  Alcotest.(check int) "s0 still taken" 3 (Tree.free_slots t s0);
  Alcotest.(check int) "s1 restored" 4 (Tree.free_slots t s1);
  check_float "s1 bw restored" 0. (Tree.reserved_up t s1)

let test_reservation_capacity_guard () =
  let t = Tree.create small_spec in
  let s0 = (Tree.servers t).(0) in
  let txn = Reservation.start t in
  Alcotest.(check bool) "over slots" false
    (Reservation.take_slots txn ~server:s0 5);
  Alcotest.(check int) "nothing taken" 4 (Tree.free_slots t s0);
  Alcotest.(check bool) "over bw" false
    (Reservation.reserve_bw txn ~node:s0 ~up:101. ~down:0.);
  check_float "nothing reserved" 0. (Tree.reserved_up t s0);
  (* Atomicity: up fits, down does not -> neither applied. *)
  Alcotest.(check bool) "atomic pair" false
    (Reservation.reserve_bw txn ~node:s0 ~up:10. ~down:101.);
  check_float "up not applied" 0. (Tree.reserved_up t s0)

let test_reservation_negative_delta () =
  let t = Tree.create small_spec in
  let s0 = (Tree.servers t).(0) in
  let txn = Reservation.start t in
  ignore (Reservation.reserve_bw txn ~node:s0 ~up:50. ~down:50. : bool);
  Alcotest.(check bool) "negative ok" true
    (Reservation.reserve_bw txn ~node:s0 ~up:(-20.) ~down:0.);
  check_float "reduced" 30. (Tree.reserved_up t s0);
  Reservation.rollback txn;
  check_float "rollback exact" 0. (Tree.reserved_up t s0)

(* Rolling back a reservation restores the uplink's previous value bit
   for bit, even when undoing by the negated delta would not: on top of a
   committed 0.1, 0.1 + 0.2 - 0.2 is 0.10000000000000003, and a release
   clamped at zero loses the amount below it. *)
let test_reservation_rollback_bitwise () =
  let t = Tree.create small_spec in
  let s0 = (Tree.servers t).(0) in
  let base = Reservation.start t in
  ignore (Reservation.reserve_bw base ~node:s0 ~up:0.1 ~down:0.1 : bool);
  let committed = Reservation.commit base in
  let bits name expect got =
    Alcotest.(check int64) name (Int64.bits_of_float expect)
      (Int64.bits_of_float got)
  in
  let txn = Reservation.start t in
  let cp = Reservation.checkpoint txn in
  Alcotest.(check bool) "reserve 0.2" true
    (Reservation.reserve_bw txn ~node:s0 ~up:0.2 ~down:0.2);
  Reservation.rollback_to txn cp;
  bits "up after rounding rollback" 0.1 (Tree.reserved_up t s0);
  bits "down after rounding rollback" 0.1 (Tree.reserved_down t s0);
  Alcotest.(check bool) "release below zero" true
    (Reservation.reserve_bw txn ~node:s0 ~up:(-0.3) ~down:0.);
  check_float "clamped at zero" 0. (Tree.reserved_up t s0);
  Reservation.rollback txn;
  bits "up after clamped rollback" 0.1 (Tree.reserved_up t s0);
  Reservation.release t committed;
  check_float "released" 0. (Tree.reserved_up t s0);
  Alcotest.(check bool) "index verifies" true (Tree.index_verify t)

(* Property: any interleaving of ledger operations followed by rollback
   restores the tree exactly. *)
let prop_rollback_restores =
  QCheck.Test.make ~name:"ledger rollback restores tree" ~count:200
    QCheck.(list (pair (int_range 0 7) (int_range 1 3)))
    (fun ops ->
      let t = Tree.create small_spec in
      let txn = Reservation.start t in
      List.iter
        (fun (server, n) ->
          ignore (Reservation.take_slots txn ~server n : bool);
          ignore
            (Reservation.reserve_bw txn ~node:server
               ~up:(float_of_int (n * 10))
               ~down:(float_of_int n)
              : bool))
        ops;
      Reservation.rollback txn;
      Array.for_all
        (fun s ->
          Tree.free_slots t s = 4
          && Tree.reserved_up t s = 0.
          && Tree.reserved_down t s = 0.)
        (Tree.servers t)
      && Tree.free_slots_subtree t (Tree.root t) = 32)

let () =
  Alcotest.run "cm_topology"
    [
      ( "construction",
        [
          Alcotest.test_case "default shape" `Quick test_default_shape;
          Alcotest.test_case "default capacities" `Quick test_default_capacities;
          Alcotest.test_case "small structure" `Quick test_small_structure;
          Alcotest.test_case "server ranges" `Quick test_server_ranges;
          Alcotest.test_case "parent/child consistency" `Quick
            test_parent_child_consistency;
          Alcotest.test_case "invalid specs" `Quick test_invalid_specs;
        ] );
      ( "resources",
        [
          Alcotest.test_case "slot accounting" `Quick test_slots_accounting;
          Alcotest.test_case "bandwidth accounting" `Quick test_bw_accounting;
          Alcotest.test_case "available to root" `Quick test_available_to_root;
          Alcotest.test_case "reserved at level" `Quick test_reserved_at_level;
          Alcotest.test_case "utilization summary" `Quick test_utilization_summary;
        ] );
      ( "reservation",
        [
          Alcotest.test_case "commit/release" `Quick test_reservation_commit_release;
          Alcotest.test_case "rollback" `Quick test_reservation_rollback;
          Alcotest.test_case "partial rollback" `Quick
            test_reservation_partial_rollback;
          Alcotest.test_case "capacity guard" `Quick test_reservation_capacity_guard;
          Alcotest.test_case "negative delta" `Quick test_reservation_negative_delta;
          Alcotest.test_case "rollback restores bits" `Quick
            test_reservation_rollback_bitwise;
          QCheck_alcotest.to_alcotest prop_rollback_restores;
        ] );
    ]
