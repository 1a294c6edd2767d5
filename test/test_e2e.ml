(* Integration tests for Cm_e2e: placement + guarantee partitioning +
   flow-level sharing, end to end on the physical tree. *)

module Tree = Cm_topology.Tree
module Tag = Cm_tag.Tag
module Types = Cm_placement.Types
module Cm = Cm_placement.Cm
module E2e = Cm_e2e.End_to_end

let spec =
  {
    Tree.degrees = [ 2; 4 ];
    slots_per_server = 8;
    server_up_mbps = 1000.;
    oversub = [ 4. ];
  }

let deploy tree tags =
  let sched = Cm.create tree in
  List.filter_map
    (fun tag ->
      match Cm.place sched (Types.request tag) with
      | Ok p -> Some (tag, p.Types.locations)
      | Error _ -> None)
    tags

let heavy_tenants =
  [
    Cm_tag.Examples.three_tier ~n_web:6 ~n_logic:6 ~n_db:4 ~b1:120. ~b2:60.
      ~b3:40. ();
    Cm_tag.Examples.storm ~s:6 ~b:80.;
    Tag.hose ~tier:"batch" ~size:10 ~bw:150. ();
  ]

let test_tag_protection_no_violations () =
  (* The system-level theorem: CloudMirror reservations cover the
     TAG-partitioned guarantees, so no edge is violated no matter how
     much backlog or background traffic there is. *)
  let tree = Tree.create spec in
  let tenants = deploy tree heavy_tenants in
  Alcotest.(check int) "all deployed" 3 (List.length tenants);
  let rng = Cm_util.Rng.create 7 in
  let r =
    E2e.evaluate ~background_flows:64 ~rng ~tree ~tenants
      ~mode:E2e.Tag_protection ()
  in
  Alcotest.(check bool) "some edges" true (r.edges_total > 0);
  Alcotest.(check int) "zero violations" 0 r.edges_violated;
  Alcotest.(check (float 1e-9)) "zero fraction" 0. r.violation_fraction

let test_no_protection_violates_under_congestion () =
  let tree = Tree.create spec in
  let tenants = deploy tree heavy_tenants in
  let rng = Cm_util.Rng.create 7 in
  let r =
    E2e.evaluate ~background_flows:200 ~rng ~tree ~tenants
      ~mode:E2e.No_protection ()
  in
  Alcotest.(check bool)
    (Printf.sprintf "violations appear (%d of %d)" r.edges_violated
       r.edges_total)
    true (r.edges_violated > 0);
  Alcotest.(check bool) "shortfall positive" true (r.mean_shortfall > 0.)

let test_protection_ordering () =
  (* Violation rates order: TAG <= hose <= none. *)
  let run mode =
    let tree = Tree.create spec in
    let tenants = deploy tree heavy_tenants in
    let rng = Cm_util.Rng.create 9 in
    (E2e.evaluate ~background_flows:150 ~rng ~tree ~tenants ~mode ())
      .violation_fraction
  in
  let tag = run E2e.Tag_protection in
  let hose = run E2e.Hose_protection in
  let none = run E2e.No_protection in
  Alcotest.(check bool)
    (Printf.sprintf "tag %.2f <= hose %.2f" tag hose)
    true (tag <= hose +. 1e-9);
  Alcotest.(check bool)
    (Printf.sprintf "hose %.2f <= none %.2f" hose none)
    true (none +. 1e-9 >= hose)

let test_hose_fails_tag_holds_under_directed_congestion () =
  (* The Fig. 4 mechanism end-to-end: a tenant whose web and db tiers
     both feed the logic tier, plus heavy unguaranteed traffic toward the
     logic server.  Hose partitioning dilutes the web tier's promise;
     TAG partitioning keeps every pair at its promise. *)
  let tree = Tree.create spec in
  let tag = Cm_tag.Examples.fig4 () in
  (* Hand-crafted split placement: logic alone on s0, senders
     elsewhere. *)
  let servers = Tree.servers tree in
  let locations =
    [|
      [ (servers.(1), 2) ] (* web *);
      [ (servers.(0), 1) ] (* logic *);
      [ (servers.(2), 2) ] (* db *);
    |]
  in
  let run mode =
    let rng = Cm_util.Rng.create 13 in
    E2e.evaluate ~rng ~tree
      ~tenants:[ (tag, locations) ]
      ~background_flows:400 ~mode ()
  in
  let tag_r = run E2e.Tag_protection in
  let hose_r = run E2e.Hose_protection in
  Alcotest.(check int) "TAG keeps every promise" 0 tag_r.edges_violated;
  Alcotest.(check bool)
    (Printf.sprintf "hose violates (%d edges, shortfall %.2f)"
       hose_r.edges_violated hose_r.mean_shortfall)
    true
    (hose_r.edges_violated > 0)

let test_external_traffic_protected () =
  let tree = Tree.create spec in
  let tag =
    Tag.create ~name:"edge" ~externals:[ "internet" ]
      ~components:[ ("web", 6) ]
      ~edges:[ (0, 1, 80., 0.); (1, 0, 0., 120.); (0, 0, 40., 40.) ]
      ()
  in
  let tenants = deploy tree [ tag ] in
  Alcotest.(check int) "deployed" 1 (List.length tenants);
  let rng = Cm_util.Rng.create 3 in
  let r =
    E2e.evaluate ~background_flows:100 ~rng ~tree ~tenants
      ~mode:E2e.Tag_protection ()
  in
  Alcotest.(check int) "every edge scored" 3 r.edges_total;
  Alcotest.(check int) "no violations incl. external edges" 0 r.edges_violated

let test_each_external_scored () =
  (* Two externals: each pair must carry its own edge's external, and
     the external side of an edge (0 by the [Tag.create] convention) must
     not cap the pair's promise to 0. *)
  let tree = Tree.create spec in
  let tag =
    Tag.create ~name:"two-ext" ~externals:[ "internet"; "storage" ]
      ~components:[ ("web", 4); ("db", 2) ]
      ~edges:[ (0, 2, 100., 0.); (1, 3, 200., 0.) ]
      ()
  in
  let tenants = deploy tree [ tag ] in
  Alcotest.(check int) "deployed" 1 (List.length tenants);
  let rng = Cm_util.Rng.create 5 in
  let r =
    E2e.evaluate ~background_flows:200 ~rng ~tree ~tenants
      ~mode:E2e.Tag_protection ()
  in
  Alcotest.(check int) "both external edges scored" 2 r.edges_total;
  Alcotest.(check int) "no violations" 0 r.edges_violated

let test_report_consistency () =
  let tree = Tree.create spec in
  let tenants = deploy tree heavy_tenants in
  let rng = Cm_util.Rng.create 11 in
  let r = E2e.evaluate ~rng ~tree ~tenants ~mode:E2e.Hose_protection () in
  let sum_total =
    List.fold_left (fun a (t : E2e.tenant_report) -> a + t.edges_total) 0 r.tenants
  in
  let sum_viol =
    List.fold_left
      (fun a (t : E2e.tenant_report) -> a + t.edges_violated)
      0 r.tenants
  in
  Alcotest.(check int) "totals add up" r.edges_total sum_total;
  Alcotest.(check int) "violations add up" r.edges_violated sum_viol;
  Alcotest.(check bool) "flows counted" true (r.flows > 0);
  List.iter
    (fun (t : E2e.tenant_report) ->
      Alcotest.(check bool) "violated <= total" true
        (t.edges_violated <= t.edges_total);
      Alcotest.(check bool) "shortfall in [0,1]" true
        (t.worst_shortfall >= 0. && t.worst_shortfall <= 1.))
    r.tenants

let test_deterministic () =
  let run () =
    let tree = Tree.create spec in
    let tenants = deploy tree heavy_tenants in
    let rng = Cm_util.Rng.create 21 in
    E2e.evaluate ~background_flows:50 ~rng ~tree ~tenants
      ~mode:E2e.No_protection ()
  in
  let a = run () and b = run () in
  Alcotest.(check int) "same violations" a.edges_violated b.edges_violated;
  Alcotest.(check (float 1e-12)) "same shortfall" a.mean_shortfall
    b.mean_shortfall

(* {1 Goldens: the evaluator's reports, bit for bit}

   Captured before [evaluate] and [evaluate_with_tags] shared one pair
   evaluator. *)

let report_digest (r : E2e.report) =
  Printf.sprintf "%d/%d/%d/%h" r.edges_total r.edges_violated r.flows
    r.mean_shortfall

let golden_modes =
  [
    (E2e.No_protection, "10/10/484/0x1.cf83e0f83e0f8p-1");
    (E2e.Hose_protection, "10/6/484/0x1.446c6ab4b446dp-3");
    (E2e.Tag_protection, "10/0/484/0x0p+0");
  ]

let test_golden_reports () =
  List.iter
    (fun (mode, expect) ->
      let tree = Tree.create spec in
      let tenants = deploy tree heavy_tenants in
      let rng = Cm_util.Rng.create 17 in
      let r = E2e.evaluate ~background_flows:200 ~rng ~tree ~tenants ~mode () in
      Alcotest.(check string)
        (E2e.mode_to_string mode) expect (report_digest r))
    golden_modes

let golden_table_md5 = "128e9e7fc6444632227c0d93f8e67d4c"

let test_golden_table () =
  let saved = Cm_util.Par.default_domains () in
  Cm_util.Par.set_default_domains 1;
  let table =
    Fun.protect
      ~finally:(fun () -> Cm_util.Par.set_default_domains saved)
      (fun () ->
        Cm_util.Table.render
          (Cm_experiments.Experiments.end_to_end ~seed:42 ~bmax:800.))
  in
  Alcotest.(check string) "e2e table md5" golden_table_md5
    (Digest.to_hex (Digest.string table))

let () =
  Alcotest.run "cm_e2e"
    [
      ( "integration",
        [
          Alcotest.test_case "TAG protection holds" `Quick
            test_tag_protection_no_violations;
          Alcotest.test_case "no protection violates" `Quick
            test_no_protection_violates_under_congestion;
          Alcotest.test_case "protection ordering" `Quick test_protection_ordering;
          Alcotest.test_case "fig4 end-to-end" `Quick
            test_hose_fails_tag_holds_under_directed_congestion;
          Alcotest.test_case "external traffic protected" `Quick
            test_external_traffic_protected;
          Alcotest.test_case "each external edge scored" `Quick
            test_each_external_scored;
          Alcotest.test_case "report consistency" `Quick test_report_consistency;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "report digests golden" `Quick test_golden_reports;
          Alcotest.test_case "experiment table golden" `Quick test_golden_table;
        ] );
    ]
