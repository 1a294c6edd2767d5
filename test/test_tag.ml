(* Tests for Cm_tag: TAG construction and validation, derived quantities,
   Eq. 1 bandwidth accounting for every model, the paper's illustrative
   examples (Figs. 2-6), colocation-saving conditions (Eqs. 2-6), and
   cross-model dominance properties. *)

module Tag = Cm_tag.Tag
module Bandwidth = Cm_tag.Bandwidth
module Pipe = Cm_tag.Pipe
module Examples = Cm_tag.Examples

let check_float = Alcotest.(check (float 1e-6))

(* {1 Construction and validation} *)

let test_create_valid () =
  let t =
    Tag.create ~components:[ ("a", 2); ("b", 3) ]
      ~edges:[ (0, 1, 10., 20.); (1, 1, 5., 5.) ]
      ()
  in
  Alcotest.(check int) "components" 2 (Tag.n_components t);
  Alcotest.(check int) "vms" 5 (Tag.total_vms t);
  Alcotest.(check int) "edges" 2 (Array.length (Tag.edges t))

let expect_invalid f =
  Alcotest.check_raises "rejected" (Invalid_argument "")
    (fun () ->
      try f () with Invalid_argument _ -> raise (Invalid_argument ""))

let test_create_empty () =
  expect_invalid (fun () -> ignore (Tag.create ~components:[] ~edges:[] ()))

let test_create_bad_size () =
  expect_invalid (fun () ->
      ignore (Tag.create ~components:[ ("a", 0) ] ~edges:[] ()))

let test_create_bad_edge_index () =
  expect_invalid (fun () ->
      ignore
        (Tag.create ~components:[ ("a", 1) ] ~edges:[ (0, 1, 1., 1.) ] ()))

let test_create_negative_bw () =
  expect_invalid (fun () ->
      ignore
        (Tag.create ~components:[ ("a", 1) ] ~edges:[ (0, 0, -1., -1.) ] ()))

let test_create_asymmetric_self_loop () =
  expect_invalid (fun () ->
      ignore
        (Tag.create ~components:[ ("a", 2) ] ~edges:[ (0, 0, 1., 2.) ] ()))

let test_create_duplicate_edge () =
  expect_invalid (fun () ->
      ignore
        (Tag.create
           ~components:[ ("a", 1); ("b", 1) ]
           ~edges:[ (0, 1, 1., 1.); (0, 1, 2., 2.) ]
           ()))

let test_hose_special_case () =
  let t = Tag.hose ~tier:"w" ~size:4 ~bw:100. () in
  Alcotest.(check int) "one component" 1 (Tag.n_components t);
  Alcotest.(check bool) "has self loop" true (Tag.self_loop t 0 <> None)

(* {1 Derived quantities} *)

let test_b_total_min_rule () =
  (* 2 senders at 30 vs 3 receivers at 10: receivers bound at 30. *)
  let t =
    Tag.create ~components:[ ("u", 2); ("v", 3) ]
      ~edges:[ (0, 1, 30., 10.) ]
      ()
  in
  check_float "b_total" 30. (Tag.b_total t (Tag.edges t).(0));
  (* Asymmetric case: senders bound. *)
  let t2 =
    Tag.create ~components:[ ("u", 1); ("v", 10) ]
      ~edges:[ (0, 1, 50., 100.) ]
      ()
  in
  check_float "sender bound" 50. (Tag.b_total t2 (Tag.edges t2).(0))

let test_per_vm_send_recv () =
  let t = Examples.three_tier ~b1:10. ~b2:20. ~b3:5. () in
  (* logic (index 1): out edges to web (10) and db (20). *)
  check_float "logic send" 30. (Tag.per_vm_send t 1);
  check_float "logic recv" 30. (Tag.per_vm_recv t 1);
  (* db (index 2): out edge to logic (20) + self loop (5). *)
  check_float "db send" 25. (Tag.per_vm_send t 2);
  check_float "db recv" 25. (Tag.per_vm_recv t 2)

let test_aggregate_bandwidth () =
  let t = Examples.storm ~s:3 ~b:10. in
  (* 4 trunk edges, each min(3*10, 3*10) = 30. *)
  check_float "aggregate" 120. (Tag.aggregate_bandwidth t)

let test_scale_bw () =
  let t = Examples.storm ~s:3 ~b:10. in
  let t2 = Tag.scale_bw t 2. in
  check_float "doubled" 240. (Tag.aggregate_bandwidth t2);
  check_float "original untouched" 120. (Tag.aggregate_bandwidth t)

let test_mean_vm_demand () =
  let t = Tag.hose ~tier:"w" ~size:4 ~bw:100. () in
  check_float "hose demand" 100. (Tag.mean_vm_demand t)

let test_to_dot_smoke () =
  let s = Tag.to_dot (Examples.storm ~s:2 ~b:1.) in
  Alcotest.(check bool) "digraph" true
    (String.length s > 7 && String.sub s 0 7 = "digraph")

(* {1 Eq. 1: TAG accounting} *)

let test_tag_out_all_inside_is_zero () =
  let t = Examples.three_tier ~b1:10. ~b2:20. ~b3:5. () in
  let inside = [| 4; 4; 4 |] in
  check_float "out" 0. (Bandwidth.tag_out t ~inside);
  check_float "in" 0. (Bandwidth.tag_in t ~inside)

let test_tag_out_all_outside_is_zero () =
  let t = Examples.three_tier ~b1:10. ~b2:20. ~b3:5. () in
  let inside = [| 0; 0; 0 |] in
  check_float "out" 0. (Bandwidth.tag_out t ~inside)

let test_tag_hose_crossing () =
  (* Single hose tier, 4 VMs at 100 Mbps, 1 inside: min(1,3)*100. *)
  let t = Tag.hose ~tier:"w" ~size:4 ~bw:100. () in
  check_float "1 in" 100. (Bandwidth.tag_out t ~inside:[| 1 |]);
  check_float "2 in" 200. (Bandwidth.tag_out t ~inside:[| 2 |]);
  check_float "3 in" 100. (Bandwidth.tag_out t ~inside:[| 3 |])

let test_tag_trunk_crossing () =
  let t =
    Tag.create ~components:[ ("u", 4); ("v", 4) ]
      ~edges:[ (0, 1, 10., 10.) ]
      ()
  in
  (* 2 u inside, all v outside: min(2*10, 4*10) = 20 out. *)
  check_float "out" 20. (Bandwidth.tag_out t ~inside:[| 2; 0 |]);
  (* in direction: min(2*10 outside u... u outside = 2 -> 20 send, v inside 0 -> 0. *)
  check_float "in" 0. (Bandwidth.tag_in t ~inside:[| 2; 0 |]);
  (* u and v split evenly: out = min(2*10, 2*10) = 20; in = min(2*10,2*10)=20. *)
  check_float "split out" 20. (Bandwidth.tag_out t ~inside:[| 2; 2 |]);
  check_float "split in" 20. (Bandwidth.tag_in t ~inside:[| 2; 2 |])

let test_check_inside_rejects () =
  let t = Tag.hose ~tier:"w" ~size:4 ~bw:1. () in
  expect_invalid (fun () -> ignore (Bandwidth.tag_out t ~inside:[| 5 |]));
  expect_invalid (fun () -> ignore (Bandwidth.tag_out t ~inside:[| 1; 1 |]))

(* {1 Fig. 2: hose model over-reservation on the 3-tier app}

   Each tier on its own subtree.  For the DB subtree, the hose model must
   reserve B2+B3 per DB VM while TAG reserves only B2 — the B3 self-loop
   traffic never leaves the subtree. *)

let test_fig2_hose_waste () =
  let b1 = 100. and b2 = 40. and b3 = 30. in
  let n = 4 in
  let t = Examples.three_tier ~b1 ~b2 ~b3 () in
  let inside = [| 0; 0; n |] in
  (* TAG: only logic<->db crosses: min(4*b2, 4*b2). *)
  check_float "tag L3" (float_of_int n *. b2) (Bandwidth.tag_out t ~inside);
  (* Hose: db per-VM hose = b2 + b3; send side binds (b2+b3 < 2*b1+b2). *)
  check_float "hose L3"
    (float_of_int n *. (b2 +. b3))
    (Bandwidth.hose_out t ~inside);
  Alcotest.(check bool) "hose wastes b3" true
    (Bandwidth.hose_out t ~inside > Bandwidth.tag_out t ~inside)

(* {1 Fig. 3: VOC over-reservation on the Storm app}

   Components spout1+bolt1 in one branch, bolt2+bolt3 in the other.  Only
   spout1->bolt2 crosses, so TAG needs S*B; VOC reserves 2*S*B. *)

let test_fig3_voc_waste () =
  let s = 10 and b = 10. in
  let t = Examples.storm ~s ~b in
  let inside = [| s; s; 0; 0 |] in
  let sb = float_of_int s *. b in
  check_float "tag" sb (Bandwidth.tag_out t ~inside);
  check_float "voc" (2. *. sb) (Bandwidth.voc_out t ~inside);
  (* The VOC crossing in the in direction is also 2SB vs TAG's SB
     (bolt3->bolt1 crosses inward). *)
  check_float "tag in" sb (Bandwidth.tag_in t ~inside);
  check_float "voc in" (2. *. sb) (Bandwidth.voc_in t ~inside)

(* {1 Fig. 6 example: hose components} *)

let test_fig6_colocated_violation () =
  let t = Examples.fig6 () in
  (* Two C VMs on one 10 Mbps server: crossing = min(2,2)*6 = 12 > 10. *)
  let inside = [| 0; 0; 2 |] in
  check_float "C pair crossing" 12. (Bandwidth.tag_out t ~inside)

let test_fig6_balanced_fits () =
  let t = Examples.fig6 () in
  (* One A VM + one C VM per server: 1*4 + 1*6 = 10 exactly. *)
  let inside = [| 1; 0; 1 |] in
  check_float "balanced crossing" 10. (Bandwidth.tag_out t ~inside)

(* {1 VOC <-> TAG comparisons on self-loops} *)

let test_voc_equals_tag_for_pure_hose () =
  let t = Tag.hose ~tier:"w" ~size:6 ~bw:50. () in
  for k = 0 to 6 do
    let inside = [| k |] in
    check_float
      (Printf.sprintf "k=%d" k)
      (Bandwidth.tag_out t ~inside)
      (Bandwidth.voc_out t ~inside)
  done

(* {1 Pipe accounting} *)

let test_pipe_less_than_tag () =
  (* Idealized pipes are at least as efficient as TAG (§5.1). *)
  let t = Examples.three_tier ~b1:10. ~b2:20. ~b3:5. () in
  let inside = [| 2; 1; 3 |] in
  Alcotest.(check bool) "pipe <= tag" true
    (Bandwidth.pipe_out t ~inside <= Bandwidth.tag_out t ~inside +. 1e-9)

let test_pipe_of_tag_counts () =
  let t =
    Tag.create ~components:[ ("u", 2); ("v", 3) ]
      ~edges:[ (0, 1, 30., 10.); (0, 0, 6., 6.) ]
      ()
  in
  let pipes = Pipe.of_tag t in
  (* 2*3 trunk pipes + 2*1 self-loop pipes. *)
  Alcotest.(check int) "pipe count" 8 (List.length pipes);
  (* Trunk b_total = min(60,30)=30 across 6 pipes -> 5 each.
     Self loop: per-VM 6 across 1 peer -> 6 each. *)
  let trunk_bw =
    List.filter (fun (p : Pipe.pipe) -> p.src_vm.comp = 0 && p.dst_vm.comp = 1) pipes
  in
  List.iter (fun (p : Pipe.pipe) -> check_float "trunk pipe" 5. p.bw) trunk_bw

let test_pipe_crossing_consistency () =
  (* Pipe.crossing_bandwidth on explicit pipes must match
     Bandwidth.pipe_out on the counts, for a component-aligned split. *)
  let t = Examples.storm ~s:4 ~b:10. in
  let inside = [| 4; 0; 2; 0 |] in
  let pipes = Pipe.of_tag t in
  let src_in (v : Pipe.vm) =
    match v.comp with 0 -> true | 2 -> v.idx < 2 | _ -> false
  in
  let out, into = Pipe.crossing_bandwidth pipes ~src_in in
  check_float "out matches" (Bandwidth.pipe_out t ~inside) out;
  check_float "in matches" (Bandwidth.pipe_in t ~inside) into

let test_singleton_self_loop_no_pipes () =
  let t = Tag.hose ~tier:"w" ~size:1 ~bw:10. () in
  Alcotest.(check int) "no pipes" 0 (List.length (Pipe.of_tag t))

(* {1 External (special) components, §3} *)

let web_with_internet =
  Tag.create ~name:"ext" ~externals:[ "internet" ]
    ~components:[ ("web", 4); ("db", 2) ]
    ~edges:
      [
        (0, 1, 20., 40.);
        (1, 0, 40., 20.);
        (0, 2, 50., 0.);  (* each web VM sends 50 toward the Internet *)
        (2, 0, 0., 80.);  (* and receives 80 from it *)
      ]
    ()

let test_external_indexing () =
  let t = web_with_internet in
  Alcotest.(check int) "components" 2 (Tag.n_components t);
  Alcotest.(check int) "externals" 1 (Tag.n_externals t);
  Alcotest.(check bool) "index 2 external" true (Tag.is_external t 2);
  Alcotest.(check bool) "index 0 internal" false (Tag.is_external t 0);
  Alcotest.(check string) "name" "internet" (Tag.component_name t 2);
  Alcotest.(check int) "vms exclude externals" 6 (Tag.total_vms t);
  Alcotest.(check int) "external size 0" 0 (Tag.size t 2)

let test_external_validation () =
  expect_invalid (fun () ->
      (* external-external edge *)
      ignore
        (Tag.create ~externals:[ "a"; "b" ]
           ~components:[ ("c", 1) ]
           ~edges:[ (1, 2, 1., 1.) ]
           ()));
  expect_invalid (fun () ->
      (* external self-loop is an external-external edge *)
      ignore
        (Tag.create ~externals:[ "a" ]
           ~components:[ ("c", 1) ]
           ~edges:[ (1, 1, 1., 1.) ]
           ()))

let test_external_b_total () =
  let t = web_with_internet in
  let to_net = Option.get (Tag.find_edge t ~src:0 ~dst:2) in
  check_float "vm-side bound only" 200. (Tag.b_total t to_net);
  let from_net = Option.get (Tag.find_edge t ~src:2 ~dst:0) in
  check_float "receive side" 320. (Tag.b_total t from_net)

let test_external_crossing () =
  let t = web_with_internet in
  (* Whole tenant inside one subtree: internal edges contribute nothing,
     external traffic still crosses. *)
  let inside = [| 4; 2 |] in
  check_float "out = 4 web * 50" 200. (Bandwidth.tag_out t ~inside);
  check_float "in = 4 web * 80" 320. (Bandwidth.tag_in t ~inside);
  (* Half the web VMs inside. *)
  let inside = [| 2; 0 |] in
  (* internal: web->db min(2*20, 2*40)=40; db->web min(2*40, 2*20)=40 in;
     external: 2*50 out, 2*80 in. *)
  check_float "mixed out" (40. +. 100.) (Bandwidth.tag_out t ~inside);
  check_float "mixed in" (40. +. 160.) (Bandwidth.tag_in t ~inside)

let test_external_same_for_all_models () =
  (* With no internal edges, all four abstractions price the external
     traffic identically. *)
  let t =
    Tag.create ~externals:[ "storage" ]
      ~components:[ ("app", 5) ]
      ~edges:[ (0, 1, 30., 0.); (1, 0, 0., 60.) ]
      ()
  in
  let inside = [| 3 |] in
  List.iter
    (fun model ->
      let out, into = Bandwidth.required model t ~inside in
      check_float (Bandwidth.model_name model ^ " out") 90. out;
      check_float (Bandwidth.model_name model ^ " in") 180. into)
    [
      Bandwidth.Tag_model;
      Bandwidth.Hose_model;
      Bandwidth.Voc_model;
      Bandwidth.Pipe_model;
    ]

let test_external_no_pipes_or_traffic () =
  let t = web_with_internet in
  List.iter
    (fun (p : Pipe.pipe) ->
      Alcotest.(check bool) "pipes stay internal" true
        (p.src_vm.comp < 2 && p.dst_vm.comp < 2))
    (Pipe.of_tag t)

(* {1 Saving conditions, Eqs. 2-6} *)

let test_eq2_hose_saving () =
  Alcotest.(check bool) "5/8 saves" true
    (Bandwidth.hose_saving_possible ~n_total:8 ~n_inside:5);
  Alcotest.(check bool) "4/8 does not" false
    (Bandwidth.hose_saving_possible ~n_total:8 ~n_inside:4)

let edge_of t = (Tag.edges t).(0)

let test_eq4_saving_amount () =
  let t =
    Tag.create ~components:[ ("u", 4); ("v", 4) ]
      ~edges:[ (0, 1, 10., 10.) ]
      ()
  in
  let e = edge_of t in
  (* All colocated: B2 = 4*10 = 40, B1 = 0 -> saving 40. *)
  check_float "full coloc" 40.
    (Bandwidth.trunk_saving_amount t e ~src_inside:4 ~dst_inside:4);
  (* None of v inside: no saving. *)
  check_float "v outside" 0.
    (Bandwidth.trunk_saving_amount t e ~src_inside:4 ~dst_inside:0);
  (* Partial: 3 u + 3 v inside: max(30 - 10, 0) = 20. *)
  check_float "partial" 20.
    (Bandwidth.trunk_saving_amount t e ~src_inside:3 ~dst_inside:3)

let test_eq5_eq6_consistency () =
  (* Eq. 6 is necessary for Eq. 5 under balanced rates. *)
  let t =
    Tag.create ~components:[ ("u", 6); ("v", 6) ]
      ~edges:[ (0, 1, 10., 10.) ]
      ()
  in
  let e = edge_of t in
  for su = 0 to 6 do
    for sv = 0 to 6 do
      let eq5 = Bandwidth.trunk_saving_condition t e ~src_inside:su ~dst_inside:sv in
      let eq6 = Bandwidth.trunk_size_condition t e ~src_inside:su ~dst_inside:sv in
      if eq5 then
        Alcotest.(check bool)
          (Printf.sprintf "eq6 necessary (%d,%d)" su sv)
          true eq6
    done
  done

let test_eq5_matches_eq4 () =
  (* Eq. 5 holds exactly when Eq. 4's saving is positive. *)
  let t =
    Tag.create ~components:[ ("u", 5); ("v", 7) ]
      ~edges:[ (0, 1, 14., 10.) ]
      ()
  in
  let e = edge_of t in
  for su = 0 to 5 do
    for sv = 0 to 7 do
      let saving =
        Bandwidth.trunk_saving_amount t e ~src_inside:su ~dst_inside:sv
      in
      let eq5 =
        Bandwidth.trunk_saving_condition t e ~src_inside:su ~dst_inside:sv
      in
      Alcotest.(check bool)
        (Printf.sprintf "(%d,%d)" su sv)
        (saving > 0.) eq5
    done
  done

(* {1 Time-varying profiles} *)

module Profile = Cm_tag.Profile

let test_profile_basics () =
  let p = Profile.create [| 0.5; 1.0; 0.25 |] in
  Alcotest.(check int) "slots" 3 (Profile.n_slots p);
  check_float "at 1" 1.0 (Profile.at p 1);
  check_float "cyclic" 0.5 (Profile.at p 3);
  check_float "peak" 1.0 (Profile.peak p);
  check_float "mean" (1.75 /. 3.) (Profile.mean p)

let test_profile_validation () =
  expect_invalid (fun () -> ignore (Profile.create [||]));
  expect_invalid (fun () -> ignore (Profile.create [| -0.1 |]))

let test_profile_resample () =
  let p = Profile.create [| 1.0; 0.5 |] in
  let q = Profile.resample p ~n_slots:4 in
  Alcotest.(check int) "slots" 4 (Profile.n_slots q);
  check_float "first half" 1.0 (Profile.at q 0);
  check_float "first half b" 1.0 (Profile.at q 1);
  check_float "second half" 0.5 (Profile.at q 2);
  (* Resampling to the same resolution is the identity. *)
  let r = Profile.resample p ~n_slots:2 in
  check_float "identity 0" 1.0 (Profile.at r 0);
  check_float "identity 1" 0.5 (Profile.at r 1)

let test_profile_scale_tag () =
  let tag = Tag.hose ~tier:"w" ~size:4 ~bw:100. () in
  let p = Profile.create [| 1.0; 0.3 |] in
  check_float "slot 0" 400.
    (Tag.aggregate_bandwidth (Profile.scale_tag tag p ~slot:0));
  check_float "slot 1" 120.
    (Tag.aggregate_bandwidth (Profile.scale_tag tag p ~slot:1));
  check_float "peak tag" 400. (Tag.aggregate_bandwidth (Profile.peak_tag tag p))

let test_profile_diurnal_shape () =
  let rng = Cm_util.Rng.create 4 in
  let p = Profile.diurnal rng ~n_slots:24 in
  Alcotest.(check int) "24 slots" 24 (Profile.n_slots p);
  check_float "normalized peak" 1.0 (Profile.peak p);
  Alcotest.(check bool) "has a trough" true (Profile.mean p < 0.9)

let test_multiplexing_antiphase () =
  (* Two identical tenants in perfect antiphase: slot-aware reservations
     need half of sum-of-peaks. *)
  let tag = Tag.hose ~tier:"w" ~size:2 ~bw:100. () in
  let a = Profile.create [| 1.0; 0.0 |] in
  let b = Profile.create [| 0.0; 1.0 |] in
  let m = Profile.multiplexing [ (tag, a); (tag, b) ] in
  check_float "sum of peaks" 400. m.sum_of_peaks;
  check_float "peak of sums" 200. m.peak_of_sums;
  check_float "saving" 0.5 m.saving_fraction

let test_multiplexing_in_phase_no_saving () =
  let tag = Tag.hose ~tier:"w" ~size:2 ~bw:100. () in
  let p = Profile.create [| 1.0; 0.5 |] in
  let m = Profile.multiplexing [ (tag, p); (tag, p) ] in
  check_float "no saving" 0. m.saving_fraction

let test_multiplexing_mixed_resolutions () =
  let tag = Tag.hose ~tier:"w" ~size:2 ~bw:100. () in
  let a = Profile.create [| 1.0; 0.0 |] in
  let b = Profile.create [| 0.0; 0.0; 1.0; 1.0 |] in
  (* b is the 4-slot version of antiphase; the 2-slot a resamples. *)
  let m = Profile.multiplexing [ (tag, a); (tag, b) ] in
  check_float "saving" 0.5 m.saving_fraction

let prop_multiplexing_bounds =
  QCheck.Test.make ~name:"peak-of-sums <= sum-of-peaks" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 6) (int_range 1 20))
    (fun seeds ->
      let tenants =
        List.map
          (fun seed ->
            let rng = Cm_util.Rng.create seed in
            ( Tag.hose ~tier:"w" ~size:(1 + (seed mod 5)) ~bw:50. (),
              Profile.diurnal rng ~n_slots:12 ))
          seeds
      in
      let m = Profile.multiplexing tenants in
      m.peak_of_sums <= m.sum_of_peaks +. 1e-6
      && m.saving_fraction >= -1e-9
      && m.saving_fraction <= 1.)

(* {1 Text format} *)

module Tag_format = Cm_tag.Tag_format

let sample_text =
  "# three-tier shop\n\
   tag shop\n\
   component web 4\n\
   component logic 4\n\
   component db 2\n\
   external internet\n\
   edge web logic 300 200  # request path\n\
   edge logic web 200 300\n\
   selfloop db 50\n\
   edge web internet 25 0\n"

let test_format_parse () =
  match Tag_format.of_string sample_text with
  | Error m -> Alcotest.failf "parse failed: %s" m
  | Ok t ->
      Alcotest.(check string) "name" "shop" (Tag.name t);
      Alcotest.(check int) "components" 3 (Tag.n_components t);
      Alcotest.(check int) "externals" 1 (Tag.n_externals t);
      Alcotest.(check int) "edges" 4 (Array.length (Tag.edges t));
      let e = Option.get (Tag.find_edge t ~src:0 ~dst:1) in
      check_float "send" 300. e.snd_bw;
      check_float "recv" 200. e.rcv_bw;
      Alcotest.(check bool) "self loop" true (Tag.self_loop t 2 <> None)

let test_format_roundtrip () =
  let original = Option.get (Result.to_option (Tag_format.of_string sample_text)) in
  match Tag_format.of_string (Tag_format.to_text original) with
  | Error m -> Alcotest.failf "re-parse failed: %s" m
  | Ok reparsed -> Alcotest.(check bool) "equal" true (Tag.equal original reparsed)

let contains m frag =
  let lh = String.length m and lf = String.length frag in
  let rec go i = i + lf <= lh && (String.sub m i lf = frag || go (i + 1)) in
  go 0

let test_format_errors () =
  let expect_err text frag =
    match Tag_format.of_string text with
    | Ok _ -> Alcotest.failf "expected error mentioning %S" frag
    | Error m ->
        Alcotest.(check bool) (Printf.sprintf "%S in %S" frag m) true
          (contains m frag)
  in
  expect_err "component web x\n" "line 1";
  expect_err "component web 4\nedge web nowhere 1 1\n" "unknown component";
  expect_err "frobnicate\n" "unrecognized";
  expect_err "component web 4\nedge web web -3 1\n" "line 2";
  expect_err "component web 0\n" "size";
  (* float_of_string accepts these; a bandwidth must still be finite,
     and the message must name the value (nan is not "negative"). *)
  List.iter
    (fun x ->
      let frag = Printf.sprintf "%S is not finite" x in
      expect_err (Printf.sprintf "component web 4\nedge web web %s 1\n" x) frag;
      expect_err (Printf.sprintf "component web 4\nedge web web 1 %s\n" x) frag;
      expect_err (Printf.sprintf "component web 4\nselfloop web %s\n" x) frag;
      expect_err
        (Printf.sprintf "component a 2\ncomponent b 2\nduplex a b %s 1\n" x)
        frag)
    [ "inf"; "-inf"; "nan"; "1e999" ]

let test_format_duplex () =
  (* Footnote 6: one undirected edge expands to the two directed edges
     with symmetric values. *)
  let text =
    "component a 2\ncomponent b 4\nduplex a b 100 50\n"
  in
  match Tag_format.of_string text with
  | Error m -> Alcotest.failf "parse: %s" m
  | Ok t ->
      Alcotest.(check int) "two edges" 2 (Array.length (Tag.edges t));
      let fwd = Option.get (Tag.find_edge t ~src:0 ~dst:1) in
      check_float "S(a,b)" 100. fwd.snd_bw;
      check_float "R(a,b)" 50. fwd.rcv_bw;
      let back = Option.get (Tag.find_edge t ~src:1 ~dst:0) in
      check_float "S(b,a) = R(a,b)" 50. back.snd_bw;
      check_float "R(b,a) = S(a,b)" 100. back.rcv_bw

let test_format_examples_roundtrip () =
  List.iter
    (fun tag ->
      match Tag_format.of_string (Tag_format.to_text tag) with
      | Error m -> Alcotest.failf "%s: %s" (Tag.name tag) m
      | Ok reparsed ->
          Alcotest.(check int)
            (Tag.name tag ^ " components")
            (Tag.n_components tag) (Tag.n_components reparsed);
          check_float
            (Tag.name tag ^ " aggregate")
            (Tag.aggregate_bandwidth tag)
            (Tag.aggregate_bandwidth reparsed))
    [
      Examples.three_tier ~b1:10. ~b2:20. ~b3:5. ();
      Examples.storm ~s:4 ~b:100.;
      Examples.fig6 ();
      Examples.fig13 ();
    ]

(* {1 Property-based dominance: TAG <= VOC, TAG <= hose, pipe <= TAG} *)

let random_tag_gen =
  let open QCheck.Gen in
  let* n_comp = int_range 1 5 in
  let* sizes = list_repeat n_comp (int_range 1 8) in
  let components = List.mapi (fun i s -> (Printf.sprintf "c%d" i, s)) sizes in
  let* edges =
    let all_pairs =
      List.concat_map
        (fun i -> List.map (fun j -> (i, j)) (List.init n_comp Fun.id))
        (List.init n_comp Fun.id)
    in
    let pick_edge (i, j) =
      let* keep = bool in
      if not keep then return None
      else
        let* s = float_range 0. 100. in
        if i = j then return (Some (i, j, s, s))
        else
          let* r = float_range 0. 100. in
          return (Some (i, j, s, r))
    in
    let* opts = flatten_l (List.map pick_edge all_pairs) in
    return (List.filter_map Fun.id opts)
  in
  return (Tag.create ~components ~edges ())

let random_split_gen tag =
  let open QCheck.Gen in
  let n = Tag.n_components tag in
  let* fracs = list_repeat n (int_range 0 100) in
  return
    (Array.of_list
       (List.mapi (fun c f -> Tag.size tag c * f / 100) fracs))

let tag_and_split =
  QCheck.make
    QCheck.Gen.(random_tag_gen >>= fun t ->
                random_split_gen t >>= fun s -> return (t, s))

let prop_tag_le_voc =
  QCheck.Test.make ~name:"TAG requirement <= VOC requirement" ~count:500
    tag_and_split (fun (t, inside) ->
      Bandwidth.tag_out t ~inside <= Bandwidth.voc_out t ~inside +. 1e-6
      && Bandwidth.tag_in t ~inside <= Bandwidth.voc_in t ~inside +. 1e-6)

let prop_tag_le_hose =
  QCheck.Test.make ~name:"TAG requirement <= hose requirement" ~count:500
    tag_and_split (fun (t, inside) ->
      Bandwidth.tag_out t ~inside <= Bandwidth.hose_out t ~inside +. 1e-6)

let prop_pipe_le_tag =
  QCheck.Test.make ~name:"pipe requirement <= TAG requirement" ~count:500
    tag_and_split (fun (t, inside) ->
      Bandwidth.pipe_out t ~inside <= Bandwidth.tag_out t ~inside +. 1e-6)

let prop_all_inside_zero =
  QCheck.Test.make ~name:"whole tenant inside needs no uplink" ~count:200
    (QCheck.make random_tag_gen) (fun t ->
      let inside = Array.init (Tag.n_components t) (Tag.size t) in
      Bandwidth.tag_out t ~inside = 0. && Bandwidth.tag_in t ~inside = 0.)

let prop_complement_symmetry =
  QCheck.Test.make ~name:"out of X equals in of complement" ~count:500
    tag_and_split (fun (t, inside) ->
      let complement =
        Array.mapi (fun c k -> Tag.size t c - k) inside
      in
      Float.abs
        (Bandwidth.tag_out t ~inside -. Bandwidth.tag_in t ~inside:complement)
      < 1e-6)

(* {1 Fused Eq. 1 kernel: bitwise equal to the reference sums}

   [Bandwidth.tag_required] walks the TAG's flat edge view; [tag_out] and
   [tag_in] walk the edge records.  Random TAGs cover self-loops,
   externals in both directions, [vm_slots > 1] and full meshes of up to
   12 tiers; each case is checked again after [with_size] (with a fresh
   inside vector in the new range) and [scale_bw], so a view left stale
   by either transformation fails. *)

let eq1_tag_gen =
  let open QCheck.Gen in
  let* n_comp = int_range 1 12 in
  let* n_ext = int_range 0 2 in
  let* mesh = bool in
  let* sizes = list_repeat n_comp (int_range 1 40) in
  let* vm_slots = list_repeat n_comp (int_range 1 3) in
  let n_total = n_comp + n_ext in
  (* Every ordered pair except external-to-external (self-loops on an
     external included), which [Tag.create] rejects. *)
  let pairs =
    List.concat_map
      (fun i ->
        List.filter_map
          (fun j -> if i >= n_comp && j >= n_comp then None else Some (i, j))
          (List.init n_total Fun.id))
      (List.init n_total Fun.id)
  in
  let pick_edge (i, j) =
    let* keep = if mesh then return true else bool in
    if not keep then return None
    else
      let* s = float_range 0. 1000. in
      if i = j then return (Some (i, j, s, s))
      else
        let* r = float_range 0. 1000. in
        return (Some (i, j, s, r))
  in
  let* edges = flatten_l (List.map pick_edge pairs) in
  return
    (Tag.create ~vm_slots
       ~externals:(List.init n_ext (Printf.sprintf "x%d"))
       ~components:(List.mapi (fun i n -> (Printf.sprintf "c%d" i, n)) sizes)
       ~edges:(List.filter_map Fun.id edges)
       ())

let inside_gen tag =
  QCheck.Gen.(
    map Array.of_list
      (flatten_l
         (List.init (Tag.n_components tag) (fun c ->
              int_range 0 (Tag.size tag c)))))

let eq1_cases =
  let open QCheck.Gen in
  let gen =
    let* tag = eq1_tag_gen in
    let* inside = inside_gen tag in
    let* comp = int_range 0 (Tag.n_components tag - 1) in
    let* size = int_range 1 40 in
    let resized = Tag.with_size tag ~comp ~size in
    let* inside_resized = inside_gen resized in
    let* factor = float_range 0. 4. in
    return
      [ (tag, inside); (resized, inside_resized); (Tag.scale_bw tag factor, inside) ]
  in
  let print cases =
    String.concat "\n"
      (List.map
         (fun (t, inside) ->
           Printf.sprintf "%s\ninside = [%s]" (Tag.to_string t)
             (String.concat "; " (Array.to_list (Array.map string_of_int inside))))
         cases)
  in
  QCheck.make ~print gen

let prop_tag_required_bitwise =
  QCheck.Test.make ~name:"tag_required bitwise = (tag_out, tag_in)" ~count:500
    eq1_cases
    (List.for_all (fun (t, inside) ->
         let o, i = Bandwidth.tag_required t ~inside in
         Int64.equal (Int64.bits_of_float o)
           (Int64.bits_of_float (Bandwidth.tag_out t ~inside))
         && Int64.equal (Int64.bits_of_float i)
              (Int64.bits_of_float (Bandwidth.tag_in t ~inside))))

(* {1 One owner per TAG rule: Tag.validate} *)

let test_validate_duplicate_names () =
  let expect_error frag ~externals components =
    match Tag.validate ~externals ~components ~edges:[ (0, 0, 1., 1.) ] () with
    | Ok _ -> Alcotest.failf "expected an error mentioning %S" frag
    | Error m ->
        Alcotest.(check bool) (Printf.sprintf "%S in %S" frag m) true
          (contains m frag)
  in
  expect_error {|duplicate component name "a"|} ~externals:[]
    [ ("a", 2); ("a", 3) ];
  expect_error {|duplicate component name "a"|} ~externals:[ "a" ]
    [ ("a", 2) ];
  match Tag_format.of_string "component a 2\nexternal a\nedge a a 1 1\n" with
  | Ok _ -> Alcotest.fail "a .tag file with a duplicate name must error"
  | Error _ -> ()

let test_validate_nan_self_loop () =
  (* NaN is not "negative" and not "asymmetric": it is non-finite. *)
  List.iter
    (fun x ->
      match
        Tag.validate ~components:[ ("a", 2) ] ~edges:[ (0, 0, x, x) ] ()
      with
      | Ok _ -> Alcotest.failf "bandwidth %g accepted" x
      | Error m ->
          Alcotest.(check bool) (m ^ " says non-finite") true
            (contains m "is not finite"))
    [ nan; infinity; neg_infinity ]

(* Bandwidths on and past every edge of the rule: NaN, both infinities,
   huge, subnormal and signed zeros. *)
let raw_bandwidths =
  [| nan; infinity; neg_infinity; 1e300; 5e-324; 1e-310; 0.; -0.; 1.; -1.; 250. |]

(* Mostly well-formed raw TAGs with one or two rules at risk: names
   collide, sizes, slot costs and indices step out of range, and
   bandwidths come from [raw_bandwidths]. *)
let raw_tag_gen =
  let open QCheck.Gen in
  let name i = frequency [ (7, return (Printf.sprintf "n%d" i)); (1, return "a") ] in
  let* n_comp = frequency [ (1, return 0); (8, int_range 1 3) ] in
  let* components =
    flatten_l
      (List.init n_comp (fun i ->
           pair (name i) (frequency [ (8, int_range 1 3); (1, int_range (-1) 0) ])))
  in
  let* n_ext = int_range 0 2 in
  let* externals = flatten_l (List.init n_ext (fun i -> name (n_comp + i))) in
  let n_total = n_comp + n_ext in
  let* vm_slots =
    frequency
      [
        (6, return None);
        (2, map Option.some (list_repeat n_comp (int_range 1 2)));
        (1, map Option.some (list_size (int_range 0 3) (int_range (-1) 2)));
      ]
  in
  let endpoint =
    frequency [ (12, int_range 0 (max 0 (n_total - 1))); (1, int_range (-1) n_total) ]
  in
  let bw = frequency [ (3, oneofa raw_bandwidths); (2, float_range 0. 1000.) ] in
  let* edges =
    list_size (int_range 0 5)
      (let* src = endpoint and* dst = endpoint and* s = bw and* r = bw in
       let* self_sr = frequency [ (5, return true); (1, return false) ] in
       return (src, dst, s, if src = dst && self_sr then s else r))
  in
  return (components, externals, vm_slots, edges)

let prop_validate_iff_create =
  let print (components, externals, vm_slots, edges) =
    Printf.sprintf "components [%s] externals [%s] vm_slots %s edges [%s]"
      (String.concat "; "
         (List.map (fun (n, k) -> Printf.sprintf "%s %d" n k) components))
      (String.concat "; " externals)
      (match vm_slots with
      | None -> "-"
      | Some l -> String.concat "," (List.map string_of_int l))
      (String.concat "; "
         (List.map
            (fun (a, b, x, y) -> Printf.sprintf "(%d,%d,%h,%h)" a b x y)
            edges))
  in
  QCheck.Test.make ~name:"validate errs iff create raises" ~count:2000
    (QCheck.make ~print raw_tag_gen)
    (fun (components, externals, vm_slots, edges) ->
      let created =
        match Tag.create ~externals ?vm_slots ~components ~edges () with
        | t -> Ok t
        | exception Invalid_argument m -> Error m
      in
      match (Tag.validate ~externals ?vm_slots ~components ~edges (), created)
      with
      | Ok a, Ok b -> Tag.equal a b
      | Error m, Error m' -> m' = "Tag.create: " ^ m
      | _ -> false)

(* A valid file with one token replaced, one line dropped or doubled,
   or a line of token soup appended. *)
let format_tokens =
  [| "tag"; "component"; "external"; "edge"; "duplex"; "selfloop"; "#"; "web";
     "logic"; "db"; "internet"; "0"; "-1"; "4"; "99999999999999999999"; "nan";
     "inf"; "-inf"; "1e999"; "1e300"; "5e-324"; "-0"; "0x1p-1074"; "1_000";
     "\t"; "" |]

let format_text_gen =
  let open QCheck.Gen in
  let token = oneofa format_tokens in
  let soup_line = map (String.concat " ") (list_size (int_range 0 6) token) in
  let lines = String.split_on_char '\n' sample_text in
  let n = List.length lines in
  let mutate =
    let* i = int_bound (n - 1) in
    let* how = int_bound 3 in
    let* tok = token and* at = int_bound 5 and* soup = soup_line in
    return
      (List.concat
         (List.mapi
            (fun j line ->
              if j <> i then [ line ]
              else
                match how with
                | 0 -> []
                | 1 -> [ line; line ]
                | 2 ->
                    let words = String.split_on_char ' ' line in
                    let k = at mod max 1 (List.length words) in
                    [
                      String.concat " "
                        (List.mapi (fun q w -> if q = k then tok else w) words);
                    ]
                | _ -> [ line; soup ])
            lines))
  in
  let* lines =
    frequency [ (3, mutate); (1, list_size (int_range 0 8) soup_line) ]
  in
  return (String.concat "\n" lines)

let prop_format_total =
  QCheck.Test.make ~name:"Tag_format.of_string never raises" ~count:2000
    (QCheck.make ~print:(Printf.sprintf "%S") format_text_gen)
    (fun text ->
      match Tag_format.of_string text with Ok _ | Error _ -> true)

let () =
  Alcotest.run "cm_tag"
    [
      ( "construction",
        [
          Alcotest.test_case "valid" `Quick test_create_valid;
          Alcotest.test_case "empty rejected" `Quick test_create_empty;
          Alcotest.test_case "bad size rejected" `Quick test_create_bad_size;
          Alcotest.test_case "bad index rejected" `Quick test_create_bad_edge_index;
          Alcotest.test_case "negative bw rejected" `Quick test_create_negative_bw;
          Alcotest.test_case "asymmetric self-loop rejected" `Quick
            test_create_asymmetric_self_loop;
          Alcotest.test_case "duplicate edge rejected" `Quick
            test_create_duplicate_edge;
          Alcotest.test_case "hose special case" `Quick test_hose_special_case;
        ] );
      ( "derived",
        [
          Alcotest.test_case "b_total min rule" `Quick test_b_total_min_rule;
          Alcotest.test_case "per-VM send/recv" `Quick test_per_vm_send_recv;
          Alcotest.test_case "aggregate bandwidth" `Quick test_aggregate_bandwidth;
          Alcotest.test_case "scale_bw" `Quick test_scale_bw;
          Alcotest.test_case "mean VM demand" `Quick test_mean_vm_demand;
          Alcotest.test_case "to_dot smoke" `Quick test_to_dot_smoke;
        ] );
      ( "eq1",
        [
          Alcotest.test_case "all inside -> zero" `Quick
            test_tag_out_all_inside_is_zero;
          Alcotest.test_case "all outside -> zero" `Quick
            test_tag_out_all_outside_is_zero;
          Alcotest.test_case "hose crossing" `Quick test_tag_hose_crossing;
          Alcotest.test_case "trunk crossing" `Quick test_tag_trunk_crossing;
          Alcotest.test_case "inside validation" `Quick test_check_inside_rejects;
        ] );
      ( "paper-examples",
        [
          Alcotest.test_case "fig2 hose waste" `Quick test_fig2_hose_waste;
          Alcotest.test_case "fig3 voc waste" `Quick test_fig3_voc_waste;
          Alcotest.test_case "fig6 colocated violation" `Quick
            test_fig6_colocated_violation;
          Alcotest.test_case "fig6 balanced fits" `Quick test_fig6_balanced_fits;
          Alcotest.test_case "voc = tag on pure hose" `Quick
            test_voc_equals_tag_for_pure_hose;
        ] );
      ( "pipe",
        [
          Alcotest.test_case "pipe <= tag" `Quick test_pipe_less_than_tag;
          Alcotest.test_case "of_tag counts" `Quick test_pipe_of_tag_counts;
          Alcotest.test_case "crossing consistency" `Quick
            test_pipe_crossing_consistency;
          Alcotest.test_case "singleton self-loop" `Quick
            test_singleton_self_loop_no_pipes;
        ] );
      ( "externals",
        [
          Alcotest.test_case "indexing" `Quick test_external_indexing;
          Alcotest.test_case "validation" `Quick test_external_validation;
          Alcotest.test_case "b_total" `Quick test_external_b_total;
          Alcotest.test_case "crossing" `Quick test_external_crossing;
          Alcotest.test_case "same under all models" `Quick
            test_external_same_for_all_models;
          Alcotest.test_case "no external pipes" `Quick
            test_external_no_pipes_or_traffic;
        ] );
      ( "saving-conditions",
        [
          Alcotest.test_case "eq2" `Quick test_eq2_hose_saving;
          Alcotest.test_case "eq4 amounts" `Quick test_eq4_saving_amount;
          Alcotest.test_case "eq6 necessary for eq5" `Quick
            test_eq5_eq6_consistency;
          Alcotest.test_case "eq5 iff eq4 positive" `Quick test_eq5_matches_eq4;
        ] );
      ( "profiles",
        [
          Alcotest.test_case "basics" `Quick test_profile_basics;
          Alcotest.test_case "validation" `Quick test_profile_validation;
          Alcotest.test_case "resample" `Quick test_profile_resample;
          Alcotest.test_case "scale tag" `Quick test_profile_scale_tag;
          Alcotest.test_case "diurnal shape" `Quick test_profile_diurnal_shape;
          Alcotest.test_case "antiphase multiplexing" `Quick
            test_multiplexing_antiphase;
          Alcotest.test_case "in-phase no saving" `Quick
            test_multiplexing_in_phase_no_saving;
          Alcotest.test_case "mixed resolutions" `Quick
            test_multiplexing_mixed_resolutions;
          QCheck_alcotest.to_alcotest prop_multiplexing_bounds;
        ] );
      ( "validate",
        [
          Alcotest.test_case "duplicate names rejected" `Quick
            test_validate_duplicate_names;
          Alcotest.test_case "non-finite self-loop" `Quick
            test_validate_nan_self_loop;
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 26 |])
            prop_validate_iff_create;
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 27 |])
            prop_format_total;
        ] );
      ( "format",
        [
          Alcotest.test_case "parse" `Quick test_format_parse;
          Alcotest.test_case "round trip" `Quick test_format_roundtrip;
          Alcotest.test_case "errors" `Quick test_format_errors;
          Alcotest.test_case "duplex sugar" `Quick test_format_duplex;
          Alcotest.test_case "examples round trip" `Quick
            test_format_examples_roundtrip;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_tag_le_voc;
            prop_tag_le_hose;
            prop_pipe_le_tag;
            prop_all_inside_zero;
            prop_complement_symmetry;
            prop_tag_required_bitwise;
          ] );
    ]
