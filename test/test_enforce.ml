(* Tests for Cm_enforce: max-min fairness, guarantee-aware allocation,
   ElasticSwitch guarantee partitioning (hose vs TAG), and the paper's
   Fig. 4 / Fig. 13 enforcement results. *)

module Maxmin = Cm_enforce.Maxmin
module Elastic = Cm_enforce.Elastic
module Scenario = Cm_enforce.Scenario

let check_float = Alcotest.(check (float 1e-6))

let flow ?(guarantee = 0.) id path demand =
  { Maxmin.flow_id = id; path; demand; guarantee }

let link id capacity = { Maxmin.link_id = id; capacity }

let rate rates id =
  let _, r = Array.to_list rates |> List.find (fun (i, _) -> i = id) in
  r

(* {1 Plain max-min} *)

let test_maxmin_equal_share () =
  let rates =
    Maxmin.max_min
      ~links:[ link 0 90. ]
      ~flows:[ flow 0 [ 0 ] infinity; flow 1 [ 0 ] infinity; flow 2 [ 0 ] infinity ]
  in
  Array.iter (fun (_, r) -> check_float "equal thirds" 30. r) rates

let test_maxmin_demand_limited () =
  let rates =
    Maxmin.max_min
      ~links:[ link 0 90. ]
      ~flows:[ flow 0 [ 0 ] 10.; flow 1 [ 0 ] infinity ]
  in
  check_float "small flow gets demand" 10. (rate rates 0);
  check_float "big flow gets rest" 80. (rate rates 1)

let test_maxmin_two_bottlenecks () =
  (* Classic example: flow A on links 0+1, flow B on 0, flow C on 1.
     Caps 10 and 20: A=5, B=5, C=15. *)
  let rates =
    Maxmin.max_min
      ~links:[ link 0 10.; link 1 20. ]
      ~flows:
        [ flow 0 [ 0; 1 ] infinity; flow 1 [ 0 ] infinity; flow 2 [ 1 ] infinity ]
  in
  check_float "A" 5. (rate rates 0);
  check_float "B" 5. (rate rates 1);
  check_float "C" 15. (rate rates 2)

let test_maxmin_empty_path_unbounded_demand () =
  let rates =
    Maxmin.max_min ~links:[ link 0 10. ] ~flows:[ flow 0 [] 25. ]
  in
  check_float "gets demand" 25. (rate rates 0)

let test_maxmin_unknown_link_rejected () =
  Alcotest.check_raises "unknown link" (Invalid_argument "")
    (fun () ->
      try
        ignore (Maxmin.max_min ~links:[ link 0 1. ] ~flows:[ flow 0 [ 7 ] 1. ])
      with Invalid_argument _ -> raise (Invalid_argument ""))

let test_maxmin_duplicate_link_rejected () =
  (* A repeated link id in one path used to be accepted silently,
     double-counting the flow on that link's active counter and
     double-charging its remaining capacity.  All three entry points
     must reject it like an unknown link. *)
  let links = [ link 0 10.; link 1 10. ] in
  let dup = flow 0 [ 0; 1; 0 ] 1. in
  let reject name f =
    Alcotest.check_raises name (Invalid_argument "") (fun () ->
        try f () with Invalid_argument _ -> raise (Invalid_argument ""))
  in
  reject "max_min" (fun () -> ignore (Maxmin.max_min ~links ~flows:[ dup ]));
  reject "with_guarantees" (fun () ->
      ignore (Maxmin.with_guarantees ~links ~flows:[ dup ]));
  reject "Inc.set" (fun () ->
      let t = Maxmin.Inc.create ~links in
      Maxmin.Inc.set t dup)

(* {1 Guarantee-aware allocation} *)

let test_guarantees_protect () =
  (* One guaranteed flow vs three aggressive flows on a 100 Mbps link. *)
  let rates =
    Maxmin.with_guarantees
      ~links:[ link 0 100. ]
      ~flows:
        [
          flow ~guarantee:60. 0 [ 0 ] infinity;
          flow 1 [ 0 ] infinity;
          flow 2 [ 0 ] infinity;
          flow 3 [ 0 ] infinity;
        ]
  in
  Alcotest.(check bool) "guarantee met" true (rate rates 0 >= 60.);
  (* Work conservation: everything allocated. *)
  let total = Array.fold_left (fun acc (_, r) -> acc +. r) 0. rates in
  check_float "link saturated" 100. total

let test_guarantees_work_conserving_when_idle () =
  (* A guaranteed flow that is idle leaves its bandwidth to others. *)
  let rates =
    Maxmin.with_guarantees
      ~links:[ link 0 100. ]
      ~flows:[ flow ~guarantee:60. 0 [ 0 ] 5.; flow 1 [ 0 ] infinity ]
  in
  check_float "idle flow capped by demand" 5. (rate rates 0);
  check_float "rest goes to busy flow" 95. (rate rates 1)

let test_guarantees_infeasible_rejected () =
  Alcotest.check_raises "infeasible" (Invalid_argument "")
    (fun () ->
      try
        ignore
          (Maxmin.with_guarantees
             ~links:[ link 0 100. ]
             ~flows:
               [
                 flow ~guarantee:80. 0 [ 0 ] infinity;
                 flow ~guarantee:80. 1 [ 0 ] infinity;
               ])
      with Invalid_argument _ -> raise (Invalid_argument ""))

(* {1 Guarantee partitioning} *)

let ep comp vm = { Elastic.comp; vm }

let test_tag_gp_splits_per_edge () =
  let tag = Cm_tag.Examples.fig13 () in
  (* X -> Z plus two C2 senders -> Z. *)
  let pairs =
    [
      { Elastic.src = ep 0 0; dst = ep 1 0 };
      { Elastic.src = ep 1 1; dst = ep 1 0 };
      { Elastic.src = ep 1 2; dst = ep 1 0 };
    ]
  in
  match Elastic.pair_guarantees tag Elastic.Tag_gp ~pairs with
  | [ (_, g_x); (_, g_s1); (_, g_s2) ] ->
      check_float "trunk keeps 450" 450. g_x;
      check_float "self-loop split" 225. g_s1;
      check_float "self-loop split 2" 225. g_s2
  | _ -> Alcotest.fail "three pairs expected"

let test_hose_gp_aggregates () =
  let tag = Cm_tag.Examples.fig13 () in
  let pairs =
    [
      { Elastic.src = ep 0 0; dst = ep 1 0 };
      { Elastic.src = ep 1 1; dst = ep 1 0 };
      { Elastic.src = ep 1 2; dst = ep 1 0 };
    ]
  in
  match Elastic.pair_guarantees tag Elastic.Hose_gp ~pairs with
  | [ (_, g_x); (_, g_s1); _ ] ->
      (* Z's hose = 900, 3 active sources -> 300 each; X's send hose 450
         does not bind. *)
      check_float "hose dilutes X" 300. g_x;
      check_float "hose sender" 300. g_s1
  | _ -> Alcotest.fail "three pairs expected"

let test_tag_gp_no_edge_zero () =
  let tag =
    Cm_tag.Tag.create
      ~components:[ ("a", 1); ("b", 1) ]
      ~edges:[ (0, 1, 100., 100.) ]
      ()
  in
  (* b -> a has no TAG edge: guarantee 0. *)
  match
    Elastic.pair_guarantees tag Elastic.Tag_gp
      ~pairs:[ { Elastic.src = ep 1 0; dst = ep 0 0 } ]
  with
  | [ (_, g) ] -> check_float "no edge, no guarantee" 0. g
  | _ -> Alcotest.fail "one pair expected"

let test_gp_external_side_uncapped () =
  (* Two web VMs send 100 each to the Internet and receive 50 each from
     it; the external side of both edges is 0 by the [Tag.create]
     convention and must not cap the pairs. *)
  let tag =
    Cm_tag.Tag.create ~externals:[ "internet" ]
      ~components:[ ("web", 2) ]
      ~edges:[ (0, 1, 100., 0.); (1, 0, 0., 50.) ]
      ()
  in
  let pairs =
    [
      { Elastic.src = ep 0 0; dst = ep 1 0 };
      { Elastic.src = ep 0 1; dst = ep 1 0 };
      { Elastic.src = ep 1 0; dst = ep 0 0 };
    ]
  in
  List.iter
    (fun gp ->
      let name = Elastic.enforcement_to_string gp in
      match Elastic.pair_guarantees tag gp ~pairs with
      | [ (_, out0); (_, out1); (_, in0) ] ->
          check_float (name ^ ": web0 out") 100. out0;
          check_float (name ^ ": web1 out") 100. out1;
          check_float (name ^ ": web0 in") 50. in0
      | _ -> Alcotest.fail "three pairs expected")
    [ Elastic.Tag_gp; Elastic.Hose_gp ]

let test_gp_demand_aware_redistribution () =
  (* ElasticSwitch GP is max-min: a pair that needs less than its fair
     share of the hose donates the remainder to the other pairs. *)
  let tag = Cm_tag.Examples.fig13 () in
  let pairs =
    [
      { Elastic.src = ep 1 1; dst = ep 1 0 };
      { Elastic.src = ep 1 2; dst = ep 1 0 };
      { Elastic.src = ep 1 3; dst = ep 1 0 };
    ]
  in
  (* Z's 450 self-loop hose over three senders: equal split is 150 each;
     sender 1 only wants 30 -> others get (450-30)/2 = 210. *)
  match
    Elastic.pair_guarantees ~demands:[ 30.; infinity; infinity ] tag
      Elastic.Tag_gp ~pairs
  with
  | [ (_, g1); (_, g2); (_, g3) ] ->
      check_float "small demand capped" 30. g1;
      check_float "redistributed" 210. g2;
      check_float "redistributed 2" 210. g3
  | _ -> Alcotest.fail "three pairs expected"

let test_gp_demands_length_mismatch () =
  let tag = Cm_tag.Examples.fig13 () in
  Alcotest.check_raises "mismatch" (Invalid_argument "")
    (fun () ->
      try
        ignore
          (Elastic.pair_guarantees ~demands:[ 1. ] tag Elastic.Tag_gp
             ~pairs:
               [
                 { Elastic.src = ep 0 0; dst = ep 1 0 };
                 { Elastic.src = ep 1 1; dst = ep 1 0 };
               ])
      with Invalid_argument _ -> raise (Invalid_argument ""))

let prop_gp_conserves_hose =
  (* The shares of one receive hose never exceed the hose rate. *)
  QCheck.Test.make ~name:"GP never over-allocates a hose" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 6) (float_range 1. 500.))
    (fun demands ->
      let tag = Cm_tag.Examples.fig13 () in
      let pairs =
        List.mapi
          (fun i _ -> { Elastic.src = ep 1 (i + 1); dst = ep 1 0 })
          demands
      in
      let gs = Elastic.pair_guarantees ~demands tag Elastic.Tag_gp ~pairs in
      let total = List.fold_left (fun acc (_, g) -> acc +. g) 0. gs in
      total <= 450. +. 1e-6)

(* {1 Fig. 4} *)

let test_fig4_tag_isolates () =
  let r = Scenario.fig4 Elastic.Tag_gp in
  check_float "web gets its 500" 500. r.web_to_logic;
  check_float "db held to 100" 100. r.db_to_logic

let test_fig4_hose_fails () =
  let r = Scenario.fig4 Elastic.Hose_gp in
  Alcotest.(check bool)
    (Printf.sprintf "web %.0f < 500 guarantee" r.web_to_logic)
    true
    (r.web_to_logic < 500. -. 1e-6);
  Alcotest.(check bool) "db exceeds its intent" true (r.db_to_logic > 100.)

(* {1 Fig. 13} *)

let test_fig13_tag_protects_x () =
  let points = Scenario.fig13 Elastic.Tag_gp ~max_senders:5 in
  List.iter
    (fun (p : Scenario.fig13_point) ->
      Alcotest.(check bool)
        (Printf.sprintf "k=%d X->Z %.0f >= 450" p.n_senders p.x_to_z)
        true
        (p.x_to_z >= 450. -. 1e-6))
    points

let test_fig13_hose_collapses () =
  let points = Scenario.fig13 Elastic.Hose_gp ~max_senders:5 in
  let last = List.nth points 5 in
  Alcotest.(check bool)
    (Printf.sprintf "k=5 X->Z %.0f < 450" last.x_to_z)
    true (last.x_to_z < 450.)

let test_fig13_work_conserving () =
  List.iter
    (fun (p : Scenario.fig13_point) ->
      check_float
        (Printf.sprintf "k=%d link saturated" p.n_senders)
        1000.
        (p.x_to_z +. p.c2_to_z))
    (Scenario.fig13 Elastic.Tag_gp ~max_senders:5)

let test_fig13_intra_grows () =
  let points = Scenario.fig13 Elastic.Tag_gp ~max_senders:5 in
  let c2 n = (List.nth points n).Scenario.c2_to_z in
  Alcotest.(check bool) "intra rises with senders" true (c2 5 > c2 1 -. 1e-6);
  check_float "no senders, no intra traffic" 0. (c2 0)

(* {1 ElasticSwitch control loop (Runtime)} *)

module Runtime = Cm_enforce.Runtime

let fig13_runtime () =
  Runtime.create ~tag:(Cm_tag.Examples.fig13 ()) ~enforcement:Elastic.Tag_gp
    ~links:[ link 0 1000. ]
    ()

let fig13_flows n_senders =
  { Runtime.pair = { Elastic.src = ep 0 0; dst = ep 1 0 };
    path = [ 0 ]; demand = infinity }
  :: List.init n_senders (fun i ->
         { Runtime.pair = { Elastic.src = ep 1 (i + 1); dst = ep 1 0 };
           path = [ 0 ]; demand = infinity })

let x_pair = { Elastic.src = ep 0 0; dst = ep 1 0 }

let test_runtime_converges_to_static () =
  (* Steady state must approach the static two-phase allocation. *)
  let rt = fig13_runtime () in
  let final = Runtime.run rt ~flows:(fig13_flows 3) ~periods:60 in
  let x = Runtime.throughput_of final x_pair in
  (* Static oracle: 450 + 100/4 = 475; the AIMD loop saw-tooths around
     it, weighted toward the larger guarantee. *)
  Alcotest.(check bool)
    (Printf.sprintf "X converged to %.0f (oracle 475)" x)
    true
    (x >= 450. && x <= 550.)

let test_runtime_guarantees_after_convergence () =
  let rt = fig13_runtime () in
  let final = Runtime.run rt ~flows:(fig13_flows 5) ~periods:80 in
  let x = Runtime.throughput_of final x_pair in
  Alcotest.(check bool)
    (Printf.sprintf "X %.0f >= 0.97 * 450" x)
    true
    (x >= 450. *. 0.97)

let test_runtime_work_conserving () =
  let rt = fig13_runtime () in
  let final = Runtime.run rt ~flows:(fig13_flows 2) ~periods:80 in
  let total = List.fold_left (fun acc (_, r) -> acc +. r) 0. final in
  Alcotest.(check bool)
    (Printf.sprintf "total %.0f close to capacity" total)
    true
    (total >= 950. && total <= 1000. +. 1e-6)

let test_runtime_recovers_after_burst () =
  (* X alone enjoys the whole link; when 5 intra-tier senders burst in,
     X dips but the loop restores >= 450 within a handful of control
     periods. *)
  let rt = fig13_runtime () in
  ignore (Runtime.run rt ~flows:(fig13_flows 0) ~periods:40);
  let solo =
    Runtime.throughput_of
      (Runtime.run rt ~flows:(fig13_flows 0) ~periods:1)
      x_pair
  in
  Alcotest.(check bool) "solo gets ~everything" true (solo >= 900.);
  (* Burst arrives. *)
  let after_one = Runtime.run rt ~flows:(fig13_flows 5) ~periods:1 in
  let dipped = Runtime.throughput_of after_one x_pair in
  Alcotest.(check bool) "dip happens" true (dipped < solo);
  let rec settle n last =
    if n = 0 then last
    else settle (n - 1) (Runtime.run rt ~flows:(fig13_flows 5) ~periods:1)
  in
  let settled = settle 40 after_one in
  let x = Runtime.throughput_of settled x_pair in
  Alcotest.(check bool)
    (Printf.sprintf "recovered to %.0f >= 436" x)
    true (x >= 450. *. 0.97)

let test_runtime_idle_demand_released () =
  (* A guaranteed pair with tiny demand leaves the rest to others. *)
  let rt = fig13_runtime () in
  let flows =
    [
      { Runtime.pair = x_pair; path = [ 0 ]; demand = 50. };
      { Runtime.pair = { Elastic.src = ep 1 1; dst = ep 1 0 };
        path = [ 0 ]; demand = infinity };
    ]
  in
  ignore (Runtime.run rt ~flows ~periods:60);
  (* Sample a few periods: the busy flow saw-tooths; its peak must reach
     well into the spare capacity and the idle flow stays at its demand. *)
  let peak = ref 0. and x_max = ref 0. in
  for _ = 1 to 10 do
    let res = Runtime.run rt ~flows ~periods:1 in
    peak := Float.max !peak
        (Runtime.throughput_of res { Elastic.src = ep 1 1; dst = ep 1 0 });
    x_max := Float.max !x_max (Runtime.throughput_of res x_pair)
  done;
  Alcotest.(check bool) "idle capped at demand" true (!x_max <= 50. +. 1e-6);
  Alcotest.(check bool)
    (Printf.sprintf "busy flow peaks at %.0f" !peak)
    true (!peak >= 850.)

let test_runtime_flow_set_changes () =
  (* Limiter state survives for pairs that remain active and is dropped
     for departed pairs. *)
  let rt = fig13_runtime () in
  ignore (Runtime.run rt ~flows:(fig13_flows 2) ~periods:30);
  (* Drop to one sender: the remaining pair keeps converging, the
     departed one is forgotten (its throughput is simply absent). *)
  let res = Runtime.run rt ~flows:(fig13_flows 1) ~periods:1 in
  Alcotest.(check int) "two flows reported" 2 (List.length res);
  let x = Runtime.throughput_of res x_pair in
  Alcotest.(check bool) "X still protected" true (x >= 450. *. 0.9);
  (* A pair absent from the flow list reads as 0. *)
  Alcotest.(check (float 1e-9)) "absent pair" 0.
    (Runtime.throughput_of res { Elastic.src = ep 1 5; dst = ep 1 0 })

let test_runtime_unknown_link_rejected () =
  let rt = fig13_runtime () in
  Alcotest.check_raises "unknown link" (Invalid_argument "")
    (fun () ->
      try
        ignore
          (Runtime.run rt ~periods:1
             ~flows:[ { Runtime.pair = x_pair; path = [ 9 ]; demand = 1. } ])
      with Invalid_argument _ -> raise (Invalid_argument ""))

let test_runtime_hose_still_fails () =
  (* The control loop does not fix the abstraction: under hose GP the
     converged X->Z still sits far below 450 with 5 senders. *)
  let rt =
    Runtime.create ~tag:(Cm_tag.Examples.fig13 ())
      ~enforcement:Elastic.Hose_gp
      ~links:[ link 0 1000. ]
      ()
  in
  let final = Runtime.run rt ~flows:(fig13_flows 5) ~periods:80 in
  let x = Runtime.throughput_of final x_pair in
  Alcotest.(check bool)
    (Printf.sprintf "hose X %.0f < 300" x)
    true (x < 300.)

(* {1 Limiter persistence (regression)} *)

let sender_flow i =
  { Runtime.pair = { Elastic.src = ep 1 i; dst = ep 1 0 };
    path = [ 0 ]; demand = infinity }

let test_runtime_limiter_survives_absence () =
  (* A pair absent for one epoch resumes near its decayed previous rate
     instead of restarting from its guarantee.  Pre-PR the per-period
     [Hashtbl.reset] dropped every absent pair's limiter, so X came back
     at its 450 Mbps guarantee rather than ~0.9 x its earned ~1000. *)
  let rt = fig13_runtime () in
  ignore (Runtime.run rt ~flows:(fig13_flows 0) ~periods:40);
  (* X departs for one control period; an intra-tier sender keeps the
     loop running. *)
  ignore (Runtime.run rt ~flows:[ sender_flow 1 ] ~periods:1);
  let back = Runtime.run rt ~flows:(fig13_flows 0) ~periods:1 in
  let x = Runtime.throughput_of back x_pair in
  Alcotest.(check bool)
    (Printf.sprintf "first period back at %.0f >= 600 (not 450)" x)
    true (x >= 600.)

let test_runtime_long_absence_decays_to_guarantee () =
  (* The same pair absent for many periods has its limiter fade away:
     re-admission starts from the guarantee again (no stale state). *)
  let rt = fig13_runtime () in
  ignore (Runtime.run rt ~flows:(fig13_flows 0) ~periods:40);
  for _ = 1 to 200 do
    ignore (Runtime.run rt ~flows:[ sender_flow 1 ] ~periods:1)
  done;
  let back = Runtime.run rt ~flows:(fig13_flows 0) ~periods:1 in
  let x = Runtime.throughput_of back x_pair in
  Alcotest.(check bool)
    (Printf.sprintf "after long absence %.0f starts near guarantee" x)
    true
    (x <= 450. +. 1e-6)

(* {1 Headroom consistency (regression)} *)

let test_runtime_headroom_consistent () =
  (* Congestion signal and loss model must use the same effective
     capacity.  Pre-PR the congestion test used cap * (1 - headroom) but
     the loss model the raw capacity, so reported throughput could sit in
     the headroom band (up to ~795 here). *)
  let config = { Runtime.default_config with headroom = 0.25 } in
  let rt =
    Runtime.create ~config ~tag:(Cm_tag.Examples.fig13 ())
      ~enforcement:Elastic.Tag_gp ~links:[ link 0 1000. ] ()
  in
  let flows = [ { Runtime.pair = x_pair; path = [ 0 ]; demand = 800. } ] in
  ignore (Runtime.run rt ~flows ~periods:30);
  let max_x = ref 0. in
  for _ = 1 to 10 do
    max_x :=
      Float.max !max_x
        (Runtime.throughput_of (Runtime.run rt ~flows ~periods:1) x_pair)
  done;
  Alcotest.(check bool)
    (Printf.sprintf "peak %.1f <= effective capacity 750" !max_x)
    true
    (!max_x <= 750. +. 1e-6)

(* {1 Epoch engine vs reference loop (differential)}

   The reference loop: the pre-optimisation per-period control loop,
   kept verbatim as the oracle for [Runtime]'s compiled AIMD loop —
   lists and hash tables rebuilt every period, GP recomputed every
   period.  Only the effective-capacity fix is mirrored (both
   implementations must agree at headroom > 0); the per-period limiter
   reset is unchanged, which is equivalent to persistence as long as the
   flow set is fixed — the only setting the reference is used in. *)
module Reference = struct
  open Runtime

  type state = {
    cfg : config;
    tag : Cm_tag.Tag.t;
    enforcement : Elastic.enforcement;
    capacities : (int, float) Hashtbl.t;
    limits : (Elastic.active_pair, float) Hashtbl.t;
  }

  let create ?(config = default_config) ~tag ~enforcement ~links () =
    let capacities = Hashtbl.create 16 in
    List.iter
      (fun (l : Maxmin.link) -> Hashtbl.replace capacities l.link_id l.capacity)
      links;
    { cfg = config; tag; enforcement; capacities; limits = Hashtbl.create 32 }

  let capacity_of t l =
    match Hashtbl.find_opt t.capacities l with
    | Some c -> c
    | None -> invalid_arg (Printf.sprintf "Runtime: unknown link %d" l)

  let effective_capacity_of t l = capacity_of t l *. (1. -. t.cfg.headroom)

  let step t ~flows =
    let pairs = List.map (fun (f : flow_spec) -> f.pair) flows in
    let demands = List.map (fun (f : flow_spec) -> f.demand) flows in
    let guarantees =
      Elastic.pair_guarantees ~demands t.tag t.enforcement ~pairs
    in
    let guarantee_of = Hashtbl.create 16 in
    List.iter (fun (p, g) -> Hashtbl.replace guarantee_of p g) guarantees;
    let limit f =
      let g = Option.value ~default:0. (Hashtbl.find_opt guarantee_of f.pair) in
      let l = Option.value ~default:g (Hashtbl.find_opt t.limits f.pair) in
      Float.min f.demand (Float.max g l)
    in
    let loads = Hashtbl.create 16 in
    List.iter
      (fun f ->
        let r = limit f in
        List.iter
          (fun l ->
            Hashtbl.replace loads l
              (r +. Option.value ~default:0. (Hashtbl.find_opt loads l)))
          f.path)
      flows;
    let congested f =
      List.exists
        (fun l ->
          Option.value ~default:0. (Hashtbl.find_opt loads l)
          > effective_capacity_of t l +. 1e-9)
        f.path
    in
    let throughput f =
      let r = limit f in
      List.fold_left
        (fun acc l ->
          let load = Option.value ~default:0. (Hashtbl.find_opt loads l) in
          let eff = effective_capacity_of t l in
          if load > eff && load > 0. then acc *. (eff /. load) else acc)
        r f.path
    in
    let result = List.map (fun f -> (f.pair, throughput f)) flows in
    let next_limits = Hashtbl.create 16 in
    List.iter
      (fun f ->
        let g =
          Option.value ~default:0. (Hashtbl.find_opt guarantee_of f.pair)
        in
        let r = limit f in
        let r' =
          if congested f then g +. ((r -. g) *. (1. -. t.cfg.decay))
          else r +. (t.cfg.probe_gain *. Float.max g 1.)
        in
        Hashtbl.replace next_limits f.pair (Float.min f.demand r'))
      flows;
    Hashtbl.reset t.limits;
    Hashtbl.iter (fun p r -> Hashtbl.replace t.limits p r) next_limits;
    result
end


let diff_links = [ link 0 1000.; link 1 800. ]

let diff_flows =
  { Runtime.pair = x_pair; path = [ 0; 1 ]; demand = infinity }
  :: List.mapi
       (fun i d ->
         { Runtime.pair = { Elastic.src = ep 1 (i + 1); dst = ep 1 0 };
           path = [ 1 ]; demand = d })
       [ infinity; 300.; 120. ]

let test_runtime_matches_reference () =
  (* On a fixed flow set the compiled engine replays the reference
     loop's float operations in the same order: bit-identical rates,
     including at headroom > 0 and with demand-capped flows. *)
  let config = { Runtime.default_config with headroom = 0.1 } in
  let mk () = (Cm_tag.Examples.fig13 (), Elastic.Tag_gp) in
  let tag, enf = mk () in
  let rt = Runtime.create ~config ~tag ~enforcement:enf ~links:diff_links () in
  let st =
    Reference.create ~config ~tag ~enforcement:enf ~links:diff_links ()
  in
  let a = Runtime.run rt ~flows:diff_flows ~periods:37 in
  let b = ref [] in
  for _ = 1 to 37 do
    b := Reference.step st ~flows:diff_flows
  done;
  List.iter2
    (fun (p, ra) ((q : Elastic.active_pair), rb) ->
      Alcotest.(check bool) "same pair order" true (p = q);
      Alcotest.(check (float 0.)) "bit-identical rate" rb ra)
    a !b

let test_runtime_step_loop_matches_run () =
  (* One-period epochs (recompiling every period, limiters persisted
     through the hash table) are bit-identical to one compiled
     multi-period run. *)
  let tag = Cm_tag.Examples.fig13 () in
  let rt1 =
    Runtime.create ~tag ~enforcement:Elastic.Tag_gp ~links:diff_links ()
  in
  let rt2 =
    Runtime.create ~tag ~enforcement:Elastic.Tag_gp ~links:diff_links ()
  in
  let a = Runtime.run rt1 ~flows:diff_flows ~periods:25 in
  let b = ref [] in
  for _ = 1 to 25 do
    b := Runtime.run rt2 ~flows:diff_flows ~periods:1
  done;
  List.iter2
    (fun (_, ra) (_, rb) ->
      Alcotest.(check (float 0.)) "step loop = compiled run" rb ra)
    a !b

(* {1 Dynamic driver (run_dynamic)} *)

(* The steady-state oracle, recomputed independently of the runtime:
   ElasticSwitch GP guarantees, then guarantee-aware max-min over the
   link capacities. *)
let steady_oracle ?(links = [ link 0 1000. ]) tag enforcement flows =
  let pairs = List.map (fun (f : Runtime.flow_spec) -> f.pair) flows in
  let demands = List.map (fun (f : Runtime.flow_spec) -> f.demand) flows in
  let gs = Elastic.pair_guarantees ~demands tag enforcement ~pairs in
  let mflows =
    List.mapi
      (fun i ((f : Runtime.flow_spec), (_, g)) ->
        { Maxmin.flow_id = i; path = f.path; demand = f.demand; guarantee = g })
      (List.combine flows gs)
  in
  Maxmin.with_guarantees ~links ~flows:mflows

let test_run_dynamic_steady_matches_oracle () =
  (* Acceptance: steady-state allocations match the Maxmin oracle
     bit-for-bit, for every fig13 population under both GP modes. *)
  let tag = Cm_tag.Examples.fig13 () in
  List.iter
    (fun enf ->
      for k = 0 to 5 do
        let flows = fig13_flows k in
        let rt =
          Runtime.create ~tag ~enforcement:enf ~links:[ link 0 1000. ] ()
        in
        let r = Runtime.run_dynamic rt ~epochs:[ flows ] in
        let oracle = steady_oracle tag enf flows in
        List.iteri
          (fun i (_, rate) ->
            Alcotest.(check (float 0.))
              (Printf.sprintf "%s k=%d flow %d"
                 (Elastic.enforcement_to_string enf)
                 k i)
              (snd oracle.(i))
              rate)
          r.rates
      done)
    [ Elastic.Tag_gp; Elastic.Hose_gp ]

let test_run_dynamic_converges () =
  let rt = fig13_runtime () in
  let r =
    Runtime.run_dynamic rt
      ~epochs:[ fig13_flows 3; fig13_flows 5; fig13_flows 1 ]
  in
  Alcotest.(check int) "three epoch reports" 3 (List.length r.epochs);
  List.iter
    (fun (e : Runtime.epoch_report) ->
      Alcotest.(check bool)
        (Printf.sprintf "epoch %d converged in %d periods" e.epoch e.periods)
        true
        (e.converged && e.periods < 512);
      Alcotest.(check bool)
        (Printf.sprintf "epoch %d residual %.4f below eps" e.epoch e.residual)
        true (e.residual < 0.02))
    r.epochs;
  Alcotest.(check int) "total periods = sum over epochs"
    (List.fold_left (fun a (e : Runtime.epoch_report) -> a + e.periods) 0 r.epochs)
    r.total_periods

let test_run_dynamic_static_short_circuit () =
  (* Every flow demand-capped far below congestion: rates are exactly
     static, detected within a few periods rather than a full window. *)
  let rt = fig13_runtime () in
  let flows =
    [
      { Runtime.pair = x_pair; path = [ 0 ]; demand = 100. };
      { Runtime.pair = { Elastic.src = ep 1 1; dst = ep 1 0 };
        path = [ 0 ]; demand = 50. };
    ]
  in
  let r = Runtime.run_dynamic rt ~epochs:[ flows ] in
  let e = List.hd r.epochs in
  Alcotest.(check bool)
    (Printf.sprintf "static epoch detected in %d <= 8 periods" e.periods)
    true
    (e.converged && e.periods <= 8);
  Alcotest.(check (float 1e-9)) "steady X = demand" 100.
    (Runtime.throughput_of r.rates x_pair)

let test_run_dynamic_empty_epoch () =
  let rt = fig13_runtime () in
  let r = Runtime.run_dynamic rt ~epochs:[ []; fig13_flows 1 ] in
  let e0 = List.hd r.epochs in
  Alcotest.(check int) "empty epoch runs no periods" 0 e0.periods;
  Alcotest.(check bool) "empty epoch converged" true e0.converged;
  Alcotest.(check int) "empty steady" 0 (List.length e0.steady);
  Alcotest.(check int) "second epoch reported" 2 (List.length r.epochs)

let test_run_dynamic_telemetry () =
  let epochs_c = Cm_obs.Metrics.counter "enforce.epochs" in
  let conv_c = Cm_obs.Metrics.counter "enforce.epochs.converged" in
  let before = Cm_obs.Metrics.counter_value epochs_c in
  let before_conv = Cm_obs.Metrics.counter_value conv_c in
  let rt = fig13_runtime () in
  let r = Runtime.run_dynamic rt ~epochs:[ fig13_flows 2; fig13_flows 4 ] in
  Alcotest.(check int) "epoch counter advanced" (before + 2)
    (Cm_obs.Metrics.counter_value epochs_c);
  let conv =
    List.length
      (List.filter (fun (e : Runtime.epoch_report) -> e.converged) r.epochs)
  in
  Alcotest.(check int) "converged counter matches reports"
    (before_conv + conv)
    (Cm_obs.Metrics.counter_value conv_c)

let test_run_dynamic_truncated_residual () =
  (* Satellite bugfix: an epoch cut off before its first 8-period drift
     window used to report residual = 0., indistinguishable from perfect
     convergence.  It now reports the last raw per-period delta (Mbps):
     finite and positive while the AIMD transient is still moving. *)
  let rt = fig13_runtime () in
  let r = Runtime.run_dynamic ~max_periods:4 rt ~epochs:[ fig13_flows 5 ] in
  let e = List.hd r.epochs in
  Alcotest.(check bool) "truncated epoch not converged" false e.converged;
  Alcotest.(check int) "cut at max_periods" 4 e.periods;
  Alcotest.(check bool)
    (Printf.sprintf "residual %.3f is a positive raw delta" e.residual)
    true
    (Float.is_finite e.residual && e.residual > 0.)

let test_run_dynamic_single_period_residual_nan () =
  (* One period leaves nothing to diff: residual is nan, not a
     fake-converged 0. *)
  let rt = fig13_runtime () in
  let r = Runtime.run_dynamic ~max_periods:1 rt ~epochs:[ fig13_flows 3 ] in
  let e = List.hd r.epochs in
  Alcotest.(check bool) "nothing to measure -> nan" true
    (Float.is_nan e.residual);
  Alcotest.(check bool) "not converged" false e.converged

let test_run_dynamic_validates_args () =
  let rt = fig13_runtime () in
  Alcotest.check_raises "eps" (Invalid_argument "") (fun () ->
      try ignore (Runtime.run_dynamic ~eps:0. rt ~epochs:[])
      with Invalid_argument _ -> raise (Invalid_argument ""));
  Alcotest.check_raises "max_periods" (Invalid_argument "") (fun () ->
      try ignore (Runtime.run_dynamic ~max_periods:0 rt ~epochs:[])
      with Invalid_argument _ -> raise (Invalid_argument ""))

(* {1 Churn scenario} *)

let test_churn_tag_meets_guarantee () =
  let r = Scenario.churn ~seed:7 ~epochs:12 Elastic.Tag_gp in
  Alcotest.(check int) "one point per epoch" 12 (List.length r.points);
  Alcotest.(check (float 1e-9)) "every epoch meets 450" 1. r.guarantee_met;
  Alcotest.(check bool)
    (Printf.sprintf "worst epoch %.0f >= 450" r.x_min)
    true
    (r.x_min >= 450. -. 1e-6)

let test_churn_hose_fails () =
  let r = Scenario.churn ~seed:7 ~epochs:12 Elastic.Hose_gp in
  Alcotest.(check bool)
    (Printf.sprintf "hose meets guarantee in only %.0f%%, min %.0f"
       (100. *. r.guarantee_met) r.x_min)
    true
    (r.guarantee_met < 1. && r.x_min < 450.)

(* Every field of a churn result, floats in hex: equal digests mean
   bitwise-equal steady-state rates. *)
let churn_digest (r : Scenario.churn_result) =
  let b = Buffer.create 256 in
  List.iter
    (fun (p : Scenario.churn_point) ->
      Buffer.add_string b
        (Printf.sprintf "%d:%d:%h:%d:%b;" p.epoch p.active_senders p.steady_x
           p.periods p.converged))
    r.points;
  Buffer.add_string b
    (Printf.sprintf "%h %h %h %h %h" r.x_mean r.x_min r.guarantee_met
       r.converged_fraction r.mean_periods);
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_churn_pinned_digest () =
  (* Captured by running this churn on the commit that still carried a
     from-scratch per-epoch solver, where the incremental solver was
     asserted equal to it on exactly these runs. *)
  List.iter
    (fun (enf, golden) ->
      Alcotest.(check string)
        (Elastic.enforcement_to_string enf)
        golden
        (churn_digest (Scenario.churn ~seed:11 ~epochs:15 enf)))
    [
      (Elastic.Tag_gp, "0ba86488b07dc30aceb9635407b7d4ad");
      (Elastic.Hose_gp, "c05c6c911920b17d618145059bc90d5e");
    ]

let test_churn_verify_every_epoch () =
  (* A seeded arrival/departure churn over shared links, one
     [run_dynamic] epoch at a time: after each, the persistent solver's
     rates must equal a from-scratch [Maxmin.with_guarantees]. *)
  let rng = Random.State.make [| 12 |] in
  let tag = Cm_tag.Examples.fig13 () in
  let links = [ link 0 1000.; link 1 1000.; link 2 600. ] in
  let rt = Runtime.create ~tag ~enforcement:Elastic.Tag_gp ~links () in
  for epoch = 0 to 19 do
    let flows =
      { Runtime.pair = x_pair; path = [ 0; 1 ]; demand = infinity }
      :: List.filter_map
           (fun i ->
             if Random.State.bool rng then
               Some
                 {
                   Runtime.pair = { Elastic.src = ep 1 (i + 1); dst = ep 1 0 };
                   path = (if i mod 2 = 0 then [ 1 ] else [ 2; 0 ]);
                   demand =
                     (if Random.State.bool rng then infinity
                      else Random.State.float rng 300.);
                 }
             else None)
           [ 0; 1; 2; 3; 4 ]
    in
    ignore (Runtime.run_dynamic ~max_periods:64 rt ~epochs:[ flows ]);
    match Runtime.verify rt with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "epoch %d: %s" epoch msg
  done

(* {1 Incremental solver (Maxmin.Inc)} *)

let inc_links = List.init 6 (fun i -> link i 100.)

let random_path rng =
  (* 0-3 distinct links out of the 6-link universe (partial
     Fisher-Yates), so paths share links and components merge and
     split as flows churn. *)
  let n = Random.State.int rng 4 in
  let all = [| 0; 1; 2; 3; 4; 5 |] in
  for i = 0 to n - 1 do
    let j = i + Random.State.int rng (6 - i) in
    let t = all.(i) in
    all.(i) <- all.(j);
    all.(j) <- t
  done;
  Array.to_list (Array.sub all 0 n)

let random_flow rng id =
  let demand =
    if Random.State.bool rng then infinity else Random.State.float rng 120.
  in
  (* Max 12 flows x guarantee < 8 keeps every link's guarantee sum
     under its 100 Mbps capacity: always feasible. *)
  let guarantee = Random.State.float rng 8. in
  { Maxmin.flow_id = id; path = random_path rng; demand; guarantee }

let prop_inc_matches_cold_oracle =
  (* Tentpole acceptance: over seeded churn traces of arrivals,
     departures, demand and guarantee changes, the incremental fixed
     point is compared bitwise against the from-scratch
     with_guarantees oracle after every epoch; a 4-domain replay must
     match a 1-domain solve bit-for-bit; and a rollback to cold start
     (invalidate_all) must reproduce the incremental rates exactly. *)
  QCheck.Test.make ~name:"Inc.solve = with_guarantees oracle under churn"
    ~count:40
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| 0xC10D; seed |] in
      let n_ids = 12 in
      let inc = Maxmin.Inc.create ~links:inc_links in
      let inc4 = Maxmin.Inc.create ~links:inc_links in
      let current : (int, Maxmin.flow) Hashtbl.t = Hashtbl.create 16 in
      let ok = ref true in
      let bits = Int64.bits_of_float in
      for _epoch = 1 to 8 do
        let touches = 1 + Random.State.int rng 4 in
        for _ = 1 to touches do
          let id = Random.State.int rng n_ids in
          if Hashtbl.mem current id && Random.State.float rng 1.0 < 0.3
          then begin
            Hashtbl.remove current id;
            Maxmin.Inc.remove inc id;
            Maxmin.Inc.remove inc4 id
          end
          else begin
            let f =
              if Hashtbl.mem current id && Random.State.bool rng then
                (* Parameter-only change: keeps the slot and path. *)
                let f0 = Hashtbl.find current id in
                {
                  f0 with
                  demand =
                    (if Random.State.bool rng then infinity
                     else Random.State.float rng 120.);
                  guarantee = Random.State.float rng 8.;
                }
              else random_flow rng id
            in
            Hashtbl.replace current id f;
            Maxmin.Inc.set inc f;
            Maxmin.Inc.set inc4 f
          end
        done;
        Maxmin.Inc.solve ~domains:1 inc;
        Maxmin.Inc.solve ~domains:4 inc4;
        let flows =
          Hashtbl.fold (fun _ f acc -> f :: acc) current []
          |> List.sort (fun (a : Maxmin.flow) b -> compare a.flow_id b.flow_id)
        in
        let oracle = Maxmin.with_guarantees ~links:inc_links ~flows in
        Array.iter
          (fun (id, r) ->
            if
              bits (Maxmin.Inc.rate inc id) <> bits r
              || bits (Maxmin.Inc.rate inc4 id) <> bits r
            then ok := false)
          oracle
      done;
      let snapshot =
        Hashtbl.fold
          (fun id _ acc -> (id, Maxmin.Inc.rate inc id) :: acc)
          current []
      in
      Maxmin.Inc.invalidate_all inc;
      Maxmin.Inc.solve ~domains:1 inc;
      List.iter
        (fun (id, r) ->
          if bits (Maxmin.Inc.rate inc id) <> bits r then ok := false)
        snapshot;
      !ok)

let test_inc_stats_track_dirty_frontier () =
  (* Two disjoint components (links 0+1 / links 2+3): churning one
     component re-converges only its flows, and an untouched solve is
     free. *)
  let links = List.init 4 (fun i -> link i 100.) in
  let t = Maxmin.Inc.create ~links in
  Maxmin.Inc.set t (flow 0 [ 0; 1 ] infinity);
  Maxmin.Inc.set t (flow 1 [ 1 ] infinity);
  Maxmin.Inc.set t (flow 2 [ 2; 3 ] infinity);
  Maxmin.Inc.set t (flow 3 [ 3 ] infinity);
  Maxmin.Inc.solve t;
  let s = Maxmin.Inc.last_stats t in
  Alcotest.(check int) "cold: both components" 2 s.components;
  Alcotest.(check int) "cold: all flows" 4 s.flows_resolved;
  Maxmin.Inc.set t { (flow 1 [ 1 ] infinity) with demand = 30. };
  Maxmin.Inc.solve t;
  let s = Maxmin.Inc.last_stats t in
  Alcotest.(check int) "delta: one component" 1 s.components;
  Alcotest.(check int) "delta: two flows" 2 s.flows_resolved;
  Alcotest.(check int) "delta: all flows live" 4 s.flows_total;
  Alcotest.(check (float 0.)) "untouched rate preserved" 50.
    (Maxmin.Inc.rate t 2);
  Maxmin.Inc.solve t;
  let s = Maxmin.Inc.last_stats t in
  Alcotest.(check int) "clean solve resolves nothing" 0 s.flows_resolved

(* {1 Properties} *)

let prop_dynamic_steady_is_maxmin =
  (* Seeded end-to-end property: for arbitrary demand vectors the dynamic
     driver's steady state IS the guarantee-aware max-min oracle —
     guarantee floor respected, link never oversubscribed, work
     conserving (X is backlogged, so the bottleneck saturates). *)
  QCheck.Test.make ~name:"run_dynamic steady state = max-min oracle" ~count:50
    QCheck.(list_of_size (Gen.int_range 1 5) (float_range 10. 1500.))
    (fun demands ->
      let tag = Cm_tag.Examples.fig13 () in
      let flows =
        { Runtime.pair = x_pair; path = [ 0 ]; demand = infinity }
        :: List.mapi
             (fun i d ->
               { Runtime.pair = { Elastic.src = ep 1 (i + 1); dst = ep 1 0 };
                 path = [ 0 ]; demand = d })
             demands
      in
      let rt =
        Runtime.create ~tag ~enforcement:Elastic.Tag_gp
          ~links:[ link 0 1000. ] ()
      in
      let r = Runtime.run_dynamic rt ~epochs:[ flows ] in
      let oracle = steady_oracle tag Elastic.Tag_gp flows in
      let gs =
        Elastic.pair_guarantees
          ~demands:(List.map (fun (f : Runtime.flow_spec) -> f.demand) flows)
          tag Elastic.Tag_gp
          ~pairs:(List.map (fun (f : Runtime.flow_spec) -> f.pair) flows)
      in
      let floors =
        List.map2
          (fun (f : Runtime.flow_spec) (_, g) -> Float.min f.demand g)
          flows gs
      in
      let total = List.fold_left (fun acc (_, x) -> acc +. x) 0. r.rates in
      List.for_all2
        (fun (_, rate) (_, o) -> rate = o)
        r.rates (Array.to_list oracle)
      && List.for_all2 (fun (_, rate) fl -> rate +. 1e-6 >= fl) r.rates floors
      && total <= 1000. +. 1e-6
      && total >= 1000. -. 1e-6)

let prop_maxmin_respects_capacity =
  QCheck.Test.make ~name:"max-min never exceeds link capacity" ~count:200
    QCheck.(pair (float_range 1. 1000.) (int_range 1 10))
    (fun (cap, n) ->
      let flows = List.init n (fun i -> flow i [ 0 ] infinity) in
      let rates = Maxmin.max_min ~links:[ link 0 cap ] ~flows in
      let total = Array.fold_left (fun acc (_, r) -> acc +. r) 0. rates in
      total <= cap +. 1e-6)

let prop_guarantees_always_met =
  QCheck.Test.make ~name:"feasible guarantees are always met" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 8) (float_range 0. 10.))
    (fun gs ->
      let cap = 100. in
      let flows =
        List.mapi (fun i g -> flow ~guarantee:g i [ 0 ] infinity) gs
      in
      let rates = Maxmin.with_guarantees ~links:[ link 0 cap ] ~flows in
      List.for_all2
        (fun g (_, r) -> r +. 1e-6 >= g)
        gs (Array.to_list rates))

(* {1 Enforcement under rack failures} *)

let test_failures_deterministic_and_consistent () =
  let go () : Scenario.failures_result =
    Scenario.failures ~seed:7 ~epochs:40 ~recovery:(`Lag 1) ~mean_repair:6.
      Elastic.Tag_gp
  in
  let a = go () and b = go () in
  Alcotest.(check int) "events" a.f_events b.f_events;
  Alcotest.(check int) "vm-epochs down" a.vm_epochs_down b.vm_epochs_down;
  Alcotest.(check (float 0.)) "downtime" a.downtime_fraction
    b.downtime_fraction;
  Alcotest.(check int) "restores" a.restores b.restores;
  Alcotest.(check int) "one point per epoch" 40 (List.length a.f_points);
  List.iter
    (fun (p : Scenario.failure_epoch) ->
      (* 4 racks x 4 workers: every VM is either live or down. *)
      Alcotest.(check int) "vm conservation" 16 (p.live_vms + p.down_vms);
      Alcotest.(check bool) "violated <= live" true
        (p.violated_vms <= p.live_vms))
    a.f_points

let test_failures_recovery_cuts_downtime () =
  let run recovery : Scenario.failures_result =
    Scenario.failures ~seed:7 ~epochs:60 ~recovery ~mean_repair:6.
      Elastic.Tag_gp
  in
  let lag1 = run (`Lag 1) and lag4 = run (`Lag 4) and none = run `None in
  Alcotest.(check bool) "failures caused downtime" true
    (none.downtime_fraction > 0.);
  Alcotest.(check bool)
    (Printf.sprintf "lag1 %.3f <= lag4 %.3f" lag1.downtime_fraction
       lag4.downtime_fraction)
    true
    (lag1.downtime_fraction <= lag4.downtime_fraction +. 1e-9);
  Alcotest.(check bool)
    (Printf.sprintf "lag4 %.3f <= none %.3f" lag4.downtime_fraction
       none.downtime_fraction)
    true
    (lag4.downtime_fraction <= none.downtime_fraction +. 1e-9);
  (* Without re-homing, comebacks only happen at rack repair. *)
  Alcotest.(check bool) "repair-driven restores" true (none.restores > 0);
  Alcotest.(check bool) "re-homing restores at least as much" true
    (lag1.restores >= none.restores);
  Alcotest.(check bool) "faster recovery restores sooner" true
    (lag1.mean_restore_epochs <= none.mean_restore_epochs +. 1e-9)

let test_failures_guarantees_feasible_throughout () =
  (* Rack capacities admit any re-homing, so GP stays feasible and live
     flows never miss their guarantee — downtime is pure absence, which
     is exactly what recovery speed controls. *)
  List.iter
    (fun (recovery, enforcement) ->
      let r : Scenario.failures_result =
        Scenario.failures ~seed:7 ~epochs:40 ~recovery ~mean_repair:6.
          enforcement
      in
      Alcotest.(check int) "no guarantee violations" 0
        r.guarantee_violations)
    [ (`Lag 1, Elastic.Tag_gp); (`None, Elastic.Tag_gp);
      (`Lag 1, Elastic.Hose_gp) ]

let () =
  Alcotest.run "cm_enforce"
    [
      ( "maxmin",
        [
          Alcotest.test_case "equal share" `Quick test_maxmin_equal_share;
          Alcotest.test_case "demand limited" `Quick test_maxmin_demand_limited;
          Alcotest.test_case "two bottlenecks" `Quick test_maxmin_two_bottlenecks;
          Alcotest.test_case "empty path" `Quick
            test_maxmin_empty_path_unbounded_demand;
          Alcotest.test_case "unknown link" `Quick test_maxmin_unknown_link_rejected;
          Alcotest.test_case "duplicate link" `Quick
            test_maxmin_duplicate_link_rejected;
        ] );
      ( "guarantees",
        [
          Alcotest.test_case "protection" `Quick test_guarantees_protect;
          Alcotest.test_case "work conserving" `Quick
            test_guarantees_work_conserving_when_idle;
          Alcotest.test_case "infeasible rejected" `Quick
            test_guarantees_infeasible_rejected;
        ] );
      ( "partitioning",
        [
          Alcotest.test_case "TAG splits per edge" `Quick test_tag_gp_splits_per_edge;
          Alcotest.test_case "hose aggregates" `Quick test_hose_gp_aggregates;
          Alcotest.test_case "no edge -> zero" `Quick test_tag_gp_no_edge_zero;
          Alcotest.test_case "external side uncapped" `Quick
            test_gp_external_side_uncapped;
          Alcotest.test_case "demand-aware redistribution" `Quick
            test_gp_demand_aware_redistribution;
          Alcotest.test_case "demands length mismatch" `Quick
            test_gp_demands_length_mismatch;
          QCheck_alcotest.to_alcotest prop_gp_conserves_hose;
        ] );
      ( "fig4",
        [
          Alcotest.test_case "TAG isolates" `Quick test_fig4_tag_isolates;
          Alcotest.test_case "hose fails" `Quick test_fig4_hose_fails;
        ] );
      ( "fig13",
        [
          Alcotest.test_case "TAG protects X" `Quick test_fig13_tag_protects_x;
          Alcotest.test_case "hose collapses" `Quick test_fig13_hose_collapses;
          Alcotest.test_case "work conserving" `Quick test_fig13_work_conserving;
          Alcotest.test_case "intra grows" `Quick test_fig13_intra_grows;
        ] );
      ( "runtime",
        [
          Alcotest.test_case "converges to static" `Quick
            test_runtime_converges_to_static;
          Alcotest.test_case "guarantees after convergence" `Quick
            test_runtime_guarantees_after_convergence;
          Alcotest.test_case "work conserving" `Quick test_runtime_work_conserving;
          Alcotest.test_case "recovers after burst" `Quick
            test_runtime_recovers_after_burst;
          Alcotest.test_case "idle demand released" `Quick
            test_runtime_idle_demand_released;
          Alcotest.test_case "hose still fails" `Quick test_runtime_hose_still_fails;
          Alcotest.test_case "flow set changes" `Quick test_runtime_flow_set_changes;
          Alcotest.test_case "unknown link" `Quick test_runtime_unknown_link_rejected;
          Alcotest.test_case "limiter survives absence" `Quick
            test_runtime_limiter_survives_absence;
          Alcotest.test_case "long absence decays" `Quick
            test_runtime_long_absence_decays_to_guarantee;
          Alcotest.test_case "headroom consistent" `Quick
            test_runtime_headroom_consistent;
          Alcotest.test_case "matches reference loop" `Quick
            test_runtime_matches_reference;
          Alcotest.test_case "step loop = compiled run" `Quick
            test_runtime_step_loop_matches_run;
        ] );
      ( "run_dynamic",
        [
          Alcotest.test_case "steady = Maxmin oracle" `Quick
            test_run_dynamic_steady_matches_oracle;
          Alcotest.test_case "converges" `Quick test_run_dynamic_converges;
          Alcotest.test_case "static short-circuit" `Quick
            test_run_dynamic_static_short_circuit;
          Alcotest.test_case "empty epoch" `Quick test_run_dynamic_empty_epoch;
          Alcotest.test_case "telemetry" `Quick test_run_dynamic_telemetry;
          Alcotest.test_case "truncated residual" `Quick
            test_run_dynamic_truncated_residual;
          Alcotest.test_case "single-period residual nan" `Quick
            test_run_dynamic_single_period_residual_nan;
          Alcotest.test_case "argument validation" `Quick
            test_run_dynamic_validates_args;
        ] );
      ( "churn",
        [
          Alcotest.test_case "TAG meets guarantee" `Quick
            test_churn_tag_meets_guarantee;
          Alcotest.test_case "hose fails" `Quick test_churn_hose_fails;
          Alcotest.test_case "pinned digest" `Quick test_churn_pinned_digest;
          Alcotest.test_case "verify every epoch" `Quick
            test_churn_verify_every_epoch;
        ] );
      ( "incremental",
        [
          Alcotest.test_case "dirty-frontier stats" `Quick
            test_inc_stats_track_dirty_frontier;
          QCheck_alcotest.to_alcotest prop_inc_matches_cold_oracle;
        ] );
      ( "failures",
        [
          Alcotest.test_case "deterministic and consistent" `Quick
            test_failures_deterministic_and_consistent;
          Alcotest.test_case "recovery cuts downtime" `Quick
            test_failures_recovery_cuts_downtime;
          Alcotest.test_case "guarantees stay feasible" `Quick
            test_failures_guarantees_feasible_throughout;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_maxmin_respects_capacity;
            prop_guarantees_always_met;
            prop_dynamic_steady_is_maxmin;
          ] );
    ]
