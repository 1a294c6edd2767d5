module Table = Cm_util.Table
module Stats = Cm_util.Stats
module Rng = Cm_util.Rng
module Par = Cm_util.Par
module Tag = Cm_tag.Tag
module Bandwidth = Cm_tag.Bandwidth
module Examples = Cm_tag.Examples
module Tree = Cm_topology.Tree
module Types = Cm_placement.Types
module Cm = Cm_placement.Cm
module Pool = Cm_workload.Pool
module Bw_cpu = Cm_workload.Bw_cpu
module Driver = Cm_sim.Driver
module Runner = Cm_sim.Runner
module Reserved_bw = Cm_sim.Reserved_bw
module Elastic = Cm_enforce.Elastic
module Scenario = Cm_enforce.Scenario

type sim_params = { seed : int; arrivals : int; bmax : float; load : float }

let default_params = { seed = 42; arrivals = 10_000; bmax = 800.; load = 0.9 }

let bing_pool ~seed ~bmax =
  Pool.scale_to_bmax (Pool.bing_like ~seed ()) ~bmax

let pct = Printf.sprintf "%.1f"

(* {1 Motivation figures} *)

let fig1 () =
  let a =
    Table.create
      ~caption:
        "Fig. 1(a) - bandwidth-to-CPU ratio of cloud workloads (Mbps/GHz; \
         values reconstructed from the cited benchmark reports)"
      [
        ("workload", Table.Left);
        ("kind", Table.Left);
        ("low", Table.Right);
        ("high", Table.Right);
      ]
  in
  Array.iter
    (fun (w : Bw_cpu.workload) ->
      Table.add_row a
        [
          w.workload_name;
          Bw_cpu.kind_to_string w.kind;
          Printf.sprintf "%.0f" w.lo;
          Printf.sprintf "%.0f" w.hi;
        ])
    Bw_cpu.workloads;
  let b =
    Table.create
      ~caption:
        "Fig. 1(b) - provisioned bandwidth-to-CPU ratio of datacenters \
         (Mbps/GHz)"
      [
        ("datacenter", Table.Left);
        ("server", Table.Right);
        ("ToR", Table.Right);
        ("agg", Table.Right);
      ]
  in
  Array.iter
    (fun (d : Bw_cpu.datacenter) ->
      Table.add_row b
        [
          d.dc_name;
          Printf.sprintf "%.0f" d.server;
          Printf.sprintf "%.0f" d.tor;
          Printf.sprintf "%.1f" d.agg;
        ])
    Bw_cpu.datacenters;
  [ a; b ]

let fig2 () =
  let b1 = 100. and b2 = 40. and b3 = 30. in
  let n = 4 in
  let tag = Examples.three_tier ~n_web:n ~n_logic:n ~n_db:n ~b1 ~b2 ~b3 () in
  let t =
    Table.create
      ~caption:
        (Printf.sprintf
           "Fig. 2 - 3-tier web app (B1=%.0f B2=%.0f B3=%.0f, %d VMs/tier), \
            each tier on its own subtree: uplink reservation (Mbps)"
           b1 b2 b3 n)
      [
        ("link (subtree)", Table.Left);
        ("TAG out", Table.Right);
        ("TAG in", Table.Right);
        ("hose out", Table.Right);
        ("hose in", Table.Right);
        ("hose waste", Table.Right);
      ]
  in
  List.iter
    (fun (label, inside) ->
      let tag_out = Bandwidth.tag_out tag ~inside
      and tag_in = Bandwidth.tag_in tag ~inside
      and hose_out = Bandwidth.hose_out tag ~inside
      and hose_in = Bandwidth.hose_in tag ~inside in
      Table.add_row t
        [
          label;
          pct tag_out;
          pct tag_in;
          pct hose_out;
          pct hose_in;
          pct (hose_out +. hose_in -. tag_out -. tag_in);
        ])
    [
      ("L1 (web)", [| n; 0; 0 |]);
      ("L2 (logic)", [| 0; n; 0 |]);
      ("L3 (db)", [| 0; 0; n |]);
    ];
  t

let fig3 () =
  let s = 10 and b = 100. in
  let tag = Examples.storm ~s ~b in
  let inside = [| s; s; 0; 0 |] in
  let t =
    Table.create
      ~caption:
        (Printf.sprintf
           "Fig. 3 - Storm app (S=%d, B=%.0f), spout1+bolt1 vs bolt2+bolt3 \
            split: branch uplink reservation (Mbps); paper: TAG needs S*B, \
            VOC reserves 2*S*B"
           s b)
      [
        ("model", Table.Left);
        ("out", Table.Right);
        ("in", Table.Right);
      ]
  in
  Table.add_float_row t "TAG"
    [ Bandwidth.tag_out tag ~inside; Bandwidth.tag_in tag ~inside ];
  Table.add_float_row t "VOC"
    [ Bandwidth.voc_out tag ~inside; Bandwidth.voc_in tag ~inside ];
  Table.add_float_row t "hose"
    [ Bandwidth.hose_out tag ~inside; Bandwidth.hose_in tag ~inside ];
  t

let fig4 () =
  let t =
    Table.create
      ~caption:
        "Fig. 4 - 600 Mbps bottleneck toward the logic VM; web and DB tiers \
         each offer 500 Mbps (guarantees: web 500, DB 100)"
      [
        ("enforcement", Table.Left);
        ("web->logic", Table.Right);
        ("db->logic", Table.Right);
        ("web guarantee met", Table.Left);
      ]
  in
  List.iter
    (fun e ->
      let r = Scenario.fig4 e in
      Table.add_row t
        [
          Elastic.enforcement_to_string e;
          Printf.sprintf "%.0f" r.web_to_logic;
          Printf.sprintf "%.0f" r.db_to_logic;
          (if r.web_to_logic >= 500. -. 1e-6 then "yes" else "NO");
        ])
    [ Elastic.Hose_gp; Elastic.Tag_gp ];
  t

let fig6 () =
  let spec =
    {
      Tree.degrees = [ 4 ];
      slots_per_server = 2;
      server_up_mbps = 10.;
      oversub = [];
    }
  in
  let tree = Tree.create spec in
  let sched = Cm.create tree in
  let t =
    Table.create
      ~caption:
        "Fig. 6 - hose components A(2x4), B(2x4), C(4x6 Mbps) on a rack of \
         4 servers (2 slots, 10 Mbps NICs): CloudMirror's balanced placement"
      [
        ("server", Table.Left);
        ("VMs", Table.Left);
        ("uplink reserved (Mbps)", Table.Right);
      ]
  in
  (match Cm.place sched (Types.request (Examples.fig6 ())) with
  | Error _ -> Table.add_row t [ "rejected"; "-"; "-" ]
  | Ok p ->
      Array.iter
        (fun server ->
          let vms = ref [] in
          Array.iteri
            (fun c placed ->
              List.iter
                (fun (s, n) ->
                  if s = server then
                    vms :=
                      Printf.sprintf "%s x%d"
                        (Tag.component_name p.req.tag c)
                        n
                      :: !vms)
                placed)
            p.locations;
          Table.add_row t
            [
              Printf.sprintf "server %d" server;
              String.concat ", " (List.rev !vms);
              pct (Tree.reserved_up tree server);
            ])
        (Tree.servers tree));
  t

(* {1 Placement evaluation} *)

let table1_for_pool pool ~seed =
  let r = Reserved_bw.run Tree.default_spec pool ~seed in
  let t =
    Table.create
      ~caption:
        (Printf.sprintf
           "Table 1 - reserved bandwidth (Gbps) on an unlimited-capacity \
            topology, %s workload, %d tenants deployed; () = ratio to \
            CM+TAG"
           pool.Pool.pool_name r.tenants_deployed)
      [
        ("algorithm", Table.Left);
        ("server", Table.Right);
        ("ToR", Table.Right);
        ("agg", Table.Right);
      ]
  in
  let base =
    (List.find (fun (row : Reserved_bw.row) -> row.combo = "CM+TAG") r.rows)
      .per_level
  in
  List.iter
    (fun (row : Reserved_bw.row) ->
      let cell l =
        if row.combo = "CM+TAG" then Printf.sprintf "%.1f" row.per_level.(l)
        else
          Printf.sprintf "%.1f (%.2f)" row.per_level.(l)
            (Stats.ratio row.per_level.(l) base.(l))
      in
      Table.add_row t [ row.combo; cell 0; cell 1; cell 2 ])
    r.rows;
  t

let table1 ~seed ~bmax = table1_for_pool (bing_pool ~seed ~bmax) ~seed

let table1_all_workloads ~seed ~bmax =
  (* Pool generation happens inside the worker so each domain builds its
     own (deterministic) pool. *)
  Par.map
    (fun make_pool -> table1_for_pool (Pool.scale_to_bmax (make_pool ()) ~bmax) ~seed)
    [
      (fun () -> Pool.hpcloud_like ~seed ());
      (fun () -> Pool.synthetic ~seed ());
    ]

let run_sim ?(spec = Tree.default_spec) ?ha ?series_prefix ~make p =
  let pool = bing_pool ~seed:p.seed ~bmax:p.bmax in
  let tree = Tree.create spec in
  let cfg =
    {
      Runner.default_config with
      seed = p.seed;
      n_arrivals = p.arrivals;
      load = p.load;
      ha;
      wcs_level = 0;
    }
  in
  Runner.run ?series_prefix (make tree) tree pool cfg

let fig7 p ~loads ~bmaxes =
  let t =
    Table.create
      ~caption:
        (Printf.sprintf
           "Fig. 7 - rejection rate (%%) vs Bmax, bing-like workload, %d \
            arrivals/point"
           p.arrivals)
      [
        ("load", Table.Right);
        ("Bmax", Table.Right);
        ("(BW,CM)", Table.Right);
        ("(BW,OVOC)", Table.Right);
        ("(VM,CM)", Table.Right);
        ("(VM,OVOC)", Table.Right);
      ]
  in
  let points =
    List.concat_map (fun load -> List.map (fun bmax -> (load, bmax)) bmaxes)
      loads
  in
  (* Every point reseeds its own pool, tree and arrival stream from [p],
     so fanning points over the domain pool preserves the sequential
     output bit-for-bit. *)
  Par.map
    (fun (load, bmax) ->
      let p = { p with load; bmax } in
      let cm = run_sim ~make:Driver.cm p in
      let ovoc = run_sim ~make:Driver.oktopus p in
      [
        Printf.sprintf "%.0f%%" (100. *. load);
        Printf.sprintf "%.0f" bmax;
        pct (Runner.bw_rejection_rate cm);
        pct (Runner.bw_rejection_rate ovoc);
        pct (Runner.vm_rejection_rate cm);
        pct (Runner.vm_rejection_rate ovoc);
      ])
    points
  |> List.iter (Table.add_row t);
  t

let fig8 p ~loads =
  let t =
    Table.create
      ~caption:
        (Printf.sprintf "Fig. 8 - rejection rate (%%) vs load, Bmax=%.0f Mbps"
           p.bmax)
      [
        ("load", Table.Right);
        ("(BW,CM)", Table.Right);
        ("(BW,OVOC)", Table.Right);
        ("(VM,CM)", Table.Right);
        ("(VM,OVOC)", Table.Right);
      ]
  in
  (* Each (load, scheduler) pair samples its own series, so the
     parallel rows never share a ring and the document is identical at
     any --jobs. *)
  Par.map
    (fun load ->
      let p = { p with load } in
      let sp sched = Printf.sprintf "sim.fig8.load%02.0f.%s" (100. *. load) sched in
      let cm = run_sim ~series_prefix:(sp "CM") ~make:Driver.cm p in
      let ovoc = run_sim ~series_prefix:(sp "OVOC") ~make:Driver.oktopus p in
      [
        Printf.sprintf "%.0f%%" (100. *. load);
        pct (Runner.bw_rejection_rate cm);
        pct (Runner.bw_rejection_rate ovoc);
        pct (Runner.vm_rejection_rate cm);
        pct (Runner.vm_rejection_rate ovoc);
      ])
    loads
  |> List.iter (Table.add_row t);
  t

let fig9 p ~ratios =
  let t =
    Table.create
      ~caption:
        (Printf.sprintf
           "Fig. 9 - rejected bandwidth (%%) vs end-to-end oversubscription \
            ratio (load=%.0f%%, Bmax=%.0f)"
           (100. *. p.load) p.bmax)
      [
        ("oversub", Table.Right);
        ("CM", Table.Right);
        ("OVOC", Table.Right);
      ]
  in
  Par.map
    (fun ratio ->
      (* ToR stays at 4x; the aggregation factor supplies the rest. *)
      let spec =
        {
          Tree.default_spec with
          Tree.oversub = [ 4.; float_of_int ratio /. 4. ];
        }
      in
      let cm = run_sim ~spec ~make:Driver.cm p in
      let ovoc = run_sim ~spec ~make:Driver.oktopus p in
      [
        Printf.sprintf "%dx" ratio;
        pct (Runner.bw_rejection_rate cm);
        pct (Runner.bw_rejection_rate ovoc);
      ])
    ratios
  |> List.iter (Table.add_row t);
  t

let fig10 p =
  let t =
    Table.create
      ~caption:
        (Printf.sprintf
           "Fig. 10 - CM subroutine ablation: rejected bandwidth (%%) \
            (load=%.0f%%, Bmax=%.0f)"
           (100. *. p.load) p.bmax)
      [ ("variant", Table.Left); ("rejected BW %", Table.Right) ]
  in
  let variants : (string * Driver.maker) list =
    [
      ("Coloc+Balance", fun t -> Driver.cm ~policy:Cm.default_policy t);
      ("Coloc", fun t -> Driver.cm ~policy:{ Cm.default_policy with balance = false } t);
      ("Balance", fun t -> Driver.cm ~policy:{ Cm.default_policy with colocate = false } t);
      (* Design-choice ablation: colocate on the Eq. 6 size condition
         alone, without the Eq. 4 savings verification. *)
      ( "no-Eq4-verify",
        fun t ->
          Driver.cm
            ~policy:{ Cm.default_policy with verify_trunk_savings = false } t
      );
      ("OVOC", fun t -> Driver.oktopus t);
      (* The homogeneous-VC rendering §5.1 dismisses ("always performed
         worse than VOC and TAG"). *)
      ("OVC (hose)", Driver.vc);
    ]
  in
  Par.map
    (fun (label, make) ->
      let r = run_sim ~make p in
      [ label; pct (Runner.bw_rejection_rate r) ])
    variants
  |> List.iter (Table.add_row t);
  t

let replicates p ~seeds =
  let t =
    Table.create
      ~caption:
        (Printf.sprintf
           "Seed robustness: rejected bandwidth (%%) at load=%.0f%%, \
            Bmax=%.0f across %d independent seeds (workload pool and \
            arrival sequence both reseeded)"
           (100. *. p.load) p.bmax (List.length seeds))
      [
        ("seed", Table.Right);
        ("CM", Table.Right);
        ("OVOC", Table.Right);
      ]
  in
  (* Each replicate reseeds both the workload pool and the arrival
     sequence, so it shards across domains with no shared state. *)
  let rows =
    Par.map
      (fun seed ->
        let p = { p with seed } in
        let cm = Runner.bw_rejection_rate (run_sim ~make:Driver.cm p) in
        let ovoc = Runner.bw_rejection_rate (run_sim ~make:Driver.oktopus p) in
        (seed, cm, ovoc))
      seeds
  in
  List.iter
    (fun (seed, cm, ovoc) ->
      Table.add_row t [ string_of_int seed; pct cm; pct ovoc ])
    rows;
  let summarize vals =
    let arr = Array.of_list vals in
    Printf.sprintf "%.1f +- %.1f" (Stats.mean arr) (Stats.stddev arr)
  in
  Table.add_row t
    [
      "mean+-sd";
      summarize (List.map (fun (_, cm, _) -> cm) rows);
      summarize (List.map (fun (_, _, ovoc) -> ovoc) rows);
    ];
  t

let fig11 p ~rwcs_list =
  let t =
    Table.create
      ~caption:
        (Printf.sprintf
           "Fig. 11 - guaranteeing WCS at LAA=server (load=%.0f%%, \
            Bmax=%.0f): achieved WCS (mean [min,max]) and rejected BW"
           (100. *. p.load) p.bmax)
      [
        ("required WCS", Table.Right);
        ("CM+HA wcs", Table.Left);
        ("OVOC+HA wcs", Table.Left);
        ("CM+HA rejBW%", Table.Right);
        ("OVOC+HA rejBW%", Table.Right);
      ]
  in
  Par.map
    (fun rwcs ->
      let ha = { Types.rwcs; laa_level = 0 } in
      let cm = run_sim ~ha ~make:Driver.cm p in
      let ovoc = run_sim ~ha ~make:Driver.oktopus p in
      let wcs_cell r =
        Printf.sprintf "%.0f [%.0f,%.0f]" (Runner.mean_wcs r) (Runner.min_wcs r)
          (Runner.max_wcs r)
      in
      [
        Printf.sprintf "%.0f%%" (100. *. rwcs);
        wcs_cell cm;
        wcs_cell ovoc;
        pct (Runner.bw_rejection_rate cm);
        pct (Runner.bw_rejection_rate ovoc);
      ])
    rwcs_list
  |> List.iter (Table.add_row t);
  t

let fig12 ?(laa_level = 0) p ~bmaxes =
  let t =
    Table.create
      ~caption:
        (Printf.sprintf
           "Fig. 12 - HA mechanisms across Bmax (load=%.0f%%, LAA level \
            %d): rejected BW (%%) and mean level-%d WCS (%%)"
           (100. *. p.load) laa_level laa_level)
      [
        ("Bmax", Table.Right);
        ("rejBW CM", Table.Right);
        ("rejBW CM+HA", Table.Right);
        ("rejBW CM+oppHA", Table.Right);
        ("WCS CM", Table.Right);
        ("WCS CM+HA", Table.Right);
        ("WCS CM+oppHA", Table.Right);
      ]
  in
  Par.map
    (fun bmax ->
      let p = { p with bmax } in
      let cm = run_sim ~make:Driver.cm p in
      let ha = { Types.rwcs = 0.5; laa_level } in
      let cm_ha = run_sim ~ha ~make:Driver.cm p in
      let opp =
        run_sim
          ~make:
            (Driver.cm
               ~policy:{ Cm.default_policy with opportunistic_ha = true })
          p
      in
      [
        Printf.sprintf "%.0f" bmax;
        pct (Runner.bw_rejection_rate cm);
        pct (Runner.bw_rejection_rate cm_ha);
        pct (Runner.bw_rejection_rate opp);
        pct (Runner.mean_wcs cm);
        pct (Runner.mean_wcs cm_ha);
        pct (Runner.mean_wcs opp);
      ])
    bmaxes
  |> List.iter (Table.add_row t);
  t

(* {1 Enforcement} *)

let fig13 () =
  let t =
    Table.create
      ~caption:
        "Fig. 13 - ElasticSwitch prototype scenario: throughput (Mbps) into \
         VM Z over a 1 Gbps bottleneck, B1=B2=Bin2=450; TAG protects X->Z \
         at >= 450, hose does not"
      [
        ("C2 senders", Table.Right);
        ("TAG: X->Z", Table.Right);
        ("TAG: C2->Z", Table.Right);
        ("hose: X->Z", Table.Right);
        ("hose: C2->Z", Table.Right);
      ]
  in
  let tag_points = Scenario.fig13 Elastic.Tag_gp ~max_senders:5 in
  let hose_points = Scenario.fig13 Elastic.Hose_gp ~max_senders:5 in
  List.iter2
    (fun (a : Scenario.fig13_point) (b : Scenario.fig13_point) ->
      Table.add_row t
        [
          string_of_int a.n_senders;
          Printf.sprintf "%.0f" a.x_to_z;
          Printf.sprintf "%.0f" a.c2_to_z;
          Printf.sprintf "%.0f" b.x_to_z;
          Printf.sprintf "%.0f" b.c2_to_z;
        ])
    tag_points hose_points;
  t

let enforce_churn ~seed =
  let epochs = 40 in
  let t =
    Table.create
      ~caption:
        (Printf.sprintf
           "Enforcement under churn (Sec. 5.2, dynamic): Fig. 13 scenario \
            with 5 C2 senders flapping per epoch (p=0.5, %d epochs, seed \
            %d), control loop run to convergence per epoch; steady X->Z vs \
            the 450 Mbps trunk guarantee"
           epochs seed)
      [
        ("enforcement", Table.Left);
        ("epochs", Table.Right);
        ("converged", Table.Right);
        ("mean periods", Table.Right);
        ("mean X->Z", Table.Right);
        ("min X->Z", Table.Right);
        ("guarantee met", Table.Right);
      ]
  in
  (* Both rows rebuild the identical seeded churn trace, so the TAG and
     hose rows face the same arrival/departure schedule and the sweep
     fans out over the domain pool deterministically. *)
  Par.map
    (fun e ->
      let r = Scenario.churn ~seed ~epochs e in
      [
        Elastic.enforcement_to_string e;
        string_of_int (List.length r.points);
        Printf.sprintf "%.0f%%" (100. *. r.converged_fraction);
        Printf.sprintf "%.1f" r.mean_periods;
        Printf.sprintf "%.0f" r.x_mean;
        Printf.sprintf "%.0f" r.x_min;
        Printf.sprintf "%.0f%%" (100. *. r.guarantee_met);
      ])
    [ Elastic.Tag_gp; Elastic.Hose_gp ]
  |> List.iter (Table.add_row t);
  t

(* {1 Failure & survivability campaign (ISSUE 6)}

   The CI failure-smoke lane gates on these gauges, so they are part of
   the metrics schema: keep names stable. *)

module Metrics = Cm_obs.Metrics
module Failure = Cm_sim.Failure

let g_fail_events = Metrics.gauge "failures.events"
let g_fail_affected = Metrics.gauge "failures.affected"
let g_fail_recovered = Metrics.gauge "failures.recovered"
let g_fail_stranded = Metrics.gauge "failures.stranded"
let g_fail_mean_ttr = Metrics.gauge "failures.mean_ttr"
let g_fail_slack = Metrics.gauge "failures.wcs_slack_min"
let g_oracle_gap = Metrics.gauge "failures.oracle_gap"
let g_oracle_domains = Metrics.gauge "failures.oracle_domains"
let g_enf_downtime_none = Metrics.gauge "failures.enforce.downtime_none"
let g_enf_downtime_lag1 = Metrics.gauge "failures.enforce.downtime_lag1"

let failure_level = 1 (* ToR fault domains *)

(* The exhaustive-injection oracle, kept inside the section so every
   metrics document carries it: measured worst-case survival over all
   domains of a level must equal the Eq. 7 prediction exactly. *)
let failure_oracle ~seed =
  let spec =
    {
      Tree.degrees = [ 4; 4; 4 ];
      slots_per_server = 8;
      server_up_mbps = 1000.;
      oversub = [ 4.; 8. ];
    }
  in
  let tree = Tree.create spec in
  let sched = Driver.cm tree in
  let pool = Pool.scale_to_bmax (Pool.bing_like ~n:24 ~seed ()) ~bmax:300. in
  let tenants =
    Array.to_list pool.Pool.tags
    |> List.filter_map (fun tag ->
           match sched.Driver.place (Types.request tag) with
           | Ok p -> Some (p.Types.req.tag, p.Types.locations)
           | Error _ -> None)
  in
  let t =
    Table.create
      ~caption:
        (Printf.sprintf
           "Exhaustive-injection oracle: realized worst-case survival vs \
            Eq. 7 prediction, %d tenants on a 64-server tree (gap must be \
            0 at every level)"
           (List.length tenants))
      [
        ("level", Table.Right);
        ("domains", Table.Right);
        ("components", Table.Right);
        ("max |realized - predicted|", Table.Right);
      ]
  in
  let worst_gap = ref 0. and total_domains = ref 0 in
  List.iter
    (fun level ->
      let r = Failure.exhaustive tree tenants ~laa_level:level in
      let gap = ref 0. and comps = ref 0 in
      List.iter
        (fun (o : Failure.tenant_outcome) ->
          Array.iteri
            (fun c w ->
              incr comps;
              gap := Float.max !gap (Float.abs (w -. o.predicted_wcs.(c))))
            o.worst_survival)
        r.outcomes;
      worst_gap := Float.max !worst_gap !gap;
      total_domains := !total_domains + r.domains_failed;
      Table.add_row t
        [
          string_of_int level;
          string_of_int r.domains_failed;
          string_of_int !comps;
          Printf.sprintf "%.2e" !gap;
        ])
    [ 0; 1; 2 ];
  Metrics.set g_oracle_gap !worst_gap;
  Metrics.set g_oracle_domains (float_of_int !total_domains);
  t

let sim_failures p =
  let pool = bing_pool ~seed:p.seed ~bmax:p.bmax in
  let spec = Tree.default_spec in
  let base_cfg =
    {
      Runner.default_config with
      seed = p.seed;
      n_arrivals = p.arrivals;
      load = p.load;
      wcs_level = failure_level;
    }
  in
  let horizon = Runner.horizon (Tree.create spec) pool base_cfg in
  let n_domains =
    Array.length (Tree.nodes_at_level (Tree.create spec) failure_level)
  in
  (* ~16 ToR failures across the run, mean repair an eighth of the span;
     the schedule is shared verbatim by every policy row. *)
  let schedule =
    Failure.schedule
      (Rng.create (p.seed + 101))
      ~n_domains ~level:failure_level ~horizon ~rate:(16. /. horizon)
      ~mean_repair:(horizon /. 8.) ()
  in
  let ha = Some { Types.rwcs = 0.25; laa_level = failure_level } in
  (* The slug names each row's per-epoch series family
     (sim.failures.<slug>.utilization/acceptance_rate/stranded/
     ladder_depth); rows run in parallel, so each needs its own. *)
  let rows =
    [
      ( "CM anti-affine + recovery", "ha_recovery", `Cm, ha,
        Runner.default_recovery );
      ("CM no-HA + recovery", "noha_recovery", `Cm, None,
        Runner.default_recovery );
      ( "CM anti-affine, no recovery", "ha_norecovery",
        `Cm,
        ha,
        { Runner.default_recovery with max_attempts = 0 } );
      ( "CM+backup 30% (Yu-style)", "backup", `Backup, None,
        Runner.default_recovery );
    ]
  in
  let results =
    (* Each row rebuilds its own tree and scheduler; only the immutable
       schedule and pool are shared, so the fan-out is jobs-invariant. *)
    Par.map
      (fun (name, slug, maker, ha, recovery) ->
        let tree = Tree.create spec in
        let sched =
          match maker with `Cm -> Driver.cm tree | `Backup -> Driver.backup tree
        in
        let cfg = { base_cfg with ha } in
        ( name,
          Runner.run_with_failures
            ~series_prefix:("sim.failures." ^ slug)
            ~recovery sched tree pool cfg ~failures:schedule ))
      rows
  in
  let t =
    Table.create
      ~caption:
        (Printf.sprintf
           "Failure campaign: %d ToR failures (repaired, seed %d) injected \
            into %d arrivals at load %.0f%%; stranded tenants re-embedded by \
            the recovery ladder (full TAG under anti-affinity, then no-HA, \
            then partial at 75%%/50%%).  WCS slack = realized minus \
            predicted survival at the injection level (>= 0 by Eq. 7)"
           (Failure.n_events schedule) p.seed p.arrivals (100. *. p.load))
      [
        ("policy", Table.Left);
        ("accepted", Table.Right);
        ("affected", Table.Right);
        ("restored", Table.Right);
        ("partial", Table.Right);
        ("stranded", Table.Right);
        ("mean TTR", Table.Right);
        ("downtime", Table.Right);
        ("WCS slack", Table.Right);
      ]
  in
  List.iter
    (fun (name, (r : Runner.failure_result)) ->
      Table.add_row t
        [
          name;
          string_of_int r.base.Runner.accepted;
          string_of_int r.tenants_affected;
          string_of_int r.recovered_full;
          string_of_int r.recovered_partial;
          string_of_int r.stranded;
          Printf.sprintf "%.1f" r.mean_time_to_restore;
          Printf.sprintf "%.0f" r.total_downtime;
          (if Float.is_finite r.wcs_slack_min then
             Printf.sprintf "%.3f" r.wcs_slack_min
           else "-");
        ])
    results;
  (match results with
  | (_, (r : Runner.failure_result)) :: _ ->
      Metrics.set g_fail_events (float_of_int r.events_injected);
      Metrics.set g_fail_affected (float_of_int r.tenants_affected);
      Metrics.set g_fail_recovered
        (float_of_int (r.recovered_full + r.recovered_partial));
      Metrics.set g_fail_stranded (float_of_int r.stranded);
      Metrics.set g_fail_mean_ttr r.mean_time_to_restore;
      Metrics.set g_fail_slack
        (if Float.is_finite r.wcs_slack_min then r.wcs_slack_min else 0.)
  | [] -> ());
  [ t; failure_oracle ~seed:p.seed ]

let recovery_to_string = function
  | `None -> "none"
  | `Lag k -> Printf.sprintf "lag %d" k

let enforce_failures ~seed =
  let epochs = 60 in
  let rows =
    [
      (Elastic.Tag_gp, `Lag 1);
      (Elastic.Tag_gp, `Lag 4);
      (Elastic.Tag_gp, `None);
      (Elastic.Hose_gp, `Lag 1);
    ]
  in
  let results =
    Par.map
      (fun (e, recovery) ->
        Scenario.failures ~seed ~epochs ~recovery ~mean_repair:6. e)
      rows
  in
  let t =
    Table.create
      ~caption:
        (Printf.sprintf
           "Enforcement under rack failures: 16 workers on 4 racks into one \
            sink, the seed-%d failure schedule replayed through the control \
            loop (%d epochs, mean repair 6).  Guarantee-downtime counts \
            VM-epochs with no flow or a violated GP guarantee; faster \
            recovery (smaller lag) must not increase it"
           seed epochs)
      [
        ("enforcement", Table.Left);
        ("recovery", Table.Left);
        ("events", Table.Right);
        ("down VM-epochs", Table.Right);
        ("downtime", Table.Right);
        ("restores", Table.Right);
        ("mean restore", Table.Right);
        ("violations", Table.Right);
        ("reconverge periods", Table.Right);
      ]
  in
  List.iter
    (fun (r : Scenario.failures_result) ->
      Table.add_row t
        [
          Elastic.enforcement_to_string r.f_enforcement;
          recovery_to_string r.f_recovery;
          string_of_int r.f_events;
          string_of_int r.vm_epochs_down;
          Printf.sprintf "%.1f%%" (100. *. r.downtime_fraction);
          string_of_int r.restores;
          Printf.sprintf "%.1f" r.mean_restore_epochs;
          string_of_int r.guarantee_violations;
          Printf.sprintf "%.1f" r.reconverge_periods_mean;
        ])
    results;
  (match results with
  | lag1 :: _ :: none :: _ ->
      Metrics.set g_enf_downtime_lag1 lag1.Scenario.downtime_fraction;
      Metrics.set g_enf_downtime_none none.Scenario.downtime_fraction
  | _ -> ());
  t

(* {1 TAG inference} *)

type ami_summary = {
  mean_ami : float;
  median_ami : float;
  n_tenants : int;
  mean_components_truth : float;
  mean_components_inferred : float;
}

let ami ~seed ?(n = 80) ?(max_vms = max_int) () =
  let pool = Pool.bing_like ~n ~seed () in
  let rng = Rng.create (seed + 17) in
  let eligible =
    Array.to_list pool.tags
    |> List.filter (fun tag ->
           Tag.total_vms tag > 1 && Tag.total_vms tag <= max_vms)
  in
  (* One traffic RNG stream per tenant (split deterministically from
     the section seed), so the fan-out over the domain pool is
     jobs-invariant like every other section. *)
  let samples =
    Par.map_rng ~rng
      (fun rng tag ->
        let tm =
          Cm_inference.Traffic_matrix.generate ~imbalance:0.9 ~noise_prob:0.05
            ~rng tag
        in
        (tag, Cm_inference.Infer.infer tm))
      eligible
  in
  let amis =
    Array.of_list
      (List.filter_map
         (fun (_, (r : Cm_inference.Infer.result)) -> r.ami_vs_truth)
         samples)
  in
  let summary =
    {
      mean_ami = Stats.mean amis;
      median_ami = Stats.median amis;
      n_tenants = List.length samples;
      mean_components_truth =
        Stats.mean
          (Array.of_list
             (List.map
                (fun (tag, _) -> float_of_int (Tag.n_components tag))
                samples));
      mean_components_inferred =
        Stats.mean
          (Array.of_list
             (List.map
                (fun (_, (r : Cm_inference.Infer.result)) ->
                  float_of_int r.n_components)
                samples));
    }
  in
  let t =
    Table.create
      ~caption:
        (Printf.sprintf
           "TAG inference (Sec. 3): Louvain on noisy traffic matrices over \
            %d bing-like tenants; paper reports mean AMI 0.54 on real traces"
           summary.n_tenants)
      [ ("metric", Table.Left); ("value", Table.Right) ]
  in
  Table.add_float_row t ~dec:2 "mean AMI" [ summary.mean_ami ];
  Table.add_float_row t ~dec:2 "median AMI" [ summary.median_ami ];
  Table.add_float_row t ~dec:1 "mean true #components"
    [ summary.mean_components_truth ];
  Table.add_float_row t ~dec:1 "mean inferred #components"
    [ summary.mean_components_inferred ];
  (t, summary)

let ami_sensitivity ~seed ?(n = 24) () =
  let pool = Pool.bing_like ~n ~seed () in
  let eligible =
    Array.to_list pool.Pool.tags
    |> List.filter (fun tag ->
           Tag.total_vms tag > 1 && Tag.total_vms tag <= 250)
  in
  let mean_ami ~imbalance ~noise_prob ~resolution =
    let rng = Rng.create (seed + 31) in
    let samples =
      Par.map_rng ~rng
        (fun rng tag ->
          let tm =
            Cm_inference.Traffic_matrix.generate ~imbalance ~noise_prob ~rng
              tag
          in
          (Cm_inference.Infer.infer ~resolution tm).ami_vs_truth)
        eligible
    in
    Stats.mean (Array.of_list (List.filter_map Fun.id samples))
  in
  let t =
    Table.create
      ~caption:
        (Printf.sprintf
           "TAG inference sensitivity over %d bing-like tenants: mean AMI \
            vs traffic imbalance, noise, and Louvain resolution (defaults \
            imbalance 0.9, noise 0.05, resolution 1)"
           n)
      [
        ("sweep", Table.Left);
        ("setting", Table.Right);
        ("mean AMI", Table.Right);
      ]
  in
  (* Each setting reseeds its own traffic RNG and only reads the shared
     (immutable) pool.  Parallelism lives {e inside} [mean_ami] (one
     stream per tenant), so the settings themselves run sequentially —
     nesting [Par.map] would spawn domains from inside domains. *)
  let points =
    List.map
      (fun imbalance ->
        ( "imbalance",
          Printf.sprintf "%.1f" imbalance,
          fun () -> mean_ami ~imbalance ~noise_prob:0.05 ~resolution:1. ))
      [ 0.2; 0.6; 1.0; 1.5 ]
    @ List.map
        (fun noise_prob ->
          ( "noise",
            Printf.sprintf "%.2f" noise_prob,
            fun () -> mean_ami ~imbalance:0.9 ~noise_prob ~resolution:1. ))
        [ 0.; 0.05; 0.15; 0.3 ]
    @ List.map
        (fun resolution ->
          ( "resolution",
            Printf.sprintf "%.1f" resolution,
            fun () -> mean_ami ~imbalance:0.9 ~noise_prob:0.05 ~resolution ))
        [ 0.5; 1.0; 2.0; 4.0 ]
  in
  List.map
    (fun (sweep, setting, run) -> [ sweep; setting; Printf.sprintf "%.2f" (run ()) ])
    points
  |> List.iter (Table.add_row t);
  t

let end_to_end ~seed ~bmax =
  let module E2e = Cm_e2e.End_to_end in
  (* A medium datacenter keeps the flow population tractable. *)
  let spec =
    {
      Tree.default_spec with
      Tree.degrees = [ 4; 8; 8 ];
      slots_per_server = 12;
    }
  in
  let pool = bing_pool ~seed ~bmax in
  (* Deploy the same arrival sequence with CloudMirror and with the
     bandwidth-oblivious round-robin strawman. *)
  let deploy make =
    let tree = Tree.create spec in
    let sched = make tree in
    let rng = Rng.create (seed + 5) in
    let tenants = ref [] in
    let target = Tree.total_slots tree * 85 / 100 in
    while
      Tree.total_slots tree - Tree.free_slots_subtree tree (Tree.root tree)
      < target
    do
      let tag = Rng.pick rng pool.Pool.tags in
      match sched.Driver.place (Types.request tag) with
      | Ok p -> tenants := (tag, p.Types.locations) :: !tenants
      | Error _ -> ()
    done;
    (tree, List.rev !tenants)
  in
  let cm_tree, cm_tenants = deploy (fun tree -> Driver.cm tree) in
  let rr_tree, rr_tenants = deploy Driver.round_robin in
  let t =
    Table.create
      ~caption:
        (Printf.sprintf
           "End-to-end integration: %d CM-deployed (and %d round-robin) \
            tenants, backlogged flows on every TAG edge plus 2000 \
            unguaranteed background flows; per-pair guarantee violations \
            by placement x enforcement"
           (List.length cm_tenants) (List.length rr_tenants))
      [
        ("placement", Table.Left);
        ("enforcement", Table.Left);
        ("edges", Table.Right);
        ("violated", Table.Right);
        ("violation %", Table.Right);
        ("mean shortfall %", Table.Right);
        ("flows", Table.Right);
      ]
  in
  let eval label tree tenants mode =
    let rng = Rng.create (seed + 6) in
    let r =
      E2e.evaluate ~pairs_per_edge:16 ~background_flows:2000 ~rng ~tree
        ~tenants ~mode ()
    in
    Table.add_row t
      [
        label;
        E2e.mode_to_string mode;
        string_of_int r.edges_total;
        string_of_int r.edges_violated;
        Printf.sprintf "%.1f" (100. *. r.violation_fraction);
        Printf.sprintf "%.1f" (100. *. r.mean_shortfall);
        string_of_int r.flows;
      ]
  in
  List.iter
    (fun mode -> eval "CM" cm_tree cm_tenants mode)
    [ E2e.No_protection; E2e.Hose_protection; E2e.Tag_protection ];
  (* Enforcement cannot rescue an unchecked placement. *)
  eval "round-robin" rr_tree rr_tenants E2e.Tag_protection;
  t

let prediction ~seed =
  let module Predict = Cm_inference.Predict in
  let pool = Pool.bing_like ~n:20 ~seed () in
  let rng = Rng.create (seed + 83) in
  let evaluations predictor =
    let overs = ref [] and viols = ref [] in
    Array.iter
      (fun tag ->
        if Tag.total_vms tag > 1 && Tag.total_vms tag <= 150 then begin
          let tm =
            Cm_inference.Traffic_matrix.generate ~epochs:30 ~imbalance:0.7
              ~rng tag
          in
          let e = Predict.evaluate predictor ~window:8 tm in
          overs := e.mean_overprovision :: !overs;
          viols := e.violation_rate :: !viols
        end)
      pool.Pool.tags;
    ( Stats.mean (Array.of_list !overs),
      Stats.mean (Array.of_list !viols) )
  in
  let t =
    Table.create
      ~caption:
        "History-based guarantee prediction (Sec. 6 extension, \
         Cicada-style): reservation headroom vs violation risk over \
         bing-like tenants, 30 epochs, window 8"
      [
        ("predictor", Table.Left);
        ("mean overprovision %", Table.Right);
        ("violation rate %", Table.Right);
      ]
  in
  List.iter
    (fun predictor ->
      let over, viol = evaluations predictor in
      Table.add_row t
        [
          Predict.predictor_to_string predictor;
          Printf.sprintf "%.1f" (100. *. over);
          Printf.sprintf "%.1f" (100. *. viol);
        ])
    [
      Predict.Peak;
      Predict.Quantile 0.95;
      Predict.Quantile 0.75;
      Predict.Headroom 0.2;
    ];
  t

let optimality ~seed ?(instances = 150) () =
  let module Optimal = Cm_placement.Optimal in
  let rng = Rng.create (seed + 71) in
  let micro_spec =
    {
      Tree.degrees = [ 2; 3 ];
      slots_per_server = 3;
      server_up_mbps = 100.;
      oversub = [ 2. ];
    }
  in
  let rows = [ ("hose", `Hose); ("trunk pair", `Pair) ] in
  let t =
    Table.create
      ~caption:
        (Printf.sprintf
           "Heuristic vs exhaustive oracle on %d random micro instances \
            (6 servers x 3 slots, 100 Mbps): the placement problem is \
            NP-hard (Sec. 4.4); CM never accepts an infeasible instance \
            and misses few feasible ones"
           instances)
      [
        ("instance kind", Table.Left);
        ("oracle feasible", Table.Right);
        ("CM accepts", Table.Right);
        ("CM misses", Table.Right);
        ("unsound", Table.Right);
      ]
  in
  (* [map_rng] hands each instance kind its own split stream, so the rows
     run in parallel yet stay reproducible from [seed]. *)
  Par.map_rng ~rng
    (fun rng (label, kind) ->
      let feasible = ref 0 and cm_ok = ref 0 and missed = ref 0 and unsound = ref 0 in
      for _ = 1 to instances do
        let tag =
          match kind with
          | `Hose ->
              Tag.hose ~tier:"t"
                ~size:(2 + Rng.int rng 7)
                ~bw:(5. +. Rng.float rng 90.)
                ()
          | `Pair ->
              let b = 5. +. Rng.float rng 70. in
              Tag.create
                ~components:
                  [ ("u", 1 + Rng.int rng 4); ("v", 1 + Rng.int rng 4) ]
                ~edges:[ (0, 1, b, b); (1, 0, b, b) ]
                ()
        in
        let tree = Tree.create micro_spec in
        let oracle = Optimal.feasible tree tag <> None in
        let sched = Cm.create tree in
        let cm =
          match Cm.place sched (Types.request tag) with
          | Ok _ -> true
          | Error _ -> false
        in
        if oracle then incr feasible;
        if cm then incr cm_ok;
        if oracle && not cm then incr missed;
        if cm && not oracle then incr unsound
      done;
      [
        label;
        string_of_int !feasible;
        string_of_int !cm_ok;
        string_of_int !missed;
        string_of_int !unsound;
      ])
    rows
  |> List.iter (Table.add_row t);
  t

let defrag ~seed ?(churn = 1500) () =
  let module Defrag = Cm_placement.Defrag in
  let spec =
    { Tree.default_spec with Tree.degrees = [ 4; 8; 8 ]; slots_per_server = 12 }
  in
  let tree = Tree.create spec in
  let pool = bing_pool ~seed ~bmax:800. in
  let sched = Cm.create tree in
  let rng = Rng.create (seed + 72) in
  (* Arrival/departure churn leaves a fragmented layout. *)
  let live : (int, Types.placement) Hashtbl.t = Hashtbl.create 64 in
  let next = ref 0 in
  for _ = 1 to churn do
    if Rng.uniform rng < 0.45 && Hashtbl.length live > 0 then begin
      (* Departure of a random live tenant. *)
      let keys = Hashtbl.fold (fun k _ acc -> k :: acc) live [] in
      let k = List.nth keys (Rng.int rng (List.length keys)) in
      Cm.release sched (Hashtbl.find live k);
      Hashtbl.remove live k
    end
    else begin
      let tag = Rng.pick rng pool.Pool.tags in
      match Cm.place sched (Types.request tag) with
      | Ok p ->
          Hashtbl.replace live !next p;
          incr next
      | Error _ -> ()
    end
  done;
  let placements = Hashtbl.fold (fun _ p acc -> p :: acc) live [] in
  let before = Defrag.switch_level_cost tree /. 1000. in
  let _, kept = Defrag.run sched placements in
  let after = Defrag.switch_level_cost tree /. 1000. in
  let t =
    Table.create
      ~caption:
        (Printf.sprintf
           "Defragmentation (footnote 8 extension): %d churn events leave \
            %d live tenants; one migration sweep follows"
           churn (List.length placements))
      [ ("metric", Table.Left); ("value", Table.Right) ]
  in
  Table.add_row t
    [ "switch-level reserved before (Gbps)"; Printf.sprintf "%.1f" before ];
  Table.add_row t
    [ "switch-level reserved after (Gbps)"; Printf.sprintf "%.1f" after ];
  Table.add_row t
    [
      "reclaimed";
      Printf.sprintf "%.1f%%" (100. *. Stats.ratio (before -. after) before);
    ];
  Table.add_row t [ "migrations kept"; string_of_int kept ];
  t

let profiles ~seed =
  let module Profile = Cm_tag.Profile in
  let pool = bing_pool ~seed ~bmax:800. in
  let rng = Rng.create (seed + 99) in
  let with_profiles n =
    List.init n (fun i ->
        let tag = pool.Pool.tags.(i mod Array.length pool.Pool.tags) in
        (tag, Profile.diurnal rng ~n_slots:24))
  in
  let t =
    Table.create
      ~caption:
        "Time-varying guarantees (Sec. 6 extension): bandwidth a \
         profile-aware reservation system needs vs per-tenant peak \
         reservations, bing-like tenants with randomly-phased diurnal \
         profiles"
      [
        ("tenants", Table.Right);
        ("sum of peaks (Gbps)", Table.Right);
        ("peak of sums (Gbps)", Table.Right);
        ("saving", Table.Right);
      ]
  in
  List.iter
    (fun n ->
      let m = Profile.multiplexing (with_profiles n) in
      Table.add_row t
        [
          string_of_int n;
          Printf.sprintf "%.1f" (m.sum_of_peaks /. 1000.);
          Printf.sprintf "%.1f" (m.peak_of_sums /. 1000.);
          Printf.sprintf "%.0f%%" (100. *. m.saving_fraction);
        ])
    [ 10; 40; 160; 640 ];
  t

(* {1 Runtime probe} *)

let closest_tenant pool size =
  Array.to_list pool.Pool.tags
  |> List.map (fun tag -> (abs (Tag.total_vms tag - size), tag))
  |> List.sort compare
  |> List.hd
  |> snd

let time_place make tag =
  let tree = Tree.create_default () in
  let sched = make tree in
  (* Wall time, on the clock [Cm_obs.Span] uses. *)
  let t0 = Unix.gettimeofday () in
  let reps = 3 in
  let ok = ref 0 in
  for _ = 1 to reps do
    match sched.Driver.place (Types.request tag) with
    | Ok p ->
        incr ok;
        sched.Driver.release p
    | Error _ -> ()
  done;
  let dt = (Unix.gettimeofday () -. t0) /. float_of_int reps in
  (dt, !ok > 0)

let runtime_probe ~seed ~sizes =
  let pool = bing_pool ~seed ~bmax:800. in
  let t =
    Table.create
      ~caption:
        "Algorithm runtime (Sec. 5.1): mean place+release wall time on an \
         empty 2048-server datacenter (3 runs)"
      [
        ("tenant size", Table.Right);
        ("CM (ms)", Table.Right);
        ("OVOC (ms)", Table.Right);
        ("SecondNet (ms)", Table.Right);
      ]
  in
  List.iter
    (fun size ->
      let tag = closest_tenant pool size in
      let actual = Tag.total_vms tag in
      let cm, _ = time_place Driver.cm tag in
      let ovoc, _ = time_place Driver.oktopus tag in
      let secondnet_cell =
        if actual <= 250 then
          let sn, _ = time_place Driver.secondnet tag in
          Printf.sprintf "%.1f" (sn *. 1000.)
        else "(skipped: minutes)"
      in
      Table.add_row t
        [
          string_of_int actual;
          Printf.sprintf "%.1f" (cm *. 1000.);
          Printf.sprintf "%.1f" (ovoc *. 1000.);
          secondnet_cell;
        ])
    sizes;
  t

(* {1 Section table}

   The single source of truth for the experiment sections that
   bench/main.exe and the cloudmirror CLI dispatch: the harnesses
   iterate this table rather than maintaining their own name lists, so a
   new experiment added here is automatically runnable (and testable)
   everywhere.  Each handler is wrapped in a "section.<name>" timed span
   so a --metrics-out run records per-section wall time. *)

let sections ~params:p =
  let one f () = [ f () ] in
  [
    ("fig1", fig1);
    ("fig2", one fig2);
    ("fig3", one fig3);
    ("fig4", one fig4);
    ("fig6", one fig6);
    ("table1", one (fun () -> table1 ~seed:p.seed ~bmax:p.bmax));
    ("workloads", fun () -> table1_all_workloads ~seed:p.seed ~bmax:p.bmax);
    ( "fig7",
      one (fun () ->
          fig7 p ~loads:[ 0.5; 0.9 ]
            ~bmaxes:[ 400.; 600.; 800.; 1000.; 1200. ]) );
    ( "fig8",
      one (fun () ->
          fig8 p ~loads:[ 0.1; 0.2; 0.3; 0.4; 0.5; 0.6; 0.7; 0.8; 0.9; 1.0 ])
    );
    ("fig9", one (fun () -> fig9 p ~ratios:[ 16; 32; 64; 128 ]));
    ("fig10", one (fun () -> fig10 p));
    ("replicates", one (fun () -> replicates p ~seeds:[ 1; 2; 3; 4; 5 ]));
    ("fig11", one (fun () -> fig11 p ~rwcs_list:[ 0.; 0.25; 0.5; 0.75 ]));
    ( "fig12",
      one (fun () -> fig12 p ~bmaxes:[ 400.; 600.; 800.; 1000.; 1200. ]) );
    ( "fig12-tor",
      one (fun () -> fig12 ~laa_level:1 p ~bmaxes:[ 600.; 800.; 1000. ]) );
    ("fig13", one fig13);
    ("enforce-churn", one (fun () -> enforce_churn ~seed:p.seed));
    ("sim-failures", fun () -> sim_failures p);
    ("enforce-failures", one (fun () -> enforce_failures ~seed:p.seed));
    ("e2e", one (fun () -> end_to_end ~seed:p.seed ~bmax:p.bmax));
    ("profiles", one (fun () -> profiles ~seed:p.seed));
    ("prediction", one (fun () -> prediction ~seed:p.seed));
    ("optimality", one (fun () -> optimality ~seed:p.seed ()));
    ("defrag", one (fun () -> defrag ~seed:p.seed ()));
    ("ami", one (fun () -> fst (ami ~seed:p.seed ())));
    ("ami-sweep", one (fun () -> ami_sensitivity ~seed:p.seed ()));
    ( "runtime-probe",
      one (fun () -> runtime_probe ~seed:p.seed ~sizes:[ 25; 57; 200; 732 ])
    );
  ]
  |> List.map (fun (name, run) ->
         (name, fun () -> Cm_obs.Span.with_ ("section." ^ name) run))

let section_names = List.map fst (sections ~params:default_params)
