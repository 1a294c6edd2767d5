(* CloudMirror command-line driver: run individual paper experiments,
   inspect workload pools, place example tenants, and exercise TAG
   inference and enforcement interactively. *)

open Cmdliner

module E = Cm_experiments.Experiments
module Table = Cm_util.Table
module Tag = Cm_tag.Tag
module Tree = Cm_topology.Tree
module Types = Cm_placement.Types
module Pool = Cm_workload.Pool

(* {1 Common options} *)

let seed_t =
  let doc = "PRNG seed; every command is deterministic given the seed." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

(* Observability options: logging threshold, log sink, and the metrics
   snapshot.  Telemetry observes, never perturbs: results are identical
   whatever these are set to. *)

let level_conv =
  let parse s =
    match Cm_obs.Log.level_of_string s with
    | Ok l -> Ok l
    | Error m -> Error (`Msg m)
  in
  let print ppf = function
    | Some l -> Format.pp_print_string ppf (Cm_obs.Log.level_to_string l)
    | None -> Format.pp_print_string ppf "off"
  in
  Arg.conv (parse, print)

let obs_t =
  let log_level_t =
    let doc = "Log threshold: debug, info, warn, error or off." in
    Arg.(
      value
      & opt level_conv (Some Cm_obs.Log.Warn)
      & info [ "log-level" ] ~docv:"LEVEL" ~doc)
  in
  let log_json_t =
    let doc = "Write log records as JSON lines to $(docv)." in
    Arg.(value & opt (some string) None & info [ "log-json" ] ~docv:"FILE" ~doc)
  in
  let metrics_out_t =
    let doc =
      "Enable timed spans and per-epoch series and, on exit, write the \
       metrics registry (counters, placement-latency histograms, \
       per-section spans with GC deltas, series) to $(docv) as \
       cloudmirror.metrics/2 JSON."
    in
    Arg.(
      value & opt (some string) None & info [ "metrics-out" ] ~docv:"FILE" ~doc)
  in
  let trace_out_t =
    let doc =
      "Enable causal tracing and, on exit, write a Chrome trace-event JSON \
       file to $(docv) (open it in https://ui.perfetto.dev)."
    in
    Arg.(
      value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)
  in
  (* Output paths are validated up front so a bad directory fails before
     any work runs, with the conventional usage exit code (2), instead
     of a Sys_error after minutes of simulation. *)
  let check_writable flag path =
    let fail msg =
      Printf.eprintf
        "cloudmirror: %s: %s\nRun with --help for usage.\n" flag msg;
      Stdlib.exit 2
    in
    let dir = Filename.dirname path in
    (match try Some (Sys.is_directory dir) with Sys_error _ -> None with
    | Some true -> ()
    | Some false -> fail (Printf.sprintf "%s is not a directory" dir)
    | None -> fail (Printf.sprintf "directory %s does not exist" dir));
    (try Unix.access dir [ Unix.W_OK ]
     with Unix.Unix_error _ ->
       fail (Printf.sprintf "directory %s is not writable" dir));
    if Sys.file_exists path && Sys.is_directory path then
      fail (Printf.sprintf "%s is a directory" path)
  in
  let setup level json_file metrics_out trace_out =
    Cm_obs.Log.set_level level;
    (match json_file with
    | Some path -> Cm_obs.Log.open_json_file path
    | None -> ());
    (match metrics_out with
    | Some path ->
        check_writable "--metrics-out" path;
        Cm_obs.Span.set_enabled true;
        Cm_obs.Series.set_enabled true
    | None -> ());
    (match trace_out with
    | Some path ->
        check_writable "--trace-out" path;
        Cm_obs.Trace.set_enabled true
    | None -> ());
    (metrics_out, trace_out)
  in
  Term.(const setup $ log_level_t $ log_json_t $ metrics_out_t $ trace_out_t)

let finish_metrics (metrics_out, trace_out) =
  (match metrics_out with
  | None -> ()
  | Some path ->
      Cm_obs.Metrics.write_file path;
      Printf.eprintf "wrote metrics document to %s\n%!" path);
  match trace_out with
  | None -> ()
  | Some path ->
      Cm_obs.Trace.write_file path;
      Printf.eprintf "wrote %d trace events (%d dropped) to %s\n%!"
        (Cm_obs.Trace.recorded ()) (Cm_obs.Trace.dropped ()) path

let jobs_t =
  let doc =
    "Worker domains for parallel sweeps (default: the host's recommended \
     domain count).  Results are identical for every value."
  in
  let jobs_conv =
    let parse s =
      match int_of_string_opt s with
      | Some n when n >= 1 -> Ok n
      | Some _ -> Error (`Msg "must be >= 1")
      | None -> Error (`Msg (Printf.sprintf "expected an integer, got %S" s))
    in
    Arg.conv (parse, Format.pp_print_int)
  in
  Arg.(
    value
    & opt jobs_conv (Cm_util.Par.available_domains ())
    & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let set_jobs jobs = Cm_util.Par.set_default_domains jobs

let arrivals_t =
  let doc = "Poisson arrivals per simulated point (paper: 10000)." in
  Arg.(value & opt int 2000 & info [ "arrivals" ] ~docv:"N" ~doc)

(* A float value that must satisfy [ok], described by [what] in the
   error, so a bad value is refused here with exit 124. *)
let checked_float ok what =
  let parse s =
    Result.bind (Arg.conv_parser Arg.float s) (fun x ->
        if ok x then Ok x
        else Error (`Msg (Printf.sprintf "%S is not %s" s what)))
  in
  Arg.conv (parse, Arg.conv_printer Arg.float)

let positive_float =
  checked_float (fun x -> Float.is_finite x && x > 0.) "a finite number > 0"

let bmax_t =
  let doc = "Bmax scaling target in Mbps (paper sweeps 400-1200)." in
  Arg.(value & opt positive_float 800. & info [ "bmax" ] ~docv:"MBPS" ~doc)

let load_t =
  let doc = "Offered datacenter load, > 0 (1 = every slot busy)." in
  Arg.(value & opt positive_float 0.9 & info [ "load" ] ~docv:"LOAD" ~doc)

let rwcs_t =
  let doc = "Guarantee this worst-case survivability in [0, 1) (0 = no HA)." in
  let fraction = checked_float (fun x -> x >= 0. && x < 1.) "in [0, 1)" in
  Arg.(value & opt fraction 0. & info [ "rwcs" ] ~docv:"FRACTION" ~doc)

let examples =
  [
    ( "three-tier",
      Cm_tag.Examples.three_tier ~n_web:8 ~n_logic:8 ~n_db:8 ~b1:500. ~b2:100.
        ~b3:50. () );
    ("storm", Cm_tag.Examples.storm ~s:8 ~b:200.);
    ("fig6", Cm_tag.Examples.fig6 ());
    ("batch", Cm_tag.Examples.batch ~size:32 ~bw:300. ());
  ]

let example_t =
  let doc = "Example tenant: " ^ Arg.doc_alts_enum examples ^ "." in
  Arg.(
    value
    & pos 0 (enum examples) (List.assoc "three-tier" examples)
    & info [] ~docv:"TENANT" ~doc)

(* {1 experiment command} *)

(* "runtime" predates the sections table and maps to the wall-clock
   probe ("runtime-probe" there). *)
let experiment_names =
  E.section_names @ [ "runtime" ]

let run_experiment metrics name seed arrivals bmax load jobs =
  set_jobs jobs;
  let p = { E.seed; arrivals; bmax; load } in
  let name = if name = "runtime" then "runtime-probe" else name in
  match List.assoc_opt name (E.sections ~params:p) with
  | Some run ->
      List.iter Table.print (run ());
      finish_metrics metrics;
      `Ok ()
  | None ->
      `Error
        ( false,
          Printf.sprintf "unknown experiment %S; one of: %s" name
            (String.concat ", " experiment_names) )

let experiment_cmd =
  let name_t =
    let doc = "Experiment to run (fig1..fig13, table1, ami, runtime)." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"EXPERIMENT" ~doc)
  in
  let doc = "Regenerate one of the paper's tables or figures." in
  Cmd.v
    (Cmd.info "experiment" ~doc)
    Term.(
      ret
        (const run_experiment $ obs_t $ name_t $ seed_t $ arrivals_t $ bmax_t
       $ load_t $ jobs_t))

(* {1 pool command} *)

let pool_kind_t =
  let doc = "Workload pool: bing, hpcloud or synthetic." in
  Arg.(
    value
    & opt (enum [ ("bing", `Bing); ("hpcloud", `Hpcloud); ("synthetic", `Syn) ])
        `Bing
    & info [ "kind" ] ~docv:"KIND" ~doc)

let run_pool kind seed bmax verbose export =
  let pool =
    match kind with
    | `Bing -> Pool.bing_like ~seed ()
    | `Hpcloud -> Pool.hpcloud_like ~seed ()
    | `Syn -> Pool.synthetic ~seed ()
  in
  let pool = Pool.scale_to_bmax pool ~bmax in
  Printf.printf
    "pool %s: %d tenants, mean size %.1f VMs, max %d VMs,\n\
    \  max per-VM demand %.0f Mbps, inter-component traffic fraction \
     %.2f of aggregate\n\
    \  (%.2f mean per component; paper reports 0.91 for bing.com)\n"
    pool.pool_name (Array.length pool.tags) (Pool.mean_size pool)
    (Pool.max_size pool)
    (Pool.max_mean_vm_demand pool)
    (Pool.mean_inter_component_fraction pool)
    (Pool.mean_per_component_inter_fraction pool);
  if verbose then
    Array.iter
      (fun tag ->
        Printf.printf "  %-10s %4d VMs, %2d tiers, %8.0f Mbps aggregate\n"
          (Tag.name tag) (Tag.total_vms tag) (Tag.n_components tag)
          (Tag.aggregate_bandwidth tag))
      pool.tags;
  match export with
  | None -> ()
  | Some dir ->
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      Array.iter
        (fun tag ->
          let path = Filename.concat dir (Tag.name tag ^ ".tag") in
          Out_channel.with_open_text path (fun oc ->
              Out_channel.output_string oc (Cm_tag.Tag_format.to_text tag)))
        pool.tags;
      Printf.printf "wrote %d .tag files to %s\n" (Array.length pool.tags) dir

let pool_cmd =
  let verbose_t =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"List every tenant.")
  in
  let export_t =
    let doc = "Write every tenant as a .tag file into this directory." in
    Arg.(value & opt (some string) None & info [ "export" ] ~docv:"DIR" ~doc)
  in
  let doc = "Describe (and optionally export) a generated workload pool." in
  Cmd.v (Cmd.info "pool" ~doc)
    Term.(
      const run_pool $ pool_kind_t $ seed_t $ bmax_t $ verbose_t $ export_t)

(* {1 place command} *)

let run_place metrics example file alg rwcs =
  Fun.protect ~finally:(fun () -> finish_metrics metrics) @@ fun () ->
  match
    match file with
    | Some path -> Cm_tag.Tag_format.of_file path
    | None -> Ok example
  with
  | Error m -> `Error (false, m)
  | Ok tag ->
      let tree = Tree.create_default () in
      let sched =
        match alg with
        | `Cm -> Cm_sim.Driver.cm tree
        | `Ovoc -> Cm_sim.Driver.oktopus tree
        | `Secondnet -> Cm_sim.Driver.secondnet tree
      in
      let ha =
        if rwcs > 0. then Some { Types.rwcs; laa_level = 0 } else None
      in
      Format.printf "%a@." Tag.pp tag;
      (match sched.Cm_sim.Driver.place (Types.request ?ha tag) with
      | Error reason ->
          Printf.printf "REJECTED: %s\n" (Types.reject_to_string reason)
      | Ok p ->
          Printf.printf "placed %d VMs with %s:\n" (Types.vm_count p.locations)
            sched.sched_name;
          Array.iteri
            (fun c placed ->
              Printf.printf "  %-8s:" (Tag.component_name tag c);
              List.iter
                (fun (server, n) -> Printf.printf " srv%d x%d" server n)
                placed;
              print_newline ())
            p.locations;
          let wcs =
            Cm_placement.Wcs.per_component tree tag p.locations ~laa_level:0
          in
          Array.iteri
            (fun c w ->
              Printf.printf "  WCS(%s) = %.0f%%\n" (Tag.component_name tag c)
                (100. *. w))
            wcs;
          List.iter
            (fun level ->
              let up, down = Tree.reserved_at_level tree ~level in
              Printf.printf
                "  level %d reservations: %.1f Gbps up, %.1f Gbps down\n" level
                (up /. 1000.) (down /. 1000.))
            [ 0; 1; 2 ]);
      `Ok ()

let place_cmd =
  let file_t =
    let doc =
      "Read the tenant from a TAG file instead (see Cm_tag.Tag_format for \
       the format)."
    in
    Arg.(value & opt (some file) None & info [ "file"; "f" ] ~docv:"FILE" ~doc)
  in
  let alg_t =
    let doc = "Placement algorithm: cm, ovoc or secondnet." in
    let algs = [ ("cm", `Cm); ("ovoc", `Ovoc); ("secondnet", `Secondnet) ] in
    Arg.(value & opt (enum algs) `Cm & info [ "alg" ] ~docv:"ALG" ~doc)
  in
  let doc = "Place an example tenant on the default 2048-server datacenter." in
  Cmd.v (Cmd.info "place" ~doc)
    Term.(ret (const run_place $ obs_t $ example_t $ file_t $ alg_t $ rwcs_t))

(* {1 infer command} *)

let run_infer example csv seed =
  match csv with
  | Some path -> begin
      match
        In_channel.with_open_text path In_channel.input_all
        |> Cm_inference.Traffic_matrix.of_csv
      with
      | Error m -> `Error (false, m)
      | Ok tm ->
          let r = Cm_inference.Infer.infer tm in
          Format.printf
            "imported %dx%d matrix over %d epochs; inferred:@.%a@." tm.n_vms
            tm.n_vms
            (Array.length tm.epochs)
            Tag.pp r.inferred;
          `Ok ()
    end
  | None ->
      let rng = Cm_util.Rng.create seed in
      let tm =
        Cm_inference.Traffic_matrix.generate ~imbalance:0.9 ~noise_prob:0.05
          ~rng example
      in
      let r = Cm_inference.Infer.infer tm in
      Format.printf "ground truth:@.%a@." Tag.pp example;
      (match r.ami_vs_truth with
      | Some a -> Format.printf "inferred (AMI %.2f):@.%a@." a Tag.pp r.inferred
      | None -> Format.printf "inferred:@.%a@." Tag.pp r.inferred);
      `Ok ()

let infer_cmd =
  let csv_t =
    let doc = "Infer from a measured CSV matrix (epoch,src,dst,rate)." in
    Arg.(value & opt (some file) None & info [ "csv" ] ~docv:"FILE" ~doc)
  in
  let doc =
    "Infer a TAG from traffic: either synthesize noisy traffic from a \
     known example (reporting AMI against the ground truth) or import a \
     measured CSV matrix."
  in
  Cmd.v (Cmd.info "infer" ~doc)
    Term.(ret (const run_infer $ example_t $ csv_t $ seed_t))

(* {1 simulate command} *)

let run_simulate metrics kind alg seed arrivals bmax load rwcs replicates jobs
    =
  set_jobs jobs;
  Fun.protect ~finally:(fun () -> finish_metrics metrics) @@ fun () ->
  let pool =
    match kind with
    | `Bing -> Pool.bing_like ~seed ()
    | `Hpcloud -> Pool.hpcloud_like ~seed ()
    | `Syn -> Pool.synthetic ~seed ()
  in
  let pool = Pool.scale_to_bmax pool ~bmax in
  let make : Cm_sim.Driver.maker =
    match alg with
    | `Cm -> fun t -> Cm_sim.Driver.cm t
    | `Cm_opp ->
        fun t ->
          Cm_sim.Driver.cm
            ~policy:
              { Cm_placement.Cm.default_policy with opportunistic_ha = true }
            t
    | `Ovoc -> Cm_sim.Driver.oktopus
  in
  let ha = if rwcs > 0. then Some { Types.rwcs; laa_level = 0 } else None in
  let cfg =
    {
      Cm_sim.Runner.default_config with
      seed;
      n_arrivals = arrivals;
      load;
      ha;
    }
  in
  let report sched_name (r : Cm_sim.Runner.result) =
    Printf.printf
      "%s on %s pool: %d arrivals at %.0f%% load (Bmax %.0f)\n\
      \  accepted %d, rejected %d (%d slots / %d bandwidth)\n\
      \  rejected %.1f%% of VMs, %.1f%% of bandwidth\n\
      \  mean slot utilization %.1f%%\n\
      \  mean server-level WCS of deployed components: %.0f%%\n"
      sched_name pool.pool_name cfg.n_arrivals (100. *. load) bmax r.accepted
      r.rejected r.rejected_no_slots r.rejected_no_bw
      (Cm_sim.Runner.vm_rejection_rate r)
      (Cm_sim.Runner.bw_rejection_rate r)
      (100. *. r.mean_utilization)
      (Cm_sim.Runner.mean_wcs r)
  in
  if replicates <= 1 then begin
    let tree = Tree.create_default () in
    let sched = make tree in
    report sched.sched_name (Cm_sim.Runner.run sched tree pool cfg)
  end
  else begin
    (* Independent replications (arrival stream reseeded, pool fixed),
       sharded over the domain pool. *)
    let seeds = List.init replicates (fun i -> seed + i) in
    let results =
      Cm_sim.Runner.run_replications make Tree.default_spec pool cfg ~seeds
    in
    let sched_name = (make (Tree.create_default ())).sched_name in
    List.iter2
      (fun seed r ->
        Printf.printf "[replicate seed %d]\n" seed;
        report sched_name r)
      seeds results;
    let rates =
      Array.of_list (List.map Cm_sim.Runner.bw_rejection_rate results)
    in
    Printf.printf
      "rejected bandwidth over %d replicates: %.1f%% +- %.1f%%\n" replicates
      (Cm_util.Stats.mean rates)
      (Cm_util.Stats.stddev rates)
  end

let simulate_cmd =
  let alg_t =
    let doc = "Placement algorithm: cm, cm+opp or ovoc." in
    let algs = [ ("cm", `Cm); ("cm+opp", `Cm_opp); ("ovoc", `Ovoc) ] in
    Arg.(value & opt (enum algs) `Cm & info [ "alg" ] ~docv:"ALG" ~doc)
  in
  let replicates_t =
    let doc =
      "Run this many independent replications (seeds SEED, SEED+1, ...) \
       sharded across worker domains, and report the mean and standard \
       deviation of the rejected-bandwidth rate."
    in
    Arg.(value & opt int 1 & info [ "replicates" ] ~docv:"N" ~doc)
  in
  let doc =
    "Run a Poisson arrival/departure simulation on the default datacenter \
     and report rejection and survivability statistics."
  in
  Cmd.v (Cmd.info "simulate" ~doc)
    Term.(
      const run_simulate $ obs_t $ pool_kind_t $ alg_t $ seed_t $ arrivals_t
      $ bmax_t $ load_t $ rwcs_t $ replicates_t $ jobs_t)

(* {1 scale command} *)

let run_scale tag sizes =
  if List.exists (fun n -> n < 1) sizes then
    `Error (true, "--sizes: every size must be >= 1")
  else begin
      let tree = Tree.create_default () in
      let sched = Cm_placement.Cm.create tree in
      (match Cm_placement.Cm.place sched (Types.request tag) with
      | Error reason ->
          Printf.printf "initial placement rejected: %s\n"
            (Types.reject_to_string reason)
      | Ok p ->
          let placement = ref p in
          Printf.printf "deployed %s with %d VMs; scaling tier 0:\n"
            (Tag.name tag)
            (Types.vm_count p.locations);
          List.iter
            (fun new_size ->
              match
                Cm_placement.Cm.resize sched !placement ~comp:0 ~new_size
              with
              | Ok p2 ->
                  placement := p2;
                  Printf.printf
                    "  tier 0 -> %3d VMs: tenant now %3d VMs on %d servers\n"
                    new_size
                    (Types.vm_count p2.locations)
                    (Array.to_list p2.locations
                    |> List.concat_map (List.map fst)
                    |> List.sort_uniq compare |> List.length)
              | Error reason ->
                  Printf.printf "  tier 0 -> %3d VMs: rejected (%s)\n" new_size
                    (Types.reject_to_string reason))
            sizes;
          Cm_placement.Cm.release sched !placement);
      `Ok ()
  end

let scale_cmd =
  let sizes_t =
    let doc = "Comma-separated target sizes for the first tier." in
    Arg.(
      value
      & opt (list int) [ 16; 64; 8 ]
      & info [ "sizes" ] ~docv:"N,N,..." ~doc)
  in
  let doc =
    "Deploy a tenant and auto-scale its first tier through a sequence of \
     sizes, in place."
  in
  Cmd.v (Cmd.info "scale" ~doc)
    Term.(ret (const run_scale $ example_t $ sizes_t))

(* {1 failures command} *)

let run_failures tag rwcs laa =
  let tree = Tree.create_default () in
  let top = Tree.n_levels tree - 1 in
  if laa < 0 || laa > top then
    `Error (true, Printf.sprintf "--level: must be in 0..%d" top)
  else begin
      let sched = Cm_placement.Cm.create tree in
      let ha =
        if rwcs > 0. then Some { Types.rwcs; laa_level = laa } else None
      in
      (match Cm_placement.Cm.place sched (Types.request ?ha tag) with
      | Error reason ->
          Printf.printf "placement rejected: %s\n"
            (Types.reject_to_string reason)
      | Ok p ->
          let r =
            Cm_sim.Failure.exhaustive tree
              [ (tag, p.locations) ]
              ~laa_level:laa
          in
          let o = List.hd r.outcomes in
          Printf.printf
            "injected all %d level-%d fault domains into %s:\n" r.domains_failed
            laa (Tag.name tag);
          Array.iteri
            (fun c predicted ->
              Printf.printf
                "  %-10s predicted WCS %3.0f%%  measured worst %3.0f%%  mean \
                 %5.1f%%\n"
                (Tag.component_name tag c)
                (100. *. predicted)
                (100. *. o.worst_survival.(c))
                (100. *. o.mean_survival.(c)))
            o.predicted_wcs);
      `Ok ()
  end

let failures_cmd =
  let laa_t =
    let doc =
      "Fault-domain level: 0 = server, 1 = rack, up to 3 = the whole \
       default datacenter."
    in
    Arg.(value & opt int 0 & info [ "level" ] ~docv:"LEVEL" ~doc)
  in
  let doc =
    "Deploy a tenant, then inject every single-domain failure and compare \
     measured survival against the predicted WCS."
  in
  Cmd.v (Cmd.info "failures" ~doc)
    Term.(ret (const run_failures $ example_t $ rwcs_t $ laa_t))

(* {1 main} *)

let default_cmd = Term.(ret (const (`Help (`Pager, None))))

let () =
  (* CLOUDMIRROR_LOG=debug|info enables placement logging on stderr
     (the --log-level option is the first-class spelling). *)
  (match Sys.getenv_opt "CLOUDMIRROR_LOG" with
  | Some level ->
      Cm_obs.Log.set_level
        (match Cm_obs.Log.level_of_string level with
        | Ok l -> l
        | Error _ -> Some Cm_obs.Log.Info)
  | None -> ());
  let info =
    Cmd.info "cloudmirror" ~version:"1.0.0"
      ~doc:
        "Application-driven bandwidth guarantees in datacenters (SIGCOMM \
         2014) - TAG models, CloudMirror placement, and experiment \
         reproduction"
  in
  exit
    (Cmd.eval
       (Cmd.group ~default:default_cmd info
          [
            experiment_cmd;
            pool_cmd;
            place_cmd;
            infer_cmd;
            simulate_cmd;
            scale_cmd;
            failures_cmd;
          ]))
