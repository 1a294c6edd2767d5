module Tag = Cm_tag.Tag
module Examples = Cm_tag.Examples

type fig13_point = { n_senders : int; x_to_z : float; c2_to_z : float }

let bottleneck_link = 0

(* Build flows into VM Z over the single bottleneck link, with pair
   guarantees from the requested enforcement mode. *)
let fig13_point enforcement ~n_senders =
  let tag = Examples.fig13 () in
  (* C2 VM 0 is Z; VMs 1..n are senders. *)
  let x = { Elastic.comp = 0; vm = 0 } in
  let z = { Elastic.comp = 1; vm = 0 } in
  let pairs =
    { Elastic.src = x; dst = z }
    :: List.init n_senders (fun i ->
           { Elastic.src = { Elastic.comp = 1; vm = i + 1 }; dst = z })
  in
  let guarantees = Elastic.pair_guarantees tag enforcement ~pairs in
  let flows =
    List.mapi
      (fun i ((_ : Elastic.active_pair), g) ->
        {
          Maxmin.flow_id = i;
          path = [ bottleneck_link ];
          demand = infinity;
          guarantee = g;
        })
      guarantees
  in
  let links = [ { Maxmin.link_id = bottleneck_link; capacity = 1000. } ] in
  let rates = Maxmin.with_guarantees ~links ~flows in
  let rate_of i = snd rates.(i) in
  {
    n_senders;
    x_to_z = rate_of 0;
    c2_to_z =
      List.fold_left ( +. ) 0. (List.init n_senders (fun i -> rate_of (i + 1)));
  }

let fig13 enforcement ~max_senders =
  List.init (max_senders + 1) (fun n -> fig13_point enforcement ~n_senders:n)

(* {1 Enforcement under churn} *)

type churn_point = {
  epoch : int;
  active_senders : int;
  steady_x : float;
  periods : int;
  converged : bool;
}

type churn_result = {
  enforcement : Elastic.enforcement;
  points : churn_point list;
  x_mean : float;
  x_min : float;
  guarantee_met : float;
  converged_fraction : float;
  mean_periods : float;
}

let x_guarantee = 450.

let churn ?eps ?max_periods ?(n_senders = 5) ?(p_active = 0.5) ~seed
    ~epochs enforcement =
  if epochs <= 0 then invalid_arg "Scenario.churn: epochs must be positive";
  let tag = Examples.fig13 () in
  let rng = Cm_util.Rng.create seed in
  let x = { Elastic.comp = 0; vm = 0 } in
  let z = { Elastic.comp = 1; vm = 0 } in
  let x_pair = { Elastic.src = x; dst = z } in
  let flow pair = { Runtime.pair; path = [ bottleneck_link ]; demand = infinity } in
  (* The arrival/departure schedule: X -> Z is always on; each C2 sender
     flaps independently per epoch (drawn in a fixed epoch-major order so
     the trace is a pure function of [seed]). *)
  let schedule =
    List.init epochs (fun _ ->
        flow x_pair
        :: List.concat
             (List.init n_senders (fun i ->
                  if Cm_util.Rng.uniform rng < p_active then
                    [ flow { Elastic.src = { Elastic.comp = 1; vm = i + 1 }; dst = z } ]
                  else [])))
  in
  let rt =
    Runtime.create ~tag ~enforcement
      ~links:[ { Maxmin.link_id = bottleneck_link; capacity = 1000. } ]
      ()
  in
  let r = Runtime.run_dynamic ?eps ?max_periods rt ~epochs:schedule in
  (* Per-epoch series, one family per enforcement mode so the Tag/Hose
     rows running in parallel under Par never share a ring. *)
  let sp = "enforce.churn." ^ Elastic.enforcement_to_string enforcement in
  let points =
    List.map
      (fun (e : Runtime.epoch_report) ->
        let p =
          {
            epoch = e.epoch;
            active_senders = e.n_flows - 1;
            steady_x = Runtime.throughput_of e.steady x_pair;
            periods = e.periods;
            converged = e.converged;
          }
        in
        let x = float_of_int p.epoch in
        Cm_obs.Series.sample_named (sp ^ ".steady_x") ~x p.steady_x;
        Cm_obs.Series.sample_named (sp ^ ".active_senders") ~x
          (float_of_int p.active_senders);
        Cm_obs.Series.sample_named (sp ^ ".periods") ~x
          (float_of_int p.periods);
        p)
      r.epochs
  in
  let k = float_of_int (List.length points) in
  let sum f = List.fold_left (fun acc p -> acc +. f p) 0. points in
  {
    enforcement;
    points;
    x_mean = sum (fun p -> p.steady_x) /. k;
    x_min = List.fold_left (fun acc p -> Float.min acc p.steady_x) infinity points;
    guarantee_met =
      sum (fun p -> if p.steady_x >= x_guarantee -. 1e-6 then 1. else 0.) /. k;
    converged_fraction = sum (fun p -> if p.converged then 1. else 0.) /. k;
    mean_periods = sum (fun p -> float_of_int p.periods) /. k;
  }

(* {1 Enforcement under rack failures} *)

type failure_epoch = {
  f_epoch : int;
  live_vms : int;
  down_vms : int;
  violated_vms : int;
  f_periods : int;
  f_converged : bool;
}

type failures_result = {
  f_enforcement : Elastic.enforcement;
  f_recovery : [ `None | `Lag of int ];
  f_events : int;
  f_points : failure_epoch list;
  vm_epochs_down : int;
  downtime_fraction : float;
  restores : int;
  mean_restore_epochs : float;
  guarantee_violations : int;
  reconverge_periods_mean : float;
}

let failures ?eps ?max_periods ?(n_racks = 4) ?(vms_per_rack = 4)
    ?(recovery = `Lag 1) ?(rate = 0.15) ?mean_repair ~seed ~epochs enforcement =
  if epochs <= 0 then invalid_arg "Scenario.failures: epochs must be positive";
  if n_racks <= 1 then invalid_arg "Scenario.failures: need at least 2 racks";
  if vms_per_rack <= 0 then
    invalid_arg "Scenario.failures: vms_per_rack must be positive";
  let module Failure = Cm_sim.Failure in
  let n = n_racks * vms_per_rack in
  let g = 100. in
  let tag =
    Tag.create ~name:"workers-sink"
      ~components:[ ("workers", n); ("sink", 1) ]
      ~edges:[ (0, 1, g, float_of_int n *. g) ]
      ()
  in
  let bottleneck = n_racks in
  let links =
    List.init n_racks (fun i ->
        { Maxmin.link_id = i; capacity = float_of_int n *. g })
    @ [ { Maxmin.link_id = bottleneck; capacity = 1.1 *. float_of_int n *. g } ]
  in
  (* The same seeded schedule type the placement campaign replays: fault
     domains are the rack links, the clock is the epoch index. *)
  let sched =
    Failure.schedule (Cm_util.Rng.create seed) ~n_domains:n_racks ~level:1
      ~horizon:(float_of_int epochs) ~rate ?mean_repair ()
  in
  let down = Array.make_matrix epochs n_racks false in
  List.iter
    (fun (ev : Failure.event) ->
      let start = int_of_float ev.Failure.at in
      if start < epochs then begin
        let stop =
          match ev.Failure.repair_after with
          | None -> epochs - 1
          | Some d -> min (epochs - 1) (start + max 0 (int_of_float (ceil d)) - 1)
        in
        for e = start to max start stop do
          if e < epochs then down.(e).(ev.Failure.domain_index) <- true
        done
      end)
    sched.Failure.events;
  let z = { Elastic.comp = 1; vm = 0 } in
  let home = Array.init n (fun v -> v mod n_racks) in
  let down_since = Array.make n (-1) in
  let restores = ref 0 and restore_epochs = ref 0 in
  let vm_live = Array.make n true in
  let epoch_flows = Array.make epochs [] in
  let epoch_pairs = Array.make epochs [] in
  for e = 0 to epochs - 1 do
    let flows = ref [] and pairs = ref [] in
    for v = n - 1 downto 0 do
      let rack_down = down.(e).(home.(v)) in
      let live =
        if not rack_down then begin
          if not vm_live.(v) then begin
            (* The VM's rack repaired: it comes straight back. *)
            incr restores;
            restore_epochs := !restore_epochs + (e - down_since.(v));
            vm_live.(v) <- true
          end;
          true
        end
        else begin
          if vm_live.(v) then begin
            down_since.(v) <- e;
            vm_live.(v) <- false
          end;
          (* Recovery: after [lag] whole epochs down, re-home the VM on
             the next alive rack (round-robin from its old home). *)
          match recovery with
          | `None -> false
          | `Lag lag when e - down_since.(v) >= lag -> (
              let rec find j =
                if j >= n_racks then None
                else
                  let r = (home.(v) + 1 + j) mod n_racks in
                  if down.(e).(r) then find (j + 1) else Some r
              in
              match find 0 with
              | Some r ->
                  home.(v) <- r;
                  incr restores;
                  restore_epochs := !restore_epochs + (e - down_since.(v));
                  vm_live.(v) <- true;
                  true
              | None -> false)
          | `Lag _ -> false
        end
      in
      if live then begin
        let pair = { Elastic.src = { Elastic.comp = 0; vm = v }; dst = z } in
        flows :=
          { Runtime.pair; path = [ home.(v); bottleneck ]; demand = infinity }
          :: !flows;
        pairs := pair :: !pairs
      end
    done;
    epoch_flows.(e) <- !flows;
    epoch_pairs.(e) <- !pairs
  done;
  let rt = Runtime.create ~tag ~enforcement ~links () in
  let r = Runtime.run_dynamic ?eps ?max_periods rt ~epochs:(Array.to_list epoch_flows) in
  let violations = ref 0 in
  (* Series family: one per (enforcement, recovery) row, matching how
     the experiment section fans rows out over Par. *)
  let sp =
    Printf.sprintf "enforce.failures.%s.%s"
      (Elastic.enforcement_to_string enforcement)
      (match recovery with `None -> "none" | `Lag k -> Printf.sprintf "lag%d" k)
  in
  let capacities = Array.make (n_racks + 1) 0. in
  List.iter
    (fun (l : Maxmin.link) -> capacities.(l.Maxmin.link_id) <- l.Maxmin.capacity)
    links;
  (* Violation attribution (ISSUE 7): when an epoch violates guarantees,
     name the bottleneck — the link with the highest utilization under
     the steady rates — and the set of flows it limits.  Computed only
     when telemetry wants it; results never feed back. *)
  let attribute (er : Runtime.epoch_report) violated =
    if
      violated > 0
      && (Cm_obs.Trace.enabled () || Cm_obs.Series.enabled ())
    then begin
      let loads = Array.make (n_racks + 1) 0. in
      List.iter
        (fun (f : Runtime.flow_spec) ->
          let rate = Runtime.throughput_of er.steady f.Runtime.pair in
          List.iter
            (fun l -> loads.(l) <- loads.(l) +. rate)
            f.Runtime.path)
        epoch_flows.(er.epoch);
      let bott = ref 0 and bott_util = ref neg_infinity in
      Array.iteri
        (fun l cap ->
          if cap > 0. then begin
            let u = loads.(l) /. cap in
            if u > !bott_util then begin
              bott_util := u;
              bott := l
            end
          end)
        capacities;
      let limited =
        List.filter
          (fun (f : Runtime.flow_spec) -> List.mem !bott f.Runtime.path)
          epoch_flows.(er.epoch)
      in
      Cm_obs.Series.sample_named (sp ^ ".bottleneck_util")
        ~x:(float_of_int er.epoch) !bott_util;
      if Cm_obs.Trace.enabled () then
        Cm_obs.Trace.instant "enforce.violation"
          ~args:
            [
              ("epoch", Cm_obs.Json.Number (float_of_int er.epoch));
              ( "enforcement",
                Cm_obs.Json.String (Elastic.enforcement_to_string enforcement)
              );
              ("violated_vms", Cm_obs.Json.Number (float_of_int violated));
              ("bottleneck_link", Cm_obs.Json.Number (float_of_int !bott));
              ("utilization", Cm_obs.Json.Number !bott_util);
              ( "capacity",
                Cm_obs.Json.Number capacities.(!bott) );
              ("load", Cm_obs.Json.Number loads.(!bott));
              ( "limiting_flows",
                Cm_obs.Json.Number (float_of_int (List.length limited)) );
            ]
    end
  in
  let points =
    List.map
      (fun (er : Runtime.epoch_report) ->
        let pairs = epoch_pairs.(er.epoch) in
        let violated =
          if pairs = [] then 0
          else
            Elastic.pair_guarantees tag enforcement ~pairs
            |> List.fold_left
                 (fun acc (pair, guarantee) ->
                   if Runtime.throughput_of er.steady pair < guarantee -. 1e-6
                   then acc + 1
                   else acc)
                 0
        in
        violations := !violations + violated;
        attribute er violated;
        let p =
          {
            f_epoch = er.epoch;
            live_vms = er.n_flows;
            down_vms = n - er.n_flows;
            violated_vms = violated;
            f_periods = er.periods;
            f_converged = er.converged;
          }
        in
        let x = float_of_int p.f_epoch in
        Cm_obs.Series.sample_named (sp ^ ".live_vms")
          ~x (float_of_int p.live_vms);
        Cm_obs.Series.sample_named (sp ^ ".violated_vms")
          ~x (float_of_int p.violated_vms);
        Cm_obs.Series.sample_named (sp ^ ".periods")
          ~x (float_of_int p.f_periods);
        p)
      r.epochs
  in
  let vm_epochs_down =
    List.fold_left (fun acc p -> acc + p.down_vms) 0 points
  in
  (* Re-convergence cost: mean control periods over epochs whose flow
     set differs from the previous epoch's (epoch 0 counts — it is the
     initial transient). *)
  let changed_periods =
    List.fold_left
      (fun (acc, count) (p : failure_epoch) ->
        let e = p.f_epoch in
        if e = 0 || epoch_pairs.(e) <> epoch_pairs.(e - 1) then
          (acc + p.f_periods, count + 1)
        else (acc, count))
      (0, 0) points
  in
  {
    f_enforcement = enforcement;
    f_recovery = recovery;
    f_events = Failure.n_events sched;
    f_points = points;
    vm_epochs_down;
    downtime_fraction =
      float_of_int (vm_epochs_down + !violations)
      /. float_of_int (n * epochs);
    restores = !restores;
    mean_restore_epochs =
      (if !restores = 0 then 0.
       else float_of_int !restore_epochs /. float_of_int !restores);
    guarantee_violations = !violations;
    reconverge_periods_mean =
      (match changed_periods with
      | _, 0 -> 0.
      | acc, count -> float_of_int acc /. float_of_int count);
  }

type fig4_result = { web_to_logic : float; db_to_logic : float }

let fig4 enforcement =
  let tag = Examples.fig4 () in
  let logic = { Elastic.comp = 1; vm = 0 } in
  let pairs =
    List.init 2 (fun i ->
        { Elastic.src = { Elastic.comp = 0; vm = i }; dst = logic })
    @ List.init 2 (fun i ->
          { Elastic.src = { Elastic.comp = 2; vm = i }; dst = logic })
  in
  let guarantees = Elastic.pair_guarantees tag enforcement ~pairs in
  (* Each sender momentarily offers 250 Mbps (500 per tier). *)
  let flows =
    List.mapi
      (fun i ((_ : Elastic.active_pair), g) ->
        {
          Maxmin.flow_id = i;
          path = [ bottleneck_link ];
          demand = 250.;
          guarantee = g;
        })
      guarantees
  in
  let links = [ { Maxmin.link_id = bottleneck_link; capacity = 600. } ] in
  let rates = Maxmin.with_guarantees ~links ~flows in
  let rate_of i = snd rates.(i) in
  {
    web_to_logic = rate_of 0 +. rate_of 1;
    db_to_logic = rate_of 2 +. rate_of 3;
  }
