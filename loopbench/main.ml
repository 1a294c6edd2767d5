(* Command line of the closed-loop benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
              [--trace-out FILE]

   Prints every metric by name with its unit and sample count, then, as
   the last line, one JSON object {correct, attempted, failed, metrics}:
   the end-to-end metrics of an untraced run (--trace 0) or the
   per-layer metrics of a traced one (--trace 1).  Exits 1 when a
   correctness check fails, 2 on a usage error. *)

module Json = Cm_obs.Json
module Loop = Loopbench.Loop

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1 \
     [--trace-out FILE]";
  prerr_endline
    ("workloads: "
    ^ String.concat ", " (List.map (fun w -> w.Loop.name) Loop.workloads));
  exit 2

let () =
  let workload = ref None and seed = ref None and seconds = ref None in
  let trace = ref None and trace_out = ref None in
  let int_arg s = match int_of_string_opt s with Some n -> n | None -> usage () in
  let rec parse = function
    | "--workload" :: v :: rest ->
        (match Loop.find_workload v with
        | Some w -> workload := Some w
        | None -> usage ());
        parse rest
    | "--seed" :: v :: rest ->
        seed := Some (int_arg v);
        parse rest
    | "--seconds" :: v :: rest ->
        let n = int_arg v in
        if n < 1 then usage ();
        seconds := Some (float_of_int n);
        parse rest
    | "--trace" :: ("0" | "1" as v) :: rest ->
        trace := Some (v = "1");
        parse rest
    | "--trace-out" :: v :: rest ->
        trace_out := Some v;
        parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let w, seed, seconds, trace =
    match (!workload, !seed, !seconds, !trace) with
    | Some w, Some s, Some t, Some tr -> (w, s, t, tr)
    | _ -> usage ()
  in
  (* The traced run reports no setup_s, so it sets up once. *)
  let setups = if trace then 1 else 3 in
  let r = Loop.run ~setups ~trace w ~seed ~seconds in
  let metrics = if trace then Loop.per_layer r else Loop.end_to_end r in
  let c = r.Loop.counts in
  Printf.printf "workload %s  seed %d  domains %d  replicas %d  %s run\n"
    w.Loop.name seed w.Loop.domains w.Loop.replicas
    (if trace then "traced" else "untraced");
  Printf.printf "  %d epochs, %d placement requests; the last replica ends with \
                 %d live tenants and %d enforced flows\n"
    c.Loop.epochs c.Loop.requests r.Loop.live_tenants r.Loop.flows;
  List.iter
    (fun (m : Loop.metric) ->
      Printf.printf "  %-28s %16.6f %-6s%s\n" m.m_name m.m_value m.m_unit
        (if m.m_samples > 0 then Printf.sprintf "  n=%d" m.m_samples else ""))
    (metrics @ if trace then [] else Loop.ungated r);
  if trace then begin
    Printf.printf "  self time and minor words per traced epoch, by layer:\n";
    let epochs =
      float_of_int (Loop.Samples.count (Option.get r.Loop.traced).Loop.epoch_ms)
    in
    List.iter
      (fun (layer, ms, words) ->
        Printf.printf "    %-10s %12.4f ms %14.0f words\n" layer (ms /. epochs)
          (words /. epochs))
      (Loop.self_costs r.Loop.trace_events);
    Option.iter
      (fun path ->
        Cm_obs.Trace.write_file path;
        Printf.printf "  Chrome trace: %s (%d events, %d dropped)\n" path
          (Cm_obs.Trace.recorded ()) (Cm_obs.Trace.dropped ()))
      !trace_out
  end;
  List.iter (Printf.printf "  CHECK FAILED: %s\n") r.Loop.failures;
  let correct = r.Loop.failures = [] in
  let doc =
    Json.Object
      [
        ("correct", Json.Bool correct);
        ("attempted", Json.Number (float_of_int c.Loop.requests));
        ("failed", Json.Number 0.);
        ( "metrics",
          Json.Object
            (List.map
               (fun (m : Loop.metric) ->
                 ( m.m_name,
                   Json.Object
                     [
                       ("value", Json.Number m.m_value);
                       ("unit", Json.String m.m_unit);
                     ] ))
               metrics) );
      ]
  in
  print_endline (Json.to_string doc);
  if not correct then exit 1
