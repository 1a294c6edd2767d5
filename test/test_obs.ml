(* Tests for Cm_obs: JSON emit/parse, leveled structured logging,
   the domain-sharded metrics registry, timed spans, the determinism
   contract (telemetry observes, never perturbs), and the metrics
   document written by `cloudmirror experiment` (generated by a dune
   rule into bench_metrics.json). *)

module Json = Cm_obs.Json
module Log = Cm_obs.Log
module Metrics = Cm_obs.Metrics
module Span = Cm_obs.Span
module Trace = Cm_obs.Trace
module Series = Cm_obs.Series
module Par = Cm_util.Par
module Table = Cm_util.Table
module E = Cm_experiments.Experiments

let json =
  Alcotest.testable
    (fun ppf j -> Format.pp_print_string ppf (Json.to_string j))
    ( = )

(* {1 Json} *)

let test_json_roundtrip () =
  let doc =
    Json.Object
      [
        ("null", Json.Null);
        ("true", Json.Bool true);
        ("false", Json.Bool false);
        ("int", Json.Number 42.);
        ("neg", Json.Number (-7.));
        ("frac", Json.Number 0.125);
        ("big", Json.Number 1.7e300);
        ("str", Json.String "hello");
        ("arr", Json.Array [ Json.Number 1.; Json.String "two"; Json.Null ]);
        ("nested", Json.Object [ ("k", Json.Array [ Json.Object [] ]) ]);
      ]
  in
  match Json.of_string (Json.to_string doc) with
  | Ok parsed -> Alcotest.check json "round trip" doc parsed
  | Error msg -> Alcotest.failf "parse failed: %s" msg

let test_json_escaping () =
  let s = "quote\" backslash\\ newline\n tab\t ctrl\001 done" in
  let rendered = Json.to_string (Json.String s) in
  Alcotest.(check bool) "escaped quote" true
    (String.length rendered > 0 && not (String.contains (String.sub rendered 1 (String.length rendered - 2)) '\n'));
  match Json.of_string rendered with
  | Ok (Json.String s') -> Alcotest.(check string) "round trip" s s'
  | Ok _ -> Alcotest.fail "not a string"
  | Error msg -> Alcotest.failf "parse failed: %s" msg

let test_json_numbers () =
  Alcotest.(check string) "integral" "3" (Json.to_string (Json.Number 3.));
  Alcotest.(check string) "fraction" "0.5" (Json.to_string (Json.Number 0.5));
  Alcotest.(check string) "nan is null" "null"
    (Json.to_string (Json.Number Float.nan));
  Alcotest.(check string) "inf is null" "null"
    (Json.to_string (Json.Number Float.infinity));
  match Json.of_string "-1.25e2" with
  | Ok (Json.Number x) -> Alcotest.(check (float 1e-9)) "exp parse" (-125.) x
  | _ -> Alcotest.fail "number parse"

let test_json_parse_errors () =
  let bad = [ "{"; "[1,]"; "{\"a\":}"; "tru"; "\"unterminated"; "1 2"; "" ] in
  List.iter
    (fun s ->
      match Json.of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "expected %S to fail" s)
    bad

let test_json_member () =
  let doc = Json.Object [ ("a", Json.Number 1.); ("b", Json.Null) ] in
  Alcotest.check json "found" (Json.Number 1.)
    (Option.get (Json.member "a" doc));
  Alcotest.(check bool) "missing" true (Json.member "zz" doc = None);
  Alcotest.(check (option int)) "to_int" (Some 1)
    (Option.bind (Json.member "a" doc) Json.to_int)

(* {1 Log} *)

let with_captured_records f =
  let records = ref [] in
  let saved_level = Log.level () in
  Log.set_sink (Log.Custom (fun r -> records := r :: !records));
  Fun.protect
    ~finally:(fun () ->
      Log.set_sink Log.Stderr;
      Log.set_level saved_level)
    (fun () ->
      f ();
      List.rev !records)

module Tlog = Log.Make (struct
  let name = "test-src"
end)

let test_log_levels_filter () =
  let records =
    with_captured_records (fun () ->
        Log.set_level (Some Log.Warn);
        Tlog.debug (fun m -> m "d %d" 1);
        Tlog.info (fun m -> m "i");
        Tlog.warn (fun m -> m "w %s" "x");
        Tlog.err (fun m -> m "e"))
  in
  Alcotest.(check int) "only warn+error pass" 2 (List.length records);
  Alcotest.(check string) "formatted" "w x" (List.hd records).Log.message;
  Alcotest.(check string) "src" "test-src" (List.hd records).Log.src

let test_log_off_builds_no_message () =
  let built = ref false in
  let records =
    with_captured_records (fun () ->
        Log.set_level None;
        Tlog.err (fun m ->
            built := true;
            m "never"))
  in
  Alcotest.(check int) "nothing emitted" 0 (List.length records);
  Alcotest.(check bool) "message closure never ran" false !built

let test_log_level_of_string () =
  Alcotest.(check bool) "debug" true
    (Log.level_of_string "DEBUG" = Ok (Some Log.Debug));
  Alcotest.(check bool) "warning alias" true
    (Log.level_of_string "warning" = Ok (Some Log.Warn));
  Alcotest.(check bool) "off" true (Log.level_of_string "off" = Ok None);
  Alcotest.(check bool) "unknown" true
    (match Log.level_of_string "loud" with Error _ -> true | Ok _ -> false)

let test_log_render_json_parses () =
  let r =
    { Log.ts = 1234.5; level = Log.Info; src = "s"; message = "m \"q\"" }
  in
  match Json.of_string (Log.render_json r) with
  | Ok doc ->
      Alcotest.(check (option string)) "msg field" (Some "m \"q\"")
        (match Json.member "msg" doc with
        | Some (Json.String s) -> Some s
        | _ -> None);
      Alcotest.(check (option string)) "level field" (Some "info")
        (match Json.member "level" doc with
        | Some (Json.String s) -> Some s
        | _ -> None)
  | Error msg -> Alcotest.failf "render_json unparsable: %s" msg

(* {1 Metrics} *)

let test_metrics_counter () =
  let c = Metrics.counter "test.counter.basic" in
  Alcotest.(check int) "starts at 0" 0 (Metrics.counter_value c);
  Metrics.incr c;
  Metrics.incr ~by:41 c;
  Alcotest.(check int) "42" 42 (Metrics.counter_value c);
  (* Re-registration returns the same underlying cells. *)
  let c' = Metrics.counter "test.counter.basic" in
  Metrics.incr c';
  Alcotest.(check int) "shared" 43 (Metrics.counter_value c)

let test_metrics_kind_clash () =
  ignore (Metrics.counter "test.clash");
  Alcotest.(check bool) "gauge over counter raises" true
    (match Metrics.gauge "test.clash" with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_metrics_gauge () =
  let g = Metrics.gauge "test.gauge" in
  Metrics.set g 2.5;
  Alcotest.(check (float 1e-9)) "set" 2.5 (Metrics.gauge_value g);
  Metrics.set g (-1.) ;
  Alcotest.(check (float 1e-9)) "overwrite" (-1.) (Metrics.gauge_value g)

let test_metrics_histogram () =
  let h = Metrics.histogram ~buckets:[| 1.; 10.; 100. |] "test.hist" in
  List.iter (Metrics.observe h) [ 0.5; 1.; 5.; 50.; 1000. ];
  let s = Metrics.snapshot h in
  (* Bounds are inclusive upper bounds; 1.0 lands in the first bucket,
     1000 overflows. *)
  Alcotest.(check (array int)) "bucket counts" [| 2; 1; 1; 1 |] s.Metrics.counts;
  Alcotest.(check int) "count" 5 s.Metrics.count;
  Alcotest.(check (float 1e-9)) "sum" 1056.5 s.Metrics.sum;
  Alcotest.(check (float 1e-9)) "min" 0.5 s.Metrics.min_v;
  Alcotest.(check (float 1e-9)) "max" 1000. s.Metrics.max_v

let test_metrics_histogram_empty () =
  let h = Metrics.histogram ~buckets:[| 1. |] "test.hist.empty" in
  let s = Metrics.snapshot h in
  Alcotest.(check int) "count" 0 s.Metrics.count;
  Alcotest.(check bool) "min is nan" true (Float.is_nan s.Metrics.min_v);
  Alcotest.(check bool) "max is nan" true (Float.is_nan s.Metrics.max_v)

(* The min/max merge semantics: nan observations never move the
   extrema; an all-nan histogram reports nan extrema exactly like an
   empty one; one-sided infinities stay exact. *)
let test_metrics_histogram_extrema_nan () =
  let h = Metrics.histogram ~buckets:[| 1. |] "test.hist.nan" in
  Metrics.observe h Float.nan;
  Metrics.observe h Float.nan;
  let s = Metrics.snapshot h in
  Alcotest.(check int) "nan observations are counted" 2 s.Metrics.count;
  Alcotest.(check bool) "all-nan min is nan" true (Float.is_nan s.Metrics.min_v);
  Alcotest.(check bool) "all-nan max is nan" true (Float.is_nan s.Metrics.max_v);
  Metrics.observe h 5.;
  let s = Metrics.snapshot h in
  Alcotest.(check (float 0.)) "min skips nan" 5. s.Metrics.min_v;
  Alcotest.(check (float 0.)) "max skips nan" 5. s.Metrics.max_v

let test_metrics_histogram_extrema_infinities () =
  let pos = Metrics.histogram ~buckets:[| 1. |] "test.hist.posinf" in
  Metrics.observe pos Float.infinity;
  let s = Metrics.snapshot pos in
  Alcotest.(check bool) "+inf-only min is +inf" true
    (s.Metrics.min_v = Float.infinity);
  Alcotest.(check bool) "+inf-only max is +inf" true
    (s.Metrics.max_v = Float.infinity);
  let neg = Metrics.histogram ~buckets:[| 1. |] "test.hist.neginf" in
  Metrics.observe neg Float.neg_infinity;
  let s = Metrics.snapshot neg in
  Alcotest.(check bool) "-inf-only min is -inf" true
    (s.Metrics.min_v = Float.neg_infinity);
  Alcotest.(check bool) "-inf-only max is -inf" true
    (s.Metrics.max_v = Float.neg_infinity)

let test_metrics_counter_across_domains () =
  let c = Metrics.counter "test.counter.domains" in
  List.iter
    (fun jobs ->
      Par.iter ~domains:jobs (fun _ -> Metrics.incr c) (List.init 500 Fun.id))
    [ 1; 4 ];
  Alcotest.(check int) "all increments survive the shards" 1000
    (Metrics.counter_value c)

let test_metrics_histogram_across_domains () =
  let h = Metrics.histogram ~buckets:[| 10.; 20. |] "test.hist.domains" in
  Par.iter ~domains:4
    (fun i -> Metrics.observe h (float_of_int (i mod 30)))
    (List.init 300 Fun.id);
  let s = Metrics.snapshot h in
  Alcotest.(check int) "count" 300 s.Metrics.count;
  (* 0..10 -> first bucket (11 values per 30), 11..20 -> second (10),
     21..29 -> overflow (9); 10 repetitions of each residue. *)
  Alcotest.(check (array int)) "merged counts" [| 110; 100; 90 |]
    s.Metrics.counts

let test_metrics_document_schema () =
  ignore (Metrics.counter "test.doc.counter");
  ignore (Metrics.histogram ~buckets:[| 1. |] "span.test.doc.span");
  let doc = Metrics.document ~extra:[ ("custom", Json.Bool true) ] () in
  match Json.of_string (Json.to_string doc) with
  | Error msg -> Alcotest.failf "document unparsable: %s" msg
  | Ok parsed ->
      Alcotest.(check (option string)) "schema" (Some "cloudmirror.metrics/2")
        (match Json.member "schema" parsed with
        | Some (Json.String s) -> Some s
        | _ -> None);
      Alcotest.(check bool) "extra field" true
        (Json.member "custom" parsed = Some (Json.Bool true));
      let counters = Option.get (Json.member "counters" parsed) in
      Alcotest.(check bool) "counter listed" true
        (Json.member "test.doc.counter" counters <> None);
      let spans = Option.get (Json.member "spans" parsed) in
      Alcotest.(check bool) "span.* reported under spans, prefix stripped"
        true
        (Json.member "test.doc.span" spans <> None);
      let hists = Option.get (Json.member "histograms" parsed) in
      Alcotest.(check bool) "span.* not duplicated under histograms" true
        (Json.member "span.test.doc.span" hists = None);
      Alcotest.(check bool) "series map present (metrics/2)" true
        (match Json.member "series" parsed with
        | Some (Json.Object _) -> true
        | _ -> false)

(* Span GC attribution: a span interned with Span.v owns spangc.*
   counters; the document folds them into the span's "gc" object and
   hides them from "counters". *)
let test_metrics_document_span_gc () =
  Span.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Span.set_enabled false)
    (fun () ->
      (* Small boxed allocations land on the minor heap, so the span's
         minor_words delta is reliably positive. *)
      ignore (Span.with_ "test.doc.gc" (fun () -> List.init 1000 float_of_int)));
  let doc = Metrics.document () in
  let span = Option.bind (Json.member "spans" doc) (Json.member "test.doc.gc") in
  let gc = Option.bind span (Json.member "gc") in
  (match gc with
  | Some (Json.Object fields) ->
      Alcotest.(check (list string)) "gc field order"
        [ "minor_words"; "promoted_words"; "major_collections" ]
        (List.map fst fields);
      (match List.assoc "minor_words" fields with
      | Json.Number n ->
          Alcotest.(check bool) "the array allocation shows up" true (n > 0.)
      | _ -> Alcotest.fail "minor_words not a number")
  | _ -> Alcotest.fail "span gc object missing");
  Alcotest.(check bool) "spangc.* counters hidden from counters" true
    (match Json.member "counters" doc with
    | Some (Json.Object cs) ->
        not
          (List.exists
             (fun (k, _) ->
               String.starts_with ~prefix:Metrics.gc_prefix k)
             cs)
    | _ -> false)

(* {1 Span} *)

let test_span_disabled_records_nothing () =
  Span.set_enabled false;
  let r = Span.with_ "test.span.disabled" (fun () -> 7) in
  Alcotest.(check int) "value returned" 7 r;
  let s = Metrics.snapshot (Metrics.histogram "span.test.span.disabled") in
  Alcotest.(check int) "no samples" 0 s.Metrics.count

let test_span_enabled_records () =
  Span.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Span.set_enabled false)
    (fun () ->
      let r = Span.with_ "test.span.enabled" (fun () -> 5) in
      Alcotest.(check int) "value returned" 5 r;
      ignore (Span.with_ "test.span.enabled" (fun () -> ()));
      let s = Metrics.snapshot (Metrics.histogram "span.test.span.enabled") in
      Alcotest.(check int) "two samples" 2 s.Metrics.count;
      Alcotest.(check bool) "durations non-negative" true
        (s.Metrics.sum >= 0.))

let test_span_exception_recorded () =
  Span.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Span.set_enabled false)
    (fun () ->
      (match Span.with_ "test.span.raise" (fun () -> failwith "boom") with
      | () -> Alcotest.fail "should have raised"
      | exception Failure msg -> Alcotest.(check string) "boom" "boom" msg);
      let s = Metrics.snapshot (Metrics.histogram "span.test.span.raise") in
      Alcotest.(check int) "recorded despite raise" 1 s.Metrics.count)

(* {1 Trace} *)

let with_tracing ?capacity f =
  Trace.set_enabled ?capacity true;
  Trace.clear ();
  Fun.protect
    ~finally:(fun () ->
      Trace.set_enabled ~capacity:Trace.default_capacity false;
      Trace.clear ())
    f

let test_trace_disabled_records_nothing () =
  Trace.set_enabled false;
  Trace.clear ();
  Trace.with_span "test.trace.off" (fun () -> Trace.instant "test.instant.off");
  Alcotest.(check int) "nothing recorded" 0 (Trace.recorded ());
  Alcotest.(check int) "nothing dropped" 0 (Trace.dropped ())

let test_trace_nesting () =
  with_tracing (fun () ->
      Trace.with_span "outer" (fun () ->
          Trace.with_span "inner" (fun () -> ());
          Trace.instant ~args:[ ("k", Json.String "v") ] "mark");
      match Trace.events () with
      | [ outer; inner; mark ] ->
          (* [events] sorts by (track, seq); seq is issued in open
             order, so [outer] sorts first even though [inner] hit the
             ring before it. *)
          Alcotest.(check string) "outer name" "outer" outer.Trace.ev_name;
          Alcotest.(check int) "outer is root" (-1) outer.Trace.ev_parent;
          Alcotest.(check int) "outer depth" 0 outer.Trace.ev_depth;
          Alcotest.(check string) "inner name" "inner" inner.Trace.ev_name;
          Alcotest.(check int) "inner's parent is outer" outer.Trace.ev_seq
            inner.Trace.ev_parent;
          Alcotest.(check int) "inner depth" 1 inner.Trace.ev_depth;
          Alcotest.(check bool) "inner is a span" true
            (inner.Trace.ev_phase = Trace.Complete);
          Alcotest.(check bool) "instant phase" true
            (mark.Trace.ev_phase = Trace.Instant);
          Alcotest.(check int) "instant under outer" outer.Trace.ev_seq
            mark.Trace.ev_parent;
          Alcotest.(check bool) "durations non-negative" true
            (outer.Trace.ev_dur >= inner.Trace.ev_dur
            && inner.Trace.ev_dur >= 0.);
          Alcotest.(check bool) "span contains child" true
            (outer.Trace.ev_ts <= inner.Trace.ev_ts)
      | evs -> Alcotest.failf "expected 3 events, got %d" (List.length evs))

let test_trace_ring_overwrite () =
  with_tracing ~capacity:4 (fun () ->
      for i = 0 to 9 do
        Trace.instant (Printf.sprintf "ev%d" i)
      done;
      Alcotest.(check int) "ring holds capacity" 4 (Trace.recorded ());
      Alcotest.(check int) "overwrites counted" 6 (Trace.dropped ());
      Alcotest.(check (list string)) "oldest overwritten, tail survives"
        [ "ev6"; "ev7"; "ev8"; "ev9" ]
        (List.map (fun e -> e.Trace.ev_name) (Trace.events ())))

(* The Chrome export round-trips through our own JSON parser and is
   structurally what Perfetto expects: X/i phases, microsecond ts/dur,
   args carrying the causal links and GC deltas. *)
let test_trace_chrome_export () =
  with_tracing (fun () ->
      Trace.with_span "parent" (fun () ->
          Trace.with_span "child" (fun () -> ignore (List.init 100 Fun.id)));
      let rendered = Json.to_string (Trace.to_chrome_json ()) in
      match Json.of_string rendered with
      | Error msg -> Alcotest.failf "trace JSON unparsable: %s" msg
      | Ok doc ->
          Alcotest.(check (option string)) "displayTimeUnit" (Some "ms")
            (match Json.member "displayTimeUnit" doc with
            | Some (Json.String s) -> Some s
            | _ -> None);
          let events =
            match Json.member "traceEvents" doc with
            | Some (Json.Array evs) -> evs
            | _ -> Alcotest.fail "traceEvents missing"
          in
          Alcotest.(check int) "two events" 2 (List.length events);
          let field ev name = Option.get (Json.member name ev) in
          List.iter
            (fun ev ->
              Alcotest.(check bool) "complete span" true
                (field ev "ph" = Json.String "X");
              Alcotest.(check bool) "pid 1" true
                (field ev "pid" = Json.Number 1.);
              (match (field ev "ts", field ev "dur") with
              | Json.Number ts, Json.Number dur ->
                  Alcotest.(check bool) "relative microsecond ts" true (ts >= 0.);
                  Alcotest.(check bool) "non-negative dur" true (dur >= 0.)
              | _ -> Alcotest.fail "ts/dur not numbers");
              let args = field ev "args" in
              List.iter
                (fun k ->
                  match Json.member k args with
                  | Some (Json.Number _) -> ()
                  | _ -> Alcotest.failf "args.%s missing" k)
                [
                  "id"; "parent"; "depth"; "gc_minor_words";
                  "gc_promoted_words"; "gc_major_collections";
                ])
            events;
          (* Export order follows seq: parent opened first.  The
             child's parent link is the parent's id. *)
          let parent, child = (List.nth events 0, List.nth events 1) in
          Alcotest.(check bool) "names" true
            (field child "name" = Json.String "child"
            && field parent "name" = Json.String "parent");
          Alcotest.check json "parent link"
            (Option.get (Json.member "id" (field parent "args")))
            (Option.get (Json.member "parent" (field child "args"))))

(* {1 Series} *)

let with_series f =
  Series.set_enabled true;
  Series.reset ();
  Fun.protect
    ~finally:(fun () ->
      Series.set_enabled false;
      Series.reset ())
    f

let test_series_disabled_records_nothing () =
  Series.set_enabled false;
  let s = Series.create "test.series.off" in
  Series.sample s ~x:1. 2.;
  Series.sample_named "test.series.off" ~x:3. 4.;
  Alcotest.(check int) "no samples" 0 (Series.length s)

let test_series_samples_and_contents () =
  with_series (fun () ->
      let s = Series.create "test.series.basic" in
      List.iter (fun i -> Series.sample s ~x:(float_of_int i) (float_of_int (10 * i)))
        [ 1; 2; 3 ];
      let xs, ys, dropped = Series.contents s in
      Alcotest.(check (array (float 0.))) "xs" [| 1.; 2.; 3. |] xs;
      Alcotest.(check (array (float 0.))) "ys" [| 10.; 20.; 30. |] ys;
      Alcotest.(check int) "nothing dropped" 0 dropped)

let test_series_ring_overwrite () =
  with_series (fun () ->
      let s = Series.create ~capacity:3 "test.series.ring" in
      for i = 1 to 5 do
        Series.sample s ~x:(float_of_int i) (float_of_int (-i))
      done;
      let xs, ys, dropped = Series.contents s in
      Alcotest.(check (array (float 0.))) "oldest overwritten" [| 3.; 4.; 5. |] xs;
      Alcotest.(check (array (float 0.))) "ys follow" [| -3.; -4.; -5. |] ys;
      Alcotest.(check int) "dropped counted" 2 dropped;
      Alcotest.(check int) "length capped" 3 (Series.length s))

let test_series_document_json () =
  with_series (fun () ->
      Series.sample_named ~capacity:2 "test.series.doc" ~x:1. 0.5;
      Series.sample_named "test.series.doc" ~x:2. 0.25;
      Series.sample_named "test.series.doc" ~x:3. 0.125;
      let fields = Series.document_json () in
      match List.assoc_opt "test.series.doc" fields with
      | Some (Json.Object o) ->
          Alcotest.check json "capacity" (Json.Number 2.)
            (List.assoc "capacity" o);
          Alcotest.check json "n" (Json.Number 2.) (List.assoc "n" o);
          Alcotest.check json "dropped" (Json.Number 1.)
            (List.assoc "dropped" o);
          Alcotest.check json "x tail" (Json.Array [ Json.Number 2.; Json.Number 3. ])
            (List.assoc "x" o);
          Alcotest.check json "y tail"
            (Json.Array [ Json.Number 0.25; Json.Number 0.125 ])
            (List.assoc "y" o)
      | _ -> Alcotest.fail "series missing from document fields")

(* {1 Section table (drift guard)} *)

let test_sections_unique_and_complete () =
  let names = E.section_names in
  let sections = E.sections ~params:E.default_params in
  Alcotest.(check int) "one handler per name" (List.length names)
    (List.length sections);
  Alcotest.(check bool) "no duplicate names" true
    (List.length (List.sort_uniq compare names) = List.length names);
  (* Every advertised section name resolves to a handler. *)
  List.iter
    (fun name ->
      Alcotest.(check bool)
        (Printf.sprintf "handler for %s" name)
        true
        (List.assoc_opt name sections <> None))
    names;
  (* The sections the paper reproduction has always shipped are present;
     removing one is a deliberate act, not silent drift. *)
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " present") true (List.mem name names))
    [
      "fig1"; "fig2"; "fig3"; "fig4"; "fig6"; "table1"; "workloads"; "fig7";
      "fig8"; "fig9"; "fig10"; "replicates"; "fig11"; "fig12"; "fig12-tor";
      "fig13"; "e2e"; "profiles"; "prediction"; "optimality"; "defrag";
      "ami"; "ami-sweep"; "runtime-probe";
    ]

let test_sections_cheap_handler_runs () =
  match List.assoc_opt "fig1" (E.sections ~params:E.default_params) with
  | None -> Alcotest.fail "fig1 missing"
  | Some run ->
      let tables = run () in
      Alcotest.(check bool) "non-empty output" true (List.length tables > 0);
      List.iter
        (fun t ->
          Alcotest.(check bool) "renders" true
            (String.length (Table.render t) > 0))
        tables

(* {1 Enforcement epoch accounting} *)

let test_enforce_epoch_accounting () =
  (* Every compile — one per run call, one per run_dynamic epoch —
     bumps enforce.epochs, in lockstep with enforce.gp.updates. *)
  let module Runtime = Cm_enforce.Runtime in
  let module Elastic = Cm_enforce.Elastic in
  let epochs_c = Metrics.counter "enforce.epochs" in
  let gp_c = Metrics.counter "enforce.gp.updates" in
  let tag = Cm_tag.Examples.fig13 () in
  let rt =
    Runtime.create ~tag ~enforcement:Elastic.Tag_gp
      ~links:[ { Cm_enforce.Maxmin.link_id = 0; capacity = 1000. } ]
      ()
  in
  let flows =
    [
      {
        Runtime.pair =
          {
            Elastic.src = { Elastic.comp = 0; vm = 0 };
            dst = { Elastic.comp = 1; vm = 0 };
          };
        path = [ 0 ];
        demand = infinity;
      };
    ]
  in
  let e0 = Metrics.counter_value epochs_c in
  let g0 = Metrics.counter_value gp_c in
  ignore (Runtime.run rt ~flows ~periods:1);
  ignore (Runtime.run rt ~flows ~periods:5);
  ignore (Runtime.run_dynamic rt ~epochs:[ flows; flows ]);
  Alcotest.(check int) "one epoch per compile: 2 runs + 2 dynamic" 4
    (Metrics.counter_value epochs_c - e0);
  Alcotest.(check int) "enforce.epochs advances in lockstep with gp.updates"
    (Metrics.counter_value gp_c - g0)
    (Metrics.counter_value epochs_c - e0)

(* {1 Determinism: telemetry observes, never perturbs} *)

let test_jobs_invariant_with_metrics_enabled () =
  let saved = Par.default_domains () in
  let params = { E.default_params with arrivals = 60 } in
  let render jobs =
    Par.set_default_domains jobs;
    Table.render (E.fig8 params ~loads:[ 0.5; 0.9 ])
  in
  (* Baseline with every telemetry layer off... *)
  let dark = render 1 in
  Span.set_enabled true;
  Series.set_enabled true;
  Trace.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Span.set_enabled false;
      Series.set_enabled false;
      Trace.set_enabled false;
      Trace.clear ();
      Series.reset ();
      Par.set_default_domains saved)
    (fun () ->
      (* ...must match spans + series + tracing on, sequential and
         parallel alike: telemetry observes, never perturbs. *)
      let sequential = render 1 in
      let parallel = render 4 in
      Alcotest.(check string)
        "fig8 bit-identical with all telemetry on vs off" dark sequential;
      Alcotest.(check string)
        "fig8 bit-identical for --jobs 1 vs --jobs 4 with telemetry on"
        sequential parallel;
      Alcotest.(check bool) "tracing actually recorded spans" true
        (Trace.recorded () > 0))

(* {1 cloudmirror experiment --metrics-out document} *)

let load_bench_document () =
  let path = "bench_metrics.json" in
  match
    In_channel.with_open_text path In_channel.input_all |> Json.of_string
  with
  | Ok doc -> doc
  | Error msg -> Alcotest.failf "bench_metrics.json unparsable: %s" msg

let span_count doc label =
  match
    Option.bind (Json.member "spans" doc) (fun spans ->
        Option.bind (Json.member label spans) (fun span ->
            Option.bind (Json.member "count" span) Json.to_int))
  with
  | Some n -> n
  | None -> 0

let test_bench_metrics_document () =
  let doc = load_bench_document () in
  Alcotest.(check (option string)) "schema" (Some "cloudmirror.metrics/2")
    (match Json.member "schema" doc with
    | Some (Json.String s) -> Some s
    | _ -> None);
  (* Per-section durations for the sections the rule ran. *)
  Alcotest.(check bool) "section.fig8 span" true (span_count doc "section.fig8" = 1);
  Alcotest.(check bool) "section.runtime-probe span" true
    (span_count doc "section.runtime-probe" = 1);
  (* Placement-runtime histograms: fig8 places tenants with CM and OVOC. *)
  Alcotest.(check bool) "place.CM histogram populated" true
    (span_count doc "place.CM" > 0);
  Alcotest.(check bool) "place.OVOC histogram populated" true
    (span_count doc "place.OVOC" > 0);
  (* Hot-path counters flowed into the same document. *)
  let counter name =
    match
      Option.bind (Json.member "counters" doc) (fun cs ->
          Option.bind (Json.member name cs) Json.to_int)
    with
    | Some n -> n
    | None -> -1
  in
  Alcotest.(check bool) "sim.arrivals counted" true (counter "sim.arrivals" > 0);
  Alcotest.(check bool) "subset-sum invocations counted" true
    (counter "cm.subset_sum.calls" > 0);
  (* The run block records the requested sections. *)
  (match Option.bind (Json.member "run" doc) (Json.member "sections") with
  | Some (Json.Array sections) ->
      Alcotest.(check bool) "fig8 requested" true
        (List.mem (Json.String "fig8") sections)
  | _ -> Alcotest.fail "run.sections missing");
  (* metrics/2: span GC attribution and per-epoch series flowed in. *)
  (match
     Option.bind (Json.member "spans" doc) (fun spans ->
         Option.bind (Json.member "section.fig8" spans) (Json.member "gc"))
   with
  | Some (Json.Object _) -> ()
  | _ -> Alcotest.fail "section.fig8 gc attribution missing");
  match Json.member "series" doc with
  | Some (Json.Object series) ->
      Alcotest.(check bool) "fig8 per-epoch series recorded" true
        (List.exists
           (fun (name, _) -> String.starts_with ~prefix:"sim.fig8." name)
           series);
      List.iter
        (fun (name, s) ->
          let n = Option.bind (Json.member "n" s) Json.to_int in
          let xs =
            match Json.member "x" s with
            | Some (Json.Array xs) -> List.length xs
            | _ -> -1
          in
          Alcotest.(check (option int))
            (Printf.sprintf "series %s: x length = n" name)
            (Some xs) n)
        series
  | _ -> Alcotest.fail "series missing"

(* The trace the same experiment run wrote: non-empty, well-formed, with the
   section spans as roots. *)
let test_bench_trace_document () =
  let doc =
    match
      In_channel.with_open_text "bench_trace.json" In_channel.input_all
      |> Json.of_string
    with
    | Ok doc -> doc
    | Error msg -> Alcotest.failf "bench_trace.json unparsable: %s" msg
  in
  let events =
    match Json.member "traceEvents" doc with
    | Some (Json.Array evs) -> evs
    | _ -> Alcotest.fail "traceEvents missing"
  in
  Alcotest.(check bool) "non-empty trace" true (List.length events > 0);
  let name ev =
    match Json.member "name" ev with Some (Json.String s) -> s | _ -> ""
  in
  let root ev =
    Option.bind (Json.member "args" ev) (Json.member "parent")
    = Some (Json.Number (-1.))
  in
  Alcotest.(check bool) "section.fig8 is a root span" true
    (List.exists (fun ev -> name ev = "section.fig8" && root ev) events);
  Alcotest.(check bool) "nested spans present (depth > 0)" true
    (List.exists
       (fun ev ->
         match
           Option.bind (Json.member "args" ev) (fun a ->
               Option.bind (Json.member "depth" a) Json.to_int)
         with
         | Some d -> d > 0
         | None -> false)
       events)

let () =
  Alcotest.run "cm_obs"
    [
      ( "json",
        [
          Alcotest.test_case "round trip" `Quick test_json_roundtrip;
          Alcotest.test_case "escaping" `Quick test_json_escaping;
          Alcotest.test_case "numbers" `Quick test_json_numbers;
          Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
          Alcotest.test_case "member/to_int" `Quick test_json_member;
        ] );
      ( "log",
        [
          Alcotest.test_case "levels filter" `Quick test_log_levels_filter;
          Alcotest.test_case "off builds no message" `Quick
            test_log_off_builds_no_message;
          Alcotest.test_case "level_of_string" `Quick test_log_level_of_string;
          Alcotest.test_case "json rendering parses" `Quick
            test_log_render_json_parses;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counter" `Quick test_metrics_counter;
          Alcotest.test_case "kind clash" `Quick test_metrics_kind_clash;
          Alcotest.test_case "gauge" `Quick test_metrics_gauge;
          Alcotest.test_case "histogram" `Quick test_metrics_histogram;
          Alcotest.test_case "histogram empty" `Quick
            test_metrics_histogram_empty;
          Alcotest.test_case "histogram nan extrema" `Quick
            test_metrics_histogram_extrema_nan;
          Alcotest.test_case "histogram infinite extrema" `Quick
            test_metrics_histogram_extrema_infinities;
          Alcotest.test_case "counter across domains" `Quick
            test_metrics_counter_across_domains;
          Alcotest.test_case "histogram across domains" `Quick
            test_metrics_histogram_across_domains;
          Alcotest.test_case "document schema" `Quick
            test_metrics_document_schema;
          Alcotest.test_case "document span gc" `Quick
            test_metrics_document_span_gc;
        ] );
      ( "span",
        [
          Alcotest.test_case "disabled records nothing" `Quick
            test_span_disabled_records_nothing;
          Alcotest.test_case "enabled records" `Quick test_span_enabled_records;
          Alcotest.test_case "exception recorded" `Quick
            test_span_exception_recorded;
        ] );
      ( "trace",
        [
          Alcotest.test_case "disabled records nothing" `Quick
            test_trace_disabled_records_nothing;
          Alcotest.test_case "nesting" `Quick test_trace_nesting;
          Alcotest.test_case "ring overwrite" `Quick test_trace_ring_overwrite;
          Alcotest.test_case "chrome export" `Quick test_trace_chrome_export;
        ] );
      ( "series",
        [
          Alcotest.test_case "disabled records nothing" `Quick
            test_series_disabled_records_nothing;
          Alcotest.test_case "samples and contents" `Quick
            test_series_samples_and_contents;
          Alcotest.test_case "ring overwrite" `Quick test_series_ring_overwrite;
          Alcotest.test_case "document json" `Quick test_series_document_json;
        ] );
      ( "sections",
        [
          Alcotest.test_case "unique and complete" `Quick
            test_sections_unique_and_complete;
          Alcotest.test_case "cheap handler runs" `Quick
            test_sections_cheap_handler_runs;
        ] );
      ( "accounting",
        [
          Alcotest.test_case "enforce epochs = gp updates" `Quick
            test_enforce_epoch_accounting;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "jobs-invariant with metrics enabled" `Slow
            test_jobs_invariant_with_metrics_enabled;
        ] );
      ( "bench-document",
        [
          Alcotest.test_case "metrics-out parses and is populated" `Quick
            test_bench_metrics_document;
          Alcotest.test_case "trace-out parses and nests" `Quick
            test_bench_trace_document;
        ] );
    ]
