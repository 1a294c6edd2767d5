(* The loop's counts are exact: two runs of one seed must agree on every
   one of them, and a run with two worker domains must agree with one
   with a single domain, so CI can gate on the counts where it cannot
   gate on wall-clock time.  Each run must also pass the benchmark's
   end-of-run correctness checks.

   The exception is topology.index_*: Tree.index_stats documents its
   counters as approximate while a shard barrier lets several domains
   mutate the tree, and with two domains they do lose updates (one
   enforce-churn run counted 481 index cleans where every other run
   counted 482).  They are compared between single-domain runs only. *)

module Loop = Loopbench.Loop

let epochs = 6

(* The counts behind reject_pct, bw_reject_pct, placement.accept_ratio,
   inference.*, reneg.* and enforce.*; floats in hexadecimal, so
   equality is bitwise. *)
let digest (r : Loop.result) =
  let c = r.counts in
  Printf.sprintf
    "epochs %d requests %d rejects %d offered_bw %h rejected_bw %h batch \
     %d/%d pushes %d full %d dirty %d drift %d reneg %d/%d evicted %d \
     solves %d resolved %d/%d components %d links_dirty %d"
    c.epochs c.requests c.rejects c.offered_bw c.rejected_bw c.batch_accepts
    c.batch_requests c.pushes c.full_pushes c.dirty_vertices c.drift_events
    c.renegs c.reneg_rejects c.evicted c.solves c.resolved c.flows_total
    c.components c.links_dirty

let index (r : Loop.result) =
  Printf.sprintf "index %d/%d" r.counts.index_marks r.counts.index_cleans

let () =
  let failed = ref false in
  List.iter
    (fun (w : Loop.workload) ->
      let run domains =
        let r =
          Loop.run ~domains ~replicas:1 ~setups:1 ~epochs
            { w with discard = 0 } ~seed:11 ~seconds:0.
        in
        List.iter
          (fun f ->
            Printf.printf "FAIL %s (%d domains): %s\n" w.name domains f;
            failed := true)
          r.failures;
        r
      in
      let a = run 1 in
      let b = run 1 in
      let c = run 2 in
      let check what expected got =
        if got <> expected then begin
          Printf.printf "FAIL %s: %s\n  expected %s\n  got      %s\n" w.name
            what expected got;
          failed := true
        end
      in
      check "second run" (digest a) (digest b);
      check "second run" (index a) (index b);
      check "run at 2 domains" (digest a) (digest c);
      Printf.printf "%s: %s %s\n" w.name (digest a) (index a))
    Loop.workloads;
  if !failed then exit 1
