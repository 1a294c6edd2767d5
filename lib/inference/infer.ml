module Tag = Cm_tag.Tag
module Csr = Cm_util.Csr

type result = {
  labels : int array;
  inferred : Cm_tag.Tag.t;
  ami_vs_truth : float option;
  n_components : int;
}

let component_peaks epochs labels =
  let n_comp = 1 + Array.fold_left max 0 labels in
  let sizes = Array.make n_comp 0 in
  Array.iter (fun l -> sizes.(l) <- sizes.(l) + 1) labels;
  (* Peak over epochs of the aggregate component-to-component rate.
     Both the running peak and the per-epoch aggregate live in flat
     n_comp² scratch reused across epochs; each epoch folds over its
     stored entries only, in the dense row-major addition order. *)
  let peak = Array.make (n_comp * n_comp) 0. in
  let agg = Array.make (n_comp * n_comp) 0. in
  Array.iter
    (fun epoch ->
      Array.fill agg 0 (Array.length agg) 0.;
      Csr.iter_nz epoch (fun i j rate ->
          let idx = (labels.(i) * n_comp) + labels.(j) in
          agg.(idx) <- agg.(idx) +. rate);
      for idx = 0 to (n_comp * n_comp) - 1 do
        peak.(idx) <- Float.max peak.(idx) agg.(idx)
      done)
    epochs;
  (sizes, peak)

let tag_of_peaks ~sizes peaks =
  let n_comp = Array.length sizes in
  if Array.length peaks <> n_comp * n_comp then
    invalid_arg "Infer.tag_of_peaks: peaks must be n_comp^2";
  let components =
    List.init n_comp (fun c -> (Printf.sprintf "inferred-%d" c, sizes.(c)))
  in
  let edges = ref [] in
  for a = 0 to n_comp - 1 do
    for b = 0 to n_comp - 1 do
      let p = peaks.((a * n_comp) + b) in
      if p > 0. then
        if a = b then begin
          (* Symmetric self-loop guarantee: per-VM share of the peak
             intra-component aggregate. *)
          let sr = p /. float_of_int sizes.(a) in
          edges := (a, a, sr, sr) :: !edges
        end
        else
          let s = p /. float_of_int sizes.(a) in
          let r = p /. float_of_int sizes.(b) in
          edges := (a, b, s, r) :: !edges
    done
  done;
  Tag.create ~name:"inferred" ~components ~edges:(List.rev !edges) ()

let guarantees_of_labels (tm : Traffic_matrix.t) labels =
  let sizes, peaks = component_peaks tm.Traffic_matrix.epochs labels in
  tag_of_peaks ~sizes peaks

let infer ?(resolution = 1.) (tm : Traffic_matrix.t) =
  Cm_obs.Span.with_ "infer" (fun () ->
      let mean =
        Cm_obs.Span.with_ "infer.mean" (fun () -> Traffic_matrix.mean_csr tm)
      in
      let graph =
        Cm_obs.Span.with_ "infer.projection" (fun () ->
            Similarity.projection_csr mean)
      in
      let labels =
        Cm_obs.Span.with_ "infer.cluster" (fun () ->
            Louvain.cluster ~resolution (Louvain.of_csr graph))
      in
      let inferred = guarantees_of_labels tm labels in
      let ami_vs_truth =
        if tm.Traffic_matrix.truth_known then
          Some (Ami.ami tm.Traffic_matrix.truth labels)
        else None
      in
      {
        labels;
        inferred;
        ami_vs_truth;
        n_components = 1 + Array.fold_left max 0 labels;
      })
