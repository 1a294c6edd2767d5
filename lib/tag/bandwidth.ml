let check_inside tag inside =
  if Array.length inside <> Tag.n_components tag then
    invalid_arg "Bandwidth: inside vector length mismatch";
  for c = 0 to Array.length inside - 1 do
    let n = inside.(c) in
    if n < 0 || n > Tag.size tag c then
      invalid_arg
        (Printf.sprintf "Bandwidth: inside.(%d)=%d out of [0,%d]" c n
           (Tag.size tag c))
  done

let fi = float_of_int
let outside tag inside c = Tag.size tag c - inside.(c)

let internal tag (e : Tag.edge) =
  (not (Tag.is_external tag e.src)) && not (Tag.is_external tag e.dst)

(* Eq. 1 contribution of one internal edge in the out direction. *)
let edge_out tag inside (e : Tag.edge) =
  Float.min
    (fi inside.(e.src) *. e.snd_bw)
    (fi (outside tag inside e.dst) *. e.rcv_bw)

let edge_in tag inside (e : Tag.edge) =
  Float.min
    (fi (outside tag inside e.src) *. e.snd_bw)
    (fi inside.(e.dst) *. e.rcv_bw)

let sum_edges f tag inside ~self =
  Array.fold_left
    (fun acc (e : Tag.edge) ->
      if internal tag e && (e.src = e.dst) = self then
        acc +. f tag inside e
      else acc)
    0. (Tag.edges tag)

(* External (special) components are outside every subtree, so their
   guarantees cross the uplink exactly: [inside * S] outward for an edge
   toward an external, [inside * R] inward for an edge from one.  All
   four abstractions account them identically. *)
let external_out tag inside =
  Array.fold_left
    (fun acc (e : Tag.edge) ->
      if (not (Tag.is_external tag e.src)) && Tag.is_external tag e.dst then
        acc +. (fi inside.(e.src) *. e.snd_bw)
      else acc)
    0. (Tag.edges tag)

let external_in tag inside =
  Array.fold_left
    (fun acc (e : Tag.edge) ->
      if Tag.is_external tag e.src && not (Tag.is_external tag e.dst) then
        acc +. (fi inside.(e.dst) *. e.rcv_bw)
      else acc)
    0. (Tag.edges tag)

let tag_out tag ~inside =
  check_inside tag inside;
  sum_edges edge_out tag inside ~self:false
  +. sum_edges edge_out tag inside ~self:true
  +. external_out tag inside

let tag_in tag ~inside =
  check_inside tag inside;
  sum_edges edge_in tag inside ~self:false
  +. sum_edges edge_in tag inside ~self:true
  +. external_in tag inside

(* Per-VM guarantee sums over internal edges only; external edges are
   priced separately and identically under all models. *)
let internal_per_vm_send tag c =
  List.fold_left
    (fun acc (e : Tag.edge) ->
      if internal tag e then acc +. e.snd_bw else acc)
    0. (Tag.out_edges tag c)

let internal_per_vm_recv tag c =
  List.fold_left
    (fun acc (e : Tag.edge) ->
      if internal tag e then acc +. e.rcv_bw else acc)
    0. (Tag.in_edges tag c)

(* Generalized hose: every VM's guarantees fused into one hose rate. *)
let hose_out tag ~inside =
  check_inside tag inside;
  let send = ref 0. and recv = ref 0. in
  for c = 0 to Tag.n_components tag - 1 do
    send := !send +. (fi inside.(c) *. internal_per_vm_send tag c);
    recv := !recv +. (fi (outside tag inside c) *. internal_per_vm_recv tag c)
  done;
  Float.min !send !recv +. external_out tag inside

let hose_in tag ~inside =
  check_inside tag inside;
  let send = ref 0. and recv = ref 0. in
  for c = 0 to Tag.n_components tag - 1 do
    send := !send +. (fi (outside tag inside c) *. internal_per_vm_send tag c);
    recv := !recv +. (fi inside.(c) *. internal_per_vm_recv tag c)
  done;
  Float.min !send !recv +. external_in tag inside

(* VOC (footnote 7): inter-cluster guarantees aggregated into one
   oversubscribed hose; intra-cluster self-loops kept as hoses. *)
let inter_per_vm_send tag c =
  List.fold_left
    (fun acc (e : Tag.edge) ->
      if internal tag e && e.src <> e.dst then acc +. e.snd_bw else acc)
    0. (Tag.out_edges tag c)

let inter_per_vm_recv tag c =
  List.fold_left
    (fun acc (e : Tag.edge) ->
      if internal tag e && e.src <> e.dst then acc +. e.rcv_bw else acc)
    0. (Tag.in_edges tag c)

let voc_out tag ~inside =
  check_inside tag inside;
  let send = ref 0. and recv = ref 0. in
  for c = 0 to Tag.n_components tag - 1 do
    send := !send +. (fi inside.(c) *. inter_per_vm_send tag c);
    recv := !recv +. (fi (outside tag inside c) *. inter_per_vm_recv tag c)
  done;
  Float.min !send !recv
  +. sum_edges edge_out tag inside ~self:true
  +. external_out tag inside

let voc_in tag ~inside =
  check_inside tag inside;
  let send = ref 0. and recv = ref 0. in
  for c = 0 to Tag.n_components tag - 1 do
    send := !send +. (fi (outside tag inside c) *. inter_per_vm_send tag c);
    recv := !recv +. (fi inside.(c) *. inter_per_vm_recv tag c)
  done;
  Float.min !send !recv
  +. sum_edges edge_in tag inside ~self:true
  +. external_in tag inside

(* Idealized pipes: guarantees split uniformly across VM pairs, so the
   crossing bandwidth depends only on how many VMs sit on each side.
   External edges become per-VM pipes to the external endpoint. *)
let pipe_cross tag inside ~src_side =
  Array.fold_left
    (fun acc (e : Tag.edge) ->
      if not (internal tag e) then
        acc
        +.
        (if src_side then
           if Tag.is_external tag e.dst then fi inside.(e.src) *. e.snd_bw
           else 0.
         else if Tag.is_external tag e.src then fi inside.(e.dst) *. e.rcv_bw
         else 0.)
      else
      let n_src = Tag.size tag e.src and n_dst = Tag.size tag e.dst in
      if e.src = e.dst then
        if n_src <= 1 then acc
        else
          let pair = e.snd_bw /. fi (n_src - 1) in
          let ins = inside.(e.src) and out = outside tag inside e.src in
          acc +. (fi ins *. fi out *. pair)
      else
        let pair = Tag.b_total tag e /. (fi n_src *. fi n_dst) in
        let src_count, dst_count =
          if src_side then (inside.(e.src), outside tag inside e.dst)
          else (outside tag inside e.src, inside.(e.dst))
        in
        acc +. (fi src_count *. fi dst_count *. pair))
    0. (Tag.edges tag)

let pipe_out tag ~inside =
  check_inside tag inside;
  pipe_cross tag inside ~src_side:true

let pipe_in tag ~inside =
  check_inside tag inside;
  pipe_cross tag inside ~src_side:false

let hose_saving_possible ~n_total ~n_inside = 2 * n_inside > n_total

let trunk_size_condition tag (e : Tag.edge) ~src_inside ~dst_inside =
  2 * src_inside > Tag.size tag e.src || 2 * dst_inside > Tag.size tag e.dst

let trunk_saving_condition tag (e : Tag.edge) ~src_inside ~dst_inside =
  (fi src_inside *. e.snd_bw) +. (fi dst_inside *. e.rcv_bw)
  > fi (Tag.size tag e.dst) *. e.rcv_bw

let trunk_saving_amount tag (e : Tag.edge) ~src_inside ~dst_inside =
  let n_dst = Tag.size tag e.dst in
  Float.max
    ((fi src_inside *. e.snd_bw) -. (fi (n_dst - dst_inside) *. e.rcv_bw))
    0.

type model = Tag_model | Hose_model | Voc_model | Pipe_model

(* Fused single-pass [ (tag_out, tag_in) ] over the flat edge view: one
   walk with one accumulator per (direction, edge class) pair, each term
   computed by the same float expression as [edge_out]/[edge_in]/
   [external_out]/[external_in], each accumulator summed in edge order and
   the three combined in the order [tag_out]/[tag_in] use — so the result
   is bitwise equal to [(tag_out, tag_in)], at a sixth of the edge
   traffic and without touching an edge record.  This sits on the
   placement hot path ([Alloc_state.sync_bw] prices an uplink on every
   server allocation and every path sync), so it writes into the
   caller's [out.(0)] and [out.(1)] and allocates nothing. *)
let tag_required_into tag ~inside (out : float array) =
  check_inside tag inside;
  let v = Tag.edge_view tag in
  let trunk_out = ref 0.
  and hose_out = ref 0.
  and ext_out = ref 0.
  and trunk_in = ref 0.
  and hose_in = ref 0.
  and ext_in = ref 0. in
  for i = 0 to v.n_edges - 1 do
    match v.cls.(i) with
    | Tag.Ext_out -> ext_out := !ext_out +. (fi inside.(v.src.(i)) *. v.snd.(i))
    | Tag.Ext_in -> ext_in := !ext_in +. (fi inside.(v.dst.(i)) *. v.rcv.(i))
    | (Tag.Trunk | Tag.Hose) as cls -> (
        let s = v.src.(i) and d = v.dst.(i) in
        let snd = v.snd.(i) and rcv = v.rcv.(i) in
        let o =
          Float.min (fi inside.(s) *. snd) (fi (v.dst_size.(i) - inside.(d)) *. rcv)
        and n =
          Float.min (fi (v.src_size.(i) - inside.(s)) *. snd) (fi inside.(d) *. rcv)
        in
        match cls with
        | Tag.Hose ->
            hose_out := !hose_out +. o;
            hose_in := !hose_in +. n
        | _ ->
            trunk_out := !trunk_out +. o;
            trunk_in := !trunk_in +. n)
  done;
  out.(0) <- !trunk_out +. !hose_out +. !ext_out;
  out.(1) <- !trunk_in +. !hose_in +. !ext_in

let tag_required tag ~inside =
  let out = Array.make 2 0. in
  tag_required_into tag ~inside out;
  (out.(0), out.(1))

let required_into model tag ~inside (out : float array) =
  match model with
  | Tag_model -> tag_required_into tag ~inside out
  | Hose_model ->
      out.(0) <- hose_out tag ~inside;
      out.(1) <- hose_in tag ~inside
  | Voc_model ->
      out.(0) <- voc_out tag ~inside;
      out.(1) <- voc_in tag ~inside
  | Pipe_model ->
      out.(0) <- pipe_out tag ~inside;
      out.(1) <- pipe_in tag ~inside

let required model tag ~inside =
  match model with
  | Tag_model -> tag_required tag ~inside
  | Hose_model -> (hose_out tag ~inside, hose_in tag ~inside)
  | Voc_model -> (voc_out tag ~inside, voc_in tag ~inside)
  | Pipe_model -> (pipe_out tag ~inside, pipe_in tag ~inside)

let model_name = function
  | Tag_model -> "TAG"
  | Hose_model -> "hose"
  | Voc_model -> "VOC"
  | Pipe_model -> "pipe"
