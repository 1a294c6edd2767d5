module Csr = Cm_util.Csr
module Window = Cm_util.Csr.Window
module Par = Cm_util.Par
module Intsort = Cm_util.Intsort
module Metrics = Cm_obs.Metrics
module Series = Cm_obs.Series
module Span = Cm_obs.Span

type cause = Label_churn | Guarantee_shift | Dimension_change

type event = {
  at : int;
  cause : cause;
  churn : float;
  shift : float;
  components : int;
}

type config = {
  window : int;
  resolution : float;
  fallback_bound : float;
  dirty_full : float;
  churn_threshold : float;
  shift_threshold : float;
  ami_parity : float;
}

let default_config =
  {
    window = 4;
    resolution = 1.;
    fallback_bound = 0.02;
    dirty_full = 0.5;
    churn_threshold = 0.05;
    shift_threshold = 0.25;
    ami_parity = 0.8;
  }

type stats = {
  tick : int;
  full : bool;
  fallback : bool;
  dirty_rows : int;
  dirty_vertices : int;
  frontier : int;
  moved : int;
  label_churn : float;
  ami_prev : float;
  modularity : float;
  drift : event option;
}

type t = {
  cfg : config;
  series : string option;  (* Cm_obs series name prefix, when sampling *)
  n : int;
  win : Window.w;
  (* Mean mirrors (windowed mean values, i.e. sums already divided):
     row-major rows and the column-major transpose, both with ascending
     index arrays, patched in place as rows go dirty. *)
  row_cols : int array array;
  row_vals : float array array;
  col_rows : int array array;
  col_vals : float array array;
  norms : float array;  (* squared feature norms, as projection_csr's *)
  (* Similarity graph as mutable per-vertex sorted adjacency. *)
  g_cols : int array array;
  g_vals : float array array;
  deg : float array;
  mutable m2 : float;
  mutable labels : int array;  (* canonical 0..ncomp-1 *)
  mutable ncomp : int;
  mutable sizes : int array;
  mutable members : int array array;  (* per component, ascending *)
  mutable q_ref : float;  (* best modularity since the last full pass *)
  (* Guarantee state: per ring slot the flat ncomp² aggregate, plus the
     running peak and the last negotiated snapshot. *)
  slot_aggs : float array array;
  mutable peaks : float array;
  mutable neg_peaks : float array;
  mutable neg_ncomp : int;
  mutable tick : int;  (* epochs ingested *)
  mutable events : event list;
  mutable last_full : bool;  (* last tick ran the full pipeline or fell back *)
  (* Scratch (single-threaded paths only). *)
  acc : float array;
  touched : int array;
  mark : bool array;
  mark2 : bool array;
  patch : (int * float) list array;  (* pending per-partner edge patches *)
}

let mt_ticks = Metrics.counter "infer.stream.ticks"
let mt_full = Metrics.counter "infer.stream.full_ticks"
let mt_fallbacks = Metrics.counter "infer.stream.fallbacks"
let mt_drift = Metrics.counter "infer.stream.drift_events"
let mt_moves = Metrics.counter "infer.stream.moves"

let create ?(config = default_config) ?series_prefix ~n () =
  if n < 1 then invalid_arg "Stream.create: n must be >= 1";
  if config.window < 1 then invalid_arg "Stream.create: window must be >= 1";
  if config.fallback_bound < 0. then
    invalid_arg "Stream.create: fallback_bound must be >= 0";
  if not (config.dirty_full > 0.) then
    invalid_arg "Stream.create: dirty_full must be > 0";
  {
    cfg = config;
    series = series_prefix;
    n;
    win = Window.create ~n ~capacity:config.window;
    row_cols = Array.make n [||];
    row_vals = Array.make n [||];
    col_rows = Array.make n [||];
    col_vals = Array.make n [||];
    norms = Array.make n 0.;
    g_cols = Array.make n [||];
    g_vals = Array.make n [||];
    deg = Array.make n 0.;
    m2 = 0.;
    labels = [||];
    ncomp = 0;
    sizes = [||];
    members = [||];
    q_ref = neg_infinity;
    slot_aggs = Array.make config.window [||];
    peaks = [||];
    neg_peaks = [||];
    neg_ncomp = -1;
    tick = 0;
    events = [];
    last_full = false;
    acc = Array.make n 0.;
    touched = Array.make n 0;
    mark = Array.make n false;
    mark2 = Array.make n false;
    patch = Array.make n [];
  }

let n_vms t = t.n
let ticks t = t.tick

let started t =
  if t.tick = 0 then invalid_arg "Stream: no epochs ingested yet"

let labels t =
  started t;
  Array.copy t.labels

let n_components t =
  started t;
  t.ncomp

let mean t =
  started t;
  Window.mean t.win

let window_epochs t =
  started t;
  Window.epochs t.win

let drift_events t = List.rev t.events

let iter_neighbours t i f =
  let gc = t.g_cols.(i) and gv = t.g_vals.(i) in
  for p = 0 to Array.length gc - 1 do
    f gc.(p) gv.(p)
  done

(* The similarity graph as a CSR matrix, via its strict upper triangle
   — bit-identical to [Similarity.projection_csr] of the current mean
   (asserted by [verify]). *)
let projection t =
  started t;
  let upper =
    Array.init t.n (fun i ->
        let gc = t.g_cols.(i) and gv = t.g_vals.(i) in
        let len = Array.length gc in
        (* First entry with column > i (row is sorted ascending). *)
        let lo = ref 0 and hi = ref len in
        while !lo < !hi do
          let mid = (!lo + !hi) / 2 in
          if gc.(mid) <= i then lo := mid + 1 else hi := mid
        done;
        (Array.sub gc !lo (len - !lo), Array.sub gv !lo (len - !lo)))
  in
  Csr.of_upper ~n:t.n upper

let peaks t =
  started t;
  (Array.copy t.sizes, Array.copy t.peaks)

let tag t =
  started t;
  Infer.tag_of_peaks ~sizes:t.sizes t.peaks

(* ------------------------------------------------------------------ *)
(* Full (from-scratch) products: used during warm-up and past the
   dirty-fraction bound.                                               *)

let load_mirrors t (mean : Csr.t) =
  let mt = Csr.transpose mean in
  for i = 0 to t.n - 1 do
    let lo = mean.Csr.row_ptr.(i) and hi = mean.Csr.row_ptr.(i + 1) in
    t.row_cols.(i) <- Array.sub mean.Csr.col_idx lo (hi - lo);
    t.row_vals.(i) <- Array.sub mean.Csr.values lo (hi - lo);
    let lo = mt.Csr.row_ptr.(i) and hi = mt.Csr.row_ptr.(i + 1) in
    t.col_rows.(i) <- Array.sub mt.Csr.col_idx lo (hi - lo);
    t.col_vals.(i) <- Array.sub mt.Csr.values lo (hi - lo);
    (* Same accumulation order as projection_csr: row support then
       column support, ascending. *)
    let na = ref 0. in
    Array.iter (fun x -> na := !na +. (x *. x)) t.row_vals.(i);
    Array.iter (fun x -> na := !na +. (x *. x)) t.col_vals.(i);
    t.norms.(i) <- !na
  done

let load_graph t (graph : Csr.t) =
  let m2 = ref 0. in
  for i = 0 to t.n - 1 do
    let lo = graph.Csr.row_ptr.(i) and hi = graph.Csr.row_ptr.(i + 1) in
    t.g_cols.(i) <- Array.sub graph.Csr.col_idx lo (hi - lo);
    t.g_vals.(i) <- Array.sub graph.Csr.values lo (hi - lo);
    let s = ref 0. in
    Array.iter (fun v -> s := !s +. v) t.g_vals.(i);
    t.deg.(i) <- !s;
    m2 := !m2 +. !s
  done;
  t.m2 <- !m2

let set_labels t labels =
  t.labels <- labels;
  let nc = 1 + Array.fold_left max 0 labels in
  t.ncomp <- nc;
  let sizes = Array.make nc 0 in
  Array.iter (fun l -> sizes.(l) <- sizes.(l) + 1) labels;
  t.sizes <- sizes;
  let cursors = Array.make nc 0 in
  let members = Array.init nc (fun c -> Array.make sizes.(c) 0) in
  Array.iteri
    (fun i l ->
      members.(l).(cursors.(l)) <- i;
      cursors.(l) <- cursors.(l) + 1)
    labels;
  t.members <- members

let ensure_agg t size =
  for s = 0 to t.cfg.window - 1 do
    if Array.length t.slot_aggs.(s) <> size then
      t.slot_aggs.(s) <- Array.make size 0.
  done;
  if Array.length t.peaks <> size then t.peaks <- Array.make size 0.

let aggregate_into t agg (epoch : Csr.t) =
  Array.fill agg 0 (Array.length agg) 0.;
  let nc = t.ncomp and labels = t.labels in
  Csr.iter_nz epoch (fun i j v ->
      let idx = (labels.(i) * nc) + labels.(j) in
      agg.(idx) <- agg.(idx) +. v)

let refresh_peaks t =
  let nc2 = t.ncomp * t.ncomp in
  let peaks = t.peaks in
  Array.fill peaks 0 nc2 0.;
  let len = Window.length t.win in
  let base = Window.pushes t.win - len in
  for i = 0 to len - 1 do
    let agg = t.slot_aggs.((base + i) mod t.cfg.window) in
    for idx = 0 to nc2 - 1 do
      peaks.(idx) <- Float.max peaks.(idx) agg.(idx)
    done
  done

let rebuild_guarantees t =
  ensure_agg t (t.ncomp * t.ncomp);
  let len = Window.length t.win in
  let base = Window.pushes t.win - len in
  for i = 0 to len - 1 do
    aggregate_into t t.slot_aggs.((base + i) mod t.cfg.window) (Window.epoch t.win i)
  done;
  refresh_peaks t

(* Incremental guarantee maintenance: the incoming epoch's slot is
   re-aggregated in full (O(nnz) of one epoch), and in the older slots
   only the component pairs touching a rate-dirty component are redone,
   by scanning exactly the rows that can contribute to them — members
   of the touched components plus senders into them (the mean's column
   support covers every window epoch's, since the mean is their sum).
   The restricted scan visits each contributing cell in the same
   row-major order as the full reference fold, so surviving values are
   bit-identical to [Infer.component_peaks]. *)
let update_guarantees_partial t (epoch : Csr.t) dirty =
  let nc = t.ncomp and labels = t.labels in
  aggregate_into t t.slot_aggs.((t.tick - 1) mod t.cfg.window) epoch;
  let in_s = Array.make nc false in
  let any = ref false in
  Array.iter
    (fun u ->
      if not in_s.(labels.(u)) then begin
        in_s.(labels.(u)) <- true;
        any := true
      end)
    dirty;
  if !any then begin
    let mark = t.mark in
    for c = 0 to nc - 1 do
      if in_s.(c) then
        Array.iter
          (fun m ->
            mark.(m) <- true;
            Array.iter (fun i -> mark.(i) <- true) t.col_rows.(m))
          t.members.(c)
    done;
    let len = Window.length t.win in
    let base = Window.pushes t.win - len in
    for i = 0 to len - 2 do
      let agg = t.slot_aggs.((base + i) mod t.cfg.window) in
      for a = 0 to nc - 1 do
        let row = a * nc in
        for b = 0 to nc - 1 do
          if in_s.(a) || in_s.(b) then agg.(row + b) <- 0.
        done
      done;
      let ep = Window.epoch t.win i in
      for r = 0 to t.n - 1 do
        if mark.(r) then
          Csr.iter_row ep r (fun j v ->
              let a = labels.(r) and b = labels.(j) in
              if in_s.(a) || in_s.(b) then begin
                let idx = (a * nc) + b in
                agg.(idx) <- agg.(idx) +. v
              end)
      done
    done;
    Array.fill mark 0 t.n false
  end;
  refresh_peaks t

(* ------------------------------------------------------------------ *)
(* Delta similarity.                                                   *)

(* Recompute VM [u]'s full projection row against the current mean
   mirrors via the inverted index, walking [u]'s support in ascending
   feature-dim order — for any pair this accumulates the same common
   terms in the same order as [Similarity.projection_csr] (multiply
   operand order differs per side, but IEEE multiplication commutes
   bitwise), so edge values are exact. *)
let sim_row t acc touched u =
  let nt = ref 0 in
  let rc = t.row_cols.(u) and rv = t.row_vals.(u) in
  for p = 0 to Array.length rc - 1 do
    let k = rc.(p) and f = rv.(p) in
    let oc = t.col_rows.(k) and ov = t.col_vals.(k) in
    for q = 0 to Array.length oc - 1 do
      let j = oc.(q) in
      if j <> u then begin
        if acc.(j) = 0. then begin
          touched.(!nt) <- j;
          incr nt
        end;
        acc.(j) <- acc.(j) +. (f *. ov.(q))
      end
    done
  done;
  let cc = t.col_rows.(u) and cv = t.col_vals.(u) in
  for p = 0 to Array.length cc - 1 do
    let r = cc.(p) and f = cv.(p) in
    let oc = t.row_cols.(r) and ov = t.row_vals.(r) in
    for q = 0 to Array.length oc - 1 do
      let j = oc.(q) in
      if j <> u then begin
        if acc.(j) = 0. then begin
          touched.(!nt) <- j;
          incr nt
        end;
        acc.(j) <- acc.(j) +. (f *. ov.(q))
      end
    done
  done;
  Intsort.sort_prefix touched !nt;
  let nu = t.norms.(u) in
  let cols = Array.make !nt 0 and svals = Array.make !nt 0. in
  let e = ref 0 in
  for p = 0 to !nt - 1 do
    let j = touched.(p) in
    let dot = acc.(j) in
    acc.(j) <- 0.;
    let c =
      if nu = 0. || t.norms.(j) = 0. then 0.
      else Float.max 0. (Float.min 1. (dot /. sqrt (nu *. t.norms.(j))))
    in
    let s = Float.max 0. (1. -. (2. *. acos c /. Float.pi)) in
    if s > 0. then begin
      cols.(!e) <- j;
      svals.(!e) <- s;
      incr e
    end
  done;
  (Array.sub cols 0 !e, Array.sub svals 0 !e)

(* Merge a sorted patch list into partner [v]'s adjacency row.  [ops]
   pairs are (neighbour, value) with value < 0 meaning "remove". *)
let apply_patches t v ops =
  let oc = t.g_cols.(v) and ov = t.g_vals.(v) in
  let olen = Array.length oc in
  let nops = List.length ops in
  let cols = Array.make (olen + nops) 0 in
  let vals = Array.make (olen + nops) 0. in
  let out = ref 0 in
  let p = ref 0 in
  let emit j x =
    cols.(!out) <- j;
    vals.(!out) <- x;
    incr out
  in
  List.iter
    (fun (u, x) ->
      while !p < olen && oc.(!p) < u do
        emit oc.(!p) ov.(!p);
        incr p
      done;
      if !p < olen && oc.(!p) = u then incr p;
      if x >= 0. then emit u x)
    ops;
  while !p < olen do
    emit oc.(!p) ov.(!p);
    incr p
  done;
  t.g_cols.(v) <- Array.sub cols 0 !out;
  t.g_vals.(v) <- Array.sub vals 0 !out;
  let s = ref 0. in
  for q = 0 to !out - 1 do
    s := !s +. vals.(q)
  done;
  t.deg.(v) <- !s

(* ------------------------------------------------------------------ *)

let full_tick t =
  let mean = Window.mean t.win in
  load_mirrors t mean;
  let graph = Similarity.projection_csr mean in
  load_graph t graph;
  let labels = Louvain.cluster_csr ~resolution:t.cfg.resolution graph in
  set_labels t labels;
  let q =
    Louvain.modularity_graph ~resolution:t.cfg.resolution ~n:t.n ~k:t.deg
      ~m2:t.m2 ~iter_neighbours:(iter_neighbours t) labels
  in
  t.q_ref <- q;
  rebuild_guarantees t;
  q

(* Update the mean mirrors for the window's dirty rows, collecting the
   feature-dirty vertex set (dirty rows plus the owners of changed
   columns) into [t.mark].  Returns the number of dirty vertices. *)
let patch_mirrors t dirty =
  let k = Window.divisor t.win in
  let mark = t.mark in
  let n_marked = ref 0 in
  let touch v =
    if not mark.(v) then begin
      mark.(v) <- true;
      incr n_marked
    end
  in
  Array.iter
    (fun r ->
      touch r;
      let wcols, wsums = Window.row t.win r in
      let nvals = Array.map (fun s -> s /. k) wsums in
      let oc = t.row_cols.(r) and ov = t.row_vals.(r) in
      let olen = Array.length oc and nlen = Array.length wcols in
      (* Merge-diff old and new rows; patch the column mirror for every
         changed cell. *)
      let p = ref 0 and q = ref 0 in
      let col_remove j =
        let cc = t.col_rows.(j) and cv = t.col_vals.(j) in
        let len = Array.length cc in
        let idx = ref (-1) in
        let lo = ref 0 and hi = ref (len - 1) in
        while !lo <= !hi do
          let mid = (!lo + !hi) / 2 in
          if cc.(mid) = r then begin
            idx := mid;
            lo := !hi + 1
          end
          else if cc.(mid) < r then lo := mid + 1
          else hi := mid - 1
        done;
        if !idx >= 0 then begin
          let cc' = Array.make (len - 1) 0 and cv' = Array.make (len - 1) 0. in
          Array.blit cc 0 cc' 0 !idx;
          Array.blit cc (!idx + 1) cc' !idx (len - 1 - !idx);
          Array.blit cv 0 cv' 0 !idx;
          Array.blit cv (!idx + 1) cv' !idx (len - 1 - !idx);
          t.col_rows.(j) <- cc';
          t.col_vals.(j) <- cv'
        end
      in
      let col_set j x =
        let cc = t.col_rows.(j) and cv = t.col_vals.(j) in
        let len = Array.length cc in
        let pos = ref 0 in
        let dup = ref false in
        let lo = ref 0 and hi = ref (len - 1) in
        while !lo <= !hi do
          let mid = (!lo + !hi) / 2 in
          if cc.(mid) = r then begin
            pos := mid;
            dup := true;
            lo := !hi + 1
          end
          else if cc.(mid) < r then lo := mid + 1
          else hi := mid - 1
        done;
        if not !dup then pos := !lo;
        if !dup then cv.(!pos) <- x
        else begin
          let cc' = Array.make (len + 1) 0 and cv' = Array.make (len + 1) 0. in
          Array.blit cc 0 cc' 0 !pos;
          Array.blit cv 0 cv' 0 !pos;
          cc'.(!pos) <- r;
          cv'.(!pos) <- x;
          Array.blit cc !pos cc' (!pos + 1) (len - !pos);
          Array.blit cv !pos cv' (!pos + 1) (len - !pos);
          t.col_rows.(j) <- cc';
          t.col_vals.(j) <- cv'
        end
      in
      while !p < olen || !q < nlen do
        if !q >= nlen || (!p < olen && oc.(!p) < wcols.(!q)) then begin
          (* Cell disappeared. *)
          touch oc.(!p);
          col_remove oc.(!p);
          incr p
        end
        else if !p >= olen || wcols.(!q) < oc.(!p) then begin
          (* New cell. *)
          touch wcols.(!q);
          col_set wcols.(!q) nvals.(!q);
          incr q
        end
        else begin
          if ov.(!p) <> nvals.(!q) then begin
            touch oc.(!p);
            col_set oc.(!p) nvals.(!q)
          end;
          incr p;
          incr q
        end
      done;
      t.row_cols.(r) <- wcols;
      t.row_vals.(r) <- nvals)
    dirty;
  !n_marked

let incremental_tick t ?domains () =
  let dirty_rows = Window.last_dirty t.win in
  let n_dirty_vertices = patch_mirrors t dirty_rows in
  (* Feature-dirty vertices, ascending. *)
  let dirty = Array.make n_dirty_vertices 0 in
  let cursor = ref 0 in
  for v = 0 to t.n - 1 do
    if t.mark.(v) then begin
      dirty.(!cursor) <- v;
      incr cursor
    end
  done;
  (* Norms first: every dirty vertex's feature vector changed. *)
  Array.iter
    (fun v ->
      let na = ref 0. in
      Array.iter (fun x -> na := !na +. (x *. x)) t.row_vals.(v);
      Array.iter (fun x -> na := !na +. (x *. x)) t.col_vals.(v);
      t.norms.(v) <- !na)
    dirty;
  (* New projection rows for all dirty vertices.  Rows only read the
     (already fully updated) mirrors, so they can be computed in
     parallel slices; results are combined in ascending-vertex order,
     making the output independent of the domain count. *)
  let new_rows =
    let nd = Array.length dirty in
    let domains =
      max 1 (min (match domains with Some d -> d | None -> Par.default_domains ()) nd)
    in
    if domains = 1 || nd < 128 then
      Array.map (fun u -> sim_row t t.acc t.touched u) dirty
    else begin
      let chunk = (nd + domains - 1) / domains in
      let slices =
        List.init domains (fun s ->
            (s * chunk, min nd ((s + 1) * chunk)))
      in
      let parts =
        Par.map ~domains
          (fun (lo, hi) ->
            if hi <= lo then [||]
            else begin
              let acc = Array.make t.n 0. in
              let touched = Array.make t.n 0 in
              Array.init (hi - lo) (fun i -> sim_row t acc touched dirty.(lo + i))
            end)
          slices
      in
      Array.concat parts
    end
  in
  (* Replace dirty rows and emit symmetric patches towards clean
     partners, bucketed per partner so each partner row is rebuilt at
     most once. *)
  let front = t.mark2 in
  let n_front = ref 0 in
  let wake v =
    if not front.(v) then begin
      front.(v) <- true;
      incr n_front
    end
  in
  let patched = ref [] in
  let patch_edge v u x =
    if not t.mark.(v) then begin
      (* Partners being replaced wholesale need no patch. *)
      if t.patch.(v) = [] then patched := v :: !patched;
      t.patch.(v) <- (u, x) :: t.patch.(v)
    end;
    wake v
  in
  Array.iteri
    (fun idx u ->
      let ncols, nvals = new_rows.(idx) in
      let oc = t.g_cols.(u) and ov = t.g_vals.(u) in
      let olen = Array.length oc and nlen = Array.length ncols in
      let p = ref 0 and q = ref 0 in
      let changed = ref false in
      while !p < olen || !q < nlen do
        if !q >= nlen || (!p < olen && oc.(!p) < ncols.(!q)) then begin
          changed := true;
          patch_edge oc.(!p) u (-1.);
          incr p
        end
        else if !p >= olen || ncols.(!q) < oc.(!p) then begin
          changed := true;
          patch_edge ncols.(!q) u nvals.(!q);
          incr q
        end
        else begin
          if ov.(!p) <> nvals.(!q) then begin
            changed := true;
            patch_edge oc.(!p) u nvals.(!q)
          end;
          incr p;
          incr q
        end
      done;
      if !changed then wake u;
      t.g_cols.(u) <- ncols;
      t.g_vals.(u) <- nvals;
      let s = ref 0. in
      Array.iter (fun v -> s := !s +. v) nvals;
      t.deg.(u) <- !s)
    dirty;
  List.iter
    (fun v ->
      let ops = List.rev t.patch.(v) in
      t.patch.(v) <- [];
      apply_patches t v ops)
    !patched;
  let m2 = ref 0. in
  for i = 0 to t.n - 1 do
    m2 := !m2 +. t.deg.(i)
  done;
  t.m2 <- !m2;
  (* Frontier (ascending) for the seeded local-moving pass. *)
  let frontier = Array.make !n_front 0 in
  let cursor = ref 0 in
  for v = 0 to t.n - 1 do
    if front.(v) then begin
      frontier.(!cursor) <- v;
      incr cursor;
      front.(v) <- false
    end
  done;
  Array.fill t.mark 0 t.n false;
  (dirty_rows, dirty, frontier)

let cluster_incremental t frontier =
  let resolution = t.cfg.resolution in
  if Array.length frontier = 0 then (0, false)
  else begin
    let raw, moved =
      Louvain.refine_seeded ~resolution ~n:t.n ~k:t.deg ~m2:t.m2
        ~iter_neighbours:(iter_neighbours t) ~seed:t.labels ~frontier ()
    in
    if moved = 0 then (0, false)
    else begin
      let lab1 = Louvain.renumber raw in
      let nc1 = 1 + Array.fold_left max 0 lab1 in
      let labels =
        if nc1 >= t.n then lab1
        else begin
          (* Continue the aggregation cascade exactly as cluster_csr
             would: collapse, re-cluster the coarse graph, compose. *)
          let acc = Array.make (nc1 * nc1) 0. in
          for i = 0 to t.n - 1 do
            let gc = t.g_cols.(i) and gv = t.g_vals.(i) in
            let row = lab1.(i) * nc1 in
            for p = 0 to Array.length gc - 1 do
              let idx = row + lab1.(gc.(p)) in
              acc.(idx) <- acc.(idx) +. gv.(p)
            done
          done;
          let rows =
            Array.init nc1 (fun a ->
                let cells = ref [] in
                for b = nc1 - 1 downto 0 do
                  let v = acc.((a * nc1) + b) in
                  if v > 0. then cells := (b, v) :: !cells
                done;
                !cells)
          in
          let coarse = Csr.of_row_lists ~n:nc1 rows in
          let lab2 = Louvain.cluster_csr ~resolution coarse in
          Louvain.renumber (Array.map (fun l1 -> lab2.(l1)) lab1)
        end
      in
      set_labels t labels;
      (moved, true)
    end
  end

(* ------------------------------------------------------------------ *)

(* The batch pipeline over the same window is the oracle: bitwise for
   the mean, its mirrors, the similarity graph and the guarantee peaks;
   exact labels after a full (or fallback) tick, AMI >= [ami_parity]
   otherwise — seeded refinement may settle in a different optimum. *)
let verify t =
  if t.tick = 0 then Ok ()
  else begin
    let ( let* ) = Result.bind in
    let check what ok =
      if ok then Ok ()
      else
        Error (Printf.sprintf "Stream.verify: %s diverged from batch" what)
    in
    let epochs = Window.epochs t.win in
    let mean_ref = Traffic_matrix.mean_csr (Traffic_matrix.of_epochs epochs) in
    let* () = check "windowed mean" (Csr.equal (Window.mean t.win) mean_ref) in
    let* () =
      check "mean mirrors"
        (Csr.equal
           (Csr.of_sorted_rows ~n:t.n
              (Array.init t.n (fun i -> (t.row_cols.(i), t.row_vals.(i)))))
           mean_ref)
    in
    let graph_ref = Similarity.projection_csr mean_ref in
    let* () = check "similarity graph" (Csr.equal (projection t) graph_ref) in
    let labels_ref =
      Louvain.cluster_csr ~resolution:t.cfg.resolution graph_ref
    in
    let* () =
      if t.last_full then check "labels" (t.labels = labels_ref)
      else
        let ami = Ami.ami t.labels labels_ref in
        if ami >= t.cfg.ami_parity then Ok ()
        else
          Error
            (Printf.sprintf
               "Stream.verify: incremental labels drifted from batch (AMI \
                %.3f < %.3f)"
               ami t.cfg.ami_parity)
    in
    let sizes_ref, peaks_ref = Infer.component_peaks epochs t.labels in
    let* () = check "component sizes" (t.sizes = sizes_ref) in
    check "guarantee peaks" (t.peaks = peaks_ref)
  end

let guarantee_shift t =
  if t.ncomp <> t.neg_ncomp then infinity
  else begin
    let worst = ref 0. in
    let nc2 = t.ncomp * t.ncomp in
    for idx = 0 to nc2 - 1 do
      let p = t.peaks.(idx) and p0 = t.neg_peaks.(idx) in
      let d =
        if p0 > 0. then Float.abs (p -. p0) /. p0 else if p > 0. then 1. else 0.
      in
      if d > !worst then worst := d
    done;
    !worst
  end

let push ?domains t epoch =
  Span.with_ "infer.stream.push" (fun () ->
      let prev_labels = t.labels in
      let prev_started = t.tick > 0 in
      Window.push t.win epoch;
      t.tick <- t.tick + 1;
      let warm = Window.pushes t.win <= t.cfg.window in
      let dirty_rows = Window.last_dirty t.win in
      let run_full_pipeline =
        (not prev_started) || warm
        || float_of_int (Array.length dirty_rows)
           >= t.cfg.dirty_full *. float_of_int t.n
      in
      let full, fallback, n_dirty_rows, n_dirty, n_frontier, moved, q =
        if run_full_pipeline then begin
          let q = full_tick t in
          (true, false, Array.length dirty_rows, t.n, t.n, 0, q)
        end
        else begin
          let rows, dirty, frontier = incremental_tick t ?domains () in
          let moved, labels_changed = cluster_incremental t frontier in
          let q =
            Louvain.modularity_graph ~resolution:t.cfg.resolution ~n:t.n
              ~k:t.deg ~m2:t.m2 ~iter_neighbours:(iter_neighbours t) t.labels
          in
          let fallback = q < t.q_ref -. t.cfg.fallback_bound in
          if fallback then begin
            (* Quality degraded past the bound: re-cluster the (exact)
               incremental graph from scratch and re-anchor q_ref. *)
            let graph = projection t in
            let labels = Louvain.cluster_csr ~resolution:t.cfg.resolution graph in
            set_labels t labels;
            let q =
              Louvain.modularity_graph ~resolution:t.cfg.resolution ~n:t.n
                ~k:t.deg ~m2:t.m2 ~iter_neighbours:(iter_neighbours t) t.labels
            in
            t.q_ref <- q;
            if t.labels = prev_labels && not labels_changed then
              update_guarantees_partial t epoch dirty
            else rebuild_guarantees t;
            (false, true, Array.length rows, Array.length dirty,
             Array.length frontier, moved, q)
          end
          else begin
            t.q_ref <- Float.max t.q_ref q;
            if labels_changed && not (t.labels = prev_labels) then
              rebuild_guarantees t
            else begin
              (* Partition unchanged (possibly after canonical
                 renumbering); only rate-dirty components move. *)
              if labels_changed then set_labels t prev_labels;
              t.labels <- prev_labels;
              update_guarantees_partial t epoch dirty
            end;
            (false, false, Array.length rows, Array.length dirty,
             Array.length frontier, moved, q)
          end
        end
      in
      (* Drift detection. *)
      let label_churn =
        if not prev_started then 0.
        else if Array.length prev_labels <> t.n then 1.
        else begin
          let d = ref 0 in
          for i = 0 to t.n - 1 do
            if prev_labels.(i) <> t.labels.(i) then incr d
          done;
          float_of_int !d /. float_of_int t.n
        end
      in
      let ami_prev =
        if not prev_started then 1. else Ami.ami prev_labels t.labels
      in
      let shift = guarantee_shift t in
      let drift =
        if warm || t.neg_ncomp < 0 then begin
          (* Warm-up (or first) tick: renegotiate silently to establish
             the baseline. *)
          t.neg_peaks <- Array.copy t.peaks;
          t.neg_ncomp <- t.ncomp;
          None
        end
        else begin
          let cause =
            if t.ncomp <> t.neg_ncomp then Some Dimension_change
            else if label_churn >= t.cfg.churn_threshold then Some Label_churn
            else if shift >= t.cfg.shift_threshold then Some Guarantee_shift
            else None
          in
          match cause with
          | None -> None
          | Some cause ->
              let ev =
                {
                  at = t.tick - 1;
                  cause;
                  churn = label_churn;
                  shift = (if shift = infinity then -1. else shift);
                  components = t.ncomp;
                }
              in
              t.events <- ev :: t.events;
              t.neg_peaks <- Array.copy t.peaks;
              t.neg_ncomp <- t.ncomp;
              Metrics.incr mt_drift;
              Some ev
        end
      in
      t.last_full <- full || fallback;
      Metrics.incr mt_ticks;
      if full then Metrics.incr mt_full;
      if fallback then Metrics.incr mt_fallbacks;
      if moved > 0 then Metrics.incr ~by:moved mt_moves;
      (match t.series with
      | None -> ()
      | Some p ->
          (* Series rings are process-global and their x axis must stay
             monotone, so sampling is per-instance opt-in under a caller
             chosen prefix: two engines sharing a name would interleave
             restarted tick axes. *)
          let x = float_of_int (t.tick - 1) in
          Series.sample_named (p ^ ".label_churn") ~x label_churn;
          Series.sample_named (p ^ ".ami_prev") ~x ami_prev;
          Series.sample_named (p ^ ".dirty_frac") ~x
            (float_of_int n_dirty /. float_of_int t.n);
          Series.sample_named (p ^ ".modularity") ~x q);
      {
        tick = t.tick - 1;
        full;
        fallback;
        dirty_rows = n_dirty_rows;
        dirty_vertices = n_dirty;
        frontier = n_frontier;
        moved;
        label_churn;
        ami_prev;
        modularity = q;
        drift;
      })
