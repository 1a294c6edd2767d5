module Csr = Cm_util.Csr
module Window = Cm_util.Csr.Window
module Par = Cm_util.Par
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
  (* Row-part cache: per vertex, the partners sharing one of its row
     dims (ascending) with the positive partial dot over the row dims
     alone — the prefix [sim_row] accumulates before any column dim.
     Symmetric, and valid from the first incremental tick after a full
     one (which rebuilds it) until the next full one. *)
  rp_cols : int array array;
  rp_vals : float array array;
  mutable rp_valid : bool;
  row_dirty : bool array;  (* rows being refreshed this tick *)
  (* Similarity graph as mutable per-vertex sorted adjacency, with its
     weighted degrees; rows are patched in place between full ticks. *)
  mutable g : Louvain.graph;
  fr : Louvain.frame;  (* clustering scratch *)
  mutable labels : int array;  (* canonical 0..ncomp-1 *)
  mutable ncomp : int;
  mutable sizes : int array;
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
  (* Scatter frames.  [scr.(0)] serves the single-threaded paths; slice
     [s] of a parallel similarity pass uses [scr.(s)]. *)
  mutable scr : Scatter.t array;
  mark : bool array;
  mark2 : bool array;
  (* Pending structural patches (an edge appears or disappears) towards
     clean partners, in emission order: partner, source vertex, new
     weight ([-1.] = remove).  Reweighed edges are patched in place. *)
  mutable pv : int array;
  mutable pu : int array;
  mutable px : float array;
  mutable np : int;
  (* Per-partner bucketing of the patches into [su]/[sx]: [plist] lists
     the partners that received any, in first-patch order, and their
     segments follow one another in that order; [pcount] counts, then
     serves as each segment's fill cursor. *)
  pcount : int array;
  plist : int array;
  mutable su : int array;
  mutable sx : float array;
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
    rp_cols = Array.make n [||];
    rp_vals = Array.make n [||];
    rp_valid = false;
    row_dirty = Array.make n false;
    g =
      {
        Louvain.n;
        cols = Array.make n [||];
        vals = Array.make n [||];
        k = Array.make n 0.;
        m2 = 0.;
      };
    fr = Louvain.make_frame n;
    labels = [||];
    ncomp = 0;
    sizes = [||];
    q_ref = neg_infinity;
    slot_aggs = Array.make config.window [||];
    peaks = [||];
    neg_peaks = [||];
    neg_ncomp = -1;
    tick = 0;
    events = [];
    last_full = false;
    scr = [| Scatter.create n |];
    mark = Array.make n false;
    mark2 = Array.make n false;
    pv = Array.make n 0;
    pu = Array.make n 0;
    px = Array.make n 0.;
    np = 0;
    pcount = Array.make n 0;
    plist = Array.make n 0;
    su = Array.make n 0;
    sx = Array.make n 0.;
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

(* First index of the ascending [a] whose entry is > [i]. *)
let past (a : int array) i =
  let lo = ref 0 and hi = ref (Array.length a) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if a.(mid) <= i then lo := mid + 1 else hi := mid
  done;
  !lo

(* Per-vertex sorted rows as a CSR matrix.
   @raise Invalid_argument when a row breaks the CSR contract. *)
let rows_csr n (cols : int array array) (vals : float array array) =
  Csr.of_sorted_rows ~n (Array.init n (fun i -> (cols.(i), vals.(i))))

(* The similarity graph as a CSR matrix, both halves as stored —
   bit-identical to [Similarity.projection_csr ~prescale:false] of the mean
   (asserted by [verify]). *)
let projection t =
  started t;
  rows_csr t.n t.g.Louvain.cols t.g.Louvain.vals

let peaks t =
  started t;
  (Array.copy t.sizes, Array.copy t.peaks)

let tag t =
  started t;
  Infer.tag_of_peaks ~sizes:t.sizes t.peaks

(* ------------------------------------------------------------------ *)
(* Full (from-scratch) products: used during warm-up and past the
   dirty-fraction bound.                                               *)

(* Squared feature norm of [v]: row support then column support,
   ascending — the accumulation order of [projection_csr]. *)
let refresh_norm t v =
  let rv = t.row_vals.(v) and cv = t.col_vals.(v) in
  let na = ref 0. in
  for p = 0 to Array.length rv - 1 do
    na := !na +. (rv.(p) *. rv.(p))
  done;
  for p = 0 to Array.length cv - 1 do
    na := !na +. (cv.(p) *. cv.(p))
  done;
  t.norms.(v) <- !na

(* Weighted degree of [v] from its adjacency row, ascending. *)
let refresh_deg t v =
  let gv = t.g.Louvain.vals.(v) in
  let s = ref 0. in
  for p = 0 to Array.length gv - 1 do
    s := !s +. gv.(p)
  done;
  t.g.Louvain.k.(v) <- !s

let load_mirrors t (mean : Csr.t) =
  let mt = Csr.transpose mean in
  for i = 0 to t.n - 1 do
    let lo = mean.Csr.row_ptr.(i) and hi = mean.Csr.row_ptr.(i + 1) in
    t.row_cols.(i) <- Array.sub mean.Csr.col_idx lo (hi - lo);
    t.row_vals.(i) <- Array.sub mean.Csr.values lo (hi - lo);
    let lo = mt.Csr.row_ptr.(i) and hi = mt.Csr.row_ptr.(i + 1) in
    t.col_rows.(i) <- Array.sub mt.Csr.col_idx lo (hi - lo);
    t.col_vals.(i) <- Array.sub mt.Csr.values lo (hi - lo);
    refresh_norm t i
  done

let set_labels t labels =
  t.labels <- labels;
  let nc = 1 + Array.fold_left max 0 labels in
  t.ncomp <- nc;
  let sizes = Array.make nc 0 in
  Array.iter (fun l -> sizes.(l) <- sizes.(l) + 1) labels;
  t.sizes <- sizes

let ensure_agg t size =
  for s = 0 to t.cfg.window - 1 do
    if Array.length t.slot_aggs.(s) <> size then
      t.slot_aggs.(s) <- Array.make size 0.
  done;
  if Array.length t.peaks <> size then t.peaks <- Array.make size 0.

let aggregate_into t (agg : float array) (epoch : Csr.t) =
  Array.fill agg 0 (Array.length agg) 0.;
  let nc = t.ncomp and labels = t.labels in
  let rp = epoch.Csr.row_ptr and ci = epoch.Csr.col_idx in
  let v = epoch.Csr.values in
  for i = 0 to epoch.Csr.n - 1 do
    let row = labels.(i) * nc in
    for p = rp.(i) to rp.(i + 1) - 1 do
      let idx = row + labels.(ci.(p)) in
      agg.(idx) <- agg.(idx) +. v.(p)
    done
  done

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

(* Incremental guarantee maintenance, for ticks that keep the labels:
   only the incoming epoch's slot is re-aggregated (O(nnz) of one
   epoch).  Every older slot was aggregated under these same labels —
   a tick that changes them rebuilds all slots — and its epoch has not
   changed since, so it already holds [Infer.component_peaks]'s bits. *)
let update_guarantees_partial t (epoch : Csr.t) =
  aggregate_into t t.slot_aggs.((t.tick - 1) mod t.cfg.window) epoch;
  refresh_peaks t

(* ------------------------------------------------------------------ *)
(* Delta similarity.                                                   *)

(* Map [f scr] over [ids] in parallel slices, slice [s] on scratch
   [t.scr.(s)].  The rows only read state no slice writes, and results
   come back in [ids] order, so the output does not depend on the
   domain count. *)
let par_rows t ?domains f ids =
  let nd = Array.length ids in
  let domains =
    max 1 (min (match domains with Some d -> d | None -> Par.default_domains ()) nd)
  in
  if domains = 1 || nd < 128 then Array.map (f t.scr.(0)) ids
  else begin
    if Array.length t.scr < domains then
      t.scr <-
        Array.init domains (fun s ->
            if s < Array.length t.scr then t.scr.(s) else Scatter.create t.n);
    let chunk = (nd + domains - 1) / domains in
    let slices =
      List.init domains (fun s -> (s, s * chunk, min nd ((s + 1) * chunk)))
    in
    let parts =
      Par.map ~domains
        (fun (s, lo, hi) ->
          if hi <= lo then [||]
          else
            let scr = t.scr.(s) in
            Array.init (hi - lo) (fun i -> f scr ids.(lo + i)))
        slices
    in
    Array.concat parts
  end

(* [u]'s row part against the current mean mirrors: scatter its row
   dims ascending over their owners (only owners [j > u] when [above]),
   then stage the positive partial dots, ascending partner, in the
   frame's staging arrays.  Returns the staged count.  The partial dot
   of a pair is the same bits from either side: both walk the common
   row dims in ascending order and IEEE multiplication commutes. *)
let stage_row_part t fr u ~above =
  let rc = t.row_cols.(u) and rv = t.row_vals.(u) in
  for p = 0 to Array.length rc - 1 do
    let oc = t.col_rows.(rc.(p)) in
    Scatter.add fr ~skip:u rv p oc t.col_vals.(rc.(p))
      (if above then past oc u else 0)
      (Array.length oc)
  done;
  Scatter.emit_positive fr

(* [u]'s upper row part (partners [j > u]), for the rebuild. *)
let upper_row_part t fr u =
  Scatter.take fr (stage_row_part t fr u ~above:true)

(* [u]'s fresh row part.  When the partner set is unchanged the values
   overwrite [u]'s cached array in place and the cached arrays come back
   (physically); otherwise new arrays do.  Writes only [u]'s own cache
   row, so slices may run it in parallel. *)
let fresh_row_part t fr u =
  let e = stage_row_part t fr u ~above:false in
  let oc = t.rp_cols.(u) in
  let same = ref (Array.length oc = e) in
  let p = ref 0 in
  while !same && !p < e do
    if oc.(!p) <> (Scatter.cols fr).(!p) then same := false;
    incr p
  done;
  if !same then begin
    Array.blit (Scatter.vals fr) 0 t.rp_vals.(u) 0 e;
    (oc, t.rp_vals.(u))
  end
  else Scatter.take fr e

(* Recompute VM [u]'s full projection row against the current mean
   mirrors via the inverted index, in [projection_csr]'s accumulation
   order: the row dims first, whose partial dots the row-part cache
   already holds (so the accumulator starts from them: [1. *. x = x]),
   then the column dims ascending.  For any pair this sums the same
   common terms in the same order as [Similarity.projection_csr]
   (multiply operand order differs per side, but IEEE multiplication
   commutes bitwise), so edge values are exact. *)
let one = [| 1. |]

let sim_row t fr u =
  let pc = t.rp_cols.(u) in
  Scatter.add fr ~skip:u one 0 pc t.rp_vals.(u) 0 (Array.length pc);
  let cc = t.col_rows.(u) and cv = t.col_vals.(u) in
  for p = 0 to Array.length cc - 1 do
    let oc = t.row_cols.(cc.(p)) in
    Scatter.add fr ~skip:u cv p oc t.row_vals.(cc.(p)) 0 (Array.length oc)
  done;
  Scatter.take fr (Scatter.emit_angular fr ~norms:t.norms u)

let grow_patches t =
  let grow a fill =
    let b = Array.make (2 * Array.length a) fill in
    Array.blit a 0 b 0 t.np;
    b
  in
  t.pv <- grow t.pv 0;
  t.pu <- grow t.pu 0;
  t.px <- grow t.px 0.

(* Queue the structural patch "edge (v, u) now weighs [x]" ([x < 0.]:
   removed) for clean partner [v].  Inlined so [x] is not boxed. *)
let[@inline] add_patch t v u x =
  if t.np = Array.length t.pv then grow_patches t;
  t.pv.(t.np) <- v;
  t.pu.(t.np) <- u;
  t.px.(t.np) <- x;
  t.np <- t.np + 1

(* Edge (v, u) appeared with weight [x] or disappeared ([x < 0.]) as
   row [u] was replaced: wake [v] for the seeded pass and, unless [v]'s
   own row is being replaced wholesale, queue the symmetric patch. *)
let[@inline] patch_edge t v u x =
  if not t.mark.(v) then add_patch t v u x;
  t.mark2.(v) <- true

(* Edge (v, u) kept its place but now weighs [src.(q)]: wake [v] and,
   unless [v]'s row is being replaced, overwrite the weight in place
   (the graph is symmetric, so [u] is in [v]'s row).  Partner rows are
   owned by the engine, so nothing else sees the write. *)
let reweigh_edge t v u (src : float array) q =
  if not t.mark.(v) then begin
    let gc = t.g.Louvain.cols.(v) in
    let lo = ref 0 and hi = ref (Array.length gc - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if gc.(mid) < u then lo := mid + 1 else hi := mid
    done;
    assert (gc.(!lo) = u);
    t.g.Louvain.vals.(v).(!lo) <- src.(q)
  end;
  t.mark2.(v) <- true

(* Merge partner [v]'s queued patches [t.su/t.sx.(lo .. hi - 1)]
   (ascending source vertex) into its adjacency row, staging the result
   in the sequential scratch. *)
let apply_patches t v lo hi =
  let oc = t.g.Louvain.cols.(v) and ov = t.g.Louvain.vals.(v) in
  let olen = Array.length oc in
  let cols = Scatter.cols t.scr.(0) and vals = Scatter.vals t.scr.(0) in
  let out = ref 0 in
  let p = ref 0 in
  for q = lo to hi - 1 do
    let u = t.su.(q) and x = t.sx.(q) in
    while !p < olen && oc.(!p) < u do
      cols.(!out) <- oc.(!p);
      vals.(!out) <- ov.(!p);
      incr out;
      incr p
    done;
    if !p < olen && oc.(!p) = u then incr p;
    if x >= 0. then begin
      cols.(!out) <- u;
      vals.(!out) <- x;
      incr out
    end
  done;
  let rest = olen - !p in
  Array.blit oc !p cols !out rest;
  Array.blit ov !p vals !out rest;
  t.g.Louvain.cols.(v) <- Array.sub cols 0 (!out + rest);
  t.g.Louvain.vals.(v) <- Array.sub vals 0 (!out + rest)

(* Bucket the queued patches by partner (a stable counting sort, so each
   partner's patches stay in ascending source order) and apply them. *)
let flush_patches t =
  let count = t.pcount and plist = t.plist in
  let npl = ref 0 in
  for e = 0 to t.np - 1 do
    let v = t.pv.(e) in
    if count.(v) = 0 then begin
      plist.(!npl) <- v;
      incr npl
    end;
    count.(v) <- count.(v) + 1
  done;
  if Array.length t.su < t.np then begin
    t.su <- Array.make (Array.length t.pv) 0;
    t.sx <- Array.make (Array.length t.pv) 0.
  end;
  let off = ref 0 in
  for q = 0 to !npl - 1 do
    let v = plist.(q) in
    let c = count.(v) in
    count.(v) <- !off;
    off := !off + c
  done;
  for e = 0 to t.np - 1 do
    let v = t.pv.(e) in
    let q = count.(v) in
    t.su.(q) <- t.pu.(e);
    t.sx.(q) <- t.px.(e);
    count.(v) <- q + 1
  done;
  (* Each cursor now sits at the end of its segment, which is where
     the next partner's segment starts. *)
  let lo = ref 0 in
  for q = 0 to !npl - 1 do
    let v = plist.(q) in
    apply_patches t v !lo count.(v);
    lo := count.(v);
    count.(v) <- 0
  done;
  t.np <- 0

(* ------------------------------------------------------------------ *)

let full_tick t =
  let mean = Window.mean t.win in
  load_mirrors t mean;
  t.rp_valid <- false;
  t.g <- Louvain.of_csr (Similarity.projection_csr ~prescale:false mean);
  let resolution = t.cfg.resolution in
  let labels = Louvain.cluster ~resolution ~frame:t.fr t.g in
  set_labels t labels;
  let q = Louvain.modularity ~resolution t.g labels in
  t.q_ref <- q;
  rebuild_guarantees t;
  q

(* Sparse-row edits on a mirror ([idx]/[vals] per row, ascending
   indices): drop row [j]'s cell [r], or set it to [src.(q)] (inserting
   it in ascending position if absent).  The new value travels as array
   and index so no float is boxed per call. *)
let cell_remove (idx : int array array) (vals : float array array) j r =
  let cc = idx.(j) and cv = vals.(j) in
  let len = Array.length cc in
  let at = ref (-1) in
  let lo = ref 0 and hi = ref (len - 1) in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    if cc.(mid) = r then begin
      at := mid;
      lo := !hi + 1
    end
    else if cc.(mid) < r then lo := mid + 1
    else hi := mid - 1
  done;
  if !at >= 0 then begin
    let cc' = Array.make (len - 1) 0 and cv' = Array.make (len - 1) 0. in
    Array.blit cc 0 cc' 0 !at;
    Array.blit cc (!at + 1) cc' !at (len - 1 - !at);
    Array.blit cv 0 cv' 0 !at;
    Array.blit cv (!at + 1) cv' !at (len - 1 - !at);
    idx.(j) <- cc';
    vals.(j) <- cv'
  end

let cell_set (idx : int array array) (vals : float array array) j r
    (src : float array) q =
  let cc = idx.(j) and cv = vals.(j) in
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
  if !dup then cv.(!pos) <- src.(q)
  else begin
    let cc' = Array.make (len + 1) 0 and cv' = Array.make (len + 1) 0. in
    Array.blit cc 0 cc' 0 !pos;
    Array.blit cv 0 cv' 0 !pos;
    cc'.(!pos) <- r;
    cv'.(!pos) <- src.(q);
    Array.blit cc !pos cc' (!pos + 1) (len - !pos);
    Array.blit cv !pos cv' (!pos + 1) (len - !pos);
    idx.(j) <- cc';
    vals.(j) <- cv'
  end

(* Update the mean mirrors for the window's dirty rows, collecting the
   feature-dirty vertex set (dirty rows plus the owners of changed
   columns) into [t.mark].  Returns the number of dirty vertices. *)
let patch_mirrors t dirty =
  let mark = t.mark in
  let n_marked = ref 0 in
  let touch v =
    if not mark.(v) then begin
      mark.(v) <- true;
      incr n_marked
    end
  in
  for d = 0 to Array.length dirty - 1 do
    let r = dirty.(d) in
    touch r;
    let wcols, nvals = Window.mean_row t.win r in
    let nlen = Array.length wcols in
    let oc = t.row_cols.(r) and ov = t.row_vals.(r) in
    let olen = Array.length oc in
    (* Merge-diff old and new rows; patch the column mirror for every
       changed cell. *)
    let p = ref 0 and q = ref 0 in
    while !p < olen || !q < nlen do
      if !q >= nlen || (!p < olen && oc.(!p) < wcols.(!q)) then begin
        (* Cell disappeared. *)
        touch oc.(!p);
        cell_remove t.col_rows t.col_vals oc.(!p) r;
        incr p
      end
      else if !p >= olen || wcols.(!q) < oc.(!p) then begin
        (* New cell. *)
        touch wcols.(!q);
        cell_set t.col_rows t.col_vals wcols.(!q) r nvals !q;
        incr q
      end
      else begin
        if ov.(!p) <> nvals.(!q) then begin
          touch oc.(!p);
          cell_set t.col_rows t.col_vals oc.(!p) r nvals !q
        end;
        incr p;
        incr q
      end
    done;
    t.row_cols.(r) <- wcols;
    t.row_vals.(r) <- nvals
  done;
  !n_marked

(* Rebuild the row-part cache from scratch: each vertex scatters only
   its partners above it, and [Csr.of_upper] mirrors them below. *)
let rebuild_row_parts t ?domains () =
  let upper =
    par_rows t ?domains (upper_row_part t) (Array.init t.n Fun.id)
  in
  let g = Csr.of_upper ~n:t.n upper in
  for i = 0 to t.n - 1 do
    let lo = g.Csr.row_ptr.(i) and hi = g.Csr.row_ptr.(i + 1) in
    t.rp_cols.(i) <- Array.sub g.Csr.col_idx lo (hi - lo);
    t.rp_vals.(i) <- Array.sub g.Csr.values lo (hi - lo)
  done;
  t.rp_valid <- true

(* Install row [r]'s fresh row part [(nc, nv)] and patch its entry in
   every partner whose own row is clean (dirty rows were recomputed
   whole): overwrite or insert it where [r] is still a partner, remove
   it where [r] no longer is.  [nc] may be the cached array itself
   (support unchanged); the merge then only overwrites. *)
let patch_row_part t r (nc, nv) =
  let oc = t.rp_cols.(r) in
  let olen = Array.length oc and nlen = Array.length nc in
  let p = ref 0 and q = ref 0 in
  while !p < olen || !q < nlen do
    if !q >= nlen || (!p < olen && oc.(!p) < nc.(!q)) then begin
      if not t.row_dirty.(oc.(!p)) then
        cell_remove t.rp_cols t.rp_vals oc.(!p) r;
      incr p
    end
    else begin
      if not t.row_dirty.(nc.(!q)) then
        cell_set t.rp_cols t.rp_vals nc.(!q) r nv !q;
      if !p < olen && oc.(!p) = nc.(!q) then incr p;
      incr q
    end
  done;
  t.rp_cols.(r) <- nc;
  t.rp_vals.(r) <- nv

(* Bring the row-part cache up to date with the patched mirrors: only
   pairs involving a row in [rows] changed. *)
let refresh_row_parts t ?domains rows =
  if not t.rp_valid then rebuild_row_parts t ?domains ()
  else begin
    for d = 0 to Array.length rows - 1 do
      t.row_dirty.(rows.(d)) <- true
    done;
    let fresh = par_rows t ?domains (fresh_row_part t) rows in
    for d = 0 to Array.length rows - 1 do
      patch_row_part t rows.(d) fresh.(d)
    done;
    for d = 0 to Array.length rows - 1 do
      t.row_dirty.(rows.(d)) <- false
    done
  end

let incremental_tick t ?domains () =
  let dirty_rows = Window.last_dirty t.win in
  let n_dirty_vertices = patch_mirrors t dirty_rows in
  refresh_row_parts t ?domains dirty_rows;
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
  Array.iter (refresh_norm t) dirty;
  (* New projection rows for all dirty vertices. *)
  let new_rows = par_rows t ?domains (sim_row t) dirty in
  (* Replace dirty rows and emit symmetric patches towards clean
     partners, bucketed per partner so each partner row is rebuilt at
     most once. *)
  let front = t.mark2 in
  for idx = 0 to Array.length dirty - 1 do
    let u = dirty.(idx) in
    let ncols, nvals = new_rows.(idx) in
    let oc = t.g.Louvain.cols.(u) and ov = t.g.Louvain.vals.(u) in
    let olen = Array.length oc and nlen = Array.length ncols in
    let p = ref 0 and q = ref 0 in
    let changed = ref false in
    while !p < olen || !q < nlen do
      if !q >= nlen || (!p < olen && oc.(!p) < ncols.(!q)) then begin
        changed := true;
        patch_edge t oc.(!p) u (-1.);
        incr p
      end
      else if !p >= olen || ncols.(!q) < oc.(!p) then begin
        changed := true;
        patch_edge t ncols.(!q) u nvals.(!q);
        incr q
      end
      else begin
        if ov.(!p) <> nvals.(!q) then begin
          changed := true;
          reweigh_edge t oc.(!p) u nvals !q
        end;
        incr p;
        incr q
      end
    done;
    if !changed then front.(u) <- true;
    t.g.Louvain.cols.(u) <- ncols;
    t.g.Louvain.vals.(u) <- nvals;
    refresh_deg t u
  done;
  flush_patches t;
  (* The clean vertices woken above are exactly the patched partners. *)
  for v = 0 to t.n - 1 do
    if front.(v) && not t.mark.(v) then refresh_deg t v
  done;
  let m2 = ref 0. in
  for i = 0 to t.n - 1 do
    m2 := !m2 +. t.g.Louvain.k.(i)
  done;
  t.g.Louvain.m2 <- !m2;
  (* Frontier (ascending) for the seeded local-moving pass. *)
  let n_front = ref 0 in
  for v = 0 to t.n - 1 do
    if front.(v) then incr n_front
  done;
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

(* The seeded pass over the dirty frontier plus the aggregation
   cascade; returns the moves and whether the labels were replaced. *)
let cluster_incremental t frontier =
  if Array.length frontier = 0 then (0, false)
  else begin
    let labels, moved =
      Louvain.refine_seeded ~resolution:t.cfg.resolution ~frame:t.fr t.g
        ~seed:t.labels ~frontier
    in
    if moved = 0 then (0, false)
    else begin
      set_labels t labels;
      (moved, true)
    end
  end

(* ------------------------------------------------------------------ *)

(* The row-part cache [verify] expects: per VM, a fresh scatter of its
   row dims over the batch mean, keeping the positive partial dots. *)
let row_parts_ref (mean : Csr.t) =
  let n = mean.Csr.n in
  let mt = Csr.transpose mean in
  let acc = Array.make n 0. and seen = Array.make n false in
  Csr.of_sorted_rows ~n
    (Array.init n (fun i ->
         let partners = ref [] in
         for p = mean.Csr.row_ptr.(i) to mean.Csr.row_ptr.(i + 1) - 1 do
           let k = mean.Csr.col_idx.(p) and f = mean.Csr.values.(p) in
           for q = mt.Csr.row_ptr.(k) to mt.Csr.row_ptr.(k + 1) - 1 do
             let j = mt.Csr.col_idx.(q) in
             if j <> i then begin
               if not seen.(j) then begin
                 seen.(j) <- true;
                 partners := j :: !partners
               end;
               acc.(j) <- acc.(j) +. (f *. mt.Csr.values.(q))
             end
           done
         done;
         let kept =
           List.filter (fun j -> acc.(j) > 0.) (List.sort compare !partners)
         in
         let cols = Array.of_list kept in
         let vals = Array.map (fun j -> acc.(j)) cols in
         List.iter
           (fun j ->
             acc.(j) <- 0.;
             seen.(j) <- false)
           !partners;
         (cols, vals)))

(* The batch pipeline over the same window is the oracle: bitwise for
   the mean, its mirrors, the row-part cache (when valid), the
   similarity graph and the guarantee peaks;
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
    let rows_equal cols vals m =
      match rows_csr t.n cols vals with
      | rows -> Csr.equal rows m
      | exception Invalid_argument _ -> false
    in
    let* () = check "mean mirrors" (rows_equal t.row_cols t.row_vals mean_ref) in
    let* () =
      check "row-part cache"
        ((not t.rp_valid)
        || rows_equal t.rp_cols t.rp_vals (row_parts_ref mean_ref))
    in
    (* Every row in full: full ticks and fallbacks cluster both halves. *)
    let graph_ref = Similarity.projection_csr ~prescale:false mean_ref in
    let g = t.g in
    let* () =
      check "similarity graph"
        (rows_equal g.Louvain.cols g.Louvain.vals graph_ref)
    in
    let deg_ref = Csr.row_sums graph_ref in
    let* () =
      check "weighted degrees"
        (g.Louvain.k = deg_ref
        && g.Louvain.m2 = Array.fold_left ( +. ) 0. deg_ref)
    in
    let labels_ref =
      Louvain.cluster ~resolution:t.cfg.resolution (Louvain.of_csr graph_ref)
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
          let resolution = t.cfg.resolution in
          let q = Louvain.modularity ~resolution t.g t.labels in
          let fallback = q < t.q_ref -. t.cfg.fallback_bound in
          if fallback then begin
            (* Quality degraded past the bound: re-cluster the (exact)
               incremental graph from scratch and re-anchor q_ref. *)
            set_labels t (Louvain.cluster ~resolution ~frame:t.fr t.g);
            let q = Louvain.modularity ~resolution t.g t.labels in
            t.q_ref <- q;
            if t.labels = prev_labels && not labels_changed then
              update_guarantees_partial t epoch
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
              update_guarantees_partial t epoch
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
