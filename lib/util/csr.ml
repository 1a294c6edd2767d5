type t = {
  n : int;
  row_ptr : int array;
  col_idx : int array;
  values : float array;
}

let nnz t = t.row_ptr.(t.n)
let row_nnz t i = t.row_ptr.(i + 1) - t.row_ptr.(i)

let of_dense m =
  let n = Array.length m in
  Array.iter
    (fun row ->
      if Array.length row <> n then invalid_arg "Csr.of_dense: not square")
    m;
  let row_ptr = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    let c = ref 0 in
    Array.iter (fun v -> if v > 0. then incr c) m.(i);
    row_ptr.(i + 1) <- row_ptr.(i) + !c
  done;
  let k = row_ptr.(n) in
  let col_idx = Array.make k 0 and values = Array.make k 0. in
  let p = ref 0 in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if m.(i).(j) > 0. then begin
        col_idx.(!p) <- j;
        values.(!p) <- m.(i).(j);
        incr p
      end
    done
  done;
  { n; row_ptr; col_idx; values }

let to_dense t =
  let m = Array.make_matrix t.n t.n 0. in
  for i = 0 to t.n - 1 do
    for p = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
      m.(i).(t.col_idx.(p)) <- t.values.(p)
    done
  done;
  m

let of_row_lists ~n rows =
  if Array.length rows <> n then invalid_arg "Csr.of_row_lists: row count";
  (* Scratch accumulator shared by all rows: [acc] holds the running sum
     per touched column (values are positive once touched, so [0.] means
     untouched), [touched] the columns to reset afterwards. *)
  let acc = Array.make (max n 1) 0. in
  let seen = Array.make (max n 1) false in
  let compressed =
    Array.map
      (fun cells ->
        let touched = ref [] in
        List.iter
          (fun (j, d) ->
            if j < 0 || j >= n then
              invalid_arg
                (Printf.sprintf "Csr.of_row_lists: column %d out of range" j);
            if not seen.(j) then begin
              seen.(j) <- true;
              touched := j :: !touched
            end;
            acc.(j) <- acc.(j) +. d)
          cells;
        let cols = List.sort compare !touched in
        let entries =
          List.filter_map
            (fun j ->
              let v = acc.(j) in
              acc.(j) <- 0.;
              seen.(j) <- false;
              if v > 0. then Some (j, v) else None)
            cols
        in
        entries)
      rows
  in
  let row_ptr = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    row_ptr.(i + 1) <- row_ptr.(i) + List.length compressed.(i)
  done;
  let k = row_ptr.(n) in
  let col_idx = Array.make k 0 and values = Array.make k 0. in
  let p = ref 0 in
  Array.iter
    (List.iter (fun (j, v) ->
         col_idx.(!p) <- j;
         values.(!p) <- v;
         incr p))
    compressed;
  { n; row_ptr; col_idx; values }

let of_upper ~n upper =
  if Array.length upper <> n then invalid_arg "Csr.of_upper: row count";
  (* Per row: mirror count (entries arriving from rows above) and kept
     upper count, so the final arrays can be sized and filled without
     intermediate boxing. *)
  let mc = Array.make (max n 1) 0 in
  let uc = Array.make (max n 1) 0 in
  Array.iteri
    (fun i (cols, vals) ->
      if Array.length vals <> Array.length cols then
        invalid_arg "Csr.of_upper: cols/vals length mismatch";
      let prev = ref i in
      Array.iteri
        (fun p j ->
          if j <= !prev || j >= n then
            invalid_arg
              (Printf.sprintf
                 "Csr.of_upper: row %d: columns must ascend within (%d, %d)" i
                 i n);
          prev := j;
          if vals.(p) > 0. then begin
            uc.(i) <- uc.(i) + 1;
            mc.(j) <- mc.(j) + 1
          end)
        cols)
    upper;
  let row_ptr = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    row_ptr.(i + 1) <- row_ptr.(i) + mc.(i) + uc.(i)
  done;
  let k = row_ptr.(n) in
  let col_idx = Array.make k 0 and values = Array.make k 0. in
  (* Row i lays out its mirror entries (column < i) before its upper
     entries (column > i), both ascending: [cursor.(j)] walks row j's
     mirror block as the source rows arrive in ascending order. *)
  let cursor = Array.init n (fun i -> row_ptr.(i)) in
  Array.iteri
    (fun i (cols, vals) ->
      let q = ref (row_ptr.(i) + mc.(i)) in
      Array.iteri
        (fun p j ->
          let v = vals.(p) in
          if v > 0. then begin
            col_idx.(!q) <- j;
            values.(!q) <- v;
            incr q;
            col_idx.(cursor.(j)) <- i;
            values.(cursor.(j)) <- v;
            cursor.(j) <- cursor.(j) + 1
          end)
        cols)
    upper;
  { n; row_ptr; col_idx; values }

(* The contract of the constructors that adopt caller cells as they
   are: on [lo, hi), row [i]'s columns strictly ascend in [0, n) and
   every value is [> 0.] (NaN fails too). *)
let check_row who ~n i col_idx values lo hi =
  for p = lo to hi - 1 do
    let j = col_idx.(p) in
    if j < 0 || j >= n || (p > lo && j <= col_idx.(p - 1)) then
      invalid_arg
        (Printf.sprintf "%s: row %d: columns must strictly ascend in [0, %d)"
           who i n);
    if not (values.(p) > 0.) then invalid_arg (who ^ ": values must be > 0")
  done

let of_sorted_rows ~n rows =
  let who = "Csr.of_sorted_rows" in
  if Array.length rows <> n then invalid_arg (who ^ ": row count");
  let row_ptr = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    let cols, vals = rows.(i) in
    let len = Array.length cols in
    if Array.length vals <> len then
      invalid_arg (who ^ ": cols/vals length mismatch");
    check_row who ~n i cols vals 0 len;
    row_ptr.(i + 1) <- row_ptr.(i) + len
  done;
  let k = row_ptr.(n) in
  let col_idx = Array.make k 0 and values = Array.make k 0. in
  for i = 0 to n - 1 do
    let cols, vals = rows.(i) in
    Array.blit cols 0 col_idx row_ptr.(i) (Array.length cols);
    Array.blit vals 0 values row_ptr.(i) (Array.length vals)
  done;
  { n; row_ptr; col_idx; values }

let of_arrays ~n ~row_ptr ~col_idx ~values =
  let who = "Csr.of_arrays" in
  let fail what = invalid_arg (who ^ ": " ^ what) in
  if n < 0 || Array.length row_ptr <> n + 1 || row_ptr.(0) <> 0 then
    fail "row_ptr length or origin";
  let k = row_ptr.(n) in
  if Array.length col_idx <> k || Array.length values <> k then
    fail "entry count";
  for i = 0 to n - 1 do
    let lo = row_ptr.(i) and hi = row_ptr.(i + 1) in
    if hi < lo || hi > k then fail "row_ptr must be non-decreasing";
    check_row who ~n i col_idx values lo hi
  done;
  { n; row_ptr; col_idx; values }

let get t i j =
  let lo = ref t.row_ptr.(i) and hi = ref (t.row_ptr.(i + 1) - 1) in
  let found = ref 0. in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let c = t.col_idx.(mid) in
    if c = j then begin
      found := t.values.(mid);
      lo := !hi + 1
    end
    else if c < j then lo := mid + 1
    else hi := mid - 1
  done;
  !found

let iter_row t i f =
  for p = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
    f t.col_idx.(p) t.values.(p)
  done

let iter_nz t f =
  for i = 0 to t.n - 1 do
    for p = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
      f i t.col_idx.(p) t.values.(p)
    done
  done

let row_sums t =
  Array.init t.n (fun i ->
      let s = ref 0. in
      iter_row t i (fun _ v -> s := !s +. v);
      !s)

let total t =
  let s = ref 0. in
  for p = 0 to nnz t - 1 do
    s := !s +. t.values.(p)
  done;
  !s

let transpose t =
  let n = t.n in
  let k = nnz t in
  let row_ptr = Array.make (n + 1) 0 in
  for p = 0 to k - 1 do
    let j = t.col_idx.(p) in
    row_ptr.(j + 1) <- row_ptr.(j + 1) + 1
  done;
  for j = 1 to n do
    row_ptr.(j) <- row_ptr.(j) + row_ptr.(j - 1)
  done;
  let col_idx = Array.make k 0 and values = Array.make k 0. in
  let cursor = Array.copy row_ptr in
  (* Row-major scan of the source writes each transposed row in
     ascending source-row order, i.e. ascending transposed column. *)
  iter_nz t (fun i j v ->
      let p = cursor.(j) in
      cursor.(j) <- p + 1;
      col_idx.(p) <- i;
      values.(p) <- v);
  { n; row_ptr; col_idx; values }

let equal a b =
  a.n = b.n && a.row_ptr = b.row_ptr && a.col_idx = b.col_idx
  && a.values = b.values

module Window = struct
  type mat = t

  type w = {
    wn : int;
    cap : int;
    empty : mat;  (* stand-in predecessor for the very first epoch *)
    ring : mat array;  (* epoch [t] lives in slot [t mod cap] *)
    last_changed : int array;
        (* per row: the last epoch index whose row differed from its
           predecessor's row; [-1] = never non-empty.  A row is constant
           across epochs [lo .. t] iff [last_changed.(r) < lo]. *)
    rows_cols : int array array;  (* cached windowed per-row sums *)
    rows_vals : float array array;
    acc : float array;  (* recompute scratch, [0.] = untouched *)
    touched : int array;
    stmp : int array;  (* [Intsort] merge scratch for [touched] *)
    dbuf : int array;  (* dirty-row collection scratch *)
    mutable pushes : int;
    mutable dirty : int array;
    mutable recomputed : int;
  }

  let create ~n ~capacity =
    if n < 0 then invalid_arg "Csr.Window.create: n < 0";
    if capacity < 1 then invalid_arg "Csr.Window.create: capacity < 1";
    let empty =
      { n; row_ptr = Array.make (n + 1) 0; col_idx = [||]; values = [||] }
    in
    {
      wn = n;
      cap = capacity;
      empty;
      ring = Array.make capacity empty;
      last_changed = Array.make (max n 1) (-1);
      rows_cols = Array.make (max n 1) [||];
      rows_vals = Array.make (max n 1) [||];
      acc = Array.make (max n 1) 0.;
      touched = Array.make (max n 1) 0;
      stmp = Array.make (max n 1) 0;
      dbuf = Array.make (max n 1) 0;
      pushes = 0;
      dirty = [||];
      recomputed = 0;
    }

  let n w = w.wn
  let capacity w = w.cap
  let pushes w = w.pushes
  let length w = min w.pushes w.cap
  let divisor w = float_of_int (length w)

  let rows_differ (a : mat) (b : mat) r =
    let la = row_nnz a r and lb = row_nnz b r in
    if la <> lb then true
    else begin
      let pa = a.row_ptr.(r) and pb = b.row_ptr.(r) in
      let d = ref false in
      let q = ref 0 in
      while (not !d) && !q < la do
        if
          a.col_idx.(pa + !q) <> b.col_idx.(pb + !q)
          || a.values.(pa + !q) <> b.values.(pb + !q)
        then d := true;
        incr q
      done;
      !d
    end

  (* Re-fold epochs [lo .. hi] (chronological) of row [r] and store the
     result as the row's cached sums; returns whether they changed.  Per
     cell, contributions land in ascending epoch order, exactly the
     order [Traffic_matrix.mean_csr] uses, so the windowed mean read off
     these sums is bit-identical to a from-scratch mean over the same
     epochs.  An unchanged fold keeps the cached arrays, so it
     allocates nothing. *)
  let refold_row w lo hi r =
    let acc = w.acc and touched = w.touched in
    let nt = ref 0 in
    for t = lo to hi do
      let e = w.ring.(t mod w.cap) in
      let rp = e.row_ptr and ci = e.col_idx and v = e.values in
      for p = rp.(r) to rp.(r + 1) - 1 do
        let j = ci.(p) in
        if acc.(j) = 0. then begin
          touched.(!nt) <- j;
          incr nt
        end;
        acc.(j) <- acc.(j) +. v.(p)
      done
    done;
    let nt = !nt in
    Intsort.sort_prefix ~tmp:w.stmp touched nt;
    let oc = w.rows_cols.(r) and ov = w.rows_vals.(r) in
    let same = ref (Array.length oc = nt) in
    let p = ref 0 in
    while !same && !p < nt do
      let j = touched.(!p) in
      if oc.(!p) <> j || ov.(!p) <> acc.(j) then same := false;
      incr p
    done;
    if !same then begin
      for p = 0 to nt - 1 do
        acc.(touched.(p)) <- 0.
      done;
      false
    end
    else begin
      let cols = Array.sub touched 0 nt in
      let vals = Array.make nt 0. in
      for p = 0 to nt - 1 do
        vals.(p) <- acc.(cols.(p));
        acc.(cols.(p)) <- 0.
      done;
      w.rows_cols.(r) <- cols;
      w.rows_vals.(r) <- vals;
      true
    end

  let push w e =
    if e.n <> w.wn then invalid_arg "Csr.Window.push: dimension mismatch";
    let t = w.pushes in
    let prev = if t = 0 then w.empty else w.ring.((t - 1) mod w.cap) in
    for r = 0 to w.wn - 1 do
      if rows_differ e prev r then w.last_changed.(r) <- t
    done;
    w.ring.(t mod w.cap) <- e;
    w.pushes <- t + 1;
    let lo = max 0 (t - w.cap + 1) in
    (* While the window is still filling the divisor changes on every
       push, so all non-empty means move; once full, only rows with a
       change event inside the union of the outgoing and incoming
       windows ([lo - 1 .. t], i.e. [last_changed >= lo]) can have a
       different fold — everything else keeps its cached sums, which
       is what makes a quiet tick O(nnz of the delta). *)
    let warm = t < w.cap in
    w.recomputed <- 0;
    let nd = ref 0 in
    for r = 0 to w.wn - 1 do
      let candidate =
        if warm then row_nnz e r > 0 else w.last_changed.(r) >= lo
      in
      if candidate then begin
        w.recomputed <- w.recomputed + 1;
        if refold_row w lo t r && not warm then begin
          w.dbuf.(!nd) <- r;
          incr nd
        end
      end
    done;
    if warm then begin
      nd := 0;
      for r = 0 to w.wn - 1 do
        if Array.length w.rows_cols.(r) > 0 then begin
          w.dbuf.(!nd) <- r;
          incr nd
        end
      done
    end;
    w.dirty <- Array.sub w.dbuf 0 !nd

  let last_dirty w = w.dirty
  let last_recomputed w = w.recomputed

  (* A cached sum divided by the window length can underflow to [0.]
     (one [5e-324] cell over two epochs); such cells are dropped, as
     [Traffic_matrix.mean_csr] drops them, so the row keeps the CSR
     contract that stored values are [> 0].  The cached column array is
     shared when nothing is dropped. *)
  let mean_row w r =
    let k = divisor w in
    let cols = w.rows_cols.(r) and sums = w.rows_vals.(r) in
    let len = Array.length cols in
    let vals = Array.make len 0. in
    let kept = ref 0 in
    for q = 0 to len - 1 do
      let v = sums.(q) /. k in
      vals.(q) <- v;
      if v > 0. then incr kept
    done;
    if !kept = len then (cols, vals)
    else begin
      let kc = Array.make !kept 0 and kv = Array.make !kept 0. in
      let p = ref 0 in
      for q = 0 to len - 1 do
        if vals.(q) > 0. then begin
          kc.(!p) <- cols.(q);
          kv.(!p) <- vals.(q);
          incr p
        end
      done;
      (kc, kv)
    end

  let mean w =
    if w.pushes = 0 then invalid_arg "Csr.Window.mean: empty window";
    of_sorted_rows ~n:w.wn (Array.init w.wn (mean_row w))

  let epoch w i =
    let len = length w in
    if i < 0 || i >= len then invalid_arg "Csr.Window.epoch: index";
    w.ring.((w.pushes - len + i) mod w.cap)

  let epochs w = Array.init (length w) (epoch w)
end
