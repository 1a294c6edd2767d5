module Tag = Cm_tag.Tag
module Rng = Cm_util.Rng
module Csr = Cm_util.Csr

type t = {
  n_vms : int;
  truth : int array;
  truth_known : bool;
  epochs : Csr.t array;
}

let generate ?(epochs = 8) ?(imbalance = 0.8) ?(noise_rate = -1.)
    ?(noise_prob = 0.02) ~rng tag =
  let n = Tag.total_vms tag in
  let truth = Array.make n 0 in
  let first_vm = Array.make (Tag.n_components tag) 0 in
  let next = ref 0 in
  for c = 0 to Tag.n_components tag - 1 do
    first_vm.(c) <- !next;
    for _ = 1 to Tag.size tag c do
      truth.(!next) <- c;
      incr next
    done
  done;
  (* Mean legitimate pair rate, for scaling background noise. *)
  let mean_pair_rate =
    let total = ref 0. and pairs = ref 0 in
    Array.iter
      (fun (e : Tag.edge) ->
        let np =
          if e.src = e.dst then Tag.size tag e.src * (Tag.size tag e.src - 1)
          else Tag.size tag e.src * Tag.size tag e.dst
        in
        if np > 0 then begin
          total := !total +. Tag.b_total tag e;
          pairs := !pairs + np
        end)
      (Tag.edges tag);
    if !pairs = 0 then 1. else !total /. float_of_int !pairs
  in
  let noise_rate =
    if noise_rate < 0. then 0.02 *. mean_pair_rate else noise_rate
  in
  let sigma = imbalance in
  (* Log-normal factor with unit mean. *)
  let wobble_from r = Rng.log_normal r ~mu:(-.(sigma *. sigma) /. 2.) ~sigma in
  let make_epoch () =
    (* Per-row contribution lists in chronological order (kept reversed
       while building); Csr.of_row_lists sums duplicate cells in that
       order, matching the dense [m.(a).(b) <- m.(a).(b) +. d] history. *)
    let rows = Array.make n [] in
    let add a b d = rows.(a) <- (b, d) :: rows.(a) in
    (* Structural traffic: the edge-major scan (and therefore the wobble
       draw order on [rng]) is the same as the historical dense
       generator, so structural matrices reproduce bit-for-bit. *)
    Array.iter
      (fun (e : Tag.edge) ->
        if Tag.is_external tag e.src || Tag.is_external tag e.dst then
          (* External traffic never appears in the VM-to-VM matrix. *)
          ()
        else
          let ns = Tag.size tag e.src and nd = Tag.size tag e.dst in
          if e.src = e.dst then begin
            if ns > 1 then begin
              let pair = Tag.b_total tag e /. float_of_int (ns * (ns - 1)) in
              for i = 0 to ns - 1 do
                for j = 0 to ns - 1 do
                  if i <> j then
                    let a = first_vm.(e.src) + i
                    and b = first_vm.(e.src) + j in
                    add a b (pair *. wobble_from rng)
                done
              done
            end
          end
          else begin
            let pair = Tag.b_total tag e /. float_of_int (ns * nd) in
            for i = 0 to ns - 1 do
              for j = 0 to nd - 1 do
                let a = first_vm.(e.src) + i and b = first_vm.(e.dst) + j in
                add a b (pair *. wobble_from rng)
              done
            done
          end)
      (Tag.edges tag);
    (* Background chatter between unrelated VMs.  Instead of the n²
       Bernoulli scan (one uniform per ordered pair) we draw the gaps
       between noisy cells geometrically — identical in distribution,
       O(#noisy cells) draws.  The RNG-compatibility shim: noise draws
       come from a stream split off [rng] once per epoch, so the
       structural stream above is never perturbed (and noise_prob = 0
       leaves [rng] exactly where the legacy generator left it). *)
    if noise_prob > 0. && noise_rate > 0. then begin
      let nrng = Rng.split rng in
      if noise_prob >= 1. then
        (* Degenerate: every off-diagonal pair is noisy. *)
        for i = 0 to n - 1 do
          for j = 0 to n - 1 do
            if i <> j then add i j (noise_rate *. wobble_from nrng)
          done
        done
      else begin
        let lq = log1p (-.noise_prob) in
        for i = 0 to n - 1 do
          (* Walk the n-1 eligible columns (diagonal excluded) of row i:
             positions of noisy cells are i.i.d. Bernoulli(noise_prob),
             so the gap to the next one is geometric. *)
          let pos = ref (-1) in
          let continue = ref (n > 1) in
          while !continue do
            let g = log1p (-.Rng.uniform nrng) /. lq in
            if g >= float_of_int n then continue := false
            else begin
              pos := !pos + 1 + int_of_float g;
              if !pos >= n - 1 then continue := false
              else
                let j = if !pos >= i then !pos + 1 else !pos in
                add i j (noise_rate *. wobble_from nrng)
            end
          done
        done
      end
    end;
    Csr.of_row_lists ~n (Array.map List.rev rows)
  in
  {
    n_vms = n;
    truth;
    truth_known = true;
    epochs = Array.init epochs (fun _ -> make_epoch ());
  }

let of_epochs ?truth epochs =
  if Array.length epochs = 0 then invalid_arg "Traffic_matrix.of_epochs: no epochs";
  let n = epochs.(0).Csr.n in
  Array.iter
    (fun (e : Csr.t) ->
      if e.Csr.n <> n then
        invalid_arg "Traffic_matrix.of_epochs: epoch dimension mismatch")
    epochs;
  match truth with
  | Some t ->
      if Array.length t <> n then
        invalid_arg "Traffic_matrix.of_epochs: truth length mismatch";
      { n_vms = n; truth = Array.copy t; truth_known = true; epochs = Array.copy epochs }
  | None ->
      {
        n_vms = n;
        truth = Array.make n 0;
        truth_known = false;
        epochs = Array.copy epochs;
      }

module Drift = struct
  type d = {
    n : int;
    nc : int;
    rng : Rng.t;
    sigma : float;
    out_edges : (int * float) list array;  (* per src comp: (dst, pair rate) *)
    in_edges : (int * float) list array;  (* per dst comp: (src, pair rate) *)
    assign : int array;  (* current component of each VM *)
    members : int array array;  (* per comp, ascending VM ids *)
    rows : (int array * float array) array;  (* current per-VM cells *)
  }

  let wobble d = Rng.log_normal d.rng ~mu:(-.(d.sigma *. d.sigma) /. 2.) ~sigma:d.sigma

  (* Rebuild VM [u]'s whole row under its current component: one cell
     per (out edge, destination member), fresh wobble draws.  Edge
     order then ascending-member order keeps the draw sequence a
     deterministic function of the current structure. *)
  let build_row d u =
    let c = d.assign.(u) in
    let cells = ref [] in
    let count = ref 0 in
    List.iter
      (fun (dst, rate) ->
        Array.iter
          (fun v ->
            if v <> u then begin
              cells := (v, rate *. wobble d) :: !cells;
              incr count
            end)
          d.members.(dst))
      d.out_edges.(c);
    let cols = Array.make !count 0 and vals = Array.make !count 0. in
    (* [cells] is reversed draw order; destination ids are distinct, so
       any stable refill + sort yields the same row. *)
    List.iter
      (fun (v, x) ->
        decr count;
        cols.(!count) <- v;
        vals.(!count) <- x)
      !cells;
    let perm = Array.init (Array.length cols) Fun.id in
    Array.sort (fun a b -> compare cols.(a) cols.(b)) perm;
    d.rows.(u) <-
      ( Array.map (fun p -> cols.(p)) perm,
        Array.map (fun p -> vals.(p)) perm )

  let remove_cell d s v =
    let cols, vals = d.rows.(s) in
    let len = Array.length cols in
    let idx = ref (-1) in
    for p = 0 to len - 1 do
      if cols.(p) = v then idx := p
    done;
    if !idx >= 0 then begin
      let cols' = Array.make (len - 1) 0 and vals' = Array.make (len - 1) 0. in
      Array.blit cols 0 cols' 0 !idx;
      Array.blit cols (!idx + 1) cols' !idx (len - 1 - !idx);
      Array.blit vals 0 vals' 0 !idx;
      Array.blit vals (!idx + 1) vals' !idx (len - 1 - !idx);
      d.rows.(s) <- (cols', vals')
    end

  let add_cell d s v x =
    let cols, vals = d.rows.(s) in
    let len = Array.length cols in
    let pos = ref len in
    let dup = ref false in
    (try
       for p = 0 to len - 1 do
         if cols.(p) = v then begin
           dup := true;
           pos := p;
           raise Exit
         end
         else if cols.(p) > v then begin
           pos := p;
           raise Exit
         end
       done
     with Exit -> ());
    if !dup then vals.(!pos) <- x
    else begin
      let cols' = Array.make (len + 1) 0 and vals' = Array.make (len + 1) 0. in
      Array.blit cols 0 cols' 0 !pos;
      Array.blit vals 0 vals' 0 !pos;
      cols'.(!pos) <- v;
      vals'.(!pos) <- x;
      Array.blit cols !pos cols' (!pos + 1) (len - !pos);
      Array.blit vals !pos vals' (!pos + 1) (len - !pos);
      d.rows.(s) <- (cols', vals')
    end

  let create ?(imbalance = 0.8) ~rng tag =
    let n = Tag.total_vms tag in
    let nc = Tag.n_components tag in
    let assign = Array.make (max n 1) 0 in
    let members = Array.make (max nc 1) [||] in
    let next = ref 0 in
    for c = 0 to nc - 1 do
      let base = !next in
      members.(c) <-
        Array.init (Tag.size tag c) (fun i ->
            let u = base + i in
            assign.(u) <- c;
            u);
      next := base + Tag.size tag c
    done;
    (* Per-pair base rates from the original tier sizes, frozen: role
       drift moves VMs between tiers without renormalizing, the way a
       live service's per-flow rates would not change just because a
       replica set grew by one. Duplicate (src, dst) edges merge. *)
    let out_edges = Array.make (max nc 1) [] in
    let in_edges = Array.make (max nc 1) [] in
    Array.iter
      (fun (e : Tag.edge) ->
        if not (Tag.is_external tag e.src || Tag.is_external tag e.dst) then begin
          let ns = Tag.size tag e.src and nd = Tag.size tag e.dst in
          let pairs = if e.src = e.dst then ns * (ns - 1) else ns * nd in
          if pairs > 0 && Tag.b_total tag e > 0. then begin
            let rate = Tag.b_total tag e /. float_of_int pairs in
            let merge lst key =
              match List.assoc_opt key lst with
              | Some r -> (key, r +. rate) :: List.remove_assoc key lst
              | None -> (key, rate) :: lst
            in
            out_edges.(e.src) <- merge out_edges.(e.src) e.dst;
            in_edges.(e.dst) <- merge in_edges.(e.dst) e.src
          end
        end)
      (Tag.edges tag);
    for c = 0 to nc - 1 do
      out_edges.(c) <- List.sort compare out_edges.(c);
      in_edges.(c) <- List.sort compare in_edges.(c)
    done;
    let d =
      {
        n;
        nc;
        rng;
        sigma = imbalance;
        out_edges;
        in_edges;
        assign;
        members;
        rows = Array.make (max n 1) ([||], [||]);
      }
    in
    for u = 0 to n - 1 do
      build_row d u
    done;
    d

  let n_vms d = d.n
  let truth d = Array.sub d.assign 0 d.n

  let insert_member d c u =
    let m = d.members.(c) in
    let len = Array.length m in
    let m' = Array.make (len + 1) u in
    let p = ref 0 in
    while !p < len && m.(!p) < u do
      m'.(!p) <- m.(!p);
      incr p
    done;
    Array.blit m !p m' (!p + 1) (len - !p);
    d.members.(c) <- m'

  let drop_member d c u =
    d.members.(c) <- Array.of_list (List.filter (( <> ) u) (Array.to_list d.members.(c)))

  let move d u c' =
    let c = d.assign.(u) in
    if c' <> c then begin
      (* Senders into the old component drop their cell towards [u]
         (still using pre-move membership, minus [u] whose row is fully
         rebuilt below)... *)
      List.iter
        (fun (src, _) ->
          Array.iter (fun s -> if s <> u then remove_cell d s u) d.members.(src))
        d.in_edges.(c);
      drop_member d c u;
      insert_member d c' u;
      d.assign.(u) <- c';
      (* ...and senders into the new one gain it, fresh wobbles. *)
      List.iter
        (fun (src, rate) ->
          Array.iter
            (fun s -> if s <> u then add_cell d s u (rate *. wobble d))
            d.members.(src))
        d.in_edges.(c');
      build_row d u
    end

  let step ?(rate_drifters = 0) ?(role_drifters = 0) d =
    for _ = 1 to rate_drifters do
      build_row d (Rng.int d.rng d.n)
    done;
    if d.nc > 1 then
      for _ = 1 to role_drifters do
        let u = Rng.int d.rng d.n in
        let c = d.assign.(u) in
        move d u ((c + 1 + Rng.int d.rng (d.nc - 1)) mod d.nc)
      done;
    Csr.of_sorted_rows ~n:d.n d.rows
end

let mean_csr t =
  let n = t.n_vms in
  let k = float_of_int (Array.length t.epochs) in
  (* Row-major accumulation over stored entries only; per cell the
     epochs contribute in ascending order, then one division at the
     end (not one per epoch).  Stored values are positive, so a running
     sum is too and [0.] marks an untouched cell.  The rows go straight
     into CSR arrays sized for the epochs' entries together. *)
  let cap = Array.fold_left (fun s e -> s + Csr.nnz e) 0 t.epochs in
  let acc = Array.make n 0. and touched = Array.make n 0 in
  let tmp = Array.make n 0 in
  let row_ptr = Array.make (n + 1) 0 in
  let col_idx = Array.make cap 0 and values = Array.make cap 0. in
  let nnz = ref 0 in
  for i = 0 to n - 1 do
    let nt = ref 0 in
    for e = 0 to Array.length t.epochs - 1 do
      let epoch = t.epochs.(e) in
      let ci = epoch.Csr.col_idx and v = epoch.Csr.values in
      for p = epoch.Csr.row_ptr.(i) to epoch.Csr.row_ptr.(i + 1) - 1 do
        let j = ci.(p) in
        if acc.(j) = 0. then begin
          touched.(!nt) <- j;
          incr nt
        end;
        acc.(j) <- acc.(j) +. v.(p)
      done
    done;
    Cm_util.Intsort.sort_prefix ~tmp touched !nt;
    for p = 0 to !nt - 1 do
      let j = touched.(p) in
      let v = acc.(j) /. k in
      acc.(j) <- 0.;
      if v > 0. then begin
        col_idx.(!nnz) <- j;
        values.(!nnz) <- v;
        incr nnz
      end
    done;
    row_ptr.(i + 1) <- !nnz
  done;
  Csr.of_arrays ~n ~row_ptr ~col_idx:(Array.sub col_idx 0 !nnz)
    ~values:(Array.sub values 0 !nnz)

let csv_header = "epoch,src,dst,rate"

let to_csv t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (csv_header ^ "\n");
  Array.iteri
    (fun e m ->
      Csr.iter_nz m (fun i j rate ->
          Buffer.add_string buf (Printf.sprintf "%d,%d,%d,%.17g\n" e i j rate)))
    t.epochs;
  Buffer.contents buf

let max_csv_vms = 65_536
let max_csv_epochs = 256

let of_csv text =
  let lines = String.split_on_char '\n' text in
  let cells = ref [] in
  let max_epoch = ref (-1) and max_vm = ref (-1) in
  let err = ref None in
  List.iteri
    (fun lineno line ->
      let line = String.trim line in
      if lineno = 0 then begin
        if line <> csv_header then
          err := Some (Printf.sprintf "line 1: expected the header %s" csv_header)
      end
      else if !err = None && line <> "" then begin
        match String.split_on_char ',' line with
        | [ e; i; j; rate ] -> begin
            match
              ( int_of_string_opt e,
                int_of_string_opt i,
                int_of_string_opt j,
                float_of_string_opt rate )
            with
            | Some e, Some _, Some _, Some _ when e >= max_csv_epochs ->
                err :=
                  Some
                    (Printf.sprintf "line %d: epoch %d exceeds the limit of %d"
                       (lineno + 1) e max_csv_epochs)
            | Some _, Some i, Some j, Some _ when max i j >= max_csv_vms ->
                err :=
                  Some
                    (Printf.sprintf "line %d: VM %d exceeds the limit of %d"
                       (lineno + 1) (max i j) max_csv_vms)
            | Some e, Some i, Some j, Some x when e >= 0 && i >= 0 && j >= 0
              -> (
                match Tag.check_bandwidth x with
                | Error why ->
                    err :=
                      Some
                        (Printf.sprintf "line %d: rate %S %s" (lineno + 1) rate
                           why)
                | Ok () ->
                    max_epoch := max !max_epoch e;
                    max_vm := max !max_vm (max i j);
                    cells := (e, i, j, x, lineno + 1) :: !cells)
            | _ ->
                err :=
                  Some (Printf.sprintf "line %d: malformed cell" (lineno + 1))
          end
        | _ ->
            err :=
              Some
                (Printf.sprintf "line %d: expected epoch,src,dst,rate"
                   (lineno + 1))
      end)
    lines;
  (* A duplicate (epoch,src,dst) cell is ambiguous — the old behaviour
     silently kept whichever line came last.  Reject instead. *)
  (match !err with
  | Some _ -> ()
  | None ->
      let sorted =
        List.sort
          (fun (e1, i1, j1, _, _) (e2, i2, j2, _, _) ->
            compare (e1, i1, j1) (e2, i2, j2))
          !cells
      in
      let rec scan = function
        | (e1, i1, j1, _, _) :: ((e2, i2, j2, _, l2) :: _ as rest) ->
            if e1 = e2 && i1 = i2 && j1 = j2 then
              err :=
                Some
                  (Printf.sprintf "line %d: duplicate cell (%d,%d,%d)" l2 e2 i2
                     j2)
            else scan rest
        | _ -> ()
      in
      scan sorted);
  (* Every aggregate inference forms (a cell's sum over epochs, a
     component pair's rate in one epoch) is a sub-sum of the file's
     total, so a total well inside the float range keeps them finite. *)
  let total = List.fold_left (fun acc (_, _, _, r, _) -> acc +. r) 0. !cells in
  match !err with
  | Some m -> Error m
  | None ->
      if !max_vm < 0 then Error "no cells"
      else if not (total <= Float.max_float /. 2.) then
        Error (Printf.sprintf "rates sum to %g, past half the float range" total)
      else begin
        let n = !max_vm + 1 and k = !max_epoch + 1 in
        let rows = Array.init k (fun _ -> Array.make n []) in
        List.iter
          (fun (e, i, j, rate, _) -> rows.(e).(i) <- (j, rate) :: rows.(e).(i))
          !cells;
        let epochs = Array.map (fun r -> Csr.of_row_lists ~n r) rows in
        Ok { n_vms = n; truth = Array.make n 0; truth_known = false; epochs }
      end
