module Tag = Cm_tag.Tag

type enforcement = Hose_gp | Tag_gp
type endpoint = { comp : int; vm : int }
type active_pair = { src : endpoint; dst : endpoint }

let enforcement_to_string = function
  | Hose_gp -> "hose"
  | Tag_gp -> "TAG"

(* Water-fill [total] across items with the given caps; returns each
   item's share, max-min fair (caps = demands; equal split when all caps
   are infinite). *)
let water_fill total caps =
  let n = Array.length caps in
  let shares = Array.make n 0. in
  if n > 0 && total > 0. then begin
    let remaining = ref total in
    let active = Array.make n true in
    let n_active = ref n in
    let progress = ref true in
    while !n_active > 0 && !remaining > 1e-12 && !progress do
      let fair = !remaining /. float_of_int !n_active in
      progress := false;
      (* Freeze items whose cap is below the current fair share. *)
      for i = 0 to n - 1 do
        if active.(i) && caps.(i) -. shares.(i) <= fair +. 1e-12 then begin
          let inc = Float.max 0. (caps.(i) -. shares.(i)) in
          shares.(i) <- shares.(i) +. inc;
          remaining := !remaining -. inc;
          active.(i) <- false;
          decr n_active;
          progress := true
        end
      done;
      if not !progress then begin
        (* Everyone can absorb the fair share. *)
        for i = 0 to n - 1 do
          if active.(i) then shares.(i) <- shares.(i) +. fair
        done;
        remaining := 0.
      end
    done
  end;
  shares

let pair_guarantees ?demands tag enforcement ~pairs =
  let pairs_arr = Array.of_list pairs in
  let n = Array.length pairs_arr in
  let demands =
    match demands with
    | None -> Array.make n infinity
    | Some ds ->
        if List.length ds <> n then
          invalid_arg "Elastic.pair_guarantees: demands length mismatch";
        Array.of_list ds
  in
  (* Group pair indices by hose.  A hose key is (vm, peer-scope): for
     hose GP the scope is the whole tenant (-1); for TAG GP it is the
     peer's component, i.e. one hose per TAG edge endpoint. *)
  let scope peer_comp =
    match enforcement with Hose_gp -> -1 | Tag_gp -> peer_comp
  in
  let send_groups = Hashtbl.create 16 and recv_groups = Hashtbl.create 16 in
  let push table key i =
    Hashtbl.replace table key
      (i :: Option.value ~default:[] (Hashtbl.find_opt table key))
  in
  (* An external endpoint (the Internet, a storage service) has no hose
     of its own: its side of a pair joins no group and stays uncapped.
     [Tag.create] gives that side of the edge no guarantee, so capping
     it by the edge would zero every pair with an external. *)
  Array.iteri
    (fun i p ->
      if not (Tag.is_external tag p.src.comp) then
        push send_groups (p.src.comp, p.src.vm, scope p.dst.comp) i;
      if not (Tag.is_external tag p.dst.comp) then
        push recv_groups (p.dst.comp, p.dst.vm, scope p.src.comp) i)
    pairs_arr;
  (* Hose rate on each side of a pair. *)
  let send_rate (p : active_pair) =
    match enforcement with
    | Hose_gp -> Tag.per_vm_send tag p.src.comp
    | Tag_gp -> begin
        match Tag.find_edge tag ~src:p.src.comp ~dst:p.dst.comp with
        | None -> 0.
        | Some e -> e.snd_bw
      end
  in
  let recv_rate (p : active_pair) =
    match enforcement with
    | Hose_gp -> Tag.per_vm_recv tag p.dst.comp
    | Tag_gp -> begin
        match Tag.find_edge tag ~src:p.src.comp ~dst:p.dst.comp with
        | None -> 0.
        | Some e -> e.rcv_bw
      end
  in
  let send_alloc = Array.make n infinity
  and recv_alloc = Array.make n infinity in
  let fill groups rate_of alloc =
    Hashtbl.iter
      (fun _key indices ->
        let indices = Array.of_list (List.rev indices) in
        let total = rate_of pairs_arr.(indices.(0)) in
        let caps = Array.map (fun i -> demands.(i)) indices in
        let shares = water_fill total caps in
        Array.iteri (fun k i -> alloc.(i) <- shares.(k)) indices)
      groups
  in
  fill send_groups send_rate send_alloc;
  fill recv_groups recv_rate recv_alloc;
  List.mapi
    (fun i p -> (p, Float.min send_alloc.(i) recv_alloc.(i)))
    pairs
