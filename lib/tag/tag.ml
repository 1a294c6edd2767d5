type edge_class = Trunk | Hose | Ext_out | Ext_in

type edge_view = {
  n_edges : int;
  src : int array;
  dst : int array;
  snd : float array;
  rcv : float array;
  cls : edge_class array;
  src_size : int array;
  dst_size : int array;
}

(* Declared after [edge_view] so unannotated [e.src] means an [edge]. *)
type component = { name : string; size : int; vm_slots : int }
type edge = { src : int; dst : int; snd_bw : float; rcv_bw : float }

type t = {
  tag_name : string;
  components : component array;
  externals : string array;
  all_edges : edge array;
  outgoing : edge list array; (* per component or external, incl. self-loop *)
  incoming : edge list array;
  selfs : edge option array; (* regular components only *)
  view : edge_view; (* derived from [components] and [all_edges] *)
}

(* The flat view depends on the component sizes, so every constructor of
   a [t] — [validate] and [with_size] — rebuilds it. *)
let make_view components all_edges =
  let n_comp = Array.length components in
  let size i = if i < n_comp then components.(i).size else 0 in
  let field f = Array.map f all_edges in
  {
    n_edges = Array.length all_edges;
    src = field (fun e -> e.src);
    dst = field (fun e -> e.dst);
    snd = field (fun e -> e.snd_bw);
    rcv = field (fun e -> e.rcv_bw);
    cls =
      field (fun e ->
          match (e.src >= n_comp, e.dst >= n_comp) with
          | false, false -> if e.src = e.dst then Hose else Trunk
          | false, true -> Ext_out
          | true, _ -> Ext_in (* two externals: rejected by validation *));
    src_size = field (fun e -> size e.src);
    dst_size = field (fun e -> size e.dst);
  }

let ( let* ) = Result.bind

let check_bandwidth x =
  if not (Float.is_finite x) then Error "is not finite"
  else if x < 0. then Error "is negative"
  else Ok ()

(* The first [Error] of [f] over [xs], if any. *)
let first_error f xs =
  List.fold_left (fun acc x -> Result.bind acc (fun () -> f x)) (Ok ()) xs

let validate ?(name = "tag") ?(externals = []) ?vm_slots ~components ~edges ()
    =
  let fail fmt = Printf.ksprintf Result.error fmt in
  let n_components = List.length components in
  let names = Array.of_list (List.map fst components @ externals) in
  let n_total = Array.length names in
  let is_ext i = i >= n_components in
  let seen_names = Hashtbl.create n_total in
  let check_name who =
    if Hashtbl.mem seen_names who then fail "duplicate component name %S" who
    else Ok (Hashtbl.add seen_names who ())
  in
  let check_size (cname, size) =
    if size <= 0 then fail "component %S has size %d" cname size else Ok ()
  in
  let seen_edges = Hashtbl.create 16 in
  let check_edge (src, dst, snd_bw, rcv_bw) =
    let edge () = Printf.sprintf "edge %s -> %s" names.(src) names.(dst) in
    let check_bw what x =
      Result.map_error
        (fun why ->
          Printf.sprintf "%s: %s bandwidth %g %s" (edge ()) what x why)
        (check_bandwidth x)
    in
    if not (0 <= min src dst && max src dst < n_total) then
      fail "edge (%d,%d) out of range" src dst
    else if is_ext src && is_ext dst then
      fail "%s connects two external components" (edge ())
    else
      let* () = check_bw "send" snd_bw in
      let* () = check_bw "receive" rcv_bw in
      if src = dst && snd_bw <> rcv_bw then
        fail "self-loop on %S must have a single SR value" names.(src)
      else if Hashtbl.mem seen_edges (src, dst) then
        fail "duplicate %s" (edge ())
      else Ok (Hashtbl.add seen_edges (src, dst) ())
  in
  let* () = if n_components = 0 then fail "no components" else Ok () in
  let* () = first_error check_name (Array.to_list names) in
  let* () = first_error check_size components in
  let slot_costs =
    Option.value vm_slots ~default:(List.map (fun _ -> 1) components)
  in
  let* () =
    if List.length slot_costs <> n_components then
      fail "vm_slots length mismatch"
    else
      first_error
        (fun c ->
          if c <= 0 then fail "vm_slots %d is not positive" c else Ok ())
        slot_costs
  in
  let* () = first_error check_edge edges in
  let components =
    Array.of_list
      (List.map2
         (fun (name, size) vm_slots -> { name; size; vm_slots })
         components slot_costs)
  in
  let externals = Array.of_list externals in
  let all_edges =
    Array.of_list
      (List.map
         (fun (src, dst, snd_bw, rcv_bw) -> { src; dst; snd_bw; rcv_bw })
         edges)
  in
  let outgoing = Array.make n_total [] and incoming = Array.make n_total [] in
  let selfs = Array.make n_components None in
  (* Iterate in reverse so the per-component lists keep input order. *)
  for i = Array.length all_edges - 1 downto 0 do
    let e = all_edges.(i) in
    outgoing.(e.src) <- e :: outgoing.(e.src);
    incoming.(e.dst) <- e :: incoming.(e.dst);
    if e.src = e.dst then selfs.(e.src) <- Some e
  done;
  Ok
    {
      tag_name = name;
      components;
      externals;
      all_edges;
      outgoing;
      incoming;
      selfs;
      view = make_view components all_edges;
    }

let create ?name ?externals ?vm_slots ~components ~edges () =
  match validate ?name ?externals ?vm_slots ~components ~edges () with
  | Ok t -> t
  | Error msg -> invalid_arg ("Tag.create: " ^ msg)

let hose ?(name = "hose") ~tier ~size ~bw () =
  create ~name ~components:[ (tier, size) ] ~edges:[ (0, 0, bw, bw) ] ()

let name t = t.tag_name
let n_components t = Array.length t.components
let n_externals t = Array.length t.externals
let is_external t i = i >= Array.length t.components
let component t i = t.components.(i)
let size t i = if is_external t i then 0 else t.components.(i).size

let component_name t i =
  if is_external t i then t.externals.(i - Array.length t.components)
  else t.components.(i).name

let total_vms t = Array.fold_left (fun acc c -> acc + c.size) 0 t.components

let vm_slots t i = if is_external t i then 0 else t.components.(i).vm_slots

let total_slot_demand t =
  Array.fold_left (fun acc c -> acc + (c.size * c.vm_slots)) 0 t.components
let edges t = t.all_edges
let edge_view t = t.view
let out_edges t i = t.outgoing.(i)
let in_edges t i = t.incoming.(i)
let self_loop t i = if is_external t i then None else t.selfs.(i)

let find_edge t ~src ~dst =
  List.find_opt (fun e -> e.dst = dst) t.outgoing.(src)

let b_total t e =
  match (is_external t e.src, is_external t e.dst) with
  | false, false ->
      Float.min
        (e.snd_bw *. float_of_int t.components.(e.src).size)
        (e.rcv_bw *. float_of_int t.components.(e.dst).size)
  | false, true -> e.snd_bw *. float_of_int t.components.(e.src).size
  | true, false -> e.rcv_bw *. float_of_int t.components.(e.dst).size
  | true, true -> 0. (* rejected by validation *)

let aggregate_bandwidth t =
  Array.fold_left (fun acc e -> acc +. b_total t e) 0. t.all_edges

let per_vm_send t i =
  List.fold_left (fun acc (e : edge) -> acc +. e.snd_bw) 0. t.outgoing.(i)

let per_vm_recv t i =
  List.fold_left (fun acc (e : edge) -> acc +. e.rcv_bw) 0. t.incoming.(i)

let mean_vm_demand t =
  let weighted =
    Array.to_list t.components
    |> List.mapi (fun i c ->
           float_of_int c.size *. Float.max (per_vm_send t i) (per_vm_recv t i))
    |> List.fold_left ( +. ) 0.
  in
  weighted /. float_of_int (total_vms t)

let scale_bw t factor =
  if factor < 0. then invalid_arg "Tag.scale_bw: negative factor";
  let components =
    Array.to_list t.components |> List.map (fun c -> (c.name, c.size))
  in
  let vm_slots = Array.to_list t.components |> List.map (fun c -> c.vm_slots) in
  let externals = Array.to_list t.externals in
  let edges =
    Array.to_list t.all_edges
    |> List.map (fun e -> (e.src, e.dst, e.snd_bw *. factor, e.rcv_bw *. factor))
  in
  create ~name:t.tag_name ~externals ~vm_slots ~components ~edges ()

let with_name t name = { t with tag_name = name }

let with_size t ~comp ~size =
  if is_external t comp then invalid_arg "Tag.with_size: external component";
  if size <= 0 then invalid_arg "Tag.with_size: non-positive size";
  let components = Array.copy t.components in
  components.(comp) <- { (components.(comp)) with size };
  { t with components; view = make_view components t.all_edges }

let equal a b =
  a.tag_name = b.tag_name
  && a.components = b.components
  && a.externals = b.externals
  && a.all_edges = b.all_edges

let pp ppf t =
  Format.fprintf ppf "@[<v>TAG %s (%d components, %d VMs%s)@," t.tag_name
    (n_components t) (total_vms t)
    (if n_externals t = 0 then ""
     else Printf.sprintf ", %d externals" (n_externals t));
  Array.iteri
    (fun i c ->
      if c.vm_slots = 1 then
        Format.fprintf ppf "  [%d] %s x%d@," i c.name c.size
      else
        Format.fprintf ppf "  [%d] %s x%d (%d slots/VM)@," i c.name c.size
          c.vm_slots)
    t.components;
  Array.iteri
    (fun i name ->
      Format.fprintf ppf "  [%d] %s (external)@," (n_components t + i) name)
    t.externals;
  Array.iter
    (fun e ->
      if e.src = e.dst then
        Format.fprintf ppf "  %s <-> %s : SR=%g@," (component_name t e.src)
          (component_name t e.src) e.snd_bw
      else
        Format.fprintf ppf "  %s -> %s : <S=%g, R=%g>@,"
          (component_name t e.src) (component_name t e.dst) e.snd_bw e.rcv_bw)
    t.all_edges;
  Format.fprintf ppf "@]"

let to_string t = Format.asprintf "%a" pp t

let to_dot t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "digraph %S {\n" t.tag_name);
  Array.iteri
    (fun i c ->
      Buffer.add_string buf
        (Printf.sprintf "  c%d [label=\"%s (x%d)\"];\n" i c.name c.size))
    t.components;
  Array.iteri
    (fun i name ->
      Buffer.add_string buf
        (Printf.sprintf "  c%d [label=\"%s\", shape=doublecircle];\n"
           (n_components t + i) name))
    t.externals;
  Array.iter
    (fun e ->
      if e.src = e.dst then
        Buffer.add_string buf
          (Printf.sprintf "  c%d -> c%d [label=\"SR=%g\"];\n" e.src e.dst
             e.snd_bw)
      else
        Buffer.add_string buf
          (Printf.sprintf "  c%d -> c%d [label=\"<%g,%g>\"];\n" e.src e.dst
             e.snd_bw e.rcv_bw))
    t.all_edges;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
