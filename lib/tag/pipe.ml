type vm = { comp : int; idx : int }
type pipe = { src_vm : vm; dst_vm : vm; bw : float }

let vms_of_tag tag =
  let vms = ref [] in
  for c = Tag.n_components tag - 1 downto 0 do
    for i = Tag.size tag c - 1 downto 0 do
      vms := { comp = c; idx = i } :: !vms
    done
  done;
  Array.of_list !vms

let of_tag tag =
  let fi = float_of_int in
  let pipes = ref [] in
  let add src_vm dst_vm bw =
    if bw > 0. then pipes := { src_vm; dst_vm; bw } :: !pipes
  in
  Array.iter
    (fun (e : Tag.edge) ->
      if Tag.is_external tag e.src || Tag.is_external tag e.dst then
        (* External endpoints have no VMs to terminate pipes on. *)
        ()
      else
      let n_src = Tag.size tag e.src and n_dst = Tag.size tag e.dst in
      if e.src = e.dst then begin
        if n_src > 1 then
          let pair_bw = e.snd_bw /. fi (n_src - 1) in
          for i = 0 to n_src - 1 do
            for j = 0 to n_src - 1 do
              if i <> j then
                add { comp = e.src; idx = i } { comp = e.src; idx = j } pair_bw
            done
          done
      end
      else
        let pair_bw = Tag.b_total tag e /. (fi n_src *. fi n_dst) in
        for i = 0 to n_src - 1 do
          for j = 0 to n_dst - 1 do
            add { comp = e.src; idx = i } { comp = e.dst; idx = j } pair_bw
          done
        done)
    (Tag.edges tag);
  List.rev !pipes

let crossing_bandwidth pipes ~src_in =
  List.fold_left
    (fun (out, into) p ->
      match (src_in p.src_vm, src_in p.dst_vm) with
      | true, false -> (out +. p.bw, into)
      | false, true -> (out, into +. p.bw)
      | true, true | false, false -> (out, into))
    (0., 0.) pipes
