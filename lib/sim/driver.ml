module Cm = Cm_placement.Cm
module Oktopus = Cm_placement.Oktopus
module Secondnet = Cm_placement.Secondnet
module Bandwidth = Cm_tag.Bandwidth

type scheduler = {
  sched_name : string;
  place :
    Cm_placement.Types.request ->
    (Cm_placement.Types.placement, Cm_placement.Types.reject_reason) result;
  release : Cm_placement.Types.placement -> unit;
}

type maker = Cm_topology.Tree.t -> scheduler

(* Per-algorithm place/release wall-time histograms ("span.place.CM",
   "span.release.OVOC", ...).  The span handles are interned once per
   scheduler; with spans disabled (the default) the wrapper costs one
   branch, so Bechamel microbenchmarks of [place] stay honest. *)
let instrument sched =
  let place_span = Cm_obs.Span.v ("place." ^ sched.sched_name) in
  let release_span = Cm_obs.Span.v ("release." ^ sched.sched_name) in
  {
    sched with
    place =
      (fun req -> Cm_obs.Span.with_span place_span (fun () -> sched.place req));
    release =
      (fun p -> Cm_obs.Span.with_span release_span (fun () -> sched.release p));
  }

let cm_policy_name (p : Cm.policy) =
  let base =
    match (p.colocate, p.balance) with
    | true, true -> "CM"
    | true, false -> "CM-coloc-only"
    | false, true -> "CM-balance-only"
    | false, false -> "CM-naive"
  in
  let base = if p.opportunistic_ha then base ^ "+oppHA" else base in
  match p.model with
  | Bandwidth.Tag_model -> base
  | Bandwidth.Voc_model -> base ^ "+VOC"
  | Bandwidth.Pipe_model -> base ^ "+pipe"
  | Bandwidth.Hose_model -> base ^ "+hose"

let cm ?(policy = Cm.default_policy) tree =
  let sched = Cm.create ~policy tree in
  instrument
    {
      sched_name = cm_policy_name policy;
      place = Cm.place sched;
      release = Cm.release sched;
    }

let oktopus tree =
  let sched = Oktopus.create tree in
  instrument
    {
      sched_name = "OVOC";
      place = Oktopus.place sched;
      release = Oktopus.release sched;
    }

let secondnet tree =
  let sched = Secondnet.create tree in
  instrument
    {
      sched_name = "SecondNet";
      place = Secondnet.place sched;
      release = Secondnet.release sched;
    }

let round_robin tree =
  let module Tree = Cm_topology.Tree in
  let module Reservation = Cm_topology.Reservation in
  let module Tag = Cm_tag.Tag in
  let cursor = ref 0 in
  let place (req : Cm_placement.Types.request) =
    let tag = req.tag in
    let servers = Tree.servers tree in
    let n_servers = Array.length servers in
    let txn = Reservation.start tree in
    let locations = Array.make (Tag.n_components tag) [] in
    let ok = ref true in
    for c = 0 to Tag.n_components tag - 1 do
      for _ = 1 to Tag.size tag c do
        if !ok then begin
          (* Next server with room, scanning at most one full cycle. *)
          let cost = Tag.vm_slots tag c in
          let rec find tries =
            if tries >= n_servers then None
            else begin
              let s = servers.(!cursor mod n_servers) in
              incr cursor;
              if Reservation.take_slots txn ~server:s cost then Some s
              else find (tries + 1)
            end
          in
          match find 0 with
          | Some s -> begin
              locations.(c) <-
                (match List.assoc_opt s locations.(c) with
                | Some n ->
                    (s, n + 1) :: List.remove_assoc s locations.(c)
                | None -> (s, 1) :: locations.(c))
            end
          | None -> ok := false
        end
      done
    done;
    if !ok then
      Ok
        {
          Cm_placement.Types.req;
          locations = Array.map (List.sort compare) locations;
          committed = Reservation.commit txn;
        }
    else begin
      Reservation.rollback txn;
      Error Cm_placement.Types.No_slots
    end
  in
  instrument
    {
      sched_name = "RR";
      place;
      release =
        (fun p -> Reservation.release tree p.Cm_placement.Types.committed);
    }

let backup ?(factor = 1.3) tree =
  if factor < 1. then invalid_arg "Driver.backup: factor must be >= 1";
  let sched = Cm.create ~policy:Cm.default_policy tree in
  instrument
    {
      sched_name = "CM+backup";
      place =
        (fun (req : Cm_placement.Types.request) ->
          Cm.place sched
            (Cm_placement.Types.request ?ha:req.ha
               (Cm_tag.Tag.scale_bw req.tag factor)));
      release = Cm.release sched;
    }

let vc tree =
  let sched = Oktopus.create tree in
  instrument
    {
      sched_name = "OVC";
      place =
        (fun (req : Cm_placement.Types.request) ->
          let converted = Cm_tag.Convert.to_vc req.tag in
          Oktopus.place sched
            (Cm_placement.Types.request ?ha:req.ha converted));
      release = Oktopus.release sched;
    }
