type ha_spec = { rwcs : float; laa_level : int }
type request = { tag : Cm_tag.Tag.t; ha : ha_spec option }

let request ?ha tag =
  (match ha with
  | Some { rwcs; laa_level } ->
      if not (rwcs >= 0. && rwcs < 1.) then
        invalid_arg "Types.request: rwcs must be in [0, 1)";
      if laa_level < 0 then invalid_arg "Types.request: negative laa_level"
  | None -> ());
  { tag; ha }

type locations = (int * int) list array

type placement = {
  req : request;
  locations : locations;
  committed : Cm_topology.Reservation.committed;
}

type reject_reason = No_slots | No_bandwidth

let reject_to_string = function
  | No_slots -> "no-slots"
  | No_bandwidth -> "no-bandwidth"

let vm_count locations =
  Array.fold_left
    (fun acc l -> List.fold_left (fun a (_, n) -> a + n) acc l)
    0 locations

let eq7_bound ~n_total ~rwcs =
  max 1 (int_of_float (float_of_int n_total *. (1. -. rwcs)))
