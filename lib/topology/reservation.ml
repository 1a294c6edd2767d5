(* Operations are stored in flat parallel growable arrays rather than an
   op list: recording writes immediates into typed slots (no per-op block
   or closure allocation), a checkpoint is one integer, and rollback walks
   a contiguous suffix backwards (cache-friendly).  [kind] 0 is a slot
   delta ([node] = server, [n] = signed slot count — returns are recorded
   as negative takes so commit/release handle them uniformly); [kind] 1 is
   a bandwidth delta on [node]'s uplink ([up]/[down] signed Mbps), with
   the uplink's reservation before the op in [prev_up]/[prev_down] so
   rollback restores it exactly: adding the negated delta is no inverse
   under rounding (0.1 + 0.2 - 0.2 <> 0.1) or the clamp at zero. *)

type t = {
  the_tree : Tree.t;
  mutable kind : int array;
  mutable node : int array;
  mutable n : int array;
  mutable up : float array;
  mutable down : float array;
  mutable prev_up : float array;
  mutable prev_down : float array;
  mutable count : int;
}

type checkpoint = int

(* A sealed transaction: same columns, trimmed to length, oldest first. *)
type committed = {
  c_kind : int array;
  c_node : int array;
  c_n : int array;
  c_up : float array;
  c_down : float array;
}

let initial_capacity = 16

let start the_tree =
  {
    the_tree;
    kind = Array.make initial_capacity 0;
    node = Array.make initial_capacity 0;
    n = Array.make initial_capacity 0;
    up = Array.make initial_capacity 0.;
    down = Array.make initial_capacity 0.;
    prev_up = Array.make initial_capacity 0.;
    prev_down = Array.make initial_capacity 0.;
    count = 0;
  }

let tree t = t.the_tree
let is_empty t = t.count = 0

let ensure_room t =
  if t.count = Array.length t.kind then begin
    let cap = 2 * Array.length t.kind in
    let grow_int a =
      let b = Array.make cap 0 in
      Array.blit a 0 b 0 t.count;
      b
    in
    let grow_float a =
      let b = Array.make cap 0. in
      Array.blit a 0 b 0 t.count;
      b
    in
    t.kind <- grow_int t.kind;
    t.node <- grow_int t.node;
    t.n <- grow_int t.n;
    t.up <- grow_float t.up;
    t.down <- grow_float t.down;
    t.prev_up <- grow_float t.prev_up;
    t.prev_down <- grow_float t.prev_down
  end

let record_slots t ~server n =
  ensure_room t;
  let i = t.count in
  t.kind.(i) <- 0;
  t.node.(i) <- server;
  t.n.(i) <- n;
  t.up.(i) <- 0.;
  t.down.(i) <- 0.;
  t.count <- i + 1

let record_bw t ~node ~up ~down =
  ensure_room t;
  let i = t.count in
  t.kind.(i) <- 1;
  t.node.(i) <- node;
  t.n.(i) <- 0;
  t.up.(i) <- up;
  t.down.(i) <- down;
  t.prev_up.(i) <- Tree.reserved_up t.the_tree node;
  t.prev_down.(i) <- Tree.reserved_down t.the_tree node;
  t.count <- i + 1

let take_slots t ~server n =
  if n < 0 then invalid_arg "Reservation.take_slots: negative count";
  if n = 0 then true
  else if Tree.free_slots t.the_tree server < n then false
  else begin
    Tree.unchecked_take_slots t.the_tree ~server n;
    record_slots t ~server n;
    true
  end

let return_slots t ~server n =
  if n < 0 then invalid_arg "Reservation.return_slots: negative count";
  if n = 0 then true
  else if
    Tree.free_slots t.the_tree server + n > Tree.slots_per_server t.the_tree
  then false
  else begin
    Tree.unchecked_return_slots t.the_tree ~server n;
    record_slots t ~server (-n);
    true
  end

let reserve_bw t ~node ~up ~down =
  if up = 0. && down = 0. then true
  else
    let ok_up = up <= 0. || Tree.fits_up t.the_tree ~node up in
    let ok_down = down <= 0. || Tree.fits_down t.the_tree ~node down in
    if ok_up && ok_down then begin
      record_bw t ~node ~up ~down;
      Tree.unchecked_add_bw t.the_tree ~node ~up ~down;
      true
    end
    else false

let undo_slots the_tree ~node ~n =
  if n >= 0 then Tree.unchecked_return_slots the_tree ~server:node n
  else Tree.unchecked_take_slots the_tree ~server:node (-n)

let undo_op the_tree ~kind ~node ~n ~up ~down =
  if kind = 0 then undo_slots the_tree ~node ~n
  else Tree.unchecked_add_bw the_tree ~node ~up:(-.up) ~down:(-.down)

let apply_op the_tree ~kind ~node ~n ~up ~down =
  if kind = 0 then
    if n >= 0 then Tree.unchecked_take_slots the_tree ~server:node n
    else Tree.unchecked_return_slots the_tree ~server:node (-n)
  else Tree.unchecked_add_bw the_tree ~node ~up ~down

let checkpoint t = t.count

let rollback_to t cp =
  if cp < 0 || cp > t.count then invalid_arg "Reservation.rollback_to";
  for i = t.count - 1 downto cp do
    if t.kind.(i) = 0 then undo_slots t.the_tree ~node:t.node.(i) ~n:t.n.(i)
    else
      Tree.unchecked_set_bw t.the_tree ~node:t.node.(i) ~up:t.prev_up.(i)
        ~down:t.prev_down.(i)
  done;
  t.count <- cp

let rollback t = rollback_to t 0

(* Capacity is kept after commit so a reused transaction stays warm. *)
let commit t =
  let len = t.count in
  let committed =
    {
      c_kind = Array.sub t.kind 0 len;
      c_node = Array.sub t.node 0 len;
      c_n = Array.sub t.n 0 len;
      c_up = Array.sub t.up 0 len;
      c_down = Array.sub t.down 0 len;
    }
  in
  t.count <- 0;
  committed

(* Release is a LIFO undo (newest op first): slot returns must be
   re-taken before the original takes are returned. *)
let release the_tree committed =
  for i = Array.length committed.c_kind - 1 downto 0 do
    undo_op the_tree ~kind:committed.c_kind.(i) ~node:committed.c_node.(i)
      ~n:committed.c_n.(i) ~up:committed.c_up.(i) ~down:committed.c_down.(i)
  done

let reapply the_tree committed =
  for i = 0 to Array.length committed.c_kind - 1 do
    apply_op the_tree ~kind:committed.c_kind.(i) ~node:committed.c_node.(i)
      ~n:committed.c_n.(i) ~up:committed.c_up.(i) ~down:committed.c_down.(i)
  done

(* The later set goes at the end so release (which walks backwards) still
   undoes the newest operations first. *)
let merge earlier later =
  {
    c_kind = Array.append earlier.c_kind later.c_kind;
    c_node = Array.append earlier.c_node later.c_node;
    c_n = Array.append earlier.c_n later.c_n;
    c_up = Array.append earlier.c_up later.c_up;
    c_down = Array.append earlier.c_down later.c_down;
  }
