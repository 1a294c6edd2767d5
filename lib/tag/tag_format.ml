let strip_comment line =
  match String.index_opt line '#' with
  | Some i -> String.sub line 0 i
  | None -> line

let tokens line =
  strip_comment line |> String.split_on_char ' '
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun s -> s <> "")

let parse_float what lineno s =
  match float_of_string_opt s with
  | None -> Error (Printf.sprintf "line %d: bad %s %S" lineno what s)
  | Some f -> (
      match Tag.check_bandwidth f with
      | Ok () -> Ok f
      | Error why ->
          Error (Printf.sprintf "line %d: %s %S %s" lineno what s why))

let parse_int what lineno s =
  match int_of_string_opt s with
  | Some i -> Ok i
  | None -> Error (Printf.sprintf "line %d: bad %s %S" lineno what s)

let ( let* ) = Result.bind

let of_string text =
  let name = ref "tag" in
  let components = ref [] (* reversed (name, size) *) in
  let slot_costs = ref [] (* reversed, aligned with components *) in
  let externals = ref [] (* reversed names *) in
  let edges = ref [] (* reversed *) in
  let index_of lineno who =
    (* Regular components first, then externals, matching Tag.create. *)
    let names = List.rev_map fst !components @ List.rev !externals in
    match List.find_index (String.equal who) names with
    | Some i -> Ok i
    | None -> Error (Printf.sprintf "line %d: unknown component %S" lineno who)
  in
  let parse_line lineno line =
    match tokens line with
    | [] -> Ok ()
    | [ "tag"; n ] ->
        name := n;
        Ok ()
    | [ "component"; n; size ] ->
        let* size = parse_int "size" lineno size in
        components := (n, size) :: !components;
        slot_costs := 1 :: !slot_costs;
        Ok ()
    | [ "component"; n; size; slots ] ->
        let* size = parse_int "size" lineno size in
        let* slots = parse_int "vm slots" lineno slots in
        components := (n, size) :: !components;
        slot_costs := slots :: !slot_costs;
        Ok ()
    | [ "external"; n ] ->
        externals := n :: !externals;
        Ok ()
    | [ "edge"; src; dst; snd_bw; rcv_bw ] ->
        let* src = index_of lineno src in
        let* dst = index_of lineno dst in
        let* snd_bw = parse_float "send bandwidth" lineno snd_bw in
        let* rcv_bw = parse_float "receive bandwidth" lineno rcv_bw in
        edges := (src, dst, snd_bw, rcv_bw) :: !edges;
        Ok ()
    | [ "duplex"; a; b; fwd; back ] ->
        (* Footnote 6 sugar: one undirected trunk with symmetric
           incoming/outgoing values, S(a,b)=R(b,a)=fwd and
           R(a,b)=S(b,a)=back. *)
        let* a = index_of lineno a in
        let* b = index_of lineno b in
        let* fwd = parse_float "send bandwidth" lineno fwd in
        let* back = parse_float "receive bandwidth" lineno back in
        edges := (b, a, back, fwd) :: (a, b, fwd, back) :: !edges;
        Ok ()
    | [ "selfloop"; n; sr ] ->
        let* i = index_of lineno n in
        let* sr = parse_float "self-loop bandwidth" lineno sr in
        edges := (i, i, sr, sr) :: !edges;
        Ok ()
    | directive :: _ ->
        Error
          (Printf.sprintf "line %d: unrecognized or malformed %S" lineno
             directive)
  in
  let lines = String.split_on_char '\n' text in
  let rec go lineno = function
    | [] -> Ok ()
    | line :: rest ->
        let* () = parse_line lineno line in
        go (lineno + 1) rest
  in
  let* () = go 1 lines in
  Tag.validate ~name:!name
    ~externals:(List.rev !externals)
    ~vm_slots:(List.rev !slot_costs)
    ~components:(List.rev !components)
    ~edges:(List.rev !edges) ()

let to_text t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "tag %s\n" (Tag.name t));
  for c = 0 to Tag.n_components t - 1 do
    if Tag.vm_slots t c = 1 then
      Buffer.add_string buf
        (Printf.sprintf "component %s %d\n" (Tag.component_name t c)
           (Tag.size t c))
    else
      Buffer.add_string buf
        (Printf.sprintf "component %s %d %d\n" (Tag.component_name t c)
           (Tag.size t c) (Tag.vm_slots t c))
  done;
  for x = Tag.n_components t to Tag.n_components t + Tag.n_externals t - 1 do
    Buffer.add_string buf
      (Printf.sprintf "external %s\n" (Tag.component_name t x))
  done;
  Array.iter
    (fun (e : Tag.edge) ->
      if e.src = e.dst then
        Buffer.add_string buf
          (Printf.sprintf "selfloop %s %g\n" (Tag.component_name t e.src)
             e.snd_bw)
      else
        Buffer.add_string buf
          (Printf.sprintf "edge %s %s %g %g\n" (Tag.component_name t e.src)
             (Tag.component_name t e.dst) e.snd_bw e.rcv_bw))
    (Tag.edges t);
  Buffer.contents buf

let of_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | text -> of_string text
  | exception Sys_error msg -> Error msg
