(* Spans and per-layer totals recorded from the benchmark's own code.

   A span wraps one call into a layer's public functions. When the
   ledger is off, [span] is a plain call. When it is on, the span's
   begin/end instants go to an in-memory buffer (exported at the end as
   a Chrome trace_event document) and its wall time and minor-heap words
   are added to the layer's running totals. Totals are inclusive: a WHOMP
   span holds one span per dimension grammar.

   Per-chunk spans run into the millions on allocation-heavy programs, so
   the trace keeps every outermost span but only the first [max_records]
   begin/end records of nested ones; the totals count them all. *)

let max_records = 200_000

type totals = {
  mutable ns : float;  (** wall time *)
  mutable words : float;  (** minor words allocated inside *)
}

type record = { name : string; phase : char; ts_ns : int64 }

type t = {
  on : bool;
  records : record Ormp_util.Vec.t;
  totals : (string, totals) Hashtbl.t;
  mutable open_spans : bool list;  (** per open span: was its begin record kept *)
  mutable dropped : int;  (** nested spans left out of the trace *)
  mutable own_words : float;  (** minor words the ledger itself allocated *)
}

let create ~on =
  {
    on;
    records = Ormp_util.Vec.create ();
    totals = Hashtbl.create 32;
    open_spans = [];
    dropped = 0;
    own_words = 0.0;
  }

let dropped t = t.dropped
let on t = t.on

let totals t name =
  match Hashtbl.find_opt t.totals name with
  | Some x -> x
  | None ->
    let x = { ns = 0.0; words = 0.0 } in
    Hashtbl.replace t.totals name x;
    x

(* The ledger's own allocations (clock readings, records) are measured
   and kept out of every span's words, nested spans' included. *)
let close t name ~t0 ~w0 ~own0 =
  let w1 = Gc.minor_words () in
  let t1 = Ormp_util.Clock.now_ns () in
  (match t.open_spans with
  | kept :: rest ->
    if kept then Ormp_util.Vec.push t.records { name; phase = 'E'; ts_ns = t1 };
    t.open_spans <- rest
  | [] -> ());
  let x = totals t name in
  x.ns <- x.ns +. Int64.to_float (Int64.sub t1 t0);
  x.words <- x.words +. (w1 -. w0 -. (t.own_words -. own0));
  t.own_words <- t.own_words +. (Gc.minor_words () -. w1)

let span t name f =
  if not t.on then f ()
  else begin
    let entry = Gc.minor_words () in
    let keep = t.open_spans = [] || Ormp_util.Vec.length t.records < max_records in
    if not keep then t.dropped <- t.dropped + 1;
    let t0 = Ormp_util.Clock.now_ns () in
    if keep then Ormp_util.Vec.push t.records { name; phase = 'B'; ts_ns = t0 };
    t.open_spans <- keep :: t.open_spans;
    let w0 = Gc.minor_words () in
    t.own_words <- t.own_words +. (w0 -. entry);
    let own0 = t.own_words in
    match f () with
    | r ->
      close t name ~t0 ~w0 ~own0;
      r
    | exception e ->
      close t name ~t0 ~w0 ~own0;
      raise e
  end

(* Seconds and minor words of a layer; 0 when it never ran. *)
let seconds t name =
  match Hashtbl.find_opt t.totals name with Some x -> x.ns /. 1e9 | None -> 0.0

let words t name = match Hashtbl.find_opt t.totals name with Some x -> x.words | None -> 0.0

let to_json t =
  let module J = Ormp_util.Json in
  let epoch =
    if Ormp_util.Vec.length t.records = 0 then 0L
    else (Ormp_util.Vec.get t.records 0).ts_ns
  in
  let events =
    Ormp_util.Vec.fold_left
      (fun acc r ->
        J.Obj
          [
            ("name", J.String r.name);
            ("cat", J.String "perfbench");
            ("ph", J.String (String.make 1 r.phase));
            ("ts", J.Float (Int64.to_float (Int64.sub r.ts_ns epoch) /. 1000.0));
            ("pid", J.Int 1);
            ("tid", J.Int 1);
          ]
        :: acc)
      [] t.records
  in
  J.Obj [ ("traceEvents", J.List (List.rev events)); ("displayTimeUnit", J.String "ns") ]

(* Write the trace and check it with the telemetry layer's validator;
   returns the number of complete spans. *)
let write_trace t path =
  let j = to_json t in
  let s = Ormp_util.Json.to_string j in
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s);
  match Ormp_util.Json.of_string s with
  | Error e -> Error ("trace does not parse: " ^ e)
  | Ok j -> Ormp_telemetry.Spans.validate_json j
