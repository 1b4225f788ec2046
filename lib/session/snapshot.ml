module S = Ormp_util.Sexp
module Seq_c = Ormp_sequitur.Sequitur
module Omc = Ormp_core.Omc
module Cdc = Ormp_core.Cdc
module Leap = Ormp_leap.Leap
module Lmad_io = Ormp_persist.Lmad_io
module Grammar_io = Ormp_persist.Grammar_io

(* Version 2 writes each grammar's Sequitur live record beside its rule
   listing; a version-1 snapshot cannot be continued exactly and is
   rejected, so resume falls back to an older snapshot or a fresh run. *)
let version = 2

type epoch = {
  ep_index : int;
  ep_dim : string;
  ep_file : string;
  ep_from : int;
  ep_to : int;
  ep_symbols : int;
}

type degradation = { dg_position : int; dg_kind : string; dg_detail : string }

type t = {
  position : int;
  checkpoint : int;
  journal_crc : int;
  rotations : int;
  epochs : epoch list;
  degradations : degradation list;
  cdc : Cdc.state;
  whomp : Seq_c.t * Seq_c.t * Seq_c.t * Seq_c.t;
  rasg : Seq_c.t;
  leap : Leap.live;
}

(* --- encoding --------------------------------------------------------- *)

let opt_atom = function None -> S.atom "-" | Some s -> S.list [ S.atom s ]

let group_to_sexp (g : Omc.group_state) =
  S.field "group" [ S.int g.Omc.gs_site; opt_atom g.Omc.gs_type; S.int g.Omc.gs_population ]

let lifetime_to_sexp (l : Omc.lifetime) =
  S.field "object"
    [
      S.int l.Omc.group;
      S.int l.Omc.serial;
      S.int l.Omc.base;
      S.int l.Omc.size;
      S.int l.Omc.alloc_time;
      S.int (match l.Omc.free_time with None -> -1 | Some t -> t);
      S.int (match l.Omc.free_site with None -> -1 | Some s -> s);
    ]

let cdc_to_sexp (s : Cdc.state) =
  S.field "cdc"
    ([
       S.field "grouping"
         [ S.atom (match s.Cdc.s_omc.Omc.s_grouping with `Site -> "site" | `Type -> "type") ];
       S.field "clock" [ S.int s.Cdc.s_clock ];
       S.field "wild" [ S.int s.Cdc.s_wild ];
       S.field "unknown-frees" [ S.int s.Cdc.s_omc.Omc.s_unknown_frees ];
     ]
    @ List.map group_to_sexp s.Cdc.s_omc.Omc.s_groups
    @ List.map lifetime_to_sexp s.Cdc.s_omc.Omc.s_lifetimes)

let stream_to_sexp (k : Leap.key) (s : Leap.stream) =
  S.field "stream"
    ([
       S.field "instr" [ S.int k.Leap.instr ];
       S.field "group" [ S.int k.Leap.group ];
       Lmad_io.state_to_sexp "comp" s.Leap.comp;
       Lmad_io.state_to_sexp "off" s.Leap.off;
       S.field "spans"
         (List.concat_map
            (fun (sp : Leap.span) -> [ S.int sp.Leap.t_first; S.int sp.Leap.t_last ])
            (List.rev (Ormp_util.Vec.fold_left (fun acc sp -> sp :: acc) [] s.Leap.spans)));
     ]
    @
    match s.Leap.dspan with
    | None -> []
    | Some sp -> [ S.field "dspan" [ S.int sp.Leap.t_first; S.int sp.Leap.t_last ] ])

let leap_to_sexp (lv : Leap.live) =
  S.field "leap"
    ([
       S.field "stores"
         (List.filter_map (fun (i, st) -> if st then Some (S.int i) else None) lv.Leap.lv_stores);
       S.field "instrs" (List.map (fun (i, _) -> S.int i) lv.Leap.lv_stores);
       S.field "dropped"
         (List.concat_map
            (fun (k : Leap.key) -> [ S.int k.Leap.instr; S.int k.Leap.group ])
            lv.Leap.lv_dropped);
       S.field "dropped-accesses" [ S.int lv.Leap.lv_dropped_accesses ];
     ]
    @ List.map (fun (k, s) -> stream_to_sexp k s) lv.Leap.lv_streams)

let epoch_to_sexp (e : epoch) =
  S.field "epoch"
    [
      S.int e.ep_index;
      S.atom e.ep_dim;
      S.atom e.ep_file;
      S.int e.ep_from;
      S.int e.ep_to;
      S.int e.ep_symbols;
    ]

let degradation_to_sexp (d : degradation) =
  S.field "degradation" [ S.int d.dg_position; S.atom d.dg_kind; S.atom d.dg_detail ]

let to_sexp (t : t) =
  let gi, gg, go, gf = t.whomp in
  S.field "ormp-session-snapshot"
    ([
       S.field "version" [ S.int version ];
       S.field "position" [ S.int t.position ];
       S.field "checkpoint" [ S.int t.checkpoint ];
       S.field "journal-crc" [ S.int t.journal_crc ];
       S.field "rotations" [ S.int t.rotations ];
     ]
    @ List.map epoch_to_sexp t.epochs
    @ List.map degradation_to_sexp t.degradations
    @ [
        cdc_to_sexp t.cdc;
        S.field "whomp"
          [
            Grammar_io.to_sexp ~live:true ("instr", gi);
            Grammar_io.to_sexp ~live:true ("group", gg);
            Grammar_io.to_sexp ~live:true ("object", go);
            Grammar_io.to_sexp ~live:true ("offset", gf);
          ];
        S.field "rasg" [ Grammar_io.to_sexp ~live:true ("rasg", t.rasg) ];
        leap_to_sexp t.leap;
      ])

(* --- decoding --------------------------------------------------------- *)

let ( let* ) = Result.bind

let rec collect_results = function
  | [] -> Ok []
  | Ok x :: rest ->
    let* xs = collect_results rest in
    Ok (x :: xs)
  | Error e :: _ -> Error e

let int_list args = collect_results (List.map S.as_int args)

let int_field name t =
  let* args = S.assoc name t in
  match args with [ x ] -> S.as_int x | _ -> Error ("bad field " ^ name)

let pick rest name f =
  collect_results
    (List.filter_map
       (function S.List (S.Atom n :: args) when n = name -> Some (f args) | _ -> None)
       rest)

let group_of_sexp args =
  match args with
  | [ site; ty; population ] ->
    let* gs_site = S.as_int site in
    let* gs_type =
      match ty with
      | S.Atom "-" -> Ok None
      | S.List [ S.Atom t ] -> Ok (Some t)
      | _ -> Error "bad group type"
    in
    let* gs_population = S.as_int population in
    Ok { Omc.gs_site; gs_type; gs_population }
  | _ -> Error "bad group"

let lifetime_of_sexp args =
  let* xs = int_list args in
  match xs with
  | [ group; serial; base; size; alloc_time; free; free_site ] ->
    Ok
      {
        Omc.group;
        serial;
        base;
        size;
        alloc_time;
        free_time = (if free < 0 then None else Some free);
        free_site = (if free_site < 0 then None else Some free_site);
      }
  | _ -> Error "bad object record"

let cdc_of_sexp args =
  let body = S.List (S.Atom "_" :: args) in
  let* grouping =
    let* g = S.assoc "grouping" body in
    match g with
    | [ S.Atom "site" ] -> Ok `Site
    | [ S.Atom "type" ] -> Ok `Type
    | _ -> Error "bad grouping"
  in
  let* s_clock = int_field "clock" body in
  let* s_wild = int_field "wild" body in
  let* s_unknown_frees = int_field "unknown-frees" body in
  let* s_groups = pick args "group" group_of_sexp in
  let* s_lifetimes = pick args "object" lifetime_of_sexp in
  Ok
    {
      Cdc.s_omc = { Omc.s_grouping = grouping; s_groups; s_lifetimes; s_unknown_frees };
      s_clock;
      s_wild;
    }

let stream_of_sexp t =
  let* instr = int_field "instr" t in
  let* group = int_field "group" t in
  let* comp = Lmad_io.state_of_sexp "comp" t in
  let* off = Lmad_io.state_of_sexp "off" t in
  let* span_args = S.assoc "spans" t in
  let* span_ints = int_list span_args in
  let spans = Ormp_util.Vec.create () in
  let rec pair_up = function
    | [] -> Ok ()
    | a :: b :: rest ->
      Ormp_util.Vec.push spans { Leap.t_first = a; t_last = b };
      pair_up rest
    | [ _ ] -> Error "odd span list"
  in
  let* () = pair_up span_ints in
  let* dspan =
    match S.assoc "dspan" t with
    | Ok [ a; b ] ->
      let* a = S.as_int a in
      let* b = S.as_int b in
      Ok (Some { Leap.t_first = a; t_last = b })
    | Ok _ -> Error "bad dspan"
    | Error _ -> Ok None
  in
  Ok ({ Leap.instr; group }, { Leap.comp; spans; off; dspan })

let leap_of_sexp args =
  let body = S.List (S.Atom "_" :: args) in
  let* store_args = S.assoc "stores" body in
  let* stores = int_list store_args in
  let* instr_args = S.assoc "instrs" body in
  let* instrs = int_list instr_args in
  let* dropped_args = S.assoc "dropped" body in
  let* dropped_ints = int_list dropped_args in
  let rec pair_up = function
    | [] -> Ok []
    | i :: g :: rest ->
      let* ks = pair_up rest in
      Ok ({ Leap.instr = i; group = g } :: ks)
    | [ _ ] -> Error "odd dropped list"
  in
  let* lv_dropped = pair_up dropped_ints in
  let* lv_dropped_accesses = int_field "dropped-accesses" body in
  let* lv_streams =
    pick args "stream" (fun a -> stream_of_sexp (S.List (S.Atom "_" :: a)))
  in
  let lv_stores =
    List.map (fun i -> (i, List.mem i stores)) (List.sort_uniq compare instrs)
  in
  Ok { Leap.lv_streams; lv_stores; lv_dropped; lv_dropped_accesses }

let epoch_of_sexp args =
  match args with
  | [ idx; dim; file; from_; to_; symbols ] ->
    let* ep_index = S.as_int idx in
    let* ep_dim = S.as_atom dim in
    let* ep_file = S.as_atom file in
    let* ep_from = S.as_int from_ in
    let* ep_to = S.as_int to_ in
    let* ep_symbols = S.as_int symbols in
    Ok { ep_index; ep_dim; ep_file; ep_from; ep_to; ep_symbols }
  | _ -> Error "bad epoch"

let degradation_of_sexp args =
  match args with
  | [ pos; kind; detail ] ->
    let* dg_position = S.as_int pos in
    let* dg_kind = S.as_atom kind in
    let* dg_detail = S.as_atom detail in
    Ok { dg_position; dg_kind; dg_detail }
  | _ -> Error "bad degradation"

let grammar_in name args =
  let* named = collect_results (List.map (fun g -> S.as_list g) args) in
  let* found =
    match
      List.find_opt
        (function
          | S.Atom "grammar" :: body -> (
            match S.assoc "dim" (S.List (S.Atom "_" :: body)) with
            | Ok [ S.Atom d ] -> d = name
            | _ -> false)
          | _ -> false)
        named
    with
    | Some (_ :: body) -> Ok body
    | _ -> Error (Printf.sprintf "missing %s grammar" name)
  in
  let* _, g = Grammar_io.of_sexp found in
  Ok g

let of_sexp t =
  let* args = S.as_list t in
  match args with
  | S.Atom "ormp-session-snapshot" :: rest ->
    let body = S.List (S.Atom "_" :: rest) in
    let* v = int_field "version" body in
    if v <> version then Error (Printf.sprintf "unsupported snapshot version %d" v)
    else
      let* position = int_field "position" body in
      let* checkpoint = int_field "checkpoint" body in
      let* journal_crc = int_field "journal-crc" body in
      let* rotations = int_field "rotations" body in
      let* epochs = pick rest "epoch" epoch_of_sexp in
      let* degradations = pick rest "degradation" degradation_of_sexp in
      let* cdc_args = S.assoc "cdc" body in
      let* cdc = cdc_of_sexp cdc_args in
      let* whomp_args = S.assoc "whomp" body in
      let* gi = grammar_in "instr" whomp_args in
      let* gg = grammar_in "group" whomp_args in
      let* go = grammar_in "object" whomp_args in
      let* gf = grammar_in "offset" whomp_args in
      let* rasg_args = S.assoc "rasg" body in
      let* rasg = grammar_in "rasg" rasg_args in
      let* leap_args = S.assoc "leap" body in
      let* leap = leap_of_sexp leap_args in
      Ok
        {
          position;
          checkpoint;
          journal_crc;
          rotations;
          epochs;
          degradations;
          cdc;
          whomp = (gi, gg, go, gf);
          rasg;
          leap;
        }
  | _ -> Error "not an ormp-session-snapshot"

let save ?io path t = Storage.save_sealed ?io path (to_sexp t)

let load path =
  match
    let* s = Storage.load_sealed path in
    of_sexp s
  with
  | result -> result
  | exception exn ->
    Error (Printf.sprintf "corrupt snapshot %s: %s" path (Printexc.to_string exn))
