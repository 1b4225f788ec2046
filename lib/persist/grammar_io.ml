module S = Ormp_util.Sexp
module Seq_c = Ormp_sequitur.Sequitur

let ( let* ) = Result.bind

let rec collect_results = function
  | [] -> Ok []
  | Ok x :: rest ->
    let* xs = collect_results rest in
    Ok (x :: xs)
  | Error e :: _ -> Error e

(* One grammar as [(grammar (dim <name>) (rule <id> <sym>...)...)]:
   terminals are bare ints, non-terminals [R<id>] atoms. Rules are
   enumerated with {!Ormp_sequitur.Sequitur.iter_rules} — same ascending-id
   order as [rules], without materializing the intermediate listing. With
   [~live:true] a trailing [(live (next-rule <id>) (rebound <rule> <pos>...)
   (unbound <rule> <pos>...))] field carries the compressor's
   {!Ormp_sequitur.Sequitur.live} record. *)
let to_sexp ?(live = false) (name, g) =
  let rules = ref [] in
  Seq_c.iter_rules g (fun id rhs ->
      rules :=
        S.field "rule"
          (S.int id
          :: List.map
               (function `T v -> S.int v | `N id -> S.atom (Printf.sprintf "R%d" id))
               rhs)
        :: !rules);
  if live then begin
    let l = Seq_c.live g in
    let anchors name xs = S.field name (List.concat_map (fun (r, p) -> [ S.int r; S.int p ]) xs) in
    rules :=
      S.field "live"
        [
          S.field "next-rule" [ S.int l.Seq_c.next_rule ];
          anchors "rebound" l.Seq_c.rebound;
          anchors "unbound" l.Seq_c.unbound;
        ]
      :: !rules
  end;
  S.field "grammar" (S.field "dim" [ S.atom name ] :: List.rev !rules)

let sym_of_atom a =
  if String.length a > 1 && a.[0] = 'R' then
    match int_of_string_opt (String.sub a 1 (String.length a - 1)) with
    | Some r -> Ok (`N r)
    | None -> Error ("bad symbol " ^ a)
  else
    match int_of_string_opt a with
    | Some v -> Ok (`T v)
    | None -> Error ("bad symbol " ^ a)

let live_of_sexp fields =
  let body = S.List (S.Atom "_" :: fields) in
  let* next_rule =
    let* a = S.assoc "next-rule" body in
    match a with [ x ] -> S.as_int x | _ -> Error "bad next-rule"
  in
  let anchors name =
    let* xs = S.assoc name body in
    let* ints = collect_results (List.map S.as_int xs) in
    let rec pairs = function
      | [] -> Ok []
      | r :: p :: rest ->
        let* tl = pairs rest in
        Ok ((r, p) :: tl)
      | [ _ ] -> Error ("odd " ^ name ^ " anchor list")
    in
    pairs ints
  in
  let* rebound = anchors "rebound" in
  let* unbound = anchors "unbound" in
  Ok { Seq_c.next_rule; rebound; unbound }

(* [args] are the elements after the [grammar] atom. The live grammar is
   rebuilt straight from the listing by {!Ormp_sequitur.Sequitur.of_rules},
   which also rejects malformed listings (cyclic, dangling, unreachable or
   duplicate rules, impossible ids and lengths) from corrupt files; a
   [(live ...)] field, when present, is applied so the grammar continues
   exactly. *)
let of_sexp args =
  let body = S.List (S.Atom "_" :: args) in
  let* dim_args = S.assoc "dim" body in
  let* dim = match dim_args with [ a ] -> S.as_atom a | _ -> Error "bad dim" in
  let* rules, live =
    List.fold_left
      (fun acc item ->
        let* rules, live = acc in
        match item with
        | S.List (S.Atom "rule" :: S.Atom id_s :: rhs) -> (
          match int_of_string_opt id_s with
          | None -> Error ("bad rule id " ^ id_s)
          | Some id ->
            let* syms =
              collect_results
                (List.map
                   (fun s ->
                     let* a = S.as_atom s in
                     sym_of_atom a)
                   rhs)
            in
            Ok ((id, syms) :: rules, live))
        | S.List (S.Atom "live" :: fields) ->
          if live <> None then Error "duplicate live record"
          else
            let* l = live_of_sexp fields in
            Ok (rules, Some l)
        | _ -> Ok (rules, live))
      (Ok ([], None))
      args
  in
  let* g = Seq_c.of_rules ?live (List.rev rules) in
  Ok (dim, g)

let save path (name, g) = S.save path (to_sexp (name, g))

let load path =
  match
    let* t = S.load path in
    let* args = S.as_list t in
    match args with
    | S.Atom "grammar" :: rest -> of_sexp rest
    | _ -> Error "not a grammar file"
  with
  | result -> result
  | exception exn -> Error (Printf.sprintf "corrupt grammar %s: %s" path (Printexc.to_string exn))
