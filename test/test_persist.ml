open Ormp_util

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Sexp                                                                *)
(* ------------------------------------------------------------------ *)

let roundtrip t =
  match Sexp.of_string (Sexp.to_string t) with
  | Ok t' -> Alcotest.(check string) "roundtrip" (Sexp.to_string t) (Sexp.to_string t')
  | Error msg -> Alcotest.fail ("parse: " ^ msg)

let test_sexp_atoms () =
  roundtrip (Sexp.atom "hello");
  roundtrip (Sexp.int (-42));
  roundtrip (Sexp.atom "with space");
  roundtrip (Sexp.atom "quote\"and\\slash");
  roundtrip (Sexp.atom "");
  roundtrip (Sexp.atom "line\nbreak")

let test_sexp_lists () =
  roundtrip (Sexp.list []);
  roundtrip (Sexp.list [ Sexp.int 1; Sexp.list [ Sexp.atom "a"; Sexp.int 2 ]; Sexp.atom "b" ]);
  roundtrip (Sexp.field "name" [ Sexp.int 1; Sexp.int 2 ])

let test_sexp_parse_errors () =
  let fails s = match Sexp.of_string s with Ok _ -> false | Error _ -> true in
  check_bool "unterminated list" true (fails "(a b");
  check_bool "stray paren" true (fails ")");
  check_bool "trailing garbage" true (fails "(a) b");
  check_bool "unterminated string" true (fails "\"abc");
  check_bool "empty input" true (fails "   ")

let test_sexp_comments_and_ws () =
  match Sexp.of_string "  ; header comment\n (a ; inline\n b)  " with
  | Ok t -> Alcotest.(check string) "parsed" "(a b)" (Sexp.to_string t)
  | Error msg -> Alcotest.fail msg

let test_sexp_accessors () =
  let t = Sexp.list [ Sexp.field "x" [ Sexp.int 7 ]; Sexp.field "y" [ Sexp.atom "z" ] ] in
  (match Sexp.assoc "x" t with
  | Ok [ v ] -> check_int "field x" 7 (Result.get_ok (Sexp.as_int v))
  | _ -> Alcotest.fail "assoc x");
  check_bool "missing field" true (Result.is_error (Sexp.assoc "zz" t));
  check_bool "as_int rejects list" true (Result.is_error (Sexp.as_int (Sexp.list [])));
  check_bool "as_atom rejects list" true (Result.is_error (Sexp.as_atom (Sexp.list [])));
  check_bool "as_list rejects atom" true (Result.is_error (Sexp.as_list (Sexp.atom "a")))

let test_sexp_file_io () =
  let path = Filename.temp_file "ormp_sexp" ".sexp" in
  let t = Sexp.field "root" [ Sexp.int 1; Sexp.list [ Sexp.atom "nested"; Sexp.int 2 ] ] in
  Sexp.save path t;
  (match Sexp.load path with
  | Ok t' -> Alcotest.(check string) "file roundtrip" (Sexp.to_string t) (Sexp.to_string t')
  | Error msg -> Alcotest.fail msg);
  Sys.remove path

let prop_sexp_roundtrip =
  let gen =
    QCheck.Gen.(
      sized @@ fix (fun self n ->
          if n <= 0 then map (fun i -> Sexp.int i) int
          else
            frequency
              [
                (2, map (fun i -> Sexp.int i) int);
                (2, map (fun s -> Sexp.atom s) (string_size (int_range 0 8)));
                (1, map (fun l -> Sexp.list l) (list_size (int_range 0 4) (self (n / 2))));
              ]))
  in
  QCheck.Test.make ~name:"sexp print/parse roundtrip" ~count:500
    (QCheck.make ~print:Sexp.to_string gen)
    (fun t ->
      match Sexp.of_string (Sexp.to_string t) with
      | Ok t' -> Sexp.to_string t = Sexp.to_string t'
      | Error _ -> false)

(* ------------------------------------------------------------------ *)
(* LEAP profile round-trip                                             *)
(* ------------------------------------------------------------------ *)

let leap_profile program = Ormp_leap.Leap.profile program

let same_deps p q =
  Ormp_leap.Mdf.compute p = Ormp_leap.Mdf.compute q
  && Ormp_leap.Strides.strongly_strided p = Ormp_leap.Strides.strongly_strided q

let test_leap_roundtrip_regular () =
  let p = leap_profile (Ormp_workloads.Micro.array_stride ~elems:256 ~sweeps:4 ()) in
  let path = Filename.temp_file "ormp_leap" ".ormp" in
  Ormp_persist.Leap_io.save path p;
  (match Ormp_persist.Leap_io.load path with
  | Error msg -> Alcotest.fail msg
  | Ok q ->
    check_int "collected" p.Ormp_leap.Leap.collected q.Ormp_leap.Leap.collected;
    check_int "wild" p.Ormp_leap.Leap.wild q.Ormp_leap.Leap.wild;
    check_int "streams" (List.length p.Ormp_leap.Leap.streams)
      (List.length q.Ormp_leap.Leap.streams);
    check_bool "loads/stores preserved" true
      (Ormp_leap.Leap.loads p = Ormp_leap.Leap.loads q
      && Ormp_leap.Leap.stores p = Ormp_leap.Leap.stores q);
    check_bool "post-processors agree" true (same_deps p q);
    Alcotest.(check (float 1e-9))
      "capture stats preserved"
      (Ormp_leap.Leap.accesses_captured p)
      (Ormp_leap.Leap.accesses_captured q));
  Sys.remove path

let test_leap_roundtrip_lossy () =
  (* hash_probe overflows budgets: summaries and dspans must survive. *)
  let p = leap_profile (Ormp_workloads.Micro.hash_probe ~buckets:512 ~ops:4096 ()) in
  let path = Filename.temp_file "ormp_leap" ".ormp" in
  Ormp_persist.Leap_io.save path p;
  (match Ormp_persist.Leap_io.load path with
  | Error msg -> Alcotest.fail msg
  | Ok q ->
    check_bool "post-processors agree" true (same_deps p q);
    Alcotest.(check (float 1e-9))
      "instructions captured preserved"
      (Ormp_leap.Leap.instructions_captured p)
      (Ormp_leap.Leap.instructions_captured q);
    check_int "byte size close" (Ormp_leap.Leap.byte_size p) (Ormp_leap.Leap.byte_size q));
  Sys.remove path

let test_leap_load_errors () =
  check_bool "missing file" true (Result.is_error (Ormp_persist.Leap_io.load "/nonexistent"));
  let path = Filename.temp_file "ormp_leap" ".ormp" in
  let oc = open_out path in
  output_string oc "(wrong-tag)";
  close_out oc;
  check_bool "wrong tag" true (Result.is_error (Ormp_persist.Leap_io.load path));
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* Corruption paths: load must return Error, never raise               *)
(* ------------------------------------------------------------------ *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let with_tempfile f =
  let path = Filename.temp_file "ormp_corrupt" ".ormp" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let find_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None else if String.sub s i m = sub then Some i else go (i + 1)
  in
  go 0

(* Rewrite the first "(field ...)" occurrence to "(field value)"; the
   saved formats keep scalar fields flat, so scanning to the next ')'
   is safe. *)
let replace_field field value s =
  match find_sub s ("(" ^ field) with
  | None -> Alcotest.failf "field %s not present in file" field
  | Some i ->
    let j = String.index_from s i ')' in
    String.sub s 0 i
    ^ Printf.sprintf "(%s %s" field value
    ^ String.sub s j (String.length s - j)

(* Every mutation of a valid profile file must come back as a clean
   [Error _] from load — a raised exception here would take down any
   tool that inspects untrusted profile files. *)
let corruption_cases load save =
  let errs name loader = check_bool name true (Result.is_error loader) in
  with_tempfile (fun path ->
      save path;
      let good = read_file path in
      (* Sanity: the untouched file still loads. *)
      check_bool "pristine file loads" true (Result.is_ok (load path));
      write_file path (String.sub good 0 (String.length good / 2));
      errs "truncated to half" (load path);
      write_file path (String.sub good 0 (String.length good - 2));
      errs "closing paren missing" (load path);
      write_file path (replace_field "collected" "banana" good);
      errs "non-numeric count" (load path);
      write_file path (replace_field "version" "99" good);
      errs "future version" (load path);
      write_file path "";
      errs "empty file" (load path))

let test_leap_corruption () =
  let p = leap_profile (Ormp_workloads.Micro.hash_probe ~buckets:128 ~ops:1024 ()) in
  corruption_cases Ormp_persist.Leap_io.load (fun path -> Ormp_persist.Leap_io.save path p)

let test_whomp_corruption () =
  let p = Ormp_whomp.Whomp.profile (Ormp_workloads.Micro.churn ~live:8 ~ops:600 ()) in
  corruption_cases Ormp_persist.Whomp_io.load (fun path -> Ormp_persist.Whomp_io.save path p)

(* A grammar whose rules reference each other in a cycle would send a
   naive expander into an infinite loop; the loader must detect it. *)
let test_whomp_cyclic_grammar () =
  let p = Ormp_whomp.Whomp.profile (Ormp_workloads.Micro.matrix ~n:4 ()) in
  with_tempfile (fun path ->
      Ormp_persist.Whomp_io.save path p;
      let good = read_file path in
      (* Insert a self-reference at the head of the first start rule:
         "(rule 0 ..." becomes "(rule 0 R0 ...", so expanding R0 visits
         R0 again. *)
      let cyclic =
        match find_sub good "(rule 0" with
        | None -> Alcotest.fail "no start rule in file"
        | Some i ->
          String.sub good 0 (i + 7) ^ " R0" ^ String.sub good (i + 7) (String.length good - i - 7)
      in
      write_file path cyclic;
      check_bool "cyclic grammar rejected" true
        (Result.is_error (Ormp_persist.Whomp_io.load path)))

(* Every listing the grammar decoder cannot rebuild exactly comes back
   as [Error] — including the ones the expand-and-replay loader used to
   accept silently (a duplicate id let the last rule win, an unreachable
   rule was dropped) or tried to expand in memory (an overflowing
   doubling chain). *)
let grammar_text body = "(grammar (dim x) " ^ body ^ ")"

let doubling_text depth =
  String.concat " "
    (List.init depth (fun k -> Printf.sprintf "(rule %d R%d R%d)" k (k + 1) (k + 1))
    @ [ Printf.sprintf "(rule %d 1 2)" depth ])

let test_grammar_decoder_totality () =
  let load_text text =
    with_tempfile (fun path ->
        write_file path text;
        Ormp_persist.Grammar_io.load path)
  in
  let rejects name body =
    match load_text (grammar_text body) with
    | Ok _ -> Alcotest.failf "%s: accepted" name
    | Error _ -> ()
  in
  rejects "duplicate rule id" "(rule 0 R1 R1) (rule 1 1 2) (rule 1 3 4)";
  rejects "unreachable rule" "(rule 0 1 2) (rule 1 3 4)";
  rejects "non-start rule used once" "(rule 0 R1 5) (rule 1 1 2)";
  rejects "negative rule id" "(rule 0 R-1 R-1) (rule -1 1 2)";
  rejects "id above the expansion length + 1" "(rule 0 R100 R100) (rule 100 1 2)";
  rejects "live anchor out of range"
    "(rule 0 1 2 3) (live (next-rule 1) (rebound 0 5) (unbound))";
  rejects "live anchor on the last symbol"
    "(rule 0 1 2 3) (live (next-rule 1) (rebound) (unbound 0 2))";
  rejects "live anchor in a missing rule"
    "(rule 0 1 2 3) (live (next-rule 1) (rebound 4 0) (unbound))";
  rejects "odd live anchor list" "(rule 0 1 2 3) (live (next-rule 1) (rebound 0) (unbound))";
  rejects "64-level doubling overflows" (doubling_text 64);
  (* The 40-level chain claims 2^41 terminals and loads in O(40). *)
  (match load_text (grammar_text (doubling_text 40)) with
  | Error e -> Alcotest.fail e
  | Ok (_, g) ->
    check_int "claimed length" (1 lsl 41) (Ormp_sequitur.Sequitur.input_length g);
    check_int "listing size" 82 (Ormp_sequitur.Sequitur.grammar_size g));
  (* A duplicate start rule inside a real profile: the whole load fails. *)
  let p = Ormp_whomp.Whomp.profile (Ormp_workloads.Micro.matrix ~n:4 ()) in
  with_tempfile (fun path ->
      Ormp_persist.Whomp_io.save path p;
      let good = read_file path in
      let dup =
        match find_sub good "(rule 0" with
        | None -> Alcotest.fail "no start rule in file"
        | Some i -> String.sub good 0 i ^ "(rule 0 1 2) " ^ String.sub good i (String.length good - i)
      in
      write_file path dup;
      check_bool "duplicate start rule rejected" true
        (Result.is_error (Ormp_persist.Whomp_io.load path)))

(* The live record round-trips through the codec: a grammar decoded from
   [to_sexp ~live:true] continues exactly like the one encoded, and
   profile-style encoding carries no live field. *)
let test_grammar_live_roundtrip () =
  let module Seq = Ormp_sequitur.Sequitur in
  let rng = Prng.create ~seed:7 in
  let a = Array.init 3000 (fun _ -> Prng.int rng 3) in
  let cut = 1700 in
  let whole = Seq.create () in
  Seq.push_array whole a;
  let g = Seq.create () in
  Seq.push_batch g a ~off:0 ~len:cut;
  let fields sx = match sx with Sexp.List (_ :: args) -> args | _ -> [] in
  check_bool "no live field by default" true
    (Result.is_error (Sexp.assoc "live" (Ormp_persist.Grammar_io.to_sexp ("x", g))));
  match Ormp_persist.Grammar_io.of_sexp (fields (Ormp_persist.Grammar_io.to_sexp ~live:true ("x", g))) with
  | Error e -> Alcotest.fail e
  | Ok (_, r) ->
    check_bool "live record preserved" true (Seq.live r = Seq.live g);
    Seq.push_batch r a ~off:cut ~len:(Array.length a - cut);
    check_bool "continues like the uninterrupted compressor" true (Seq.rules r = Seq.rules whole)

(* ------------------------------------------------------------------ *)
(* WHOMP profile round-trip                                            *)
(* ------------------------------------------------------------------ *)

let test_whomp_roundtrip () =
  let p = Ormp_whomp.Whomp.profile (Ormp_workloads.Micro.linked_list ~nodes:16 ~sweeps:4 ()) in
  let path = Filename.temp_file "ormp_whomp" ".ormp" in
  Ormp_persist.Whomp_io.save path p;
  (match Ormp_persist.Whomp_io.load path with
  | Error msg -> Alcotest.fail msg
  | Ok q ->
    check_int "collected" p.Ormp_whomp.Whomp.collected q.Ormp_whomp.Whomp.collected;
    check_int "grammar sizes identical" (Ormp_whomp.Whomp.omsg_size p)
      (Ormp_whomp.Whomp.omsg_size q);
    check_int "byte sizes identical" (Ormp_whomp.Whomp.omsg_bytes p)
      (Ormp_whomp.Whomp.omsg_bytes q);
    check_bool "streams identical" true
      (List.for_all2
         (fun (d1, g1) (d2, g2) ->
           d1 = d2 && Ormp_sequitur.Sequitur.expand g1 = Ormp_sequitur.Sequitur.expand g2)
         p.Ormp_whomp.Whomp.dims q.Ormp_whomp.Whomp.dims);
    check_int "lifetimes preserved"
      (List.length p.Ormp_whomp.Whomp.lifetimes)
      (List.length q.Ormp_whomp.Whomp.lifetimes);
    check_bool "groups preserved" true (p.Ormp_whomp.Whomp.groups = q.Ormp_whomp.Whomp.groups));
  Sys.remove path

let test_whomp_expand_after_load () =
  let program = Ormp_workloads.Micro.matrix ~n:6 () in
  let p = Ormp_whomp.Whomp.profile program in
  let path = Filename.temp_file "ormp_whomp" ".ormp" in
  Ormp_persist.Whomp_io.save path p;
  (match Ormp_persist.Whomp_io.load path with
  | Error msg -> Alcotest.fail msg
  | Ok q ->
    let tuples_p = Ormp_whomp.Whomp.expand p and tuples_q = Ormp_whomp.Whomp.expand q in
    check_bool "lossless through the file" true (tuples_p = tuples_q));
  Sys.remove path

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "ormp_persist"
    [
      ( "sexp",
        [
          tc "atoms" test_sexp_atoms;
          tc "lists" test_sexp_lists;
          tc "parse errors" test_sexp_parse_errors;
          tc "comments and whitespace" test_sexp_comments_and_ws;
          tc "accessors" test_sexp_accessors;
          tc "file io" test_sexp_file_io;
          QCheck_alcotest.to_alcotest prop_sexp_roundtrip;
        ] );
      ( "leap",
        [
          tc "roundtrip (regular)" test_leap_roundtrip_regular;
          tc "roundtrip (lossy)" test_leap_roundtrip_lossy;
          tc "load errors" test_leap_load_errors;
          tc "corruption paths" test_leap_corruption;
        ] );
      ( "whomp",
        [
          tc "roundtrip" test_whomp_roundtrip;
          tc "expand after load" test_whomp_expand_after_load;
          tc "corruption paths" test_whomp_corruption;
          tc "cyclic grammar" test_whomp_cyclic_grammar;
          tc "grammar decoder totality" test_grammar_decoder_totality;
          tc "grammar live record round-trip" test_grammar_live_roundtrip;
        ] );
    ]
