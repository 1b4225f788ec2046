open Ormp_sequitur

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let of_string s = Array.init (String.length s) (fun i -> Char.code s.[i])

let compress a =
  let t = Sequitur.create () in
  Sequitur.push_array t a;
  t

let ok t =
  match Sequitur.check_invariants t with
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("invariants: " ^ msg)

let roundtrip name a =
  let t = compress a in
  Alcotest.(check (array int)) (name ^ ": lossless") a (Sequitur.expand t);
  check_int (name ^ ": input length") (Array.length a) (Sequitur.input_length t);
  ok t;
  t

let test_empty () =
  let t = Sequitur.create () in
  Alcotest.(check (array int)) "expand empty" [||] (Sequitur.expand t);
  check_int "size" 0 (Sequitur.grammar_size t);
  check_int "rules" 1 (Sequitur.rule_count t);
  ok t

let test_single () = ignore (roundtrip "single" [| 7 |])
let test_pair () = ignore (roundtrip "pair" [| 7; 8 |])

let test_paper_example () =
  (* The paper's own example (§3.1): "abcbcabcbc" compresses to
     S -> AA; A -> aBB; B -> bc. *)
  let t = roundtrip "abcbcabcbc" (of_string "abcbcabcbc") in
  check_int "three rules" 3 (Sequitur.rule_count t);
  let by_id = Sequitur.rules t in
  let s_rhs = List.assoc 0 by_id in
  check_int "S has two symbols" 2 (List.length s_rhs);
  (match s_rhs with
  | [ `N a; `N b ] -> check_int "S -> AA" a b
  | _ -> Alcotest.fail "start rule is not a doubled non-terminal");
  (* 2 (S) + 3 (A -> aBB) + 2 (B -> bc) *)
  check_int "grammar size" 7 (Sequitur.grammar_size t)

let test_abab () =
  let t = roundtrip "abab" (of_string "abab") in
  (* S -> AA; A -> ab *)
  check_int "rules" 2 (Sequitur.rule_count t);
  check_int "size" 4 (Sequitur.grammar_size t)

let test_no_repetition () =
  let t = roundtrip "abcdefg" (of_string "abcdefg") in
  check_int "no rules created" 1 (Sequitur.rule_count t);
  check_int "size equals input" 7 (Sequitur.grammar_size t)

let test_runs_of_equal_symbols () =
  ignore (roundtrip "aa" (of_string "aa"));
  ignore (roundtrip "aaa" (of_string "aaa"));
  ignore (roundtrip "aaaa" (of_string "aaaa"));
  ignore (roundtrip "aaaaa" (of_string "aaaaa"));
  ignore (roundtrip "aaaaaaaaaaaaaaaa" (of_string "aaaaaaaaaaaaaaaa"));
  ignore (roundtrip "aaabaaab" (of_string "aaabaaab"));
  ignore (roundtrip "aabbaabb" (of_string "aabbaabb"))

let test_long_repetition_compresses () =
  let a = Array.init 4096 (fun i -> i mod 4) in
  let t = roundtrip "cycle" a in
  check_bool "compresses well" true (Sequitur.grammar_size t < 100)

let test_nested_repetition () =
  (* (ab)^2 repeated gives hierarchical rules. *)
  let a = of_string (String.concat "" (List.init 64 (fun _ -> "abcabd"))) in
  let t = roundtrip "nested" a in
  check_bool "compresses" true (Sequitur.grammar_size t < 64)

let test_negative_terminals () =
  ignore (roundtrip "negatives" [| -1; -2; -1; -2; -1; -2; -1; -2 |])

let test_large_terminals () =
  let big = 1 lsl 40 in
  ignore (roundtrip "large" [| big; big + 1; big; big + 1; big; big + 1 |])

let test_incremental_equals_batch () =
  let a = of_string "xyxyxyzxyxyxyz" in
  let t1 = compress a in
  let t2 = Sequitur.create () in
  Array.iter (fun v -> Sequitur.push t2 v) a;
  check_int "same size" (Sequitur.grammar_size t1) (Sequitur.grammar_size t2);
  Alcotest.(check (array int)) "same expansion" (Sequitur.expand t1) (Sequitur.expand t2)

let test_byte_size_positive () =
  let t = compress (of_string "abcbcabcbc") in
  check_bool "byte size positive" true (Sequitur.byte_size t > 0);
  check_bool "byte size >= rule count (separators)" true
    (Sequitur.byte_size t >= Sequitur.rule_count t)

let test_byte_size_smaller_for_small_alphabet () =
  (* Same structure, small vs. huge terminal values: varint accounting must
     charge the huge ones more. *)
  let small = compress [| 1; 2; 3; 1; 2; 3 |] in
  let big_v = 1 lsl 40 in
  let big = compress [| big_v + 1; big_v + 2; big_v + 3; big_v + 1; big_v + 2; big_v + 3 |] in
  check_bool "small alphabet cheaper" true (Sequitur.byte_size small < Sequitur.byte_size big)

let contains_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_pp_output () =
  let t = compress (of_string "abab") in
  let s = Format.asprintf "%a" Sequitur.pp t in
  check_bool "mentions R0" true (contains_substring s "R0 ->")

(* Stress: digram uniqueness interacts with rule utility; a previously-used
   rule's whole RHS matching a new digram exercises the reuse path. *)
let test_rule_reuse_path () =
  let t = roundtrip "reuse" (of_string "abcdbcabcdbc") in
  ok t

(* --- arena vs. legacy equivalence ------------------------------------- *)

(* The flat-arena implementation must be indistinguishable from the record
   implementation it replaced: identical rules (ids included), sizes and
   expansion for any input. [Sequitur_legacy] is the old implementation
   kept verbatim as the oracle. *)
let equivalent a =
  let arena = compress a in
  let legacy = Sequitur_legacy.create () in
  Sequitur_legacy.push_array legacy a;
  Sequitur.rules arena = Sequitur_legacy.rules legacy
  && Sequitur.grammar_size arena = Sequitur_legacy.grammar_size legacy
  && Sequitur.rule_count arena = Sequitur_legacy.rule_count legacy
  && Sequitur.byte_size arena = Sequitur_legacy.byte_size legacy
  && Sequitur.expand arena = Sequitur_legacy.expand legacy
  && Sequitur.input_length arena = Sequitur_legacy.input_length legacy

let assert_equivalent name a =
  check_bool (name ^ ": arena = legacy") true (equivalent a)

let test_equivalence_corpus () =
  List.iter
    (fun s -> assert_equivalent s (of_string s))
    [
      "";
      "a";
      "ab";
      "abcbcabcbc";
      "abab";
      "abcdefg";
      "aaaa";
      "aaaaaaaaaaaaaaaa";
      "aaabaaab";
      "aabbaabb";
      "xyxyxyzxyxyxyz";
      "abcdbcabcdbc";
    ];
  assert_equivalent "cycle4" (Array.init 4096 (fun i -> i mod 4));
  assert_equivalent "negatives" [| -1; -2; -1; -2; -1; -2; -1; -2 |];
  let big = 1 lsl 40 in
  assert_equivalent "large terminals" [| big; big + 1; big; big + 1; big; big + 1 |]

(* Oversized terminal codes overflow the 31-bit packing lanes of the digram
   key, so distinct digrams can collide on the same packed key; both
   implementations must resolve those collisions identically (validate on
   lookup, repoint on mismatch). [pack (2v) (2w)] collides across values
   differing by multiples of 2^30, which this alphabet is built from. *)
let gen_collision_alphabet =
  let values =
    [| 0; 1; 2; 1 lsl 30; (1 lsl 30) + 1; 1 lsl 35; (1 lsl 35) + 1; -1; -2; 1 lsl 61 |]
  in
  QCheck.Gen.(
    sized (fun n ->
        let n = min n 300 in
        array_size (return n) (map (Array.get values) (int_bound (Array.length values - 1)))))

let gen_small_alphabet_ref =
  QCheck.Gen.(
    sized (fun n ->
        let n = min n 400 in
        array_size (return n) (int_range 0 3)))

let prop_equiv_small_alphabet =
  QCheck.Test.make ~name:"arena = legacy (alphabet of 4)" ~count:500
    (QCheck.make ~print:QCheck.Print.(array int) gen_small_alphabet_ref)
    equivalent

let prop_equiv_any =
  QCheck.Test.make ~name:"arena = legacy (arbitrary ints)" ~count:300
    QCheck.(array_of_size Gen.(int_range 0 200) int)
    equivalent

let prop_equiv_collisions =
  QCheck.Test.make ~name:"arena = legacy (digram-key collision stress)" ~count:400
    (QCheck.make ~print:QCheck.Print.(array int) gen_collision_alphabet)
    equivalent

let prop_equiv_runs =
  QCheck.Test.make ~name:"arena = legacy (concatenated runs)" ~count:300
    QCheck.(small_list (pair (int_range 0 2) (int_range 1 6)))
    (fun spec -> equivalent (Array.concat (List.map (fun (v, n) -> Array.make n v) spec)))

(* --- push_batch -------------------------------------------------------- *)

let test_push_batch_slice () =
  let a = of_string "..abcbcabcbc.." in
  let whole = compress (Array.sub a 2 10) in
  let sliced = Sequitur.create () in
  Sequitur.push_batch sliced a ~off:2 ~len:10;
  Alcotest.(check (array int)) "slice expansion" (Sequitur.expand whole) (Sequitur.expand sliced);
  check_int "slice size" (Sequitur.grammar_size whole) (Sequitur.grammar_size sliced);
  ok sliced

let test_push_batch_bad_span () =
  let t = Sequitur.create () in
  let raises off len =
    match Sequitur.push_batch t [| 1; 2; 3 |] ~off ~len with
    | () -> false
    | exception Invalid_argument _ -> true
  in
  check_bool "negative off" true (raises (-1) 2);
  check_bool "negative len" true (raises 0 (-1));
  check_bool "overrun" true (raises 2 2);
  check_int "nothing pushed" 0 (Sequitur.input_length t)

let test_iter_rules_matches_rules () =
  let t = compress (of_string "abcbcabcbc") in
  let acc = ref [] in
  Sequitur.iter_rules t (fun id rhs -> acc := (id, rhs) :: !acc);
  check_bool "iter_rules = rules" true (List.rev !acc = Sequitur.rules t)

let gen_small_alphabet =
  QCheck.Gen.(
    sized (fun n ->
        let n = min n 400 in
        array_size (return n) (int_range 0 3)))

let prop_roundtrip_small_alphabet =
  QCheck.Test.make ~name:"roundtrip (alphabet of 4)" ~count:500
    (QCheck.make ~print:QCheck.Print.(array int) gen_small_alphabet)
    (fun a ->
      let t = compress a in
      Sequitur.expand t = a)

let prop_invariants_small_alphabet =
  QCheck.Test.make ~name:"invariants hold (alphabet of 4)" ~count:300
    (QCheck.make ~print:QCheck.Print.(array int) gen_small_alphabet)
    (fun a ->
      let t = compress a in
      match Sequitur.check_invariants t with Ok () -> true | Error _ -> false)

let prop_roundtrip_any =
  QCheck.Test.make ~name:"roundtrip (arbitrary ints)" ~count:300
    QCheck.(array_of_size Gen.(int_range 0 200) int)
    (fun a ->
      let t = compress a in
      Sequitur.expand t = a)

let prop_grammar_never_larger =
  QCheck.Test.make ~name:"grammar size <= input length (non-trivial inputs)" ~count:300
    (QCheck.make ~print:QCheck.Print.(array int) gen_small_alphabet)
    (fun a ->
      let t = compress a in
      Array.length a < 2 || Sequitur.grammar_size t <= Array.length a)

let prop_runs =
  QCheck.Test.make ~name:"roundtrip on runs (worst case for digram overlap)" ~count:200
    QCheck.(pair (int_range 0 4) (int_range 0 64))
    (fun (v, n) ->
      let a = Array.make n v in
      let t = compress a in
      Sequitur.expand t = a
      && (match Sequitur.check_invariants t with Ok () -> true | Error _ -> false))

(* --- generation-counter sweep ----------------------------------------- *)

(* [gen_sweep] re-baselines the per-slot generation counters before the
   packed 29-bit field can wrap. It fires naturally only after hundreds of
   millions of symbol deaths, so these tests call it directly: at any push
   boundary it must be a pure no-op on the observable grammar — stale
   digram-index entries dropped, nothing else disturbed — and continued
   pushes must still match a compressor that never swept. *)
let test_gen_sweep_noop () =
  let a = of_string "abcdbcabcdbc" in
  let t = compress a in
  let before = Sequitur.rules t in
  Sequitur.gen_sweep t;
  ok t;
  check_bool "rules unchanged" true (Sequitur.rules t = before);
  Alcotest.(check (array int)) "expansion unchanged" a (Sequitur.expand t);
  (* Sweeping twice in a row must also be safe. *)
  Sequitur.gen_sweep t;
  ok t;
  check_bool "rules unchanged after second sweep" true (Sequitur.rules t = before)

let prop_gen_sweep_transparent =
  QCheck.Test.make ~name:"gen_sweep at any push boundary = legacy (alphabet of 4)" ~count:300
    (QCheck.make
       ~print:QCheck.Print.(pair (array int) int)
       QCheck.Gen.(pair gen_small_alphabet (int_bound 400)))
    (fun (a, cut) ->
      let cut = min cut (Array.length a) in
      let swept = Sequitur.create () in
      Sequitur.push_batch swept a ~off:0 ~len:cut;
      Sequitur.gen_sweep swept;
      Sequitur.push_batch swept a ~off:cut ~len:(Array.length a - cut);
      Sequitur.gen_sweep swept;
      let legacy = Sequitur_legacy.create () in
      Sequitur_legacy.push_array legacy a;
      (match Sequitur.check_invariants swept with Ok () -> true | Error _ -> false)
      && Sequitur.rules swept = Sequitur_legacy.rules legacy
      && Sequitur.grammar_size swept = Sequitur_legacy.grammar_size legacy
      && Sequitur.expand swept = Sequitur_legacy.expand legacy)

let prop_concat_runs =
  QCheck.Test.make ~name:"roundtrip on concatenated runs" ~count:300
    QCheck.(small_list (pair (int_range 0 2) (int_range 1 6)))
    (fun spec ->
      let a = Array.concat (List.map (fun (v, n) -> Array.make n v) spec) in
      let t = compress a in
      Sequitur.expand t = a)

(* --- loading from a listing --------------------------------------------- *)

let invariants_ok t = match Sequitur.check_invariants t with Ok () -> true | Error _ -> false

let gen_load_stream =
  QCheck.Gen.(
    int_range 1 12 >>= fun alphabet ->
    int_range 0 2000 >>= fun n -> array_size (return n) (int_bound (alphabet - 1)))

let print_stream = QCheck.Print.(array int)

(* The direct builder must rebuild exactly what replaying the expansion
   rebuilds — rules, expansion and sizes — and a valid arena. *)
let prop_of_rules_matches_replay =
  QCheck.Test.make ~name:"of_rules = expand-and-replay reference (alphabets 1-12)" ~count:300
    (QCheck.make ~print:print_stream gen_load_stream)
    (fun a ->
      let g = compress a in
      let listing = Sequitur.rules g in
      match (Sequitur.of_rules listing, Sequitur_legacy.of_rules_replay listing) with
      | Ok d, Ok r ->
        invariants_ok d
        && Sequitur.rules d = Sequitur.rules r
        && Sequitur.expand d = Sequitur.expand r
        && Sequitur.input_length d = Array.length a
        && Sequitur.grammar_size d = Sequitur.grammar_size r
        && Sequitur.byte_size d = Sequitur.byte_size r
        && Sequitur.rule_count d = Sequitur.rule_count r
      | Error e, _ | _, Error e -> QCheck.Test.fail_report e)

let resume_at ?(sweep = false) a cut =
  let g = Sequitur.create () in
  Sequitur.push_batch g a ~off:0 ~len:cut;
  if sweep then Sequitur.gen_sweep g;
  match Sequitur.of_rules ~live:(Sequitur.live g) (Sequitur.rules g) with
  | Error e -> Error e
  | Ok r ->
    if Sequitur.live r <> Sequitur.live g then Error "live record does not round-trip"
    else begin
      if sweep then Sequitur.gen_sweep r;
      Sequitur.push_batch r a ~off:cut ~len:(Array.length a - cut);
      Ok r
    end

(* A grammar rebuilt with its live record continues exactly like the
   compressor that never stopped, gen_sweep or not; and the bound that
   makes the loader's id check sound holds at every cut. *)
let prop_of_rules_continuation =
  QCheck.Test.make ~name:"of_rules ~live continues like the uninterrupted compressor"
    ~count:300
    (QCheck.make
       ~print:QCheck.Print.(triple print_stream int bool)
       QCheck.Gen.(triple gen_load_stream (int_bound 2000) bool))
    (fun (a, cut, sweep) ->
      let cut = cut mod (Array.length a + 1) in
      let whole = compress a in
      let prefix = Sequitur.create () in
      Sequitur.push_batch prefix a ~off:0 ~len:cut;
      let l = Sequitur.live prefix in
      if l.Sequitur.next_rule > Sequitur.input_length prefix + 1 then
        QCheck.Test.fail_reportf "next rule id %d above input length %d + 1" l.Sequitur.next_rule
          (Sequitur.input_length prefix);
      match resume_at ~sweep a cut with
      | Error e -> QCheck.Test.fail_report e
      | Ok r ->
        invariants_ok r
        && Sequitur.rules r = Sequitur.rules whole
        && Sequitur.live r = Sequitur.live whole
        && Sequitur.expand r = a)

(* The live record is needed: over every two-letter stream of up to 9
   symbols, cut anywhere, the canonical index alone sometimes continues
   differently (still losslessly), and the live record never does. *)
let test_live_record_needed () =
  let diverged = ref 0 in
  for n = 0 to 9 do
    for bits = 0 to (1 lsl n) - 1 do
      let a = Array.init n (fun i -> (bits lsr i) land 1) in
      let whole = compress a in
      for cut = 0 to n do
        (match resume_at a cut with
        | Error e -> Alcotest.fail e
        | Ok r ->
          if Sequitur.rules r <> Sequitur.rules whole then
            Alcotest.failf "live rebuild diverges at cut %d of %s" cut
              (String.concat "" (Array.to_list (Array.map string_of_int a))));
        let g = compress (Array.sub a 0 cut) in
        match Sequitur.of_rules (Sequitur.rules g) with
        | Error e -> Alcotest.fail e
        | Ok bare ->
          Sequitur.push_batch bare a ~off:cut ~len:(n - cut);
          if Sequitur.expand bare <> a then Alcotest.fail "bare rebuild lost data";
          if Sequitur.rules bare <> Sequitur.rules whole then incr diverged
      done
    done
  done;
  check_bool "some bare rebuild diverges" true (!diverged > 0)

let listing_error name listing ?live want =
  match Sequitur.of_rules ?live listing with
  | Ok _ -> Alcotest.failf "%s: accepted" name
  | Error e ->
    if not (contains_substring e want) then Alcotest.failf "%s: error %S lacks %S" name e want

(* [R_k -> R_{k+1} R_{k+1}] for k < depth, [R_depth -> 1 2]: expansion
   length 2^(depth+1) from a listing of depth+1 rules. *)
let doubling depth =
  List.init depth (fun k -> (k, [ `N (k + 1); `N (k + 1) ])) @ [ (depth, [ `T 1; `T 2 ]) ]

(* Listing and live-record checks beyond the file-level corruption cases
   in test_persist.ml; each must name its cause. *)
let test_of_rules_rejects () =
  let e = listing_error in
  e "no start rule" [ (1, [ `T 1 ]) ] "no start rule";
  e "dangling" [ (0, [ `N 7; `N 7 ]) ] "dangling";
  e "cyclic" [ (0, [ `N 1; `N 1 ]); (1, [ `T 1; `N 1 ]) ] "cyclic";
  e "start referenced" [ (0, [ `T 1; `N 0 ]) ] "cyclic";
  e "unreachable cycle" [ (0, [ `T 1 ]); (1, [ `N 2; `N 2 ]); (2, [ `N 1; `N 1 ]) ] "unreachable";
  e "expansion overflow" (doubling 64) "overflows";
  let a = of_string "abcabcab" in
  let g = compress a in
  let listing = Sequitur.rules g and l = Sequitur.live g in
  e "live anchor on a negative position" listing
    ~live:{ l with Sequitur.rebound = [ (0, -1) ] }
    "no digram";
  e "next rule not above the ids" listing ~live:{ l with Sequitur.next_rule = 1 } "next rule";
  e "next rule above the expansion" listing
    ~live:{ l with Sequitur.next_rule = Array.length a + 2 }
    "next rule"

(* A 40-level listing claims 2^41 terminals and loads in O(40): the
   build allocates for the listing, not for the expansion. *)
let test_of_rules_deep_listing () =
  let listing = doubling 40 in
  let before = Gc.minor_words () in
  match Sequitur.of_rules listing with
  | Error e -> Alcotest.fail e
  | Ok g ->
    let words = Gc.minor_words () -. before in
    check_bool "allocation independent of the expansion" true (words < 20_000.0);
    check_int "input length" (1 lsl 41) (Sequitur.input_length g);
    check_int "grammar size" 82 (Sequitur.grammar_size g);
    check_bool "rules preserved" true (Sequitur.rules g = listing);
    ok g

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "ormp_sequitur"
    [
      ( "unit",
        [
          tc "empty" test_empty;
          tc "single symbol" test_single;
          tc "two symbols" test_pair;
          tc "paper example abcbcabcbc" test_paper_example;
          tc "abab" test_abab;
          tc "no repetition" test_no_repetition;
          tc "runs of equal symbols" test_runs_of_equal_symbols;
          tc "long repetition compresses" test_long_repetition_compresses;
          tc "nested repetition" test_nested_repetition;
          tc "negative terminals" test_negative_terminals;
          tc "large terminals" test_large_terminals;
          tc "incremental equals batch" test_incremental_equals_batch;
          tc "byte size positive" test_byte_size_positive;
          tc "byte size scales with terminal width" test_byte_size_smaller_for_small_alphabet;
          tc "pp output" test_pp_output;
          tc "rule reuse path" test_rule_reuse_path;
          tc "arena = legacy on corpus" test_equivalence_corpus;
          tc "push_batch slice" test_push_batch_slice;
          tc "push_batch rejects bad spans" test_push_batch_bad_span;
          tc "iter_rules matches rules" test_iter_rules_matches_rules;
          tc "gen_sweep is a no-op at rest" test_gen_sweep_noop;
          tc "of_rules needs the live record to continue" test_live_record_needed;
          tc "of_rules rejects malformed listings" test_of_rules_rejects;
          tc "of_rules loads a deep listing in O(listing)" test_of_rules_deep_listing;
        ] );
      ( "property",
        [
          QCheck_alcotest.to_alcotest prop_roundtrip_small_alphabet;
          QCheck_alcotest.to_alcotest prop_invariants_small_alphabet;
          QCheck_alcotest.to_alcotest prop_roundtrip_any;
          QCheck_alcotest.to_alcotest prop_grammar_never_larger;
          QCheck_alcotest.to_alcotest prop_runs;
          QCheck_alcotest.to_alcotest prop_concat_runs;
          QCheck_alcotest.to_alcotest prop_equiv_small_alphabet;
          QCheck_alcotest.to_alcotest prop_equiv_any;
          QCheck_alcotest.to_alcotest prop_equiv_collisions;
          QCheck_alcotest.to_alcotest prop_equiv_runs;
          QCheck_alcotest.to_alcotest prop_gen_sweep_transparent;
          QCheck_alcotest.to_alcotest prop_of_rules_matches_replay;
          QCheck_alcotest.to_alcotest prop_of_rules_continuation;
        ] );
    ]
