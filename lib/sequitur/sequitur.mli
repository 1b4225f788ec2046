(** Sequitur grammar compression (Nevill-Manning & Witten, 1997).

    Sequitur incrementally builds a context-free grammar for an input
    sequence by enforcing two constraints: {e digram uniqueness} (no pair of
    adjacent symbols occurs more than once in the grammar) and {e rule
    utility} (every rule is used at least twice). WHOMP feeds each
    decomposed object-relative stream to one instance of this compressor;
    the RASG baseline feeds it the raw address stream.

    Terminals are arbitrary OCaml [int]s. The grammar is lossless:
    {!expand} reproduces exactly the pushed sequence. *)

type t
(** An incremental Sequitur compressor and the grammar built so far. *)

val create : ?size_hint:int -> unit -> t
(** Fresh compressor with an empty start rule. [size_hint] — the expected
    input-stream length, when the caller knows it — pre-sizes the digram
    hashtable so the incremental build never pays a rehash; the grammar
    produced is identical either way. *)

val push : t -> int -> unit
(** Append one terminal to the input sequence and restore the grammar
    constraints. Amortized ~O(1). *)

val push_array : t -> int array -> unit
(** [push] every element in order. *)

val push_batch : t -> int array -> off:int -> len:int -> unit
(** [push_batch t a ~off ~len] pushes [a.(off) .. a.(off + len - 1)] in
    order — the bulk entry point the WHOMP/RASG/LEAP sinks and the
    parallel compressor pools feed whole SoA chunk lanes through, avoiding
    per-symbol call overhead. Equivalent to [len] single {!push}es.
    @raise Invalid_argument if [off]/[len] do not denote a valid span. *)

val input_length : t -> int
(** Number of terminals pushed so far. *)

val grammar_size : t -> int
(** Total number of symbols on the right-hand sides of all live rules —
    the standard Sequitur size metric used for the paper's compression
    comparisons. *)

val rule_count : t -> int
(** Number of live rules, including the start rule. *)

val byte_size : t -> int
(** Serialized size estimate in bytes: every RHS symbol is charged its
    varint width (terminals by value, non-terminals by rule id, one tag
    bit), plus one separator byte per rule. *)

val expand : t -> int array
(** Decompress: the exact sequence of terminals pushed so far. *)

val rules : t -> (int * [ `T of int | `N of int ] list) list
(** Live rules as [(rule-id, right-hand side)], start rule (id 0) first,
    for display and testing. *)

val iter_rules : t -> (int -> [ `T of int | `N of int ] list -> unit) -> unit
(** Iterate live rules in ascending rule-id order (start rule first) —
    the same deterministic order as {!rules} without materializing the
    whole listing, and without the per-call sorted-id list the previous
    implementation built: rule ids are monotonic, so an ascending id scan
    is already sorted. Serialization ([persist]) and verification
    ([check]) enumerate rules through this. *)

type live = {
  next_rule : int;  (** the id the next new rule will take *)
  rebound : (int * int) list;
      (** [(rule, position)] anchors of digrams the index binds where the
          canonical index binds another occurrence of the same packed key,
          in rule-id/position order *)
  unbound : (int * int) list;
      (** canonical anchors whose packed key the index leaves unbound *)
}
(** The compressor state a {!rules} listing leaves out and further
    {!push}es depend on. A grammar rebuilt from its listing binds every
    digram key to its first occurrence in rule-id/position order (the
    {e canonical} index) and numbers new rules from the largest listed id;
    the compressor that wrote the listing may differ on both — overlapping
    runs and packed-key collisions leave a later occurrence bound, a
    substitution can leave a key unbound, and retired rules keep their ids
    taken. Typically a handful of anchors per grammar. *)

val live : t -> live
(** The live record of [t], in O(grammar size), for checkpoints.
    Compressors with equal {!rules} and equal live records respond
    identically to every further push. *)

val of_rules :
  ?live:live -> (int * [ `T of int | `N of int ] list) list -> (t, string) result
(** Rebuild a compressor directly from a {!rules} listing, in time and
    space linear in the listing (plus the largest rule id, which the
    compressor that wrote the listing had allocated too). The expansion is
    never materialized and nothing is pushed.

    The rebuilt grammar always has exactly the listed rules — ids
    included — so {!rules}, {!expand}, {!input_length}, {!grammar_size}
    and {!byte_size} match the original. Further {!push}es continue
    exactly as the original compressor would only when [live] is that
    compressor's {!live} record; without it they still build a valid
    Sequitur grammar of the whole sequence, but not necessarily the same
    one. Session snapshots therefore store [live] beside each listing;
    profile files, which are never pushed to again, do not.

    Rejects, with [Error] and without allocating in proportion to the
    claimed expansion: a missing start rule (id 0); negative or duplicate
    ids; dangling, cyclic or unreachable rule references; a non-start
    rule used fewer than twice; an expansion longer than [max_int]; a rule
    id above the expansion length (Sequitur creates at most one rule per
    terminal); and a [live] record whose next rule id is not above every
    listed id or exceeds the expansion length + 1, or whose anchors name
    no rule or sit on a rule's last symbol. *)

val pp : Format.formatter -> t -> unit
(** Pretty-print the grammar, one rule per line ([R0 -> a R1 R1]). *)

val check_invariants : t -> (unit, string) result
(** Validate internal consistency: doubly-linked list integrity, no dead
    symbol reachable, reference counts matching actual uses, every digram
    index entry live and matching its key, and rule utility (every
    non-start rule used at least twice). For tests. *)

(**/**)

val gen_sweep : t -> unit
(** Re-baseline the generation counters that detect stale digram-index
    entries: drop stale entries, restart every live generation at zero.
    Runs automatically (between pushes) before a counter can outgrow its
    packed field — after hundreds of millions of symbol deaths — so tests
    exercise it directly; calling it at any push boundary must leave the
    grammar and all subsequent pushes unchanged. *)
