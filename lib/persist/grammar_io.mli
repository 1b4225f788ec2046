(** Single Sequitur grammars on disk.

    The grammar codec shared by the WHOMP profile format, the RASG
    baseline format and the session layer (checkpoint snapshots and
    sealed-epoch spill files). A grammar is serialized as its
    {!Ormp_sequitur.Sequitur.rules} listing and rebuilt live, in time
    linear in the listing, with {!Ormp_sequitur.Sequitur.of_rules}. The
    rebuilt grammar always has exactly the saved rules; it also continues
    exactly like the saved compressor under further pushes only when the
    file carries the compressor's {!Ormp_sequitur.Sequitur.live} record —
    session snapshots do, profile and epoch files (never pushed to again)
    do not. *)

val to_sexp : ?live:bool -> string * Ormp_sequitur.Sequitur.t -> Ormp_util.Sexp.t
(** [(grammar (dim <name>) (rule <id> <sym>...)...)], followed with
    [~live:true] (default [false]) by
    [(live (next-rule <id>) (rebound <rule> <pos>...) (unbound <rule> <pos>...))]. *)

val of_sexp :
  Ormp_util.Sexp.t list -> (string * Ormp_sequitur.Sequitur.t, string) result
(** Decode from the field list following the [grammar] atom, applying a
    [(live ...)] field when present; rejects malformed symbols, every
    listing {!Ormp_sequitur.Sequitur.of_rules} rejects, and malformed or
    out-of-range live records. *)

val save : string -> string * Ormp_sequitur.Sequitur.t -> unit
(** Without the live record. *)

val load : string -> (string * Ormp_sequitur.Sequitur.t, string) result
(** Never raises on a corrupt file. *)
