(** Checkpoint snapshots: the exact profiling state at one stream position.

    A snapshot captures everything needed to continue a run as if it never
    stopped: the CDC/OMC translation state, the four WHOMP dimension
    grammars, the RASG baseline grammar, and the LEAP collector's live
    stream states ({!Ormp_lmad.Compressor.state}, open descriptors
    included). Grammars serialize as their rule listings, each followed
    by the compressor's {!Ormp_sequitur.Sequitur.live} record (next rule
    id and the digram-index anchors that differ from the canonical
    index): {!Ormp_sequitur.Sequitur.of_rules} rebuilds from both, in time
    linear in the listing, a grammar that continues byte-for-byte. The
    live record made this format version 2; a version-1 snapshot (listings
    only) loads as [Error], so resume skips it like any unusable snapshot.

    Files are written atomically and sealed with a CRC-32 trailer
    ({!Storage}); a snapshot that fails its seal is skipped in favour of
    an older one. *)

type epoch = {
  ep_index : int;  (** rotation ordinal, from 1 *)
  ep_dim : string;  (** grammar dimension ([instr] ... [rasg]) *)
  ep_file : string;  (** file name inside the session directory *)
  ep_from : int;  (** raw-event position where the epoch began *)
  ep_to : int;  (** position where it was sealed *)
  ep_symbols : int;  (** grammar size at sealing *)
}
(** A sealed grammar epoch spilled to disk by the memory watchdog. *)

type degradation = {
  dg_position : int;  (** raw-event position when it happened *)
  dg_kind : string;  (** e.g. [rotate], [journal-off], [checkpoint-failed] *)
  dg_detail : string;
}
(** One graceful-degradation event, reported in the session outcome. *)

type t = {
  position : int;  (** raw events consumed when taken *)
  checkpoint : int;  (** checkpoint ordinal *)
  journal_crc : int;  (** journal CRC over events [0, position) *)
  rotations : int;
  epochs : epoch list;
  degradations : degradation list;
  cdc : Ormp_core.Cdc.state;
  whomp :
    Ormp_sequitur.Sequitur.t
    * Ormp_sequitur.Sequitur.t
    * Ormp_sequitur.Sequitur.t
    * Ormp_sequitur.Sequitur.t;  (** instr, group, object, offset *)
  rasg : Ormp_sequitur.Sequitur.t;
  leap : Ormp_leap.Leap.live;
}

val epoch_to_sexp : epoch -> Ormp_util.Sexp.t
val epoch_of_sexp : Ormp_util.Sexp.t list -> (epoch, string) result

val degradation_to_sexp : degradation -> Ormp_util.Sexp.t
val degradation_of_sexp : Ormp_util.Sexp.t list -> (degradation, string) result

val to_sexp : t -> Ormp_util.Sexp.t
val of_sexp : Ormp_util.Sexp.t -> (t, string) result

val save : ?io:Ormp_workloads.Faults.Io.t -> string -> t -> unit
(** Atomic + sealed; may raise the planned injected fault. *)

val load : string -> (t, string) result
(** Never raises: torn, truncated, or structurally corrupt snapshots come
    back as [Error]. *)
