(* The offline phase: one profiled run through the shared single-CDC
   path, saved to disk; then the three files loaded back and
   post-processed. Every call into a layer goes through a ledger span. *)

module Batch = Ormp_trace.Batch
module Cdc = Ormp_core.Cdc
module Omc = Ormp_core.Omc
module W = Ormp_whomp.Whomp
module Rasg = Ormp_whomp.Rasg
module Leap = Ormp_leap.Leap
module Seq_c = Ormp_sequitur.Sequitur
module Pipeline = Ormp_server.Pipeline

let ( // ) = Filename.concat

(* The daemon never sees the client's instruction table, so its group
   labels come from this namer; the offline files use it too, which is
   what makes them byte-comparable ({!Ormp_server.Client.reference}). *)
let site_name = Printf.sprintf "site%d"

let rec mkdirs path =
  if path <> "" && path <> "." && not (Sys.file_exists path) then begin
    mkdirs (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

type pass = {
  wall_s : float;  (** first VM event to the three files on disk *)
  run_s : float;  (** the in-memory profiled run ({!Ormp_vm.Runner.run_batched}) *)
  heap_words : int;  (** peak major-heap growth over the pass *)
  minor_words : float;
  promoted_words : float;
  major_collections : int;
  chunks : int;  (** CDC tuple chunks *)
  tuples : int;
  whomp_symbols : int;
  whomp_rules : int;
  rasg_symbols : int;
  leap_streams : int;
  leap_captured : float;
}

let dim_span = [| "sequitur.instr"; "sequitur.group"; "sequitur.object"; "sequitur.offset" |]

let profile ~ledger ~config (p : Suite.program) ~dir =
  let span name f = Ledger.span ledger name f in
  let traced = Ledger.on ledger in
  mkdirs dir;
  Gc.full_major ();
  let s0 = Gc.quick_stat () in
  let peak = ref s0.Gc.heap_words in
  let sample () =
    let h = (Gc.quick_stat ()).Gc.heap_words in
    if h > !peak then peak := h
  in
  let t0 = Ormp_util.Clock.now_s () in
  let rasg = Seq_c.create () in
  let rasg_accesses = ref 0 in
  let rasg_batch =
    Batch.create
      ~on_chunk:(fun c ->
        sample ();
        span "rasg" (fun () ->
            rasg_accesses := !rasg_accesses + c.Batch.len;
            Seq_c.push_batch rasg c.Batch.addr ~off:0 ~len:c.Batch.len))
      ~on_event:ignore ()
  in
  let wc = W.collector () and lc = Leap.collector () in
  let dims = Array.of_list (List.map snd (W.collector_dims wc)) in
  (* Traced, the same four pushes {!W.collect_tuples} makes, one span per
     dimension grammar. The closures are made once, so the WHOMP span
     counts no allocation of the benchmark's own. *)
  let current = ref None in
  let push d () =
    match !current with
    | None -> ()
    | Some (tp : Cdc.tuples) ->
      let lane =
        match d with 0 -> tp.tp_instr | 1 -> tp.tp_group | 2 -> tp.tp_obj | _ -> tp.tp_offset
      in
      Seq_c.push_batch dims.(d) lane ~off:0 ~len:tp.tp_len
  in
  let pushes = Array.init 4 push in
  let whomp_traced () =
    for d = 0 to 3 do
      span dim_span.(d) pushes.(d)
    done
  in
  let chunks = ref 0 and tuples = ref 0 in
  let on_tuples (tp : Cdc.tuples) =
    incr chunks;
    tuples := !tuples + tp.Cdc.tp_len;
    if traced then begin
      current := Some tp;
      span "whomp" whomp_traced
    end
    else W.collect_tuples wc tp;
    span "leap" (fun () -> Leap.collect_tuples lc tp)
  in
  let cdc = Cdc.create ~site_name ~on_tuple:(fun _ -> assert false) () in
  let fan = Batch.fanout [ Cdc.batch_tuples cdc ~on_tuples (); rasg_batch ] in
  let r = Ormp_vm.Runner.run_batched ~config p.program fan in
  sample ();
  let collected = Cdc.collected cdc and wild = Cdc.wild cdc in
  let omc = Cdc.omc cdc in
  let lp =
    span "leap.finish" (fun () -> Leap.finish lc ~collected ~wild ~elapsed:0.0)
  in
  let wp =
    {
      W.dims = W.collector_dims wc;
      collected;
      wild;
      groups = Omc.groups omc;
      lifetimes = Omc.lifetimes omc;
      elapsed = 0.0;
    }
  in
  let rp = { Rasg.grammar = rasg; accesses = !rasg_accesses; elapsed = 0.0 } in
  span "persist.whomp_save" (fun () -> Ormp_persist.Whomp_io.save (dir // Pipeline.whomp_file) wp);
  sample ();
  span "persist.rasg_save" (fun () -> Ormp_persist.Rasg_io.save (dir // Pipeline.rasg_file) rp);
  sample ();
  span "persist.leap_save" (fun () -> Ormp_persist.Leap_io.save (dir // Pipeline.leap_file) lp);
  sample ();
  let t1 = Ormp_util.Clock.now_s () in
  let s1 = Gc.quick_stat () in
  {
    wall_s = t1 -. t0;
    run_s = r.Ormp_vm.Runner.elapsed;
    heap_words = !peak - s0.Gc.heap_words;
    minor_words = s1.Gc.minor_words -. s0.Gc.minor_words;
    promoted_words = s1.Gc.promoted_words -. s0.Gc.promoted_words;
    major_collections = s1.Gc.major_collections - s0.Gc.major_collections;
    chunks = !chunks;
    tuples = !tuples;
    whomp_symbols = W.omsg_size wp;
    whomp_rules =
      List.fold_left (fun n (_, g) -> n + Seq_c.rule_count g) 0 wp.W.dims;
    rasg_symbols = Rasg.size rp;
    leap_streams = List.length lp.Leap.streams;
    leap_captured = Leap.accesses_captured lp;
  }

let file_bytes dir =
  List.map
    (fun f -> (Unix.stat (dir // f)).Unix.st_size)
    [ Pipeline.whomp_file; Pipeline.rasg_file; Pipeline.leap_file ]

type loaded = {
  whomp : W.profile;
  rasg : Rasg.profile;
  leap : Leap.profile;
  mdf_pairs : int;
  strided : int;
}

let load ~ledger ~dir =
  let span name f = Ledger.span ledger name f in
  let ( let* ) = Result.bind in
  let tag file = Result.map_error (fun e -> file ^ ": " ^ e) in
  let* whomp =
    tag Pipeline.whomp_file
      (span "persist.whomp_load" (fun () ->
           Ormp_persist.Whomp_io.load (dir // Pipeline.whomp_file)))
  in
  let* rasg =
    tag Pipeline.rasg_file
      (span "persist.rasg_load" (fun () -> Ormp_persist.Rasg_io.load (dir // Pipeline.rasg_file)))
  in
  let* leap =
    tag Pipeline.leap_file
      (span "persist.leap_load" (fun () -> Ormp_persist.Leap_io.load (dir // Pipeline.leap_file)))
  in
  let mdf = span "post.mdf" (fun () -> Ormp_leap.Mdf.compute leap) in
  let strided = span "post.strides" (fun () -> Ormp_leap.Strides.strongly_strided leap) in
  Ok { whomp; rasg; leap; mdf_pairs = List.length mdf; strided = List.length strided }
