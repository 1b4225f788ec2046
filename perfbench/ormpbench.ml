(* ormpbench: the end-to-end ORMP benchmark.

     ormpbench --workload spec|objects --seed N --seconds S --trace 0|1 --ormp PATH
     ormpbench selftest --ormp PATH

   One run sets up (builds the workload's programs, records their event
   streams, starts an `ormp serve --jobs 1` process) several times and
   keeps the last set-up. Then it repeats whole rounds until [--seconds]
   of measuring is spent: per program, an offline profiled run saved to
   disk, a load of the three files with the MDF and stride queries, and
   one session through the daemon. Every output is checked against
   independent references. The last line of standard output is one JSON
   object: the end-to-end metrics with [--trace 0], the per-layer
   metrics with [--trace 1]. *)

let ( // ) = Filename.concat
let now = Ormp_util.Clock.now_s

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  ormp : string;
  scale : int;  (** extra size divisor; 1 for the benchmark *)
  work : string;  (** scratch directory, removed at exit *)
}

let setups = 9

(* --- small helpers ---------------------------------------------------- *)

let median xs =
  match List.sort compare xs with
  | [] -> 0.0
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let sum f xs = List.fold_left (fun acc x -> acc +. f x) 0.0 xs
let isum f xs = List.fold_left (fun acc x -> acc + f x) 0 xs
let fi = float_of_int
let ms s = s *. 1e3
let log fmt = Printf.eprintf (fmt ^^ "\n%!")

(* Numbers keep all their digits. *)
let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let result_line ~correct ~attempted ~failed metrics =
  let m =
    String.concat ", "
      (List.map
         (fun (name, unit, v) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
         metrics)
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed m

(* --- one round ---------------------------------------------------------- *)

(* What one round measured for one program. *)
type sample = {
  pass : Offline.pass;
  plain : Offline.pass option;  (** untraced twin of [pass], traced runs only *)
  load_s : float;
  post : (int * int) option;  (** MDF pairs, strongly-strided instructions *)
  session : Ormp_server.Client.stats option;
}

type round = {
  samples : sample list;  (** one per program, in program order *)
  bytes : int list;  (** whomp, rasg, leap file bytes summed over programs *)
  measured_s : float;  (** the timed phases, checks excluded *)
  mutable failed : int;
}

(* A sample's daemon session time, if the session ran. *)
let session_s s = Option.map (fun x -> x.Ormp_server.Client.st_wall_s) s.session

type ctx = {
  args : args;
  config : Ormp_vm.Config.t;
  recs : Suite.recorded list;
  daemon : Daemon_proc.t;
  ledger : Ledger.t;
  errors : string Queue.t;  (** failed correctness checks *)
  mutable short : (string * int * int * int) list;
      (** streams (program, instr, group, missing points) whose saved LEAP
          profile under-describes its captured accesses by the known fault
          (see {!Reference.check_leap}) *)
}

let check ctx what = function
  | Ok () -> ()
  | Error e -> Queue.add (what ^ ": " ^ e) ctx.errors

let files = Offline.[ Pipeline.whomp_file; Pipeline.rasg_file; Pipeline.leap_file ]
let offline_dir ctx k i = ctx.args.work // Printf.sprintf "offline-r%d" k // string_of_int i
let token k i = Printf.sprintf "r%d-%d" k i

let run_round ctx k =
  let failed = ref 0 in
  let plain_ledger = Ledger.create ~on:false in
  let measure i (r : Suite.recorded) =
    let dir = offline_dir ctx k i in
    let span name f = Ledger.span ctx.ledger (name ^ " " ^ r.prog.Suite.name) f in
    let traced () =
      span "profile" (fun () -> Offline.profile ~ledger:ctx.ledger ~config:ctx.config r.prog ~dir)
    in
    let untraced () =
      Offline.profile ~ledger:plain_ledger ~config:ctx.config r.prog
        ~dir:(ctx.args.work // "untraced" // string_of_int i)
    in
    (* A traced run also profiles untraced, for the tracing overhead;
       which of the two goes first alternates by round. *)
    let pass, plain =
      if not ctx.args.trace then (traced (), None)
      else if k mod 2 = 1 then
        let p = untraced () in
        (traced (), Some p)
      else
        let t = traced () in
        (t, Some (untraced ()))
    in
    let t0 = now () in
    let loaded =
      match span "load" (fun () -> Offline.load ~ledger:ctx.ledger ~dir) with
      | Ok l -> Some l
      | Error e ->
        incr failed;
        log "%s: load failed: %s" r.prog.Suite.name e;
        None
    in
    let load_s = now () -. t0 in
    let session =
      match span "serve" (fun () -> Daemon_proc.session ctx.daemon ~token:(token k i) r) with
      | Ok s -> Some s
      | Error e ->
        incr failed;
        log "%s: session failed: %s" r.prog.Suite.name e;
        None
    in
    let post = Option.map (fun (l : Offline.loaded) -> (l.mdf_pairs, l.strided)) loaded in
    ({ pass; plain; load_s; post; session }, loaded)
  in
  let samples, loaded = List.split (List.mapi measure ctx.recs) in
  let bytes =
    List.fold_left
      (fun acc i -> List.map2 ( + ) acc (Offline.file_bytes (offline_dir ctx k i)))
      [ 0; 0; 0 ]
      (List.init (List.length ctx.recs) Fun.id)
  in
  let measured_s =
    sum
      (fun s ->
        s.pass.Offline.wall_s +. s.load_s +. Option.value ~default:0.0 (session_s s))
      samples
  in
  (* The loaded profiles go to the checks only, so no round keeps them. *)
  ({ samples; bytes; measured_s; failed = !failed }, loaded)

(* Round 1's outputs are checked against the references; later rounds
   must reproduce round 1's files byte for byte. Every round's daemon
   files must equal its offline files. *)
let check_round ctx k (rd : round) loaded =
  List.iteri
    (fun i ((r : Suite.recorded), (s, loaded)) ->
      let name = r.prog.Suite.name in
      let dir = offline_dir ctx k i in
      if s.session <> None then begin
        let sdir = Daemon_proc.session_dir ctx.daemon (token k i) in
        List.iter
          (fun f -> check ctx (name ^ " daemon " ^ f) (Reference.same_bytes (sdir // f) (dir // f)))
          files;
        Daemon_proc.rm_rf sdir
      end;
      if k > 1 then begin
        List.iter
          (fun f ->
            check ctx (name ^ " repeat " ^ f)
              (Reference.same_bytes (dir // f) (offline_dir ctx 1 i // f)))
          files;
        Daemon_proc.rm_rf dir
      end
      else
        match loaded with
        | None -> ()
        | Some (l : Offline.loaded) ->
          let ref_ = Reference.derive r.events in
          check ctx (name ^ " whomp") (Reference.check_whomp ref_ l.whomp);
          check ctx (name ^ " rasg") (Reference.check_rasg ref_ l.rasg);
          (match Reference.check_leap ref_ l.leap with
          | Error e -> Queue.add (name ^ " leap: " ^ e) ctx.errors
          | Ok [] -> ()
          | Ok short ->
            List.iter
              (fun (instr, group, missing) ->
                log "FAULT %s: saved LEAP stream (%d,%d) counts %d captured accesses no LMAD describes"
                  name instr group missing;
                ctx.short <- (name, instr, group, missing) :: ctx.short)
              short);
          (* A reloaded profile re-serializes to the bytes it came from. *)
          let tmp = ctx.args.work // "resave" in
          let resave what save =
            save tmp;
            check ctx (name ^ " resave " ^ what) (Reference.same_bytes tmp (dir // what))
          in
          resave Offline.Pipeline.whomp_file (fun p -> Ormp_persist.Whomp_io.save p l.whomp);
          resave Offline.Pipeline.rasg_file (fun p -> Ormp_persist.Rasg_io.save p l.rasg);
          resave Offline.Pipeline.leap_file (fun p -> Ormp_persist.Leap_io.save p l.leap))
    (List.combine ctx.recs (List.combine rd.samples loaded))

(* --- set-up -------------------------------------------------------------- *)

let setup args ~config i =
  let t0 = now () in
  let recs = List.map (Suite.record ~config) (Suite.programs ~scale:args.scale args.workload) in
  let t1 = now () in
  let daemon =
    Daemon_proc.start ~ormp:args.ormp
      ~socket:(args.work // Printf.sprintf "d%d.sock" i)
      ~root:(args.work // "daemon")
      ~log:(args.work // "daemon.log")
  in
  let t2 = now () in
  log "set-up %d: record %.4f s, daemon start %.4f s" i (t1 -. t0) (t2 -. t1);
  (recs, daemon, t2 -. t0)

(* --- end-to-end metrics ---------------------------------------------------- *)

(* Per program, the median over rounds. *)
let program_medians rounds f =
  List.init
    (List.length (List.hd rounds).samples)
    (fun i -> median (List.filter_map (fun rd -> f (List.nth rd.samples i)) rounds))

let latencies rounds =
  List.concat_map
    (fun rd ->
      List.concat_map
        (fun s -> match s.session with Some x -> x.Ormp_server.Client.st_ack_latencies | None -> [])
        rd.samples)
    rounds

let end_to_end ~setup_s ~events ~rounds ~daemon_hwm_kb =
  let total f = sum Fun.id (program_medians rounds f) in
  [
    ("setup_s", "s", median setup_s);
    ("profile_ev_s", "ev/s", fi events /. total (fun s -> Some s.pass.Offline.wall_s));
    ("load_s", "s", total (fun s -> Some s.load_s));
    ("profile_bytes_per_ev", "B/ev", fi (isum Fun.id (List.hd rounds).bytes) /. fi events);
    ( "profile_heap_mb",
      "MB",
      List.fold_left Float.max 0.0
        (program_medians rounds (fun s -> Some (fi s.pass.Offline.heap_words)))
      *. 8.0 /. 1048576.0 );
    ("serve_ev_s", "ev/s", fi events /. total session_s);
    ("ack_p50_ms", "ms", ms (median (latencies rounds)));
    ("serve_rss_mb", "MB", fi daemon_hwm_kb /. 1024.0);
  ]

(* --- per-layer metrics (traced run) ---------------------------------------- *)

type replays = { vms : Layers.vm list; omcs : Layers.omc list; serves : Layers.serve list }

let replay ctx =
  let vms = List.map (fun (r : Suite.recorded) -> Layers.vm ~config:ctx.config r.prog) ctx.recs in
  let omcs = List.map Layers.omc ctx.recs in
  let serves =
    List.mapi
      (fun i (r : Suite.recorded) ->
        let dir = ctx.args.work // "replay" // string_of_int i in
        let s = Layers.serve r ~dir in
        (* The in-process serve path must also reproduce the offline files. *)
        List.iter
          (fun f ->
            check ctx
              (r.prog.Suite.name ^ " replay " ^ f)
              (Reference.same_bytes (dir // f) (offline_dir ctx 1 i // f)))
          files;
        Daemon_proc.rm_rf dir;
        s)
      ctx.recs
  in
  { vms; omcs; serves }

(* Span totals cover every traced round, so span-derived figures are
   divided by the rounds; replays ran once. *)
let per_layer ctx ~rounds ~rp =
  let l = ctx.ledger in
  let nf = fi (List.length rounds) in
  let events = isum (fun (r : Suite.recorded) -> Array.length r.events) ctx.recs in
  let accesses = isum (fun (r : Suite.recorded) -> r.accesses) ctx.recs in
  let objects = isum (fun (r : Suite.recorded) -> r.object_events) ctx.recs in
  let ev = fi events in
  let first = List.hd rounds in
  let samples = List.concat_map (fun rd -> rd.samples) rounds in
  let passes = List.map (fun s -> s.pass) samples in
  let plain = List.filter_map (fun s -> s.plain) samples in
  let p1 = List.map (fun s -> s.pass) first.samples in
  let post1 = List.filter_map (fun s -> s.post) first.samples in
  (* per round, seconds *)
  let span name = Ledger.seconds l name /. nf in
  let ns_ev name = span name *. 1e9 /. ev in
  let words_ev name = Ledger.words l name /. nf /. ev in
  let vsum f = sum f rp.vms and osum f = sum f rp.omcs and ssum f = sum f rp.serves in
  let native = vsum (fun v -> v.Layers.native_s) in
  let probe = vsum (fun v -> v.Layers.probe_s) in
  let cdc = vsum (fun v -> v.Layers.cdc_s) in
  let omc_s = osum (fun o -> o.Layers.translate_s +. o.Layers.object_s) in
  (* The offline ledger: VM and CDC from the replays, the rest from the
     pass's own spans. *)
  let wall = sum (fun (p : Offline.pass) -> p.wall_s) passes /. nf in
  let whomp = span "whomp" and rasg = span "rasg" and leap = span "leap" in
  let finish = span "leap.finish" in
  let saves = span "persist.whomp_save" +. span "persist.rasg_save" +. span "persist.leap_save" in
  let attributed = cdc +. whomp +. rasg +. leap +. finish +. saves in
  log "offline pass ledger (%s, %.3f s per round):" ctx.args.workload wall;
  List.iter
    (fun (name, s) -> log "  %-18s %9.1f ms %6.1f%%" name (ms s) (100.0 *. s /. wall))
    [
      ("vm", probe);
      ("cdc", cdc -. probe);
      ("  of which omc", omc_s);
      ("whomp", whomp);
      ("rasg", rasg);
      ("leap", leap);
      ("leap.finish", finish);
      ("persist (save)", saves);
      ("unattributed", wall -. attributed);
    ];
  log "dilation (profiled in-memory run / native run):";
  List.iteri
    (fun i (r : Suite.recorded) ->
      let p = Option.get (List.nth first.samples i).plain and v = List.nth rp.vms i in
      log "  %-18s %7.2fx  (%.1f ms native)" r.prog.Suite.name
        (p.Offline.run_s /. v.Layers.native_s) (ms v.Layers.native_s))
    ctx.recs;
  let serve_wall = sum Fun.id (program_medians rounds session_s) in
  let serve_layers =
    ssum (fun s ->
        s.Layers.encode_s +. s.decode_s +. s.append_s +. s.flush_s +. s.apply_s +. s.finalize_s)
  in
  log "serve ledger (%.3f s of daemon sessions per round):" serve_wall;
  List.iter
    (fun (name, s) -> log "  %-18s %9.1f ms %6.1f%%" name (ms s) (100.0 *. s /. serve_wall))
    [
      ("wire encode", ssum (fun s -> s.Layers.encode_s));
      ("wire decode", ssum (fun s -> s.Layers.decode_s));
      ("journal append", ssum (fun s -> s.Layers.append_s));
      ("journal flush", ssum (fun s -> s.Layers.flush_s));
      ("pipeline apply", ssum (fun s -> s.Layers.apply_s));
      ("finalize", ssum (fun s -> s.Layers.finalize_s));
      ("unattributed", serve_wall -. serve_layers);
    ];
  let lats = latencies rounds in
  let omc_tr = isum (fun o -> o.Layers.translations) rp.omcs in
  let chunks = isum (fun v -> v.Layers.chunks) rp.vms in
  let tuples = isum (fun v -> v.Layers.tuples) rp.vms in
  let bytes = Array.of_list first.bytes in
  let plain_per_round f = sum f plain /. nf in
  let p1sum f = fi (isum f p1) in
  [
    ("vm.native_ns_per_ev", "ns/ev", native *. 1e9 /. ev);
    ("vm.probe_ns_per_ev", "ns/ev", (probe -. native) *. 1e9 /. ev);
    ("vm.events", "count", ev);
    ("vm.object_events", "count", fi objects);
    ("vm.dilation", "ratio", plain_per_round (fun p -> p.Offline.run_s) /. native);
    ("omc.translate_ns_per_ev", "ns/ev", osum (fun o -> o.Layers.translate_s) *. 1e9 /. fi accesses);
    ( "omc.object_ns_per_ev",
      "ns/ev",
      if objects = 0 then 0.0 else osum (fun o -> o.Layers.object_s) *. 1e9 /. fi objects );
    ("omc.words_per_ev", "words/ev", osum (fun o -> o.Layers.words) /. ev);
    ( "omc.mru_hit_ratio",
      "ratio",
      if omc_tr = 0 then 0.0 else fi (isum (fun o -> o.Layers.cache_hits) rp.omcs) /. fi omc_tr );
    ( "omc.live_objects_max",
      "count",
      fi (List.fold_left (fun m o -> max m o.Layers.live_max) 0 rp.omcs) );
    ("cdc.ns_per_ev", "ns/ev", (cdc -. probe) *. 1e9 /. ev);
    ("cdc.words_per_ev", "words/ev", vsum (fun v -> v.Layers.cdc_words -. v.probe_words) /. ev);
    ("cdc.chunks", "count", fi chunks);
    ("cdc.tuples_per_chunk", "count", if chunks = 0 then 0.0 else fi tuples /. fi chunks);
    ("whomp.ns_per_ev", "ns/ev", ns_ev "whomp");
    ("whomp.words_per_ev", "words/ev", words_ev "whomp");
    ("sequitur.instr.ns_per_ev", "ns/ev", ns_ev "sequitur.instr");
    ("sequitur.group.ns_per_ev", "ns/ev", ns_ev "sequitur.group");
    ("sequitur.object.ns_per_ev", "ns/ev", ns_ev "sequitur.object");
    ("sequitur.offset.ns_per_ev", "ns/ev", ns_ev "sequitur.offset");
    ("whomp.symbols", "count", p1sum (fun p -> p.Offline.whomp_symbols));
    ("whomp.rules", "count", p1sum (fun p -> p.Offline.whomp_rules));
    ("rasg.ns_per_ev", "ns/ev", ns_ev "rasg");
    ("rasg.words_per_ev", "words/ev", words_ev "rasg");
    ("rasg.symbols", "count", p1sum (fun p -> p.Offline.rasg_symbols));
    ("leap.ns_per_ev", "ns/ev", ns_ev "leap");
    ("leap.words_per_ev", "words/ev", words_ev "leap");
    ("leap.streams", "count", p1sum (fun p -> p.Offline.leap_streams));
    ( "leap.captured_ratio",
      "ratio",
      sum (fun (p : Offline.pass) -> p.leap_captured *. fi p.tuples) p1
      /. fi (max 1 (isum (fun (p : Offline.pass) -> p.tuples) p1)) );
    ("leap.finish_ms", "ms", ms finish);
    ("leap.undescribed_points", "count", fi (isum (fun (_, _, _, m) -> m) ctx.short));
    ("persist.whomp_save_ms", "ms", ms (span "persist.whomp_save"));
    ("persist.rasg_save_ms", "ms", ms (span "persist.rasg_save"));
    ("persist.leap_save_ms", "ms", ms (span "persist.leap_save"));
    ("persist.whomp_load_ms", "ms", ms (span "persist.whomp_load"));
    ("persist.rasg_load_ms", "ms", ms (span "persist.rasg_load"));
    ("persist.leap_load_ms", "ms", ms (span "persist.leap_load"));
    ("persist.whomp_bytes", "B", fi bytes.(0));
    ("persist.rasg_bytes", "B", fi bytes.(1));
    ("persist.leap_bytes", "B", fi bytes.(2));
    ("post.mdf_ms", "ms", ms (span "post.mdf"));
    ("post.mdf_pairs", "count", fi (isum fst post1));
    ("post.strides_ms", "ms", ms (span "post.strides"));
    ("post.strided_instrs", "count", fi (isum snd post1));
    ("gc.minor_words_per_ev", "words/ev", plain_per_round (fun p -> p.Offline.minor_words) /. ev);
    ( "gc.promoted_words_per_ev",
      "words/ev",
      plain_per_round (fun p -> p.Offline.promoted_words) /. ev );
    ("gc.major_collections", "count", plain_per_round (fun p -> fi p.Offline.major_collections));
    ("wire.encode_ns_per_ev", "ns/ev", ssum (fun s -> s.Layers.encode_s) *. 1e9 /. ev);
    ("wire.decode_ns_per_ev", "ns/ev", ssum (fun s -> s.Layers.decode_s) *. 1e9 /. ev);
    ("wire.frames", "count", fi (isum (fun s -> s.Layers.frames) rp.serves));
    ("wire.bytes_per_ev", "B/ev", fi (isum (fun s -> s.Layers.wire_bytes) rp.serves) /. ev);
    ("journal.append_ns_per_ev", "ns/ev", ssum (fun s -> s.Layers.append_s) *. 1e9 /. ev);
    ("journal.flush_ms", "ms", ms (ssum (fun s -> s.Layers.flush_s)));
    ("journal.bytes_per_ev", "B/ev", fi (isum (fun s -> s.Layers.journal_bytes) rp.serves) /. ev);
    ("pipeline.apply_ns_per_ev", "ns/ev", ssum (fun s -> s.Layers.apply_s) *. 1e9 /. ev);
    ("pipeline.finalize_ms", "ms", ms (ssum (fun s -> s.Layers.finalize_s)));
    ("serve.ack_p99_ms", "ms", ms (Ormp_server.Client.percentile lats 0.99));
    ("serve.acks", "count", fi (List.length lats));
    ("ledger.unattributed_share", "ratio", (wall -. attributed) /. wall);
    ("ledger.omc_cdc_share", "ratio", (cdc -. probe) /. wall);
    ("ledger.whomp_share", "ratio", whomp /. wall);
    ("serve.unattributed_share", "ratio", (serve_wall -. serve_layers) /. serve_wall);
    ( "trace.overhead_ratio",
      "ratio",
      sum (fun (p : Offline.pass) -> p.wall_s) passes /. sum (fun (p : Offline.pass) -> p.wall_s) plain
    );
  ]

(* --- one benchmark run --------------------------------------------------- *)

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * string * float) list;
  errors : string list;
}

let run args =
  Offline.mkdirs args.work;
  let config = Suite.config ~seed:args.seed in
  (* Set up several times and keep the last; only its daemon stays up. *)
  let setup_s = ref [] and kept = ref None in
  let stop_kept () =
    match !kept with
    | Some (_, d) ->
      kept := None;
      Daemon_proc.stop d
    | None -> true
  in
  Fun.protect ~finally:(fun () -> ignore (stop_kept ())) @@ fun () ->
  for i = 1 to setups do
    ignore (stop_kept ());
    (* The previous set-up's recordings are garbage now; collect them
       untimed so that no set-up pays for another's. *)
    Gc.full_major ();
    let recs, daemon, dt = setup args ~config i in
    match daemon with
    | Error e -> failwith e
    | Ok d ->
      kept := Some (recs, d);
      setup_s := dt :: !setup_s
  done;
  let recs, daemon = Option.get !kept in
  let ctx =
    {
      args;
      config;
      recs;
      daemon;
      ledger = Ledger.create ~on:args.trace;
      errors = Queue.create ();
      short = [];
    }
  in
  let events = isum (fun (r : Suite.recorded) -> Array.length r.events) recs in
  log "%s: %d programs, %d raw events (%d object events), seed %d" args.workload
    (List.length recs) events
    (isum (fun (r : Suite.recorded) -> r.object_events) recs)
    args.seed;
  (* Whole rounds: another starts only if its timed phases should end
     within the measuring time; the first always runs. *)
  let rec loop k measured acc =
    let rd, loaded = run_round ctx k in
    check_round ctx k rd loaded;
    (* Later rounds load byte-identical files, so they carry the fault:
       each short stream fails once per round. *)
    rd.failed <- rd.failed + List.length ctx.short;
    if k = 1 then
      List.iter2
        (fun (r : Suite.recorded) s ->
          log "  %-18s %8d events  profile %6.3f s  load %6.3f s  serve %6.3f s"
            r.prog.Suite.name (Array.length r.events) s.pass.Offline.wall_s s.load_s
            (Option.value ~default:nan (session_s s)))
        recs rd.samples;
    let measured = measured +. rd.measured_s in
    log "round %d: %.2f s measured" k rd.measured_s;
    let acc = rd :: acc in
    if measured +. rd.measured_s <= args.seconds then loop (k + 1) measured acc
    else List.rev acc
  in
  let rounds = loop 1 0.0 [] in
  let hwm = Daemon_proc.vm_hwm_kb daemon.Daemon_proc.pid in
  let metrics =
    if not args.trace then end_to_end ~setup_s:!setup_s ~events ~rounds ~daemon_hwm_kb:hwm
    else begin
      let m = per_layer ctx ~rounds ~rp:(replay ctx) in
      let trace = Filename.dirname args.work // (args.workload ^ ".trace.json") in
      (match Ledger.write_trace ctx.ledger trace with
      | Ok spans ->
        log "trace: %d spans in %s (%d nested spans left out)" spans trace
          (Ledger.dropped ctx.ledger)
      | Error e -> Queue.add ("trace: " ^ e) ctx.errors);
      m
    end
  in
  (* Operations are the same in every round and for every seed: each
     program's profile pass, load pass and serve session. Frames and
     acks depend on the seed and are reported, not counted; a reconnect
     or shed inside a session counts as a failure, and so does each LEAP
     stream short by the known fault, in every round. *)
  let per_round = 3 * List.length recs in
  let attempted = per_round * List.length rounds in
  let sessions =
    List.concat_map (fun rd -> List.filter_map (fun s -> s.session) rd.samples) rounds
  in
  let sessions_sum f = isum f sessions in
  let failed =
    isum (fun (rd : round) -> rd.failed) rounds
    + sessions_sum (fun s -> s.Ormp_server.Client.st_reconnects + s.st_sheds)
  in
  log
    "operations: %d rounds x %d (a profile pass, a load pass and a session per program), %d failed; %d data frames, %d acked, %d reconnects, %d sheds"
    (List.length rounds) per_round failed
    (sessions_sum (fun s -> s.Ormp_server.Client.st_frames))
    (sessions_sum (fun s -> s.Ormp_server.Client.st_acks))
    (sessions_sum (fun s -> s.Ormp_server.Client.st_reconnects))
    (sessions_sum (fun s -> s.Ormp_server.Client.st_sheds));
  if ctx.short <> [] then
    log "known LEAP fault: %d short streams, %d captured accesses undescribed in all"
      (List.length ctx.short)
      (isum (fun (_, _, _, m) -> m) ctx.short);
  List.iter (fun (name, unit, v) -> log "  %-26s %14.4f %s" name v unit) metrics;
  log "peak RSS: daemon %d MB, benchmark process %d MB" (hwm / 1024)
    (Daemon_proc.vm_hwm_kb (Unix.getpid ()) / 1024);
  let stopped = stop_kept () in
  let errors = List.of_seq (Queue.to_seq ctx.errors) in
  let errors = if stopped then errors else errors @ [ "daemon did not drain and exit 0" ] in
  { correct = errors = []; attempted; failed; metrics; errors }

(* --- self-test ----------------------------------------------------------- *)

(* Shift every terminal of the offset grammar: the file still loads, but
   its expansion is no longer the reference stream. *)
let corrupt_offsets (p : Ormp_whomp.Whomp.profile) =
  let module S = Ormp_sequitur.Sequitur in
  let dims =
    List.map
      (fun (name, g) ->
        if name <> "offset" then (name, g)
        else
          let rules =
            List.map
              (fun (id, rhs) -> (id, List.map (function `T v -> `T (v + 1) | s -> s) rhs))
              (S.rules g)
          in
          match S.of_rules rules with Ok g' -> (name, g') | Error e -> failwith e)
      p.Ormp_whomp.Whomp.dims
  in
  { p with Ormp_whomp.Whomp.dims }

(* Drop the largest LMAD of the first stream that has one, keeping its
   totals: its LMADs now describe fewer points than it captured, by more
   than the known fault can lose. *)
let drop_lmad (p : Ormp_leap.Leap.profile) =
  let module Comp = Ormp_lmad.Compressor in
  let module Lmad = Ormp_lmad.Lmad in
  let dropped = ref false in
  let streams =
    List.map
      (fun ((k : Ormp_leap.Leap.key), (s : Ormp_leap.Leap.stream)) ->
        let parts = Comp.parts s.comp in
        match List.sort (fun a b -> compare (Lmad.size b) (Lmad.size a)) parts.p_lmads with
        | largest :: _ when not !dropped ->
          dropped := true;
          let p_lmads = List.filter (fun d -> d != largest) parts.p_lmads in
          (k, { s with comp = Comp.of_parts { parts with p_lmads } })
        | _ -> (k, s))
      p.streams
  in
  { p with streams }

(* A tiny-scale traced run of each workload through every phase and
   check, then corrupted copies of saved profiles, which the checks must
   reject. *)
let selftest ~ormp ~work =
  let ok = ref true in
  List.iter
    (fun workload ->
      let args =
        { workload; seed = 7; seconds = 0.0; trace = true; ormp; scale = 32; work = work // workload }
      in
      let o = run args in
      List.iter (fun e -> log "  %s" e) o.errors;
      log "selftest %s: correct %b, %d attempted, %d failed, %d metrics" workload o.correct
        o.attempted o.failed (List.length o.metrics);
      if not o.correct then ok := false)
    Suite.workloads;
  let config = Suite.config ~seed:7 in
  let r = Suite.record ~config (List.hd (Suite.programs ~scale:32 "objects")) in
  let dir = work // "corrupt" in
  ignore (Offline.profile ~ledger:(Ledger.create ~on:false) ~config r.prog ~dir);
  let ref_ = Reference.derive r.events in
  (* Save a corrupted copy of a clean profile over it; the reload must
     be refused or fail its check. *)
  let corrupt what ~load ~save ~check ~damage =
    let path = dir // what in
    match load path with
    | Error e -> Error (what ^ ": clean profile failed to load: " ^ e)
    | Ok p -> (
      match check p with
      | Error e -> Error (what ^ ": clean profile rejected: " ^ e)
      | Ok () -> (
        save path (damage p);
        match load path with
        | Error e -> Ok (what ^ ": corrupted copy refused by the loader: " ^ e)
        | Ok bad -> (
          match check bad with
          | Error e -> Ok (what ^ ": corrupted copy rejected: " ^ e)
          | Ok () -> Error (what ^ ": corrupted copy passed the checks"))))
  in
  let verdicts =
    [
      corrupt Offline.Pipeline.whomp_file ~load:Ormp_persist.Whomp_io.load
        ~save:Ormp_persist.Whomp_io.save ~check:(Reference.check_whomp ref_)
        ~damage:corrupt_offsets;
      corrupt Offline.Pipeline.leap_file ~load:Ormp_persist.Leap_io.load
        ~save:Ormp_persist.Leap_io.save
        ~check:(fun p -> Result.map ignore (Reference.check_leap ref_ p))
        ~damage:drop_lmad;
    ]
  in
  List.iter
    (function
      | Ok m -> log "selftest: %s" m
      | Error m ->
        log "selftest: %s" m;
        ok := false)
    verdicts;
  !ok

(* --- command line -------------------------------------------------------- *)

let usage () =
  prerr_endline
    "usage: ormpbench --workload spec|objects --seed N --seconds S --trace 0|1 --ormp PATH\n\
    \       ormpbench selftest --ormp PATH";
  exit 2

let () =
  let argv = List.tl (Array.to_list Sys.argv) in
  let selftest_mode, argv =
    match argv with "selftest" :: rest -> (true, rest) | _ -> (false, argv)
  in
  let tbl = Hashtbl.create 8 in
  let rec parse = function
    | [] -> ()
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      Hashtbl.replace tbl (String.sub k 2 (String.length k - 2)) v;
      parse rest
    | _ -> usage ()
  in
  parse argv;
  let get k = match Hashtbl.find_opt tbl k with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let ormp = get "ormp" in
  if not (Sys.file_exists ormp) then begin
    prerr_endline ("ormpbench: no ormp executable at " ^ ormp);
    exit 2
  end;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let work = "perfbench" // "_work" // Printf.sprintf "run-%d" (Unix.getpid ()) in
  let cleanup () = Daemon_proc.rm_rf work in
  (* A run stopped from outside still stops its daemon and removes its
     scratch directory. The handler exits itself: an exception raised
     from it could be caught inside a layer. *)
  List.iter
    (fun s ->
      Sys.set_signal s
        (Sys.Signal_handle
           (fun _ ->
             Daemon_proc.kill_all ();
             cleanup ();
             exit 143)))
    [ Sys.sigterm; Sys.sigint; Sys.sighup ];
  if selftest_mode then begin
    let ok = Fun.protect ~finally:cleanup (fun () -> selftest ~ormp ~work) in
    print_endline (if ok then "selftest: ok" else "selftest: FAILED");
    exit (if ok then 0 else 1)
  end;
  let workload = get "workload" in
  if not (List.mem workload Suite.workloads) then usage ();
  let trace = match get "trace" with "0" -> false | "1" -> true | _ -> usage () in
  let seconds = int "seconds" in
  if seconds < 0 then usage ();
  let args = { workload; seed = int "seed"; seconds = fi seconds; trace; ormp; scale = 1; work } in
  let o = Fun.protect ~finally:cleanup (fun () -> run args) in
  List.iter (fun e -> log "CHECK FAILED: %s" e) o.errors;
  print_endline (result_line ~correct:o.correct ~attempted:o.attempted ~failed:o.failed o.metrics);
  exit (if o.correct then 0 else 1)
