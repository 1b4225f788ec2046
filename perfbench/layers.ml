(* Layer replays for the traced run. Each drives one layer's public
   entry points on its own over the recorded events (or a fresh VM run
   of the same program), timing the calls from outside. *)

module Batch = Ormp_trace.Batch
module Event = Ormp_trace.Event
module Cdc = Ormp_core.Cdc
module Omc = Ormp_core.Omc
module Wire = Ormp_server.Wire
module Journal = Ormp_session.Journal
module Pipeline = Ormp_server.Pipeline
module Clock = Ormp_util.Clock

let now_ns () = Int64.to_float (Clock.now_ns ())

(* --- vm and cdc --------------------------------------------------------- *)

type vm = {
  native_s : float;  (** {!Ormp_vm.Runner.run_bare} *)
  probe_s : float;  (** run_batched into a discarding batch *)
  probe_words : float;
  cdc_s : float;  (** run_batched into {!Cdc.batch_tuples} with a no-op consumer *)
  cdc_words : float;
  chunks : int;
  tuples : int;
}

(* Best of three: each is a whole VM run, and the differences between
   them are small next to a scheduling hiccup. *)
let best3 f =
  let best = ref (f ()) in
  for _ = 2 to 3 do
    let t, w = f () in
    if t < fst !best then best := (t, w)
  done;
  !best

let timed_run f =
  let w0 = Gc.minor_words () in
  let r = f () in
  (r.Ormp_vm.Runner.elapsed, Gc.minor_words () -. w0)

let vm ~config (p : Suite.program) =
  let native_s, _ = best3 (fun () -> timed_run (fun () -> Ormp_vm.Runner.run_bare ~config p.program)) in
  let probe_s, probe_words =
    best3 (fun () ->
        let b = Batch.create ~on_chunk:ignore ~on_event:ignore () in
        timed_run (fun () -> Ormp_vm.Runner.run_batched ~config p.program b))
  in
  let chunks = ref 0 and tuples = ref 0 in
  let cdc_s, cdc_words =
    best3 (fun () ->
        chunks := 0;
        tuples := 0;
        let cdc = Cdc.create ~site_name:Offline.site_name ~on_tuple:(fun _ -> assert false) () in
        let on_tuples (tp : Cdc.tuples) =
          incr chunks;
          tuples := !tuples + tp.Cdc.tp_len
        in
        let b = Cdc.batch_tuples cdc ~on_tuples () in
        timed_run (fun () -> Ormp_vm.Runner.run_batched ~config p.program b))
  in
  { native_s; probe_s; probe_words; cdc_s; cdc_words; chunks = !chunks; tuples = !tuples }

(* --- omc ---------------------------------------------------------------- *)

type omc = {
  translate_s : float;
  object_s : float;
  words : float;
  translations : int;
  cache_hits : int;
  live_max : int;
}

(* The recorded events straight into the object table: object events to
   [on_alloc]/[on_free], accesses through [translate_batch] in chunks of
   the batch capacity. The time stamp is the translated-access count, as
   the CDC stamps it. Time and minor words are read around each call
   only, so the replay's own bookkeeping is not counted. *)
let omc (r : Suite.recorded) =
  let t = Omc.create ~site_name:Offline.site_name () in
  let cap = Batch.default_capacity in
  let instrs = Array.make cap 0 and addrs = Array.make cap 0 in
  let groups = Array.make cap 0 and serials = Array.make cap 0 and offsets = Array.make cap 0 in
  let len = ref 0 and clock = ref 0 in
  let translate_ns = ref 0.0 and object_ns = ref 0.0 and words = ref 0.0 in
  let timed acc f =
    let t0 = Clock.now_ns () in
    let w0 = Gc.minor_words () in
    f ();
    let w1 = Gc.minor_words () in
    let t1 = Clock.now_ns () in
    acc := !acc +. Int64.to_float (Int64.sub t1 t0);
    words := !words +. (w1 -. w0)
  in
  let flush () =
    if !len > 0 then begin
      timed translate_ns (fun () ->
          Omc.translate_batch t ~instrs ~addrs ~len:!len ~groups ~serials ~offsets);
      for i = 0 to !len - 1 do
        if groups.(i) >= 0 then incr clock
      done;
      len := 0
    end
  in
  Array.iter
    (fun (ev : Event.t) ->
      match ev with
      | Access { instr; addr; _ } ->
        if !len = cap then flush ();
        instrs.(!len) <- instr;
        addrs.(!len) <- addr;
        incr len
      | Alloc { site; addr; size; type_name } ->
        flush ();
        timed object_ns (fun () -> Omc.on_alloc t ~time:!clock ~site ~addr ~size ~type_name)
      | Free { addr; site } ->
        flush ();
        timed object_ns (fun () -> Omc.on_free ?site t ~time:!clock ~addr))
    r.Suite.events;
  flush ();
  {
    translate_s = !translate_ns /. 1e9;
    object_s = !object_ns /. 1e9;
    words = !words;
    translations = Omc.translations t;
    cache_hits = Omc.cache_hits t;
    live_max = Omc.max_live_objects t;
  }

(* --- the serve path, in process ----------------------------------------- *)

type serve = {
  encode_s : float;
  decode_s : float;
  frames : int;
  wire_bytes : int;
  append_s : float;
  flush_s : float;
  journal_bytes : int;
  apply_s : float;
  finalize_s : float;
}

(* What the daemon does per session, without the socket: the client's
   frames ({!Wire.encode}) are decoded ({!Wire.feed}/{!Wire.next}), each
   event journaled and applied to an inline {!Pipeline}, the journal
   flushed every [ack_every] frames, and the session finalized into
   [dir]. *)
let serve (r : Suite.recorded) ~dir =
  Offline.mkdirs dir;
  let journal = Journal.create (Filename.concat dir "journal.trace") in
  let pipe = Pipeline.create () in
  let dec = Wire.decoder () in
  let encode_ns = ref 0.0 and decode_ns = ref 0.0 and append_ns = ref 0.0 in
  let flush_ns = ref 0.0 and apply_ns = ref 0.0 in
  let frames = ref 0 and wire_bytes = ref 0 and since_ack = ref 0 in
  let cap = Daemon_proc.frame_capacity in
  let chunk =
    {
      Batch.instr = Array.make cap 0;
      addr = Array.make cap 0;
      size = Array.make cap 0;
      store = Array.make cap 0;
      len = 0;
    }
  in
  let ingest evs =
    let t0 = now_ns () in
    Array.iter (Journal.append journal) evs;
    let t1 = now_ns () in
    Array.iter (Pipeline.apply pipe) evs;
    let t2 = now_ns () in
    append_ns := !append_ns +. (t1 -. t0);
    apply_ns := !apply_ns +. (t2 -. t1);
    incr since_ack;
    if !since_ack >= Daemon_proc.ack_every then begin
      since_ack := 0;
      let t0 = now_ns () in
      Journal.flush journal;
      flush_ns := !flush_ns +. (now_ns () -. t0)
    end
  in
  let send msg =
    let t0 = now_ns () in
    let s = Wire.encode msg in
    let t1 = now_ns () in
    Wire.feed dec (Bytes.unsafe_of_string s) 0 (String.length s);
    let m = Wire.next dec in
    let t2 = now_ns () in
    encode_ns := !encode_ns +. (t1 -. t0);
    decode_ns := !decode_ns +. (t2 -. t1);
    incr frames;
    wire_bytes := !wire_bytes + String.length s;
    (* Rebuild the events from the decoded frame, as the daemon does. *)
    match m with
    | Ok (Some (Wire.Batch { chunk = c; _ })) ->
      ingest
        (Array.init c.Batch.len (fun i ->
             Event.Access
               {
                 instr = c.Batch.instr.(i);
                 addr = c.Batch.addr.(i);
                 size = c.Batch.size.(i);
                 is_store = c.Batch.store.(i) <> 0;
               }))
    | Ok (Some (Wire.Ev { event; _ })) -> ingest [| event |]
    | Ok _ -> failwith "serve replay: frame did not decode to data"
    | Error e -> failwith ("serve replay: " ^ e)
  in
  let start = ref 0 in
  let flush_chunk () =
    if chunk.Batch.len > 0 then begin
      send (Wire.Batch { start = !start; chunk });
      start := !start + chunk.Batch.len;
      chunk.Batch.len <- 0
    end
  in
  Array.iteri
    (fun i (ev : Event.t) ->
      match ev with
      | Access { instr; addr; size; is_store } ->
        if chunk.Batch.len = cap then flush_chunk ();
        let j = chunk.Batch.len in
        chunk.Batch.instr.(j) <- instr;
        chunk.Batch.addr.(j) <- addr;
        chunk.Batch.size.(j) <- size;
        chunk.Batch.store.(j) <- Bool.to_int is_store;
        chunk.Batch.len <- j + 1
      | Alloc _ | Free _ ->
        flush_chunk ();
        send (Wire.Ev { position = i; event = ev });
        start := i + 1)
    r.Suite.events;
  flush_chunk ();
  let t0 = now_ns () in
  Journal.flush journal;
  let t1 = now_ns () in
  Pipeline.finalize pipe ~dir ~elapsed:0.0;
  let t2 = now_ns () in
  let journal_bytes = Journal.bytes journal in
  Journal.close journal;
  {
    encode_s = !encode_ns /. 1e9;
    decode_s = !decode_ns /. 1e9;
    frames = !frames;
    wire_bytes = !wire_bytes;
    append_s = !append_ns /. 1e9;
    flush_s = (!flush_ns +. (t1 -. t0)) /. 1e9;
    journal_bytes;
    apply_s = !apply_ns /. 1e9;
    finalize_s = (t2 -. t1) /. 1e9;
  }
