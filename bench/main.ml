(* The benchmark harness: regenerates every table and figure of the paper's
   evaluation (CGO 2004, §3.2 and §4.2), the design-choice ablations called
   out in DESIGN.md, and a set of Bechamel micro-benchmarks for the core
   data structures.

   Usage:
     main.exe                 -- everything, at paper ("training input") scale
     main.exe --fast          -- everything, at the small test scale
     main.exe fig5 table1 ... -- only the named sections
     main.exe --baseline BENCH_ormp.json ...
                              -- after the run, compare the hotpath and
                                 sequitur micro rows against the named
                                 baseline log and exit 1 if any ns figure
                                 regressed more than 1.5x (the @perf-guard
                                 alias runs this against the committed
                                 baseline)
   Section names: fig5 fig6 fig7 fig8 fig9 table1 ablations extensions
   hotpath micro scaling recovery telemetry modelcheck serve observe
   verify

   The verify section (debug-mode checking pass: sanitize every workload,
   verify every profile's structural invariants) runs in --fast mode and
   when named explicitly, but not in default timing runs — it would
   pollute the dilation measurements with redundant instrumented runs.

   Besides the human-readable report on stdout, every run writes
   BENCH_ormp.json (schema documented in README.md) with the section wall
   times and the headline machine-readable metrics. *)

open Ormp_report

let section_names =
  [
    "fig5"; "fig6"; "fig7"; "fig8"; "fig9"; "table1"; "ablations"; "extensions"; "hotpath";
    "micro"; "scaling"; "recovery"; "telemetry"; "modelcheck"; "serve"; "observe"; "verify";
  ]

let parse_args () =
  let args = List.tl (Array.to_list Sys.argv) in
  let fast = List.mem "--fast" args in
  let rec split baseline acc = function
    | [] -> (baseline, List.rev acc)
    | "--baseline" :: path :: rest -> split (Some path) acc rest
    | [ "--baseline" ] ->
      prerr_endline "--baseline requires a path";
      exit 2
    | "--fast" :: rest -> split baseline acc rest
    | a :: rest -> split baseline (a :: acc) rest
  in
  let baseline, wanted = split None [] args in
  List.iter
    (fun w ->
      if not (List.mem w section_names) then begin
        Printf.eprintf "unknown section %S (known: %s)\n" w (String.concat " " section_names);
        exit 2
      end)
    wanted;
  let enabled name = wanted = [] || List.mem name wanted in
  (fast, baseline, wanted, enabled)

let timed log name f =
  let t0 = Ormp_util.Clock.now_s () in
  let r = f () in
  let dt = Ormp_util.Clock.now_s () -. t0 in
  Printf.printf "[%s took %.1fs]\n\n%!" name dt;
  Bench_log.add_section log name dt;
  r

(* ------------------------------------------------------------------ *)
(* Paper sections                                                      *)
(* ------------------------------------------------------------------ *)

let run_fig5 log ~bench () =
  timed log "fig5" (fun () ->
      print_string (Experiments.render_fig5 (Experiments.fig5 ~bench ())))

let run_dependence_figs log ~bench ~enabled () =
  let needs = List.exists enabled [ "fig6"; "fig7"; "fig8"; "fig9"; "table1" ] in
  if needs then begin
    let suites =
      timed log "instrumented runs (shared, one domain per workload)" (fun () ->
          let t0 = Ormp_util.Clock.now_s () in
          let suites = Experiments.run_suites ~bench ~parallel:true () in
          let wall = Ormp_util.Clock.now_s () -. t0 in
          Bench_log.set_suites log ~parallel:true ~wall_s:wall
            (List.map
               (fun s ->
                 let leap = s.Experiments.leap in
                 {
                   Bench_log.suite_name = s.Experiments.entry.Ormp_workloads.Registry.name;
                   suite_events =
                     leap.Ormp_leap.Leap.collected + leap.Ormp_leap.Leap.wild;
                   suite_elapsed_s = leap.Ormp_leap.Leap.elapsed;
                 })
               suites);
          suites)
    in
    if enabled "fig6" then
      print_string
        (Experiments.render_dist
           ~title:"Figure 6: error distribution of the LEAP memory-dependence results"
           (Experiments.fig6 suites));
    if enabled "fig7" then
      print_string
        (Experiments.render_dist
           ~title:"Figure 7: error distribution of the Connors memory-dependence results"
           (Experiments.fig7 suites));
    if enabled "fig8" then print_string (Experiments.render_fig8 (Experiments.fig8 suites));
    if enabled "fig9" then print_string (Experiments.render_fig9 (Experiments.fig9 suites));
    if enabled "table1" then
      timed log "table1 (dilation reruns)" (fun () ->
          let rows = Experiments.table1 ~bench suites in
          List.iter
            (fun r ->
              Bench_log.add_dilation log ~workload:r.Experiments.workload
                ~dilation:r.Experiments.dilation)
            rows;
          print_string (Experiments.render_table1 rows))
  end

let run_ablations log ~bench () =
  timed log "ablations" (fun () ->
      let mcf = Ormp_workloads.Registry.find "181.mcf-like" in
      let gzip = Ormp_workloads.Registry.find "164.gzip-like" in
      print_string
        (Experiments.render_budget ~workload:mcf.Ormp_workloads.Registry.name
           (Experiments.ablation_lmad_budget ~bench mcf));
      print_string
        (Experiments.render_budget ~workload:gzip.Ormp_workloads.Registry.name
           (Experiments.ablation_lmad_budget ~bench gzip));
      print_string
        (Experiments.render_window ~workload:gzip.Ormp_workloads.Registry.name
           (Experiments.ablation_connors_window ~bench gzip));
      print_string (Experiments.render_fused (Experiments.ablation_no_decomposition ~bench ()));
      print_string (Experiments.render_grouping (Experiments.ablation_grouping ~bench ()));
      print_string (Experiments.render_pool (Experiments.ablation_pool_handling ~bench ())))

let run_extensions log ~bench () =
  timed log "extensions" (fun () ->
      print_string (Experiments.render_phases (Experiments.extension_phases ~bench ())))

(* ------------------------------------------------------------------ *)
(* Hot path: per-event sink vs batched translation                     *)
(* ------------------------------------------------------------------ *)

(* Measures the access -> translate path in isolation, on a recorded
   trace: the legacy path boxes one Event.Access per access, pattern-matches
   it in a sink, and walks the AVL range index for every address; the
   batched path writes four ints into the chunk buffer and translates each
   chunk through the OMC's per-instruction MRU cache with
   [Omc.translate_batch]. Everything downstream of translation (tuple
   construction, the SCC compressors) is identical for both paths and is
   excluded here; the micro section benches the full profiler pipelines
   both ways. *)
let run_hotpath log ~bench () =
  timed log "hotpath" (fun () ->
      let open Bechamel in
      print_endline
        (Ormp_util.Ascii.section "Hot path: per-event sink vs batched translation");
      (* 164.gzip-like supplies the access stream: like most of the suite
         (mcf, crafty, bzip2 too) its instructions keep touching the same
         buffer they touched last, which is exactly the locality the MRU
         translation cache exploits. The OMC is additionally pre-populated
         with a few thousand long-lived decoy objects (the same trick
         Micro.linked_list plays): the test-scale stand-ins keep only a
         handful of objects live, while a real heap holds thousands, so
         without the decoys the legacy AVL descent would be measured at
         toy depth. Cache-hostile access shapes (linked-list node walks,
         vpr/twolf-style wandering) are covered by the micro section and
         the table1 dilation column rather than here. *)
      let decoys = if bench then 4096 else 2048 in
      let entry = Ormp_workloads.Registry.find "164.gzip-like" in
      let rc = Ormp_trace.Sink.recorder () in
      ignore
        (Ormp_vm.Runner.run
           (Ormp_workloads.Registry.program entry)
           (Ormp_trace.Sink.recorder_sink rc));
      let events = Ormp_trace.Sink.events rc in
      (* Split the trace: object events populate an OMC once, the access
         stream is what the measured loops replay (gzip-like never frees,
         so every object stays live across iterations). *)
      let accesses =
        Array.of_list
          (List.filter_map
             (function
               | Ormp_trace.Event.Access { instr; addr; size; is_store } ->
                 Some (instr, addr, size, is_store)
               | _ -> None)
             (Array.to_list events))
      in
      let n = Array.length accesses in
      let instr = Array.map (fun (i, _, _, _) -> i) accesses in
      let addr = Array.map (fun (_, a, _, _) -> a) accesses in
      let size = Array.map (fun (_, _, s, _) -> s) accesses in
      let store = Array.map (fun (_, _, _, st) -> Bool.to_int st) accesses in
      let fresh_omc () =
        let omc = Ormp_core.Omc.create ~site_name:(Printf.sprintf "s%d") () in
        (* Long-lived decoy heap population, allocated above the workload
           allocator's 512 MiB ceiling so the two ranges never overlap. *)
        for i = 0 to decoys - 1 do
          Ormp_core.Omc.on_alloc omc ~time:0 ~site:9999
            ~addr:(0x4000_0000 + (i * 256))
            ~size:128 ~type_name:None
        done;
        Array.iteri
          (fun i ev ->
            match ev with
            | Ormp_trace.Event.Alloc { site; addr; size; type_name } ->
              Ormp_core.Omc.on_alloc omc ~time:i ~site ~addr ~size ~type_name
            | Ormp_trace.Event.Free { addr; _ } -> Ormp_core.Omc.on_free omc ~time:i ~addr
            | Ormp_trace.Event.Access _ -> ())
          events;
        omc
      in
      let omc_legacy = fresh_omc () in
      let legacy_sink : Ormp_trace.Sink.t = function
        | Ormp_trace.Event.Access { addr; _ } -> ignore (Ormp_core.Omc.translate omc_legacy addr)
        | _ -> ()
      in
      let t_legacy =
        Test.make ~name:"legacy"
          (Staged.stage (fun () ->
               for i = 0 to n - 1 do
                 legacy_sink
                   (Ormp_trace.Event.Access
                      {
                        instr = instr.(i);
                        addr = addr.(i);
                        size = size.(i);
                        is_store = store.(i) <> 0;
                      })
               done))
      in
      let omc_batched = fresh_omc () in
      let capacity = Ormp_trace.Batch.default_capacity in
      let groups = Array.make capacity 0 in
      let serials = Array.make capacity 0 in
      let offsets = Array.make capacity 0 in
      let batch =
        Ormp_trace.Batch.create ~capacity
          ~on_chunk:(fun c ->
            Ormp_core.Omc.translate_batch omc_batched ~instrs:c.Ormp_trace.Batch.instr
              ~addrs:c.Ormp_trace.Batch.addr ~len:c.Ormp_trace.Batch.len ~groups ~serials
              ~offsets)
          ~on_event:(fun _ -> ())
          ()
      in
      let t_batched =
        Test.make ~name:"batched"
          (Staged.stage (fun () ->
               for i = 0 to n - 1 do
                 Ormp_trace.Batch.on_access batch ~instr:instr.(i) ~addr:addr.(i)
                   ~size:size.(i)
                   ~is_store:(store.(i) <> 0)
               done;
               Ormp_trace.Batch.flush batch))
      in
      let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
      let instances = Toolkit.Instance.[ monotonic_clock ] in
      (* stabilize:false — per-sample GC stabilization would hide the
         sustained allocation cost that is precisely what the legacy
         boxed-event path pays; a profiler observes billions of events, so
         steady-state throughput with GC included is the honest figure. *)
      let cfg =
        Benchmark.cfg ~limit:2000 ~quota:(Time.second 2.0) ~stabilize:false ()
      in
      let raw = Benchmark.all cfg instances (Test.make_grouped ~name:"hotpath" [ t_legacy; t_batched ]) in
      let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
      let estimate suffix =
        Hashtbl.fold
          (fun name ols_result acc ->
            if String.length name >= String.length suffix
               && String.sub name (String.length name - String.length suffix)
                    (String.length suffix)
                  = suffix
            then
              match Analyze.OLS.estimates ols_result with Some [ ns ] -> Some ns | _ -> acc
            else acc)
          results None
      in
      match (estimate "legacy", estimate "batched") with
      | Some legacy_ns, Some batched_ns ->
        let legacy_pe = legacy_ns /. float_of_int n in
        let batched_pe = batched_ns /. float_of_int n in
        let speedup = legacy_pe /. batched_pe in
        let eps = 1e9 /. batched_pe in
        let hit_rate = Ormp_core.Omc.cache_hit_rate omc_batched in
        Printf.printf
          "%d accesses per iteration\n\
           legacy  (boxed event + AVL lookup): %7.2f ns/event\n\
           batched (SoA chunk + MRU cache)   : %7.2f ns/event\n\
           speedup: %.2fx   throughput: %.1f M events/s   MRU hit rate: %.1f%%\n\n"
          n legacy_pe batched_pe speedup (eps /. 1e6) (100.0 *. hit_rate);
        Bench_log.set_hotpath log
          {
            Bench_log.events = n;
            legacy_ns_per_event = legacy_pe;
            batched_ns_per_event = batched_pe;
            speedup;
            events_per_sec = eps;
            cache_hit_rate = hit_rate;
          }
      | _ -> print_endline "hotpath: estimation failed (no OLS estimates)")

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                           *)
(* ------------------------------------------------------------------ *)

let micro_tests () =
  let open Bechamel in
  let rng = Ormp_util.Prng.create ~seed:42 in
  (* Pre-built inputs so the benchmarks measure steady-state operations. *)
  let repetitive = Array.init 4096 (fun i -> i mod 7) in
  let scattered = Array.init 4096 (fun _ -> Ormp_util.Prng.int rng 100000) in
  let scattered_big = Array.init 32768 (fun _ -> Ormp_util.Prng.int rng 1000000) in
  let seq_push ?size_hint name input =
    Test.make ~name
      (Staged.stage (fun () ->
           let s = Ormp_sequitur.Sequitur.create ?size_hint () in
           Array.iter (Ormp_sequitur.Sequitur.push s) input))
  in
  let seq_push_batch ?size_hint name input =
    Test.make ~name
      (Staged.stage (fun () ->
           let s = Ormp_sequitur.Sequitur.create ?size_hint () in
           Ormp_sequitur.Sequitur.push_batch s input ~off:0 ~len:(Array.length input)))
  in
  (* The load path: rebuild the 32k scattered grammar from its listing,
     as the profile and snapshot loaders do. No digram of the stream
     repeats, so the listing is its 32768 symbols — the row's event
     count in [micro_event_counts]. *)
  let seq_of_rules =
    let g = Ormp_sequitur.Sequitur.create () in
    Ormp_sequitur.Sequitur.push_array g scattered_big;
    assert (Ormp_sequitur.Sequitur.grammar_size g = Array.length scattered_big);
    let listing = Ormp_sequitur.Sequitur.rules g in
    Test.make ~name:"sequitur: of_rules 32k scattered"
      (Staged.stage (fun () ->
           match Ormp_sequitur.Sequitur.of_rules listing with
           | Ok _ -> ()
           | Error e -> failwith e))
  in
  let range_index =
    Test.make ~name:"range_index: 1k insert+find"
      (Staged.stage (fun () ->
           let t = Ormp_interval.Range_index.create () in
           for i = 0 to 999 do
             Ormp_interval.Range_index.insert t ~base:(i * 64) ~size:64 i
           done;
           for i = 0 to 999 do
             ignore (Ormp_interval.Range_index.find t ((i * 64) + 17))
           done))
  in
  (* One address pattern shared by the three OMC rows so cached vs
     uncached is a like-for-like comparison: 1000 live objects, 8 hot
     instructions, each instruction ping-ponging between two objects —
     the per-instruction locality real probe streams exhibit, and exactly
     what the two-way MRU is built to absorb. *)
  let omc_make () =
    let omc = Ormp_core.Omc.create ~site_name:(Printf.sprintf "s%d") () in
    for i = 0 to 999 do
      Ormp_core.Omc.on_alloc omc ~time:i ~site:1 ~addr:(i * 128) ~size:64 ~type_name:None
    done;
    omc
  in
  let omc_instrs = Array.init 1000 (fun i -> i land 7) in
  let omc_addrs =
    Array.init 1000 (fun i -> (((i land 7) * 2) + ((i lsr 3) land 1)) * 128 + 8)
  in
  let omc_translate =
    let omc = omc_make () in
    Test.make ~name:"omc: 1k translations"
      (Staged.stage (fun () ->
           for i = 0 to 999 do
             ignore (Ormp_core.Omc.translate omc (Array.unsafe_get omc_addrs i))
           done))
  in
  let omc_translate_fast =
    let omc = omc_make () in
    Test.make ~name:"omc: 1k translations (MRU cache)"
      (Staged.stage (fun () ->
           for i = 0 to 999 do
             ignore
               (Ormp_core.Omc.translate_fast omc
                  ~instr:(Array.unsafe_get omc_instrs i)
                  (Array.unsafe_get omc_addrs i))
           done))
  in
  let omc_translate_batch =
    let omc = omc_make () in
    let groups = Array.make 1000 0 in
    let serials = Array.make 1000 0 in
    let offsets = Array.make 1000 0 in
    Test.make ~name:"omc: 1k batched translations"
      (Staged.stage (fun () ->
           Ormp_core.Omc.translate_batch omc ~instrs:omc_instrs ~addrs:omc_addrs ~len:1000
             ~groups ~serials ~offsets))
  in
  let lmad_add name pts =
    Test.make ~name
      (Staged.stage (fun () ->
           let c = Ormp_lmad.Compressor.create ~dims:1 () in
           Array.iter (fun p -> ignore (Ormp_lmad.Compressor.add c [| p |])) pts))
  in
  let solver =
    let mk start stride count =
      Ormp_lmad.Lmad.of_levels ~start ~levels:[ { Ormp_lmad.Lmad.stride; count } ]
    in
    let store = mk [| 0; 0; 0 |] [| 1; 8; 1 |] 100000 in
    let load = mk [| 0; 4; 50 |] [| 1; 12; 1 |] 100000 in
    Test.make ~name:"solver: closed-form conflict count (100k x 100k)"
      (Staged.stage (fun () -> ignore (Ormp_lmad.Solver.count_conflicts ~store ~load)))
  in
  (* One shared recorded trace for every profiler-probe row, so their
     per-event figures divide by the same denominator (returned to the
     caller for the bench table and the guard). *)
  let trace_events =
    let r = Ormp_trace.Sink.recorder () in
    ignore
      (Ormp_vm.Runner.run
         (Ormp_workloads.Micro.linked_list ~nodes:64 ~sweeps:8 ())
         (Ormp_trace.Sink.recorder_sink r));
    Ormp_trace.Sink.events r
  in
  let trace_count = ref [] in
  let profiler_event name mk_sink =
    trace_count := (name, Array.length trace_events) :: !trace_count;
    Test.make ~name
      (Staged.stage (fun () ->
           let sink = mk_sink () in
           Array.iter sink trace_events))
  in
  let profiler_batch name mk_batch =
    trace_count := (name, Array.length trace_events) :: !trace_count;
    Test.make ~name
      (Staged.stage (fun () ->
           let b = mk_batch () in
           Array.iter (Ormp_trace.Batch.event b) trace_events;
           Ormp_trace.Batch.flush b))
  in
  let tests =
    Test.make_grouped ~name:"ormp"
      [
      seq_push "sequitur: 4k repetitive symbols" repetitive;
      seq_push "sequitur: 4k scattered symbols" scattered;
      (* The digram table pre-sized from the stream-length hint: a
         scattered stream interns ~one digram per symbol, so past the
         4096-bucket default floor the unhinted run pays repeated
         rehash-and-copy churn. The delta between these two rows is the
         measured saving. *)
      seq_push "sequitur: 32k scattered symbols" scattered_big;
      seq_push ~size_hint:(Array.length scattered_big)
        "sequitur: 32k scattered symbols (size hint)" scattered_big;
      seq_push_batch "sequitur: 4k repetitive symbols (push_batch)" repetitive;
      seq_push_batch ~size_hint:(Array.length scattered_big)
        "sequitur: 32k scattered symbols (push_batch, size hint)" scattered_big;
      seq_of_rules;
        range_index;
        omc_translate;
        omc_translate_fast;
        omc_translate_batch;
        lmad_add "lmad: 4k-point regular stream" (Array.init 4096 (fun i -> i * 8));
        lmad_add "lmad: 4k-point scattered stream" scattered;
        solver;
        profiler_event "whomp: probe event cost (3k-event trace)" (fun () ->
            fst (Ormp_whomp.Whomp.sink ~site_name:(Printf.sprintf "s%d") ()));
        profiler_batch "whomp: batched probe cost (3k-event trace)" (fun () ->
            fst (Ormp_whomp.Whomp.sink_batched ~site_name:(Printf.sprintf "s%d") ()));
        profiler_event "leap: probe event cost (3k-event trace)" (fun () ->
            fst (Ormp_leap.Leap.sink ~site_name:(Printf.sprintf "s%d") ()));
        profiler_batch "leap: batched probe cost (3k-event trace)" (fun () ->
            fst (Ormp_leap.Leap.sink_batched ~site_name:(Printf.sprintf "s%d") ()));
        profiler_event "connors: probe event cost (3k-event trace)" (fun () ->
            Ormp_baselines.Connors.sink (Ormp_baselines.Connors.create ()));
        profiler_event "lossless-dep: probe event cost (3k-event trace)" (fun () ->
            Ormp_baselines.Lossless_dep.sink (Ormp_baselines.Lossless_dep.create ()));
      ]
  in
  (tests, !trace_count)

(* ------------------------------------------------------------------ *)
(* Scaling: pipeline-parallel SCC jobs sweep                           *)
(* ------------------------------------------------------------------ *)

(* One combined WHOMP+LEAP instrumented run per jobs value, sweeping
   1 -> max(4, recommended_domain_count): jobs=1 is the serial pipeline,
   jobs>1 fans the compressor work out to dedicated domains behind the
   SPSC rings. The log records the machine's core count next to the
   curve, because the curve only means what the hardware lets it mean —
   on a single-core box every row degenerates to serial-plus-ring-
   overhead, and that flat line is the honest result, not a failure.
   Each row also lands in the dilation block (instrumented wall over
   native wall) so the jobs sweep is comparable with Table 1. *)
let run_scaling log ~bench () =
  timed log "scaling" (fun () ->
      print_endline
        (Ormp_util.Ascii.section "Scaling: pipeline-parallel SCC (--jobs sweep)");
      let entry = Ormp_workloads.Registry.find "164.gzip-like" in
      let program = Ormp_workloads.Registry.program ~bench entry in
      let cores = Domain.recommended_domain_count () in
      let sweep =
        List.sort_uniq compare (1 :: 2 :: 4 :: (if cores > 4 then [ cores ] else []))
      in
      let site_name = Printf.sprintf "s%d" in
      let native_s =
        let t0 = Ormp_util.Clock.now_s () in
        ignore (Ormp_vm.Runner.run_bare program);
        Ormp_util.Clock.now_s () -. t0
      in
      let events = ref 0 in
      let measure jobs =
        let t0 = Ormp_util.Clock.now_s () in
        let wp =
          if jobs <= 1 then begin
            (* The serial pipeline as the server/session layer wires it
               since the lane refactor: one CDC translating once, SoA
               chunk lanes fanned to both collectors — not two
               independent sinks each dragging their own CDC. *)
            let wc = Ormp_whomp.Whomp.collector () in
            let lc = Ormp_leap.Leap.collector () in
            let on_tuples (tp : Ormp_core.Cdc.tuples) =
              Ormp_whomp.Whomp.collect_tuples wc tp;
              Ormp_leap.Leap.collect_tuples lc tp
            in
            let cdc = Ormp_core.Cdc.create ~site_name ~on_tuple:(fun _ -> assert false) () in
            let b = Ormp_core.Cdc.batch_tuples cdc ~on_tuples () in
            let r = Ormp_vm.Runner.run_batched program b in
            let collected = Ormp_core.Cdc.collected cdc
            and wild = Ormp_core.Cdc.wild cdc in
            ignore
              (Ormp_leap.Leap.finish lc ~collected ~wild ~elapsed:r.Ormp_vm.Runner.elapsed);
            {
              Ormp_whomp.Whomp.dims = Ormp_whomp.Whomp.collector_dims wc;
              collected;
              wild;
              groups = Ormp_core.Omc.groups (Ormp_core.Cdc.omc cdc);
              lifetimes = Ormp_core.Omc.lifetimes (Ormp_core.Cdc.omc cdc);
              elapsed = r.Ormp_vm.Runner.elapsed;
            }
          end
          else begin
            let wt = Ormp_whomp.Par_scc.create ~jobs ~site_name () in
            let lt = Ormp_leap.Par_leap.create ~jobs ~site_name () in
            Fun.protect
              ~finally:(fun () ->
                (try Ormp_whomp.Par_scc.shutdown wt with _ -> ());
                try Ormp_leap.Par_leap.shutdown lt with _ -> ())
              (fun () ->
                let fan =
                  Ormp_trace.Batch.fanout
                    [ Ormp_whomp.Par_scc.batch wt; Ormp_leap.Par_leap.batch lt ]
                in
                let r = Ormp_vm.Runner.run_batched program fan in
                ignore (Ormp_leap.Par_leap.finalize lt ~elapsed:r.Ormp_vm.Runner.elapsed);
                Ormp_whomp.Par_scc.finalize wt ~elapsed:r.Ormp_vm.Runner.elapsed)
          end
        in
        events := wp.Ormp_whomp.Whomp.collected + wp.Ormp_whomp.Whomp.wild;
        Ormp_util.Clock.now_s () -. t0
      in
      ignore (measure 1);
      (* warm-up *)
      (* Best of three trials per jobs value: a single sample on a busy
         box regularly swings 2x (the compressor domains time-slice with
         whatever else the machine runs), and the guard gates on this
         row. Best-of measures the pipeline, not the scheduler. *)
      let best jobs =
        let w = ref (measure jobs) in
        for _ = 2 to 3 do
          w := Float.min !w (measure jobs)
        done;
        !w
      in
      let walls = List.map (fun jobs -> (jobs, best jobs)) sweep in
      let serial_s = List.assoc 1 walls in
      let rows =
        List.map
          (fun (jobs, wall_s) ->
            Bench_log.add_dilation log
              ~workload:(Printf.sprintf "combined(jobs=%d)" jobs)
              ~dilation:(wall_s /. native_s);
            {
              Bench_log.sl_jobs = jobs;
              sl_wall_s = wall_s;
              sl_speedup = serial_s /. wall_s;
              sl_events_per_sec =
                (if wall_s > 0.0 then float_of_int !events /. wall_s else Float.nan);
            })
          walls
      in
      Printf.printf "%s: %d accesses, %d core(s) available\n" "164.gzip-like" !events cores;
      print_endline
        (Ormp_util.Ascii.table
           ~header:[ "jobs"; "wall"; "speedup"; "throughput"; "dilation" ]
           ~rows:
             (List.map
                (fun (r : Bench_log.scaling_row) ->
                  [
                    string_of_int r.Bench_log.sl_jobs;
                    Printf.sprintf "%.3f s" r.Bench_log.sl_wall_s;
                    Printf.sprintf "%.2fx" r.Bench_log.sl_speedup;
                    Printf.sprintf "%.2f M ev/s" (r.Bench_log.sl_events_per_sec /. 1e6);
                    Printf.sprintf "%.1fx" (r.Bench_log.sl_wall_s /. native_s);
                  ])
                rows));
      if cores = 1 then
        print_endline
          "note: 1 core available — the compressor domains time-slice one CPU,\n\
           so this curve measures ring overhead, not parallel speedup.\n";
      Bench_log.set_scaling log
        {
          Bench_log.sl_workload = "164.gzip-like";
          sl_cores = cores;
          sl_events = !events;
          sl_rows = rows;
        })

(* ------------------------------------------------------------------ *)
(* Recovery: session durability figures (non-timing)                   *)
(* ------------------------------------------------------------------ *)

(* Runs one crash-safe session end to end: an uninterrupted reference, a
   copy killed at its second checkpoint, and a resume — reporting the
   on-disk cost of the safety net (snapshot and journal sizes) and the
   wall time of coming back, with a byte-identity cross-check against
   the reference profiles. These are durability figures, not profiler
   timings: the journal write on every event makes a session run a poor
   dilation measurement by design. *)
let run_recovery log ~bench () =
  timed log "recovery" (fun () ->
      print_endline
        (Ormp_util.Ascii.section "Crash recovery: snapshot size and resume cost");
      let module Session = Ormp_session.Session in
      let module Fio = Ormp_workloads.Faults.Io in
      let workload = if bench then "matrix" else "linked_list" in
      let options = { Session.default_options with Session.checkpoint_every = 1000 } in
      let rec rm_rf path =
        if Sys.file_exists path then
          if Sys.is_directory path then begin
            Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
            Sys.rmdir path
          end
          else Sys.remove path
      in
      let read_file path =
        In_channel.with_open_bin path In_channel.input_all
      in
      let file_size path = (Unix.stat path).Unix.st_size in
      let base =
        Filename.concat (Filename.get_temp_dir_name ())
          (Printf.sprintf "ormp-bench-recovery-%d" (Unix.getpid ()))
      in
      let ref_dir = Filename.concat base "reference"
      and kill_dir = Filename.concat base "killed" in
      rm_rf base;
      Fun.protect ~finally:(fun () -> rm_rf base) @@ fun () ->
      let reference =
        match Session.run ~options ~dir:ref_dir ~workload () with
        | Ok o -> o
        | Error msg -> failwith ("recovery reference run failed: " ^ msg)
      in
      let io = Fio.create { Fio.none with Fio.kill_at_checkpoint = Some 2 } in
      (match Session.run ~io ~options ~dir:kill_dir ~workload () with
      | exception Fio.Killed _ -> ()
      | Ok _ -> failwith "recovery: injected kill did not fire"
      | Error msg -> failwith ("recovery killed run failed early: " ^ msg));
      let snapshot_bytes =
        (* Newest surviving snapshot at the kill point. *)
        Array.fold_left
          (fun acc f ->
            if String.length f > 9 && String.sub f 0 9 = "snapshot-" then
              max acc (file_size (Filename.concat kill_dir f))
            else acc)
          0 (Sys.readdir kill_dir)
      in
      let journal_bytes = file_size (Filename.concat kill_dir "journal.trace") in
      let t0 = Ormp_util.Clock.now_s () in
      let resumed =
        match Session.resume ~dir:kill_dir () with
        | Ok o -> o
        | Error msg -> failwith ("recovery resume failed: " ^ msg)
      in
      let resume_s = Ormp_util.Clock.now_s () -. t0 in
      let identical =
        List.for_all
          (fun f ->
            read_file (Filename.concat kill_dir f) = read_file (Filename.concat ref_dir f))
          [ "whomp.profile"; "rasg.profile"; "leap.profile" ]
      in
      Printf.printf
        "%s: %d events, %d checkpoints\n\
         snapshot: %d bytes   journal at kill: %d bytes\n\
         resume: %.3fs (%d journal events replayed)   byte-identical: %b\n\n"
        workload reference.Session.oc_position reference.Session.oc_checkpoints
        snapshot_bytes journal_bytes resume_s resumed.Session.oc_replayed identical;
      if not identical then failwith "recovery: resumed profiles differ from reference";
      Bench_log.set_recovery log
        {
          Bench_log.rc_workload = workload;
          rc_events = reference.Session.oc_position;
          rc_checkpoints = reference.Session.oc_checkpoints;
          rc_snapshot_bytes = snapshot_bytes;
          rc_journal_bytes = journal_bytes;
          rc_resume_s = resume_s;
          rc_replayed = resumed.Session.oc_replayed;
          rc_identical = identical;
        })

(* ------------------------------------------------------------------ *)
(* Telemetry: instrumentation overhead guard                           *)
(* ------------------------------------------------------------------ *)

(* Pushes the same recorded event stream through the batched WHOMP
   pipeline with telemetry off and on, min-of-N on each, and fails the
   run if switching the layer on costs more than 10%. The per-stage
   histogram breakdown from the instrumented repetitions shows where the
   enabled-path time goes. Min-of-N rather than Bechamel because the
   figure is a guard ratio, not a reported number: the minimum is the
   noise-robust estimator for "how fast can this path go". *)
let run_telemetry log ~bench () =
  timed log "telemetry" (fun () ->
      let module Tm = Ormp_telemetry.Telemetry in
      print_endline
        (Ormp_util.Ascii.section "Telemetry: instrumentation overhead (on/off guard)");
      let entry = Ormp_workloads.Registry.find "164.gzip-like" in
      let rc = Ormp_trace.Sink.recorder () in
      ignore
        (Ormp_vm.Runner.run
           (Ormp_workloads.Registry.program ~bench entry)
           (Ormp_trace.Sink.recorder_sink rc));
      let events = Ormp_trace.Sink.events rc in
      let n =
        Array.fold_left
          (fun acc ev ->
            match ev with Ormp_trace.Event.Access _ -> acc + 1 | _ -> acc)
          0 events
      in
      let run_once () =
        let b, fin =
          Ormp_whomp.Whomp.sink_batched ~site_name:(Printf.sprintf "s%d") ()
        in
        let t0 = Ormp_util.Clock.now_ns () in
        Array.iter (Ormp_trace.Batch.event b) events;
        Ormp_trace.Batch.flush b;
        let dt = Int64.to_float (Int64.sub (Ormp_util.Clock.now_ns ()) t0) in
        ignore (fin ~elapsed:0.0);
        dt
      in
      let min_of k f =
        let best = ref Float.infinity in
        for _ = 1 to k do
          let v = f () in
          if v < !best then best := v
        done;
        !best
      in
      let reps = if bench then 5 else 3 in
      Tm.disable ();
      ignore (run_once ());
      (* warm-up *)
      let off_ns = min_of reps run_once in
      Tm.enable ();
      Tm.reset ();
      let on_ns = min_of reps run_once in
      let snap = Tm.Metrics.snapshot () in
      Tm.disable ();
      let off_pe = off_ns /. float_of_int n in
      let on_pe = on_ns /. float_of_int n in
      let ratio = on_pe /. off_pe in
      let stages =
        List.map
          (fun (name, h) ->
            {
              Bench_log.tl_stage = name;
              tl_count = h.Ormp_telemetry.Metrics.count;
              tl_total_ns = h.Ormp_telemetry.Metrics.sum;
              tl_p50_ns = h.Ormp_telemetry.Metrics.p50;
            })
          snap.Ormp_telemetry.Metrics.snap_hists
      in
      Printf.printf
        "%d accesses per repetition (min of %d)\n\
         telemetry off: %7.2f ns/event\n\
         telemetry on : %7.2f ns/event   ratio: %.3f\n\n"
        n reps off_pe on_pe ratio;
      if stages <> [] then
        print_endline
          (Ormp_util.Ascii.table
             ~header:[ "stage"; "count"; "total"; "p50" ]
             ~rows:
               (List.map
                  (fun (s : Bench_log.telemetry_stage) ->
                    [
                      s.Bench_log.tl_stage;
                      string_of_int s.Bench_log.tl_count;
                      Printf.sprintf "%.2f ms" (s.Bench_log.tl_total_ns /. 1e6);
                      Printf.sprintf "%.0f ns" s.Bench_log.tl_p50_ns;
                    ])
                  stages));
      Bench_log.set_telemetry log
        {
          Bench_log.tl_events = n;
          tl_off_ns_per_event = off_pe;
          tl_on_ns_per_event = on_pe;
          tl_ratio = ratio;
          tl_stages = stages;
        };
      if ratio > 1.10 then begin
        Printf.printf "telemetry guard: FAILED — enabling telemetry costs %.1f%% (> 10%%)\n"
          ((ratio -. 1.0) *. 100.0);
        exit 1
      end)

(* ------------------------------------------------------------------ *)
(* Modelcheck: transport litmus suite coverage (non-timing)            *)
(* ------------------------------------------------------------------ *)

(* Runs the full Ormp_modelcheck litmus suite and logs the per-case
   state-space coverage: interleavings explored, scheduling points,
   depth, and whether the expectation held (clean exhaustive pass, or —
   for the seeded pre-fix consumer — a rediscovered violation). The
   counts are deterministic, so unlike every timing figure in this
   harness they are comparable across machines and commits: a jump in
   interleavings means the protocol grew scheduling points. *)
let run_modelcheck log () =
  timed log "modelcheck" (fun () ->
      print_endline
        (Ormp_util.Ascii.section "Model checker: transport litmus coverage");
      let module L = Ormp_modelcheck.Litmus in
      let module Mc = Ormp_modelcheck.Mc in
      let results = L.run_all () in
      let rows =
        List.map
          (fun (r : L.result) ->
            let s = r.L.stats in
            {
              Bench_log.mk_name = r.L.case.L.name;
              mk_interleavings = s.Mc.interleavings;
              mk_steps = s.Mc.steps_executed;
              mk_max_depth = s.Mc.max_depth;
              mk_exhaustive = r.L.case.L.exhaustive;
              mk_budget_exhausted = s.Mc.budget_exhausted;
              mk_violation = s.Mc.violation <> None;
              mk_ok = r.L.ok;
            })
          results
      in
      print_endline
        (Ormp_util.Ascii.table
           ~header:[ "litmus"; "interleavings"; "steps"; "depth"; "coverage"; "ok" ]
           ~rows:
             (List.map
                (fun (r : Bench_log.modelcheck_row) ->
                  [
                    r.Bench_log.mk_name;
                    string_of_int r.Bench_log.mk_interleavings;
                    string_of_int r.Bench_log.mk_steps;
                    string_of_int r.Bench_log.mk_max_depth;
                    (if r.Bench_log.mk_violation then "violation"
                     else if r.Bench_log.mk_budget_exhausted then "bounded"
                     else "exhaustive");
                    (if r.Bench_log.mk_ok then "yes" else "NO");
                  ])
                rows));
      Bench_log.set_modelcheck log rows;
      if List.exists (fun (r : Bench_log.modelcheck_row) -> not r.Bench_log.mk_ok) rows
      then begin
        print_endline "modelcheck: FAILED — a litmus expectation did not hold";
        exit 1
      end)

(* ------------------------------------------------------------------ *)
(* Serve: multi-tenant daemon throughput shape (non-timing)            *)
(* ------------------------------------------------------------------ *)

(* Drives N concurrent client sessions against an in-process `ormp
   serve` daemon whose admission cap is set below N, so the run
   exercises the whole ladder: pooled ingest, ack round-trips, Shed +
   client backoff, and the byte-identity contract. Sessions/sec and the
   ack-latency percentiles are machine-local colour; the session count,
   shed behaviour and byte-identity verdict are the figures the section
   exists to pin down. *)
let run_serve log ~bench () =
  timed log "serve" (fun () ->
      print_endline
        (Ormp_util.Ascii.section "Serving: multi-tenant daemon session throughput");
      let module Daemon = Ormp_server.Daemon in
      let module Client = Ormp_server.Client in
      let n_sessions = if bench then 16 else 8 in
      let jobs = 2 in
      let rec rm_rf path =
        if Sys.file_exists path then
          if Sys.is_directory path then begin
            Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
            Sys.rmdir path
          end
          else Sys.remove path
      in
      let read_file path = In_channel.with_open_bin path In_channel.input_all in
      let base =
        Filename.concat (Filename.get_temp_dir_name ())
          (Printf.sprintf "ormp-bench-serve-%d" (Unix.getpid ()))
      in
      rm_rf base;
      Unix.mkdir base 0o755;
      Fun.protect ~finally:(fun () -> rm_rf base) @@ fun () ->
      let socket = Filename.concat base "ormp.sock" in
      let events =
        match Client.generate ~workload:"linked_list" ~seed:1 with
        | Ok (evs, _) -> evs
        | Error msg -> failwith ("serve: " ^ msg)
      in
      let options =
        {
          (Daemon.default_options ~socket ~root:base) with
          Daemon.jobs;
          (* below n_sessions, so latecomers see Shed + retry *)
          max_sessions = max 2 (n_sessions / 2);
          retry_after_s = 0.01;
        }
      in
      let daemon = Daemon.create options in
      let daemon_domain = Domain.spawn (fun () -> Daemon.run daemon) in
      let t0 = Ormp_util.Clock.now_s () in
      let clients =
        Array.init n_sessions (fun i ->
            Domain.spawn (fun () ->
                Client.run_session ~socket ~token:(Printf.sprintf "bench-%d" i)
                  ~workload:"linked_list" ~events ~ack_every:4
                  ~retry:
                    {
                      Client.default_retry with
                      Client.attempts = 60;
                      backoff_s = 0.005;
                      backoff_max_s = 0.05;
                      seed = 0xbe7c + i;
                    }
                  ()))
      in
      let reconnects = ref 0 and sheds = ref 0 and latencies = ref [] in
      Array.iteri
        (fun i d ->
          match Domain.join d with
          | Ok (st : Client.stats) ->
            reconnects := !reconnects + st.Client.st_reconnects;
            sheds := !sheds + st.Client.st_sheds;
            latencies := st.Client.st_ack_latencies @ !latencies
          | Error msg -> failwith (Printf.sprintf "serve: session bench-%d failed: %s" i msg))
        clients;
      let wall_s = Ormp_util.Clock.now_s () -. t0 in
      Daemon.stop daemon;
      Domain.join daemon_domain;
      let ref_dir = Filename.concat base "reference" in
      Client.reference ~dir:ref_dir ~events;
      let profiles dir =
        List.map
          (fun f -> read_file (Filename.concat dir f))
          [ "whomp.profile"; "rasg.profile"; "leap.profile" ]
      in
      let want = profiles ref_dir in
      let identical = ref true in
      for i = 0 to n_sessions - 1 do
        let dir =
          Filename.concat base (Filename.concat "sessions" (Printf.sprintf "bench-%d" i))
        in
        if profiles dir <> want then identical := false
      done;
      let p q = 1000.0 *. Client.percentile !latencies q in
      Printf.printf
        "%d sessions x %d events, jobs=%d cap=%d: %.1f sessions/sec\n\
         ack latency p50 %.2fms p99 %.2fms   sheds %d   reconnects %d   byte-identical: %b\n\n"
        n_sessions (Array.length events) jobs options.Daemon.max_sessions
        (float_of_int n_sessions /. wall_s)
        (p 0.5) (p 0.99) !sheds !reconnects !identical;
      if not !identical then failwith "serve: a session's profiles differ from reference";
      Bench_log.set_serve log
        {
          Bench_log.sv_sessions = n_sessions;
          sv_events = Array.length events;
          sv_jobs = jobs;
          sv_sessions_per_sec = float_of_int n_sessions /. wall_s;
          sv_p50_ack_ms = p 0.5;
          sv_p99_ack_ms = p 0.99;
          sv_reconnects = !reconnects;
          sv_sheds = !sheds;
          sv_identical = !identical;
        })

(* ------------------------------------------------------------------ *)
(* Observe: ORMP-Watch introspection overhead guard                    *)
(* ------------------------------------------------------------------ *)

(* Pushes the same concurrent client load through an in-process daemon
   twice: once with the stats machinery fully off (registry disabled, no
   flight consumers, no export), once with everything ORMP-Watch adds
   turned on AND actively exercised — registry enabled, a poller domain
   fetching Stats frames at `ormp top`-refresh cadence, stats-file
   export at heartbeat cadence. Best-of-N walls on each side; the run
   fails if watching the daemon costs more than 10% of data-path
   throughput. DESIGN.md §15 documents this bound as part of the stats
   channel's contract. *)
let run_observe log ~bench () =
  timed log "observe" (fun () ->
      print_endline
        (Ormp_util.Ascii.section "Observability: stats channel + flight recorder overhead");
      let module Daemon = Ormp_server.Daemon in
      let module Client = Ormp_server.Client in
      let module Stats = Ormp_server.Stats in
      let module Tm = Ormp_telemetry.Telemetry in
      let n_sessions = if bench then 8 else 4 in
      let reps = if bench then 5 else 3 in
      let rec rm_rf path =
        if Sys.file_exists path then
          if Sys.is_directory path then begin
            Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
            Sys.rmdir path
          end
          else Sys.remove path
      in
      let events =
        match Client.generate ~workload:"linked_list" ~seed:1 with
        | Ok (evs, _) -> evs
        | Error msg -> failwith ("observe: " ^ msg)
      in
      let stats_frames = ref 0 and flight_dumps = ref 0 in
      let run_id = ref 0 in
      let run_once ~stats () =
        incr run_id;
        let base =
          Filename.concat (Filename.get_temp_dir_name ())
            (Printf.sprintf "ormp-bench-observe-%d-%d" (Unix.getpid ()) !run_id)
        in
        rm_rf base;
        Unix.mkdir base 0o755;
        Fun.protect ~finally:(fun () -> rm_rf base) @@ fun () ->
        let socket = Filename.concat base "ormp.sock" in
        let options =
          {
            (Daemon.default_options ~socket ~root:base) with
            Daemon.jobs = 2;
            max_sessions = 0;
            heartbeat_every_s = 0.1;
            stats;
            stats_file = (if stats then Some (Filename.concat base "stats.json") else None);
          }
        in
        (* Daemon.create enables the registry when [stats]; the off side
           must measure with it genuinely off *)
        if not stats then Tm.disable ();
        let daemon = Daemon.create options in
        let daemon_domain = Domain.spawn (fun () -> Daemon.run daemon) in
        let stop_poll = Atomic.make false in
        let poller =
          if not stats then None
          else
            Some
              (Domain.spawn (fun () ->
                   let n = ref 0 in
                   while not (Atomic.get stop_poll) do
                     (match Client.fetch_stats ~socket ~io_timeout_s:5.0 () with
                     | Ok s ->
                       incr n;
                       flight_dumps := s.Stats.s_flight_dumps
                     | Error _ -> ());
                     Ormp_server.Net_io.sleep 0.005
                   done;
                   !n))
        in
        let t0 = Ormp_util.Clock.now_s () in
        let clients =
          Array.init n_sessions (fun i ->
              Domain.spawn (fun () ->
                  Client.run_session ~socket ~token:(Printf.sprintf "ob-%d" i)
                    ~workload:"linked_list" ~events ~ack_every:4
                    ~retry:
                      {
                        Client.default_retry with
                        Client.attempts = 60;
                        backoff_s = 0.005;
                        backoff_max_s = 0.05;
                        seed = 0x0b5e + i;
                      }
                    ()))
        in
        Array.iteri
          (fun i d ->
            match Domain.join d with
            | Ok (_ : Client.stats) -> ()
            | Error msg -> failwith (Printf.sprintf "observe: session ob-%d failed: %s" i msg))
          clients;
        let wall_s = Ormp_util.Clock.now_s () -. t0 in
        Atomic.set stop_poll true;
        (match poller with
        | Some p -> stats_frames := !stats_frames + Domain.join p
        | None -> ());
        Daemon.stop daemon;
        Domain.join daemon_domain;
        wall_s
      in
      (* Warm both modes, then take the best of [reps] *interleaved*
         off/on pairs. Measuring the modes in separate blocks let slow
         drift (page cache, CPU frequency, daemon socket churn) land
         entirely on one side — an earlier run measured stats-on *faster*
         than stats-off (ratio 0.82) that way. Alternating trials inside
         one loop exposes both modes to the same drift. *)
      ignore (run_once ~stats:false ());
      ignore (run_once ~stats:true ());
      let off_wall = ref Float.infinity and on_wall = ref Float.infinity in
      for _ = 1 to reps do
        let off = run_once ~stats:false () in
        if off < !off_wall then off_wall := off;
        let on = run_once ~stats:true () in
        if on < !on_wall then on_wall := on
      done;
      let off_wall = !off_wall and on_wall = !on_wall in
      Tm.disable ();
      Tm.reset ();
      let total = float_of_int (n_sessions * Array.length events) in
      let off_eps = total /. off_wall and on_eps = total /. on_wall in
      let ratio = off_eps /. on_eps in
      Printf.printf
        "%d sessions x %d events (best of %d)\n\
         stats off: %10.0f events/s\n\
         stats on : %10.0f events/s   ratio: %.3f   (%d stats frames served, %d flight \
         dumps)\n\n"
        n_sessions (Array.length events) reps off_eps on_eps ratio !stats_frames
        !flight_dumps;
      Bench_log.set_observe log
        {
          Bench_log.ob_sessions = n_sessions;
          ob_events = Array.length events;
          ob_off_events_per_sec = off_eps;
          ob_on_events_per_sec = on_eps;
          ob_ratio = ratio;
          ob_stats_frames = !stats_frames;
          ob_flight_dumps = !flight_dumps;
        };
      if ratio > 1.10 then begin
        Printf.printf
          "observe guard: FAILED — watching the daemon costs %.1f%% (> 10%%)\n"
          ((ratio -. 1.0) *. 100.0);
        exit 1
      end)

(* ------------------------------------------------------------------ *)
(* Verify: the debug-mode checking pass                                *)
(* ------------------------------------------------------------------ *)

let run_verify log ~bench () =
  timed log "verify" (fun () ->
      print_endline
        (Ormp_util.Ascii.section "Checking layer: sanitizer + profile invariants");
      let failures = ref 0 in
      let verdict workload what = function
        | Ok () -> Printf.printf "  %-18s %-16s OK\n" workload what
        | Error e ->
          incr failures;
          Printf.printf "  %-18s %-16s FAIL: %s\n" workload what e
      in
      List.iter
        (fun e ->
          let name = e.Ormp_workloads.Registry.name in
          let program = Ormp_workloads.Registry.program ~bench e in
          let r = Ormp_check.Sanitizer.run program in
          verdict name "sanitizer"
            (if Ormp_check.Report.clean r then Ok ()
             else
               Error
                 (Printf.sprintf "%d error(s), %d warning(s)" (Ormp_check.Report.errors r)
                    (Ormp_check.Report.warnings r)));
          verdict name "whomp profile"
            (Ormp_check.Verify.whomp_profile (Ormp_whomp.Whomp.profile program));
          verdict name "leap profile"
            (Ormp_check.Verify.leap_profile (Ormp_leap.Leap.profile program)))
        Ormp_workloads.Registry.spec;
      if !failures > 0 then begin
        Printf.printf "verify: %d check(s) FAILED\n" !failures;
        exit 1
      end
      else print_newline ())

(* Symbols/events one run of the named micro row consumes. The
   recorded-trace profiler rows report their count from [micro_tests]
   (the shared trace's length); rows with no natural event count (the
   solver) are omitted and report per-run figures only. *)
let micro_event_counts =
  [
    ("sequitur: 4k repetitive symbols", 4096);
    ("sequitur: 4k scattered symbols", 4096);
    ("sequitur: 32k scattered symbols", 32768);
    ("sequitur: 32k scattered symbols (size hint)", 32768);
    ("sequitur: 4k repetitive symbols (push_batch)", 4096);
    ("sequitur: 32k scattered symbols (push_batch, size hint)", 32768);
    ("sequitur: of_rules 32k scattered", 32768);
    ("range_index: 1k insert+find", 2000);
    ("omc: 1k translations", 1000);
    ("omc: 1k translations (MRU cache)", 1000);
    ("omc: 1k batched translations", 1000);
    ("lmad: 4k-point regular stream", 4096);
    ("lmad: 4k-point scattered stream", 4096);
  ]

let run_micro log () =
  timed log "micro" (fun () ->
      let open Bechamel in
      print_endline
        (Ormp_util.Ascii.section "Micro-benchmarks (Bechamel, monotonic clock + minor words)");
      let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
      (* Both instances are sampled in the same runs, then analyzed per
         witness: the second pass turns the same samples into minor-heap
         words per run, the allocation column of the bench table. *)
      let instances = Toolkit.Instance.[ monotonic_clock; minor_allocated ] in
      let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) () in
      let tests, trace_counts = micro_tests () in
      let event_counts = micro_event_counts @ trace_counts in
      let raw = Benchmark.all cfg instances tests in
      let ns_results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
      let words_results = Analyze.all ols Toolkit.Instance.minor_allocated raw in
      let estimate tbl name =
        match Hashtbl.find_opt tbl name with
        | None -> None
        | Some r -> (
          match Analyze.OLS.estimates r with Some [ v ] -> Some v | _ -> None)
      in
      let rows = ref [] in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ ns ] ->
            let short =
              match String.index_opt name '/' with
              | Some i -> String.sub name (i + 1) (String.length name - i - 1)
              | None -> name
            in
            rows :=
              {
                Bench_log.mr_name = short;
                mr_ns_per_run = ns;
                mr_minor_words_per_run =
                  Option.value ~default:Float.nan (estimate words_results name);
                mr_events = Option.value ~default:0 (List.assoc_opt short event_counts);
              }
              :: !rows
          | _ -> ())
        ns_results;
      let rows =
        List.sort (fun a b -> compare a.Bench_log.mr_name b.Bench_log.mr_name) !rows
      in
      Bench_log.set_micro log rows;
      let pretty_ns ns =
        if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
        else if ns > 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
        else Printf.sprintf "%.0f ns" ns
      in
      print_endline
        (Ormp_util.Ascii.table
           ~header:[ "benchmark"; "time per run"; "minor alloc"; "ns/event"; "words/event" ]
           ~rows:
             (List.map
                (fun (r : Bench_log.micro_row) ->
                  let per_event f =
                    if r.Bench_log.mr_events > 0 && not (Float.is_nan f) then
                      Printf.sprintf "%.2f" (f /. float_of_int r.Bench_log.mr_events)
                    else "-"
                  in
                  [
                    r.Bench_log.mr_name;
                    pretty_ns r.Bench_log.mr_ns_per_run;
                    (if Float.is_nan r.Bench_log.mr_minor_words_per_run then "-"
                     else Printf.sprintf "%.0f w" r.Bench_log.mr_minor_words_per_run);
                    per_event r.Bench_log.mr_ns_per_run;
                    per_event r.Bench_log.mr_minor_words_per_run;
                  ])
                rows)))

(* ------------------------------------------------------------------ *)
(* perf-guard: regression check against a committed baseline log       *)
(* ------------------------------------------------------------------ *)

(* Compares this run's hotpath figure, the sequitur/leap/whomp/omc/
   range_index micro rows (time AND minor-word allocation, per event
   where the row has a count), and the combined jobs=1 scaling
   throughput against a baseline BENCH_ormp.json — exit 1 if anything
   regressed more than [guard_threshold]x. Only rows present in both
   runs participate; sub-threshold drift prints but passes. Wired to
   `dune build @perf-guard` (opt-in — timing under test concurrency is
   too noisy for @runtest). *)
let guard_threshold = 1.5

let run_guard log ~baseline =
  let module J = Ormp_util.Json in
  print_endline
    (Ormp_util.Ascii.section
       (Printf.sprintf "perf-guard: vs %s (fail above %.1fx)" baseline guard_threshold));
  let root =
    match
      J.of_string (In_channel.with_open_bin baseline In_channel.input_all)
    with
    | Ok t -> t
    | Error e ->
      Printf.eprintf "perf-guard: cannot parse %s: %s\n" baseline e;
      exit 2
    | exception Sys_error e ->
      Printf.eprintf "perf-guard: cannot read baseline: %s\n" e;
      exit 2
  in
  (match Option.bind (J.member "mode" root) J.to_str with
  | Some mode when mode <> log.Bench_log.mode ->
    Printf.printf
      "note: baseline mode %S differs from this run's %S — ratios compare\n\
       different scales and only gate gross regressions.\n" mode log.Bench_log.mode
  | _ -> ());
  let failures = ref 0 and compared = ref 0 in
  let check name base cur =
    match (base, cur) with
    | Some bv, Some cv when bv > 0.0 ->
      incr compared;
      let ratio = cv /. bv in
      let verdict =
        if ratio > guard_threshold then begin
          incr failures;
          "FAIL"
        end
        else "ok"
      in
      Printf.printf "  %-56s %10.2f -> %10.2f ns  %5.2fx  %s\n" name bv cv ratio verdict
    | _ -> Printf.printf "  %-56s not in both runs - skipped\n" name
  in
  (* Allocation figures get the same relative threshold plus one word of
     absolute slack: the flat rows sit at (or near) zero words/event,
     where a pure ratio would flag measurement noise. *)
  let check_words name base cur =
    match (base, cur) with
    | Some bv, Some cv when not (Float.is_nan bv || Float.is_nan cv) ->
      incr compared;
      let limit = (bv *. guard_threshold) +. 1.0 in
      let verdict =
        if cv > limit then begin
          incr failures;
          "FAIL"
        end
        else "ok"
      in
      Printf.printf "  %-56s %10.2f -> %10.2f w   limit %.2f  %s\n" name bv cv limit
        verdict
    | _ -> Printf.printf "  %-56s not in both runs - skipped\n" name
  in
  let jfloat o k = Option.bind (Option.bind o (J.member k)) J.to_float in
  check "hotpath.batched_ns_per_event"
    (jfloat (J.member "hotpath" root) "batched_ns_per_event")
    (Option.map (fun h -> h.Bench_log.batched_ns_per_event) log.Bench_log.hotpath);
  (* Micro rows guarded per family: every structure this repo has
     flattened stays under both its time and its allocation baseline.
     Rows with an event count compare per-event figures (stable across
     a renamed or re-sized run); the rest fall back to per-run ns. *)
  let guarded_prefixes = [ "sequitur"; "leap"; "whomp"; "omc"; "range_index" ] in
  let has_prefix name p =
    String.length name >= String.length p && String.sub name 0 (String.length p) = p
  in
  let base_micro =
    match Option.bind (J.member "micro" root) J.to_list with
    | None -> []
    | Some rows ->
      List.filter_map
        (fun r ->
          match Option.bind (J.member "name" r) J.to_str with
          | Some n -> Some (n, r)
          | None -> None)
        rows
  in
  List.iter
    (fun (r : Bench_log.micro_row) ->
      if List.exists (has_prefix r.Bench_log.mr_name) guarded_prefixes then begin
        let base = List.assoc_opt r.Bench_log.mr_name base_micro in
        let ev = r.Bench_log.mr_events in
        if ev > 0 then begin
          check
            (r.Bench_log.mr_name ^ " [/event]")
            (jfloat base "ns_per_event")
            (Some (r.Bench_log.mr_ns_per_run /. float_of_int ev));
          check_words
            (r.Bench_log.mr_name ^ " [words/event]")
            (jfloat base "minor_words_per_event")
            (Some (r.Bench_log.mr_minor_words_per_run /. float_of_int ev))
        end
        else
          check r.Bench_log.mr_name (jfloat base "ns_per_run")
            (Some r.Bench_log.mr_ns_per_run)
      end)
    log.Bench_log.micro;
  (* Combined-suite throughput (higher is better): fail when this run is
     more than [guard_threshold]x slower than the baseline's jobs=1 row. *)
  let check_throughput name base cur =
    match (base, cur) with
    | Some bv, Some cv when bv > 0.0 && cv > 0.0 ->
      incr compared;
      let ratio = bv /. cv in
      let verdict =
        if ratio > guard_threshold then begin
          incr failures;
          "FAIL"
        end
        else "ok"
      in
      Printf.printf "  %-56s %10.0f -> %10.0f ev/s %4.2fx  %s\n" name bv cv ratio verdict
    | _ -> Printf.printf "  %-56s not in both runs - skipped\n" name
  in
  let scaling_jobs1 rows_json =
    Option.bind rows_json (fun rows ->
        List.find_map
          (fun r ->
            match Option.bind (J.member "jobs" r) J.to_float with
            | Some 1.0 -> jfloat (Some r) "events_per_sec"
            | _ -> None)
          rows)
  in
  check_throughput "scaling.combined(jobs=1).events_per_sec"
    (scaling_jobs1
       (Option.bind (Option.bind (J.member "scaling" root) (J.member "rows")) J.to_list))
    (Option.bind log.Bench_log.scaling (fun s ->
         List.find_map
           (fun (r : Bench_log.scaling_row) ->
             if r.Bench_log.sl_jobs = 1 then Some r.Bench_log.sl_events_per_sec else None)
           s.Bench_log.sl_rows));
  print_newline ();
  if !compared = 0 then begin
    Printf.eprintf
      "perf-guard: nothing to compare — run the hotpath and micro sections\n\
       against a baseline that contains them.\n";
    exit 2
  end;
  if !failures > 0 then begin
    Printf.printf "perf-guard: FAILED — %d figure(s) regressed beyond %.1fx\n" !failures
      guard_threshold;
    exit 1
  end
  else Printf.printf "perf-guard: ok (%d figure(s) within %.1fx)\n" !compared guard_threshold

let () =
  let fast, baseline, wanted, enabled = parse_args () in
  let bench = not fast in
  let log = Bench_log.create ~mode:(if fast then "fast" else "paper") in
  Printf.printf "ORMP benchmark harness — %s scale\n\n%!"
    (if bench then "paper (training-input)" else "fast (test)");
  if enabled "fig5" then run_fig5 log ~bench ();
  run_dependence_figs log ~bench ~enabled ();
  if enabled "ablations" then run_ablations log ~bench ();
  if enabled "extensions" then run_extensions log ~bench ();
  if enabled "hotpath" then run_hotpath log ~bench ();
  if enabled "micro" then run_micro log ();
  if enabled "scaling" then run_scaling log ~bench ();
  if enabled "recovery" then run_recovery log ~bench ();
  if enabled "telemetry" then run_telemetry log ~bench ();
  if enabled "modelcheck" then run_modelcheck log ();
  if enabled "serve" then run_serve log ~bench ();
  if enabled "observe" then run_observe log ~bench ();
  (* Skipped in default timing runs; see the usage comment. *)
  if List.mem "verify" wanted || (wanted = [] && fast) then run_verify log ~bench ();
  Bench_log.write log "BENCH_ormp.json";
  match baseline with None -> () | Some path -> run_guard log ~baseline:path
