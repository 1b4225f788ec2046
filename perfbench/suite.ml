(* The two workloads: which programs run, at what size, and their
   recorded event streams. *)

module Event = Ormp_trace.Event

type program = {
  name : string;  (** also the session's workload label on the wire *)
  program : Ormp_vm.Program.t;
}

type recorded = {
  prog : program;
  events : Event.t array;  (** the full raw probe stream, in order *)
  accesses : int;
  object_events : int;  (** allocs + frees *)
}

let workloads = [ "spec"; "objects" ]

(* [scale] divides every size: 1 is the benchmark, the self-test uses a
   small fraction. The stand-ins run at half their bench scale, so that
   a run holds three rounds. *)
let programs ~scale name =
  let s n = max 1 (n / scale) in
  match name with
  | "spec" ->
    List.map
      (fun (e : Ormp_workloads.Registry.entry) ->
        {
          name = e.name;
          program = e.make ~scale:(max 1 (e.bench_scale / (2 * scale)));
        })
      Ormp_workloads.Registry.spec
  | "objects" ->
    let module M = Ormp_workloads.Micro in
    [
      { name = "churn"; program = M.churn ~live:256 ~ops:(s 120_000) () };
      { name = "binary_tree"; program = M.binary_tree ~nodes:(s 4_096) ~searches:(s 6_000) () };
      { name = "random_walk"; program = M.random_walk ~nodes:(s 8_192) ~steps:(s 60_000) () };
    ]
  | _ -> invalid_arg ("unknown workload " ^ name)

let config ~seed = { Ormp_vm.Config.default with seed }

let record ~config prog =
  let buf = Ormp_util.Vec.create () in
  ignore (Ormp_vm.Runner.run ~config prog.program (Ormp_util.Vec.push buf));
  let events = Ormp_util.Vec.to_array buf in
  let accesses = Array.fold_left (fun n ev -> if Event.is_access ev then n + 1 else n) 0 events in
  { prog; events; accesses; object_events = Array.length events - accesses }
