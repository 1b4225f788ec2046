(* Independent correctness checks. The expected streams are derived here
   from the recorded raw events by a naive translator that shares no
   code with the profiler: groups are dense ids per allocation site in
   first-seen order, an object's serial is its group's population when
   it was born, and an offset is the address minus the object's base.
   Live objects sit in an ordered map keyed by base address. *)

module Event = Ormp_trace.Event
module W = Ormp_whomp.Whomp
module Leap = Ormp_leap.Leap
module Comp = Ormp_lmad.Compressor
module Lmad = Ormp_lmad.Lmad
module IM = Map.Make (Int)

type key_ref = { mutable count : int; points : (int, unit) Hashtbl.t }

type t = {
  accesses : int;
  addrs : int array;  (** every access address, in order *)
  instr : int array;  (** translated accesses, in order *)
  group : int array;
  obj : int array;
  offset : int array;
  keys : (int * int, key_ref) Hashtbl.t;  (** per (instr, group) *)
}

let translated t = Array.length t.instr

(* (object, offset) packed into one int; serials and offsets stay far
   below 2^31 on every workload. *)
let pack o off = (o lsl 31) lor off

let derive (events : Event.t array) =
  let groups = Hashtbl.create 16 in
  let population = Hashtbl.create 16 in
  let live = ref IM.empty in
  let addrs = Ormp_util.Vec.create () in
  let ti = Ormp_util.Vec.create () and tg = Ormp_util.Vec.create () in
  let tobj = Ormp_util.Vec.create () and toff = Ormp_util.Vec.create () in
  let keys = Hashtbl.create 64 in
  Array.iter
    (fun (ev : Event.t) ->
      match ev with
      | Alloc { site; addr; size; _ } ->
        let gid =
          match Hashtbl.find_opt groups site with
          | Some g -> g
          | None ->
            let g = Hashtbl.length groups in
            Hashtbl.replace groups site g;
            g
        in
        let serial = Option.value ~default:0 (Hashtbl.find_opt population gid) in
        Hashtbl.replace population gid (serial + 1);
        live := IM.add addr (size, gid, serial) !live
      | Free { addr; _ } -> live := IM.remove addr !live
      | Access { instr; addr; _ } -> (
        Ormp_util.Vec.push addrs addr;
        match IM.find_last_opt (fun b -> b <= addr) !live with
        | Some (base, (size, gid, serial)) when addr < base + size ->
          let off = addr - base in
          Ormp_util.Vec.push ti instr;
          Ormp_util.Vec.push tg gid;
          Ormp_util.Vec.push tobj serial;
          Ormp_util.Vec.push toff off;
          let k =
            match Hashtbl.find_opt keys (instr, gid) with
            | Some k -> k
            | None ->
              let k = { count = 0; points = Hashtbl.create 16 } in
              Hashtbl.replace keys (instr, gid) k;
              k
          in
          k.count <- k.count + 1;
          Hashtbl.replace k.points (pack serial off) ()
        | _ -> ()))
    events;
  let a = Ormp_util.Vec.to_array in
  {
    accesses = Ormp_util.Vec.length addrs;
    addrs = a addrs;
    instr = a ti;
    group = a tg;
    obj = a tobj;
    offset = a toff;
    keys;
  }

let fail fmt = Printf.ksprintf (fun s -> Error s) fmt
let ( let* ) = Result.bind

let check_counts what ~collected ~wild r =
  if collected <> translated r then
    fail "%s: collected %d, reference translates %d" what collected (translated r)
  else if collected + wild <> r.accesses then
    fail "%s: collected %d + wild %d <> %d accesses" what collected wild r.accesses
  else Ok ()

(* [Whomp.expand] of the (reloaded) OMSG must be the reference tuple
   stream exactly, time stamps included. *)
let check_whomp r (p : W.profile) =
  let* () = check_counts "whomp" ~collected:p.W.collected ~wild:p.W.wild r in
  let n = translated r in
  let rec go i = function
    | [] -> if i = n then Ok () else fail "whomp: expansion has %d tuples, expected %d" i n
    | (tu : Ormp_core.Tuple.t) :: rest ->
      if i >= n then fail "whomp: expansion longer than %d tuples" n
      else if
        tu.instr <> r.instr.(i)
        || tu.group <> r.group.(i)
        || tu.obj <> r.obj.(i)
        || tu.offset <> r.offset.(i)
        || tu.time <> i
      then
        fail "whomp: tuple %d is (%d,%d,%d,%d @%d), expected (%d,%d,%d,%d @%d)" i tu.instr
          tu.group tu.obj tu.offset tu.time r.instr.(i) r.group.(i) r.obj.(i) r.offset.(i) i
      else go (i + 1) rest
  in
  go 0 (W.expand p)

(* The expanded RASG must be the raw address stream. *)
let check_rasg r (p : Ormp_whomp.Rasg.profile) =
  let got = Ormp_sequitur.Sequitur.expand p.Ormp_whomp.Rasg.grammar in
  if p.Ormp_whomp.Rasg.accesses <> r.accesses then
    fail "rasg: %d accesses, expected %d" p.Ormp_whomp.Rasg.accesses r.accesses
  else if got <> r.addrs then
    fail "rasg: expansion (%d symbols) differs from the raw address stream (%d)"
      (Array.length got) (Array.length r.addrs)
  else Ok ()

(* Per (instr, group) stream: within its LMAD budget, offered exactly
   the reference's accesses, captured + discarded = total, the LMAD
   sizes sum to captured, and every point an LMAD describes occurs in
   the key's reference (object, offset) stream.

   One shortfall is a known fault rather than a broken run: a saved
   profile drops the open descriptor's trailing partial iteration yet
   still counts it as captured, so its LMADs can describe fewer points
   than [captured]. That iteration is always smaller than the last LMAD,
   which the open descriptor became, so only a shortfall below the last
   LMAD's size is let through. Such streams are returned, with the
   missing point count, for the caller to count as failed; every other
   check on them still applies. Any larger shortfall fails the check. *)
let check_leap r (p : Leap.profile) =
  let* () = check_counts "leap" ~collected:p.Leap.collected ~wild:p.Leap.wild r in
  let* () =
    if p.Leap.dropped_streams <> 0 then fail "leap: %d streams dropped" p.Leap.dropped_streams
    else if List.length p.Leap.streams <> Hashtbl.length r.keys then
      fail "leap: %d streams, reference has %d (instr, group) keys"
        (List.length p.Leap.streams) (Hashtbl.length r.keys)
    else Ok ()
  in
  let short = ref [] in
  let check_stream ((k : Leap.key), (s : Leap.stream)) =
    let c = s.Leap.comp in
    let lmads = Comp.lmads c in
    match Hashtbl.find_opt r.keys (k.instr, k.group) with
    | None -> fail "leap: stream (%d,%d) has no reference accesses" k.instr k.group
    | Some kr ->
      let size_sum = List.fold_left (fun n d -> n + Lmad.size d) 0 lmads in
      let missing = Comp.captured c - size_sum in
      let last = match List.rev lmads with d :: _ -> Lmad.size d | [] -> 0 in
      if List.length lmads > Comp.default_budget then
        fail "leap: stream (%d,%d) holds %d LMADs, budget %d" k.instr k.group
          (List.length lmads) Comp.default_budget
      else if Comp.total c <> kr.count then
        fail "leap: stream (%d,%d) total %d, reference %d" k.instr k.group (Comp.total c)
          kr.count
      else if Comp.captured c + Comp.discarded c <> Comp.total c then
        fail "leap: stream (%d,%d) captured %d + discarded %d <> total %d" k.instr k.group
          (Comp.captured c) (Comp.discarded c) (Comp.total c)
      else if missing < 0 then
        fail "leap: stream (%d,%d) LMAD sizes sum to %d, captured %d" k.instr k.group size_sum
          (Comp.captured c)
      else if missing > 0 && missing >= last then
        fail "leap: stream (%d,%d) LMADs describe %d of %d captured accesses; %d missing, the last LMAD has %d points"
          k.instr k.group size_sum (Comp.captured c) missing last
      else begin
        if missing > 0 then short := (k.instr, k.group, missing) :: !short;
        let bad = ref None in
        List.iter
          (fun d ->
            if !bad = None then
              for i = 0 to Lmad.size d - 1 do
                let pt = Lmad.point d i in
                if !bad = None && not (Hashtbl.mem kr.points (pack pt.(0) pt.(1))) then
                  bad := Some (pt.(0), pt.(1))
              done)
          lmads;
        match !bad with
        | None -> Ok ()
        | Some (o, off) ->
          fail "leap: stream (%d,%d) describes (%d,%d), absent from its reference stream"
            k.instr k.group o off
      end
  in
  let* () =
    List.fold_left
      (fun acc ks -> match acc with Error _ -> acc | Ok () -> check_stream ks)
      (Ok ()) p.Leap.streams
  in
  Ok (List.rev !short)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let same_bytes a b =
  if read_file a = read_file b then Ok () else fail "%s and %s differ" a b
