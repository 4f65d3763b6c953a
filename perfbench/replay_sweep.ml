(* replay-sweep: set-up records a few event-dense executions to v2 trace
   files; every query re-opens one file through Cell_trace's public
   reader and replays it with the fused loop under a drawn layout and
   block size.  Trace decode, fused replay and the cache simulator do all
   the work; the interpreter does none. *)

open Suite
module L = Ledger
module Cell_trace = Fs_trace.Cell_trace

let recordings =
  [ recording "pverify" ~nprocs:8 ~scale:8;
    recording "raytrace" ~nprocs:8 ~scale:4;
    recording "water" ~nprocs:8 ~scale:16 ]

let blocks = [ 8; 16; 32; 64; 128; 256 ]

type trace = {
  r : recording;
  prog : Fs_ir.Ast.program;
  path : string;
  file_bytes : int;
  plans : (layout * Fs_layout.Plan.t) list;
}

type spec = { t : trace; layout : layout; block : int }

(* seconds the last set-up spent encoding, for the ledger *)
let encode_s = ref 0.

let setup () =
  encode_s := 0.;
  let traces =
    List.map
      (fun r ->
        let prog = build r in
        let recorded = Sim.record prog ~nprocs:r.nprocs in
        let path =
          Filename.concat !work_dir
            (String.map (function '/' -> '-' | c -> c) (rec_id r) ^ ".fstrace")
        in
        let (), s, _ =
          L.measure (fun () -> Cell_trace.write_file recorded.Sim.trace path)
        in
        encode_s := !encode_s +. s;
        { r; prog; path; file_bytes = (Unix.stat path).Unix.st_size;
          plans = List.map (fun l -> (l, Suite.plan r prog l)) (layouts r) })
      recordings
  in
  List.concat_map
    (fun t ->
      List.concat_map
        (fun (layout, _) -> List.map (fun block -> { t; layout; block }) blocks)
        t.plans)
    traces

let query { t; layout; block } =
  let t0 = L.now () in
  let trace = L.span "trace.decode" (fun () -> Cell_trace.read_file t.path) in
  let lay =
    L.span "layout.realize" (fun () ->
        Fs_layout.Layout.realize t.prog (List.assoc layout t.plans) ~block)
  in
  let bytes = Fs_layout.Layout.size lay in
  let cache =
    L.span "cache.create" (fun () -> C.create ~max_addr:bytes (config t.r ~block))
  in
  L.span "replay.fused" (fun () ->
      Fs_replay.Replay.simulate trace ~layout:lay ~cache);
  let wall = L.now () -. t0 in
  let counts = C.counts cache in
  let ok = expect_counts (cache_key t.r layout ~block) "counts" counts in
  let accesses = C.accesses counts in
  L.count "trace.decoded_events" (float_of_int (Cell_trace.length trace));
  L.count "trace.file_bytes" (float_of_int t.file_bytes);
  L.count "replay.fused_accesses" (float_of_int accesses);
  L.count "layout.bytes" (float_of_int bytes);
  L.count "cache.accesses" (float_of_int accesses);
  sample ~wall ~ok ~accesses
    ?fs_removed:(fs_removed t.r ~block ~false_sh:counts.C.false_sh)
    ?space:(space_overhead t.r ~block ~bytes)
    ()

(* Mpcache.touch alone: one trace translated once to (proc, write, addr)
   arrays under the unoptimized layout, then fed straight to the cache —
   no decode, no oracle, no event dispatch. *)
let touch_mevents_per_s () =
  let r = List.hd recordings in
  let prog = build r in
  let recorded = Sim.record prog ~nprocs:r.nprocs in
  let block = 128 in
  let lay = Fs_layout.Layout.realize prog [] ~block in
  let n = ref 0 in
  let procs = ref [||] and writes = ref [||] and addrs = ref [||] in
  let push proc write addr =
    if !n = Array.length !procs then begin
      let grow a d = Array.append a (Array.make (max 1024 (Array.length a)) d) in
      procs := grow !procs 0;
      writes := grow !writes false;
      addrs := grow !addrs 0
    end;
    !procs.(!n) <- proc;
    !writes.(!n) <- write;
    !addrs.(!n) <- addr;
    incr n
  in
  Fs_replay.Replay.replay recorded.Sim.trace ~layout:lay
    ~listener:
      { Fs_trace.Listener.null with
        access = (fun ~proc ~write ~addr -> push proc write addr) };
  let n = !n and procs = !procs and writes = !writes and addrs = !addrs in
  let once () =
    let cache =
      C.create ~max_addr:(Fs_layout.Layout.size lay) (config r ~block)
    in
    let (), s, _ =
      L.measure (fun () ->
          for i = 0 to n - 1 do
            C.touch cache ~proc:procs.(i) ~write:writes.(i) ~addr:addrs.(i)
          done)
    in
    s
  in
  let s = Ledger.median (List.init 5 (fun _ -> once ())) in
  float_of_int n /. s /. 1e6

let layer_metrics () =
  [ ("trace.encode_ms", 1e3 *. !encode_s /. float_of_int (List.length recordings));
    ("cache.touch_mevents_per_s", touch_mevents_per_s ()) ]

let gen_golden () =
  List.iter
    (fun r ->
      let prog = build r in
      let recorded = Sim.record prog ~nprocs:r.nprocs in
      List.iter
        (fun l -> List.iter (fun block -> gen_cache r prog recorded l ~block) blocks)
        (layouts r))
    recordings
