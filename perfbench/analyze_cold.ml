(* analyze-cold: the `report` path a user waits for, from ParC source text
   to N/C/P miss counts at 128-byte blocks and the KSR2 model under the
   compiler's layout.  Every query parses, plans and interprets afresh
   (no Experiments.plan_for, no Trace_memo), so the interpreter does most
   of the work. *)

open Suite
module L = Ledger

let block = 128

(* the static suite at two processor counts; the scales spread the
   queries evenly over about 30-130 ms, so no gap between two sizes sits
   at the median *)
let recordings =
  List.concat_map
    (fun (name, scales) ->
      List.concat_map
        (fun nprocs ->
          List.map (fun scale -> recording name ~nprocs ~scale) scales)
        [ 4; 8 ])
    [ ("pverify", [ 2; 3 ]);
      ("raytrace", [ 1; 2 ]);
      ("maxflow", [ 8; 10; 12 ]);
      ("fmm", [ 4; 5; 6 ]);
      ("topopt", [ 12; 16; 24 ]);
      ("radiosity", [ 4; 5; 6 ]);
      ("water", [ 6; 9; 12 ]) ]

type spec = { r : recording; source : string }

let setup () =
  List.map
    (fun r -> { r; source = Fs_ir.Pp.program_to_string (build r) })
    recordings

let events_of (recorded : Sim.recorded) =
  Fs_trace.Cell_trace.length recorded.Sim.trace

(* The analyses off the query's clock.  The planner runs Summary inside
   Sim.compiler_plan, so its time moves from transform.plan (leaving the
   heuristics' self time) to analysis.summary; PDV and non-concurrency
   analysis are not on the planning path and are timed for the ledger
   only. *)
let side_measurements r prog =
  let time f =
    let _, s, _ = L.measure f in
    s
  in
  let summary =
    time (fun () -> Fs_analysis.Summary.analyze prog ~nprocs:r.nprocs)
  in
  L.move ~from:"transform.plan" ~into:"analysis.summary" (summary, 0.);
  L.count "analysis.pdv_s" (time (fun () -> Fs_analysis.Pdv.analyze prog));
  L.count "analysis.nonconc_s"
    (time (fun () -> Fs_analysis.Nonconcurrency.analyze prog))

let query { r; source } =
  let t0 = L.now () in
  let nprocs = r.nprocs in
  let prog = L.span "parc.parse" (fun () -> Fs_parc.Parser.parse source) in
  let cplan =
    L.span "transform.plan" (fun () -> Sim.compiler_plan prog ~nprocs)
  in
  let recorded =
    L.span "interp.record" (fun () -> Sim.record prog ~nprocs)
  in
  let versions =
    List.map
      (fun layout ->
        let plan = if layout = C then cplan else Suite.plan r prog layout in
        let counts, bytes = fused r prog recorded plan ~block in
        (layout, plan, counts, bytes))
      (layouts r)
  in
  let ksr =
    L.span "machine.ksr" (fun () ->
        (Sim.machine_sim ~recorded prog cplan ~nprocs).Sim.machine)
  in
  let wall = L.now () -. t0 in
  let ok =
    List.for_all
      (fun (layout, _, counts, _) ->
        expect_counts (cache_key r layout ~block) "counts" counts)
      versions
    && expect_counts (ksr_key r) "counts" ksr.Fs_machine.Ksr.cache
    && expect_int (ksr_key r) "cycles" ksr.Fs_machine.Ksr.cycles
  in
  let accesses =
    List.fold_left (fun acc (_, _, c, _) -> acc + C.accesses c)
      (C.accesses ksr.Fs_machine.Ksr.cache) versions
  in
  let _, _, cc, cbytes = List.find (fun (l, _, _, _) -> l = C) versions in
  L.count "interp.events" (float_of_int (events_of recorded));
  L.count "cache.accesses" (float_of_int accesses);
  L.count "machine.sim_cycles" (float_of_int ksr.Fs_machine.Ksr.cycles);
  L.count "transform.decisions" (float_of_int (List.length cplan));
  L.count "layout.bytes" (float_of_int cbytes);
  if !L.tracing then begin
    side_measurements r prog;
    List.iter (fun (_, plan, _, _) -> split_eval r prog plan ~block) versions
  end;
  sample ~wall ~ok ~accesses
    ?fs_removed:(fs_removed r ~block ~false_sh:cc.C.false_sh)
    ?space:(space_overhead r ~block ~bytes:cbytes)
    ()

(* golden entries: N/C/P counts and the KSR2 model, from the workload's
   own builder rather than the printed-and-parsed program *)
let gen_golden () =
  List.iter
    (fun r ->
      let prog = build r in
      let recorded = Sim.record prog ~nprocs:r.nprocs in
      List.iter (fun l -> gen_cache r prog recorded l ~block) (layouts r);
      let cplan = Suite.plan r prog C in
      let ksr = (Sim.machine_sim ~recorded prog cplan ~nprocs:r.nprocs).Sim.machine in
      let kc = Fs_machine.Ksr.default_config ~nprocs:r.nprocs in
      let legacy =
        legacy_counts recorded.Sim.trace
          (Fs_layout.Layout.realize prog cplan ~block:kc.Fs_machine.Ksr.block)
          { C.nprocs = r.nprocs; block = kc.Fs_machine.Ksr.block;
            cache_bytes = kc.Fs_machine.Ksr.cache_bytes;
            assoc = kc.Fs_machine.Ksr.assoc }
      in
      if counts_to_list legacy <> counts_to_list ksr.Fs_machine.Ksr.cache then
        failwith ("KSR2 cache disagrees with the pre-rewrite engine on " ^ rec_id r);
      Hashtbl.replace table (ksr_key r)
        (Json.Obj
           [ ("counts", counts_json legacy);
             ("cycles", Json.Int ksr.Fs_machine.Ksr.cycles) ]))
    recordings
