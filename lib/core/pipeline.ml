module T = Fs_transform.Transform
module Pdv = Fs_analysis.Pdv
module Nonconcurrency = Fs_analysis.Nonconcurrency
module Summary = Fs_analysis.Summary
module Layout = Fs_layout.Layout
module Mpcache = Fs_cache.Mpcache
module Interp = Fs_interp.Interp
module Replay = Fs_replay.Replay
module Cell_event = Fs_trace.Cell_event
module Cell_trace = Fs_trace.Cell_trace
module Metrics = Fs_obs.Metrics
module Span = Fs_obs.Span

type t = { report : T.report; cache : Sim.cache_run; metrics : Metrics.t }

let proc_label p = [ ("proc", string_of_int p) ]

(* Counters are registered only when they count something, as an
   instrument that fires per event would register them. *)
let add metrics ?(labels = []) name v =
  if v > 0 then Metrics.Counter.add (Metrics.counter metrics ~labels name) v

(* The interpreter's counters, derived after the run: accesses from the
   cache's per-processor counts (pointer loads an indirection layout
   injects included), work from the interpreter's result, and the
   synchronization events from one pass over the trace's tags. *)
let ingest_interp metrics ~proc_counts ~(interp : Interp.result) trace =
  Array.iteri
    (fun p (c : Mpcache.counts) ->
      add metrics ~labels:(("kind", "read") :: proc_label p) "interp_accesses"
        c.Mpcache.reads;
      add metrics ~labels:(("kind", "write") :: proc_label p) "interp_accesses"
        c.writes)
    proc_counts;
  Array.iteri
    (fun p w -> add metrics ~labels:(proc_label p) "interp_work_units" w)
    interp.Interp.work;
  let nprocs = Cell_trace.nprocs trace in
  (* per processor: barrier arrivals, lock waits, contended grants (handed
     over by another processor) and grants of a free lock *)
  let tally = Array.make_matrix 4 nprocs 0 and releases = ref 0 in
  let data = Cell_trace.unsafe_data trace in
  for i = 0 to Cell_trace.length trace - 1 do
    let packed = data.(i) in
    let tag = Cell_event.packed_tag packed in
    let row =
      if tag = Cell_event.tag_barrier_arrive then 0
      else if tag = Cell_event.tag_lock_wait then 1
      else if tag = Cell_event.tag_lock_grant then
        if Cell_event.packed_grant_from1 packed > 0 then 2 else 3
      else begin
        if tag = Cell_event.tag_barrier_release then incr releases;
        -1
      end
    in
    if row >= 0 then begin
      let p = Cell_event.packed_proc packed in
      tally.(row).(p) <- tally.(row).(p) + 1
    end
  done;
  for p = 0 to nprocs - 1 do
    let labels = proc_label p in
    add metrics ~labels "interp_barrier_arrivals" tally.(0).(p);
    add metrics ~labels "interp_lock_waits" tally.(1).(p);
    add metrics ~labels:(("contended", "true") :: labels) "interp_lock_grants"
      tally.(2).(p);
    add metrics ~labels:(("contended", "false") :: labels) "interp_lock_grants"
      tally.(3).(p)
  done;
  add metrics "interp_barrier_releases" !releases

let ingest_cache metrics ~proc_counts ~per_block =
  Array.iteri
    (fun p (c : Mpcache.counts) ->
      let set name v =
        Metrics.Counter.add (Metrics.counter metrics ~labels:(proc_label p) name) v
      in
      set "cache_accesses" (Mpcache.accesses c);
      set "cache_misses" (Mpcache.misses c);
      set "cache_false_sharing" c.Mpcache.false_sh;
      set "cache_true_sharing" c.true_sh;
      set "cache_invalidations" c.invalidations;
      set "cache_upgrades" c.upgrades)
    proc_counts;
  let hist =
    Metrics.histogram metrics "cache_block_invalidations"
      ~buckets:[ 1.; 10.; 100.; 1_000.; 10_000. ]
  in
  List.iter
    (fun (_, (c : Mpcache.counts)) ->
      if c.Mpcache.invalidations > 0 then
        Metrics.Histogram.observe hist (float_of_int c.Mpcache.invalidations))
    per_block

let run ?options ?plan ?sched prog ~nprocs ~block =
  Span.timed "pipeline"
    ~attrs:
      [ ("nprocs", string_of_int nprocs); ("block", string_of_int block) ]
  @@ fun () ->
  let metrics = Metrics.create () in
  let rsd_limit, static_profile =
    match options with
    | Some (o : T.options) -> (o.rsd_limit, o.profile)
    | None -> (T.default_options.rsd_limit, T.default_options.profile)
  in
  (* the analyses are timed stage by stage; the transform pass re-runs them
     internally, so its span reflects the full planning cost *)
  ignore
    (Span.stage "pdv"
       ~events:(fun _ -> List.length prog.Fs_ir.Ast.funcs)
       (fun () -> Pdv.analyze prog));
  ignore
    (Span.stage "non-concurrency" ~events:Nonconcurrency.phase_count (fun () ->
         Nonconcurrency.analyze prog));
  ignore
    (Span.stage "summary"
       ~events:(fun s -> List.length (Summary.keys s))
       (fun () -> Summary.analyze ~rsd_limit ~profile:static_profile prog ~nprocs));
  let report =
    Span.stage "transform"
      ~events:(fun (r : T.report) -> List.length r.plan)
      (fun () -> T.plan ?options prog ~nprocs)
  in
  Span.note "plan_actions" (string_of_int (List.length report.T.plan));
  let plan = Option.value plan ~default:report.T.plan in
  let layout =
    Span.stage "layout" ~events:Layout.size (fun () ->
        Layout.realize prog plan ~block)
  in
  let recorded =
    Span.stage "interp"
      ~events:(fun (r : Sim.recorded) ->
        Array.fold_left ( + ) 0 r.interp.Interp.accesses)
      (fun () -> Sim.record ?sched prog ~nprocs)
  in
  let trace = recorded.Sim.trace in
  let cache =
    Mpcache.create ~track_blocks:true ~max_addr:(Layout.size layout)
      (Mpcache.default_config ~nprocs ~block)
  in
  Span.stage "replay+cache"
    ~events:(fun () -> Cell_trace.length trace)
    (fun () -> Replay.simulate trace ~layout ~cache);
  let counts = Mpcache.counts cache and per_block = Mpcache.per_block cache in
  let proc_counts = Mpcache.proc_counts cache in
  let interp = recorded.Sim.interp in
  ingest_interp metrics ~proc_counts ~interp trace;
  ingest_cache metrics ~proc_counts ~per_block;
  {
    report;
    cache = { Sim.counts; per_block; layout_bytes = Layout.size layout; interp };
    metrics;
  }
