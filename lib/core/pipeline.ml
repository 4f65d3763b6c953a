module T = Fs_transform.Transform
module Pdv = Fs_analysis.Pdv
module Nonconcurrency = Fs_analysis.Nonconcurrency
module Summary = Fs_analysis.Summary
module Layout = Fs_layout.Layout
module Mpcache = Fs_cache.Mpcache
module Ksr = Fs_machine.Ksr
module Interp = Fs_interp.Interp
module Replay = Fs_replay.Replay
module Cell_trace = Fs_trace.Cell_trace
module Listener = Fs_trace.Listener
module Metrics = Fs_obs.Metrics
module Profile = Fs_obs.Profile
module Span = Fs_obs.Span
module Json = Fs_obs.Json

type t = {
  report : T.report;
  cache : Sim.cache_run;
  machine : Ksr.result option;
  epochs : Phases.epoch list option;
  metrics : Metrics.t;
  profile : Profile.t;
}

let proc_label p = [ ("proc", string_of_int p) ]

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

let ingest_machine metrics (r : Ksr.result) =
  Metrics.Gauge.set (Metrics.gauge metrics "ksr_cycles") (float_of_int r.Ksr.cycles);
  Array.iteri
    (fun p stall ->
      let lock = r.lock_stall.(p) in
      let set name v =
        Metrics.Gauge.set
          (Metrics.gauge metrics ~labels:(proc_label p) name)
          (float_of_int v)
      in
      set "ksr_mem_stall_cycles" r.mem_stall.(p);
      set "ksr_barrier_idle_cycles" (stall - lock);
      set "ksr_lock_stall_cycles" lock)
    r.sync_stall

let run ?options ?(machine = false) ?(epochs = false) ?plan
    ?profile ?sched prog ~nprocs ~block =
  Span.timed "pipeline"
    ~attrs:
      [ ("nprocs", string_of_int nprocs); ("block", string_of_int block) ]
  @@ fun () ->
  let profile = match profile with Some p -> p | None -> Profile.create () in
  let metrics = Metrics.create () in
  let rsd_limit, static_profile =
    match options with
    | Some (o : T.options) -> (o.rsd_limit, o.profile)
    | None -> (T.default_options.rsd_limit, T.default_options.profile)
  in
  (* the analyses are timed stage by stage; the transform pass re-runs them
     internally, so its entry reflects the full planning cost.  Each stage
     also opens an ambient span, so a telemetry-enabled caller sees the
     same names as the profile, arranged causally. *)
  Span.timed "pdv" (fun () ->
      ignore
        (Profile.time profile "pdv"
           ~events:(fun _ -> List.length prog.Fs_ir.Ast.funcs)
           (fun () -> Pdv.analyze prog)));
  Span.timed "non-concurrency" (fun () ->
      ignore
        (Profile.time profile "non-concurrency"
           ~events:Nonconcurrency.phase_count
           (fun () -> Nonconcurrency.analyze prog)));
  Span.timed "summary" (fun () ->
      ignore
        (Profile.time profile "summary"
           ~events:(fun s -> List.length (Summary.keys s))
           (fun () ->
             Summary.analyze ~rsd_limit ~profile:static_profile prog ~nprocs)));
  let report =
    Span.timed "transform" (fun () ->
        Profile.time profile "transform"
          ~events:(fun (r : T.report) -> List.length r.plan)
          (fun () -> T.plan ?options prog ~nprocs))
  in
  Span.note "plan_actions" (string_of_int (List.length report.T.plan));
  let plan = Option.value plan ~default:report.T.plan in
  let layout =
    Span.timed "layout" (fun () ->
        Profile.time profile "layout" ~events:Layout.size (fun () ->
            Layout.realize prog plan ~block))
  in
  (* interpret once, layout-free; the cache and machine runs below both
     replay the same trace under their own layouts *)
  let recorded =
    Span.timed "interp" (fun () ->
        Profile.time profile "interp"
          ~events:(fun (r : Sim.recorded) ->
            Array.fold_left ( + ) 0 r.interp.Interp.accesses)
          (fun () -> Sim.record ?sched prog ~nprocs))
  in
  let cache_config = Mpcache.default_config ~nprocs ~block in
  let cache =
    Mpcache.create ~track_blocks:true ~max_addr:(Layout.size layout)
      cache_config
  in
  let tracker, close_epochs =
    if epochs then Phases.tracker cache else (Listener.null, fun () -> [])
  in
  let listener =
    Listener.combine
      (Listener.of_sink (Mpcache.sink cache))
      (Listener.combine (Metrics.listener metrics) tracker)
  in
  Span.timed "replay+cache"
    ~attrs:[ ("events", string_of_int (Cell_trace.length recorded.Sim.trace)) ]
    (fun () ->
      Profile.time profile "replay+cache"
        ~events:(fun () -> Cell_trace.length recorded.Sim.trace)
        (fun () -> Replay.replay recorded.Sim.trace ~layout ~listener));
  let epoch_list = if epochs then Some (close_epochs ()) else None in
  let counts = Mpcache.counts cache and per_block = Mpcache.per_block cache in
  ingest_cache metrics ~proc_counts:(Mpcache.proc_counts cache) ~per_block;
  let interp = recorded.Sim.interp in
  let machine_result =
    if not machine then None
    else
      Some
        (Span.timed "machine" (fun () ->
             Profile.time profile "machine"
               ~events:(fun (r : Ksr.result) -> r.Ksr.cycles)
               (fun () ->
                 let m = Ksr.create (Ksr.default_config ~nprocs) in
                 let mlayout =
                   Layout.realize prog plan
                     ~block:(Ksr.default_config ~nprocs).Ksr.block
                 in
                 Replay.replay recorded.Sim.trace ~layout:mlayout
                   ~listener:(Ksr.listener m);
                 Ksr.finish m)))
  in
  Option.iter (ingest_machine metrics) machine_result;
  {
    report;
    cache =
      { Sim.counts; per_block; layout_bytes = Layout.size layout; interp };
    machine = machine_result;
    epochs = epoch_list;
    metrics;
    profile;
  }

let to_json t =
  Json.Obj
    ([ ("plan",
        Json.List
          (List.map
             (fun a -> Json.String (Format.asprintf "%a" Fs_layout.Plan.pp_action a))
             t.report.T.plan));
       ("counts", Emit.counts t.cache.Sim.counts);
       ("profile", Profile.to_json t.profile);
       ("metrics", Metrics.to_json t.metrics) ]
    @ (match t.epochs with
       | None -> []
       | Some es ->
         [ ("epochs",
            Json.List
              (List.map
                 (fun (e : Phases.epoch) ->
                   Json.Obj
                     [ ("index", Json.Int e.Phases.index);
                       ("total", Emit.counts (Phases.epoch_total e)) ])
                 es)) ])
    @
    match t.machine with
    | None -> []
    | Some m -> [ ("machine", Emit.machine m) ])
