(* Command-line front end.

   falseshare list                      -- the benchmark suite (Table 1)
   falseshare report  <workload>        -- compiler analysis + phase profile
   falseshare source  <workload>        -- ParC source of a benchmark
   falseshare sim     <workload> [...]  -- cache simulation, N vs C vs P
   falseshare speedup <workload> [...]  -- KSR2 scalability curves
   falseshare blame   <workload> [...]  -- invalidation blame matrix
   falseshare phases  <workload> [...]  -- per-epoch sharing profile
   falseshare hotlines <workload> [...] -- hot-line lifetimes + fixes
   falseshare timeline <workload> [...] -- Chrome-trace timeline export
   falseshare profile <workload> [...]  -- span tree + pool + flight digest
   falseshare serve [...]               -- the multi-tenant analysis daemon
   falseshare fig3 | table2 | fig4 | table3 | stats | exectime
                                        -- reproduce the paper's evaluation

   Every subcommand takes --json to emit machine-readable output, and
   --metrics-out/--spans-out to export the run's telemetry. *)

open Cmdliner
module E = Falseshare.Experiments
module Sim = Falseshare.Sim
module Pipeline = Falseshare.Pipeline
module Emit = Falseshare.Emit
module T = Fs_transform.Transform
module C = Fs_cache.Mpcache
module W = Fs_workloads.Workload
module Ws = Fs_workloads.Workloads
module Json = Fs_obs.Json
module Q = Fs_query.Query
module Qt = Fs_cli.Query_term

let json_arg =
  Arg.(value & flag & info [ "json" ] ~doc:"Emit JSON instead of text.")

(* an execution setting, not part of any query or its key *)
let jobs_arg =
  Arg.(value
       & opt int (Fs_util.Par.default_jobs ())
       & info [ "j"; "jobs" ] ~docv:"N"
           ~doc:"Worker domains for parallel replay (default: the \
                 $(b,FALSESHARE_JOBS) environment variable, else the \
                 recommended domain count).")

(* The workload, P, scale and scheduler of a command outside the query
   layer, from the query field specs.  Without [seed] the command never
   runs the program, so a dynamic workload needs none. *)
type target = {
  w : W.t;
  nprocs : int;
  scale : int;
  sched : Fs_sched.Sched.config option;
}

let target ?(seed = true) () =
  let make w nprocs scale s =
    Qt.usage
      (Result.map
         (fun sched ->
           { w; nprocs; scale = Option.value scale ~default:w.W.default_scale; sched })
         (if seed then Q.sched w s else Ok None))
  in
  Term.(
    ret
      (const make $ Qt.value Q.F.workload $ Qt.value Q.F.nprocs
      $ Qt.value Q.F.scale
      $ if seed then Qt.value Q.F.sched_seed else const None))

let build t = t.w.W.build ~nprocs:t.nprocs ~scale:t.scale

(* validated, like every plan: one that does not fit the program at
   this configuration raises [Plan_error] naming the workload, version
   and P *)
let plan_of t layout prog =
  E.checked_plan_for t.w (Q.version layout) prog ~nprocs:t.nprocs ~scale:t.scale

(* For commands whose experiment drivers are defined over the static
   suite only (speedup sweeps, the paper reproductions). *)
let reject_dynamic ~cmd (w : W.t) =
  if w.W.dynamic then begin
    Printf.eprintf
      "falseshare: %s only covers the static suite; %s is a dynamic \
       workload (run `falseshare repair --stealing` for the dynamic \
       N/C/F comparison).\n"
      cmd w.W.name;
    exit 2
  end

let print_json j = Json.to_channel ~compact:false stdout j

(* --- telemetry plumbing ------------------------------------------- *)

let metrics_out_arg =
  Arg.(value & opt (some string) None
       & info [ "metrics-out" ] ~docv:"FILE"
           ~doc:"Write this run's metrics in Prometheus text exposition \
                 format to $(docv) on exit (\"-\" for stdout).  Includes \
                 domain-pool fan-out instrumentation and per-command \
                 timings.")

let spans_out_arg =
  Arg.(value & opt (some string) None
       & info [ "spans-out" ] ~docv:"FILE"
           ~doc:"Write this run's causal span tree as nested JSON to \
                 $(docv) on exit.")

(* a query error: one line, and the exit code the query layer assigns *)
let fail ~cmd e =
  Printf.eprintf "falseshare: %s: %s\n" cmd (Q.message Q.Cli e);
  exit (Q.exit_code e)

(* Every subcommand runs inside one telemetry scope: the process-global
   metrics registry fed by the domain pool's observer, an ambient span
   recorder rooted at the subcommand name, and the optional exports —
   flushed on success, on an exception, and (via [at_exit]) on an early
   [exit], so a failed run still leaves its telemetry behind. *)
let with_telemetry ~cmd ~metrics_out ~spans_out f =
  let reg = Fs_obs.Metrics.global () in
  Fs_util.Par.set_observer (Some (Fs_obs.Pool.ingest reg));
  let recorder = Fs_obs.Span.create () in
  Fs_obs.Span.set_current (Some recorder);
  let seconds =
    Fs_obs.Metrics.histogram reg "cli_command_seconds"
      ~labels:[ ("command", cmd) ]
      ~help:"Wall-clock seconds per CLI subcommand"
  in
  let t0 = Unix.gettimeofday () in
  let finished = ref false in
  let finish () =
    if not !finished then begin
      finished := true;
      Fs_obs.Metrics.Histogram.observe seconds (Unix.gettimeofday () -. t0);
      Fs_obs.Span.set_current None;
      Fs_util.Par.set_observer None;
      (match metrics_out with
       | None -> ()
       | Some "-" -> print_string (Fs_obs.Metrics.render reg)
       | Some path -> Fs_obs.Metrics.write_file reg path);
      match spans_out with
      | None -> ()
      | Some path -> Fs_obs.Span.write_file recorder path
    end
  in
  at_exit finish;
  match Fs_obs.Span.with_ recorder cmd f with
  | v -> finish (); v
  | exception e -> (
    finish ();
    (* a plan that does not fit the program, or a program that fails at
       run time (a zero divisor, an index out of bounds), is the user's
       configuration, not an internal error *)
    match Q.error_of_exn e with Some err -> fail ~cmd err | None -> raise e)

(* Wrap a subcommand term in the telemetry scope.  The inner term must
   evaluate to a thunk (each [run] takes a trailing [()]), so the
   subcommand body runs inside [with_telemetry] rather than during term
   evaluation. *)
let telemetrize cmd_name thunk_term =
  let wrap metrics_out spans_out thunk =
    with_telemetry ~cmd:cmd_name ~metrics_out ~spans_out thunk
  in
  Term.(const wrap $ metrics_out_arg $ spans_out_arg $ thunk_term)

(* The stages of the last [Pipeline.run] — the children of its
   "pipeline" span in the recorder [with_telemetry] installed — preceded
   by the named spans of [before] (the most recent of each). *)
let pipeline_stages ?(before = []) () =
  let recorder =
    match Fs_obs.Span.current () with Some r -> r | None -> assert false
  in
  let last = Fs_obs.Span.last recorder in
  ( recorder,
    List.filter_map last before
    @ Option.fold ~none:[] ~some:(Fs_obs.Span.children recorder)
        (last "pipeline") )

(* --- list --- *)

let list_cmd =
  let run json () =
    if json then print_json (Emit.workloads Ws.every)
    else begin
      let header =
        [ "name"; "description"; "versions"; "scheduling"; "orig. LoC" ]
      in
      let rows =
        List.map
          (fun (w : W.t) ->
            [ w.name;
              w.description;
              String.concat "/"
                (List.map
                   (fun v ->
                     match v with W.N -> "N" | W.C -> "C" | W.P -> "P")
                   w.versions);
              (if w.dynamic then "dynamic" else "static");
              string_of_int w.lines_of_c ])
          Ws.every
      in
      print_string (Fs_util.Table.render ~header rows)
    end
  in
  Cmd.v
    (Cmd.info "list"
       ~doc:
         "List the benchmark suite: the static Table 1 programs plus the \
          dynamic (work-stealing) workload family.")
    (telemetrize "list" Term.(const run $ json_arg))

(* --- report --- *)

let report_cmd =
  let run t block json () =
    let prog = build t in
    let r = Pipeline.run ?sched:t.sched prog ~nprocs:t.nprocs ~block in
    let recorder, stages = pipeline_stages () in
    if json then
      print_json
        (Json.Obj
           [ ("report", Emit.transform_report r.Pipeline.report);
             ("profile", Fs_obs.Span.stages_to_json recorder stages);
             ("metrics", Fs_obs.Metrics.to_json r.metrics) ])
    else begin
      Format.printf "%a@." T.pp_report r.Pipeline.report;
      print_endline "pipeline phases:";
      print_string (Fs_obs.Span.stage_table recorder stages)
    end
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Run the compile-time analysis and print its decisions, with a \
          wall-clock profile of every pipeline phase.")
    (telemetrize "report"
       Term.(const run $ target () $ Qt.value Q.F.block $ json_arg))

(* --- source --- *)

let source_cmd =
  let run t json () =
    let src = Fs_ir.Pp.program_to_string (build t) in
    if json then
      print_json
        (Json.Obj [ ("workload", Json.String t.w.W.name); ("source", Json.String src) ])
    else print_string src
  in
  Cmd.v (Cmd.info "source" ~doc:"Print a benchmark's ParC source.")
    (telemetrize "source" Term.(const run $ target ~seed:false () $ json_arg))

(* --- the queries: sim, blame, phases, hotlines, repair <w>, profile --- *)

(* the text form of a query's answer; --json prints [Q.to_json] *)
let render ~jobs = function
  | Q.Sim_runs { runs; _ } ->
    let header = [ "version"; "accesses"; "misses"; "false sharing"; "miss rate" ] in
    Fs_util.Table.render ~header
      (List.map
         (fun (name, r) ->
           let c = r.Sim.counts in
           [ name;
             string_of_int (C.accesses c);
             string_of_int (C.misses c);
             string_of_int c.C.false_sh;
             Fs_util.Table.pct (C.miss_rate c) ])
         runs)
  | Q.Blame_report (b, phases) ->
    Falseshare.Blame.render b
    ^ Option.fold ~none:"" ~some:(fun p -> "\n" ^ Falseshare.Phases.render p) phases
  | Q.Phase_profile p -> Falseshare.Phases.render p
  | Q.Hot_lines h -> Falseshare.Hotlines.render h
  | Q.Repair_trace r -> Fs_feedback.Repair.render r
  | Q.Profile_report p ->
    (* the span tree this very command grew, in the telemetry scope's
       ambient recorder *)
    let recorder = Option.get (Fs_obs.Span.current ()) in
    Printf.sprintf
      "profile: %s (P=%d, scale=%d, --jobs %d)\n\nspans:\n%s\n\
       domain pool (block sweep):\n%s\n%s"
      p.workload p.nprocs p.scale jobs (Fs_obs.Span.render recorder)
      (Fs_util.Par.render_stats p.pool)
      (Fs_replay.Flight.render p.flight)

let run_query ~cmd ~jobs ~json q =
  match Q.run ~jobs q with
  | Error e -> fail ~cmd e
  | Ok (Q.Profile_report _ as r) when json ->
    (* the daemon's payload, plus this command's own span tree *)
    let spans = Fs_obs.Span.to_json (Option.get (Fs_obs.Span.current ())) in
    print_json
      (match Q.to_json r with Json.Obj kv -> Json.Obj (kv @ [ ("spans", spans) ]) | j -> j)
  | Ok r -> if json then print_json (Q.to_json r) else print_string (render ~jobs r)

let query_cmd ?(jobs = false) kind cmd ~doc =
  let run q jobs json () = run_query ~cmd ~jobs ~json q in
  Cmd.v (Cmd.info cmd ~doc)
    (telemetrize cmd
       Term.(
         const run $ Qt.query kind
         $ (if jobs then jobs_arg else const 1)
         $ json_arg))

let sim_cmd =
  query_cmd ~jobs:true `Analyze "sim"
    ~doc:
      "Trace-driven cache simulation of a benchmark: the execution is \
       interpreted once and replayed under each version's layout."

let blame_cmd =
  query_cmd `Blame "blame"
    ~doc:
      "The false-sharing blame matrix: per shared variable, which \
       processor's writes invalidate which processor's cached copies \
       (split by upgrade vs. write miss), plus the hottest blocks with \
       their owning variable and cell ranges."

let phases_cmd =
  query_cmd `Phases "phases"
    ~doc:
      "Phase-resolved sharing profile: split the replay into \
       barrier-delimited epochs, report each epoch's miss-class \
       counters and observed write-sharing, and cross-check the \
       dynamic epochs against the static non-concurrency phases."

let hotlines_cmd =
  query_cmd `Hotlines "hotlines"
    ~doc:
      "Hot cache lines with their lifetimes: ownership migrations, \
       ping-pong scores, invalidation chains, and word-level \
       footprints, attributed to the owning variable with the \
       transformation that would fix each line."

let profile_cmd =
  query_cmd ~jobs:true `Profile "profile"
    ~doc:
      "Profile one workload end to end: causal span tree of every \
       pipeline stage, per-worker domain-pool summary of a cache-block \
       sweep, and a flight-recorder digest of the fused replay hot \
       loop."

(* --- speedup --- *)

let speedup_cmd =
  (* each entry is a processor count, checked like [--procs] *)
  let procs_arg =
    let entry = Qt.renamed [ "procs-list" ] Q.F.nprocs in
    let check l =
      Qt.usage
        (List.fold_right
           (fun s acc -> Result.bind (Q.parse entry (Q.Arg s)) (fun p -> Result.map (List.cons p) acc))
           l (Ok []))
    in
    Term.(
      ret
        (const check
        $ Arg.(value
               & opt (list string) (List.map string_of_int [ 1; 2; 4; 8; 12; 16; 24; 32 ])
               & info [ "procs-list" ] ~docv:"P,P,..." ~doc:"Processor counts to sweep.")))
  in
  let run w procs jobs json () =
    reject_dynamic ~cmd:"speedup" w;
    let series = E.speedups ~procs ~names:[ w.W.name ] ~jobs () in
    if json then print_json (Emit.series series)
    else print_string (E.render_series series)
  in
  Cmd.v
    (Cmd.info "speedup" ~doc:"KSR2-model scalability curves for one benchmark.")
    (telemetrize "speedup"
       Term.(const run $ Qt.value Q.F.workload $ procs_arg $ jobs_arg $ json_arg))

(* --- hotspots --- *)

let hotspots_cmd =
  let run t block layout json () =
    let prog = build t in
    let plan = plan_of t layout prog in
    let rows =
      Falseshare.Attribution.attribute ?sched:t.sched prog plan ~nprocs:t.nprocs ~block
    in
    if json then print_json (Emit.attribution rows)
    else print_string (Falseshare.Attribution.render rows)
  in
  Cmd.v
    (Cmd.info "hotspots"
       ~doc:
         "Attribute simulated misses back to the shared data structures — \
          the dynamic counterpart of the compiler's static report.")
    (telemetrize "hotspots"
       Term.(
         const run $ target () $ Qt.value Q.F.block $ Qt.value Q.F.layout
         $ json_arg))

(* --- repair --- *)

let repair_cmd =
  let stealing_arg =
    Arg.(value & flag
         & info [ "stealing" ]
             ~doc:"Run the dynamic-suite N/C/F comparison instead: every \
                   spawn/sync workload on the seeded work-stealing \
                   scheduler, with the scheduler-deque false sharing \
                   isolated in its own columns.  Use $(b,--sched-seed) to \
                   pick the steal schedule (default 42).")
  in
  (* with a workload, the repair query; without one, the suite tables,
     which take only the seed *)
  let query_or_seed raws =
    Qt.usage
      (if List.mem_assoc "workload" raws then
         Result.map Either.left (Q.of_fields `Repair raws)
       else
         Result.map Either.right
           (Q.resolve Q.F.sched_seed None (List.assoc_opt "sched_seed" raws)))
  in
  let run query stealing jobs json () =
    match query with
    | Either.Left q -> run_query ~cmd:"repair" ~jobs ~json q
    | Either.Right seed when stealing ->
      (* the dynamic family under the work-stealing scheduler *)
      let seed = Option.value seed ~default:42 in
      let rows = Fs_feedback.Repair_experiments.stealing_table ~seed ~jobs () in
      if json then
        print_json (Fs_feedback.Repair_experiments.stealing_to_json rows)
      else print_string (Fs_feedback.Repair_experiments.render_stealing rows)
    | Either.Right _ ->
      (* no workload: the suite-wide N/C/P/F comparison *)
      let rows = Fs_feedback.Repair_experiments.table ~jobs () in
      if json then print_json (Fs_feedback.Repair_experiments.to_json rows)
      else print_string (Fs_feedback.Repair_experiments.render rows)
  in
  Cmd.v
    (Cmd.info "repair"
       ~doc:
         "Profile-guided layout repair: replay the recorded execution \
          under the starting layout, extract repair candidates from the \
          hot-line forensics, apply the best one, and iterate to a \
          fixpoint.  With a workload, narrate the refinement; without \
          one, print the suite-wide N/C/P/F comparison (static suite by \
          default, the dynamic work-stealing family with $(b,--stealing)).")
    (telemetrize "repair"
       Term.(
         const run
         $ ret (const query_or_seed $ Qt.raws ~required:false `Repair)
         $ stealing_arg $ jobs_arg $ json_arg))

(* --- timeline --- *)

let timeline_cmd =
  let out_arg =
    Arg.(value & opt (some string) None
         & info [ "o"; "output" ] ~docv:"FILE"
             ~doc:"Output file; \"-\" for stdout.  Default: <workload>.trace.json.")
  in
  let run t block version out () =
    let nprocs = t.nprocs in
    let prog = build t in
    let plan = plan_of t version prog in
    let layout = Fs_layout.Layout.realize prog plan ~block in
    let tl = Fs_obs.Timeline.create ~nprocs in
    let recorded = Sim.record ?sched:t.sched prog ~nprocs in
    (* a cache rides along so each barrier release can drop one sample of
       the epoch's miss-class deltas onto a Chrome-trace counter track *)
    let cache = C.create (C.default_config ~nprocs ~block) in
    let prev = ref (C.copy_counts (C.counts cache)) in
    let push_counters () =
      let now = C.copy_counts (C.counts cache) in
      let d = C.sub_counts now !prev in
      prev := now;
      Fs_obs.Timeline.counter tl ~name:"misses per epoch"
        ~ts:(Fs_obs.Timeline.time tl)
        ~values:
          [ ("cold", float_of_int d.C.cold);
            ("replacement", float_of_int d.C.repl);
            ("true sharing", float_of_int d.C.true_sh);
            ("false sharing", float_of_int d.C.false_sh) ]
    in
    let tll = Fs_obs.Timeline.listener tl in
    let listener =
      { tll with
        access =
          (fun ~proc ~write ~addr ->
            tll.access ~proc ~write ~addr;
            C.touch cache ~proc ~write ~addr);
        barrier_release =
          (fun () ->
            tll.barrier_release ();
            push_counters ()) }
    in
    Fs_replay.Replay.replay recorded.Sim.trace ~layout ~listener;
    push_counters ();
    match out with
    | Some "-" -> print_json (Fs_obs.Timeline.to_json tl)
    | out ->
      let path = Option.value out ~default:(t.w.W.name ^ ".trace.json") in
      Fs_obs.Timeline.write_file tl path;
      Printf.printf
        "wrote %d trace events to %s (open in https://ui.perfetto.dev or \
         chrome://tracing)\n"
        (Fs_obs.Timeline.events tl) path
  in
  Cmd.v
    (Cmd.info "timeline"
       ~doc:
         "Record a benchmark run's per-processor timeline — work segments, \
          barrier waits, lock convoys — as Chrome trace-event JSON for \
          Perfetto.")
    (telemetrize "timeline"
       Term.(
         const run $ target () $ Qt.value Q.F.block $ Qt.value Q.F.layout
         $ out_arg))

(* --- check (.parc sources) --- *)

let check_cmd =
  let file_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.parc")
  in
  let procs_for_run =
    Qt.opt (Qt.renamed [ "run" ] ~doc:"Also execute with P processes." Q.F.nprocs)
  in
  let run file procs json () =
    let ic = open_in file in
    let n = in_channel_length ic in
    let src = really_input_string ic n in
    close_in ic;
    match
      Fs_obs.Span.stage "parse"
        ~events:(fun _ -> String.length src)
        (fun () -> Fs_parc.Parser.parse_and_validate src)
    with
    | Error errs ->
      if json then
        print_json
          (Json.Obj
             [ ("ok", Json.Bool false);
               ("errors", Json.List (List.map (fun e -> Json.String e) errs)) ])
      else List.iter prerr_endline errs;
      exit 1
    | Ok prog -> (
      match procs with
      | None ->
        if json then
          print_json
            (Json.Obj
               [ ("ok", Json.Bool true);
                 ("name", Json.String prog.Fs_ir.Ast.pname);
                 ("globals", Json.Int (List.length prog.Fs_ir.Ast.globals));
                 ("functions", Json.Int (List.length prog.Fs_ir.Ast.funcs)) ])
        else
          Printf.printf "%s: ok (%d globals, %d functions)\n" prog.Fs_ir.Ast.pname
            (List.length prog.Fs_ir.Ast.globals)
            (List.length prog.Fs_ir.Ast.funcs)
      | Some nprocs ->
        let r = Pipeline.run prog ~nprocs ~block:128 in
        let recorder, stages = pipeline_stages ~before:[ "parse" ] () in
        if json then
          print_json
            (Json.Obj
               [ ("ok", Json.Bool true);
                 ("name", Json.String prog.Fs_ir.Ast.pname);
                 ("report", Emit.transform_report r.Pipeline.report);
                 ("profile", Fs_obs.Span.stages_to_json recorder stages) ])
        else begin
          Printf.printf "%s: ok (%d globals, %d functions)\n" prog.Fs_ir.Ast.pname
            (List.length prog.Fs_ir.Ast.globals)
            (List.length prog.Fs_ir.Ast.funcs);
          Format.printf "%a@." T.pp_report r.Pipeline.report;
          print_endline "pipeline phases:";
          print_string (Fs_obs.Span.stage_table recorder stages)
        end)
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Parse and validate a ParC source file.")
    (telemetrize "check" Term.(const run $ file_arg $ procs_for_run $ json_arg))

(* --- serve --- *)

let serve_cmd =
  let port_arg =
    Arg.(value & opt int 8414
         & info [ "port" ] ~docv:"PORT"
             ~doc:"TCP port to listen on (127.0.0.1 only); 0 picks an \
                   ephemeral port.")
  in
  let workers_arg =
    Qt.value
      (Q.count ~name:"workers" ~flags:[ "workers" ] ~docv:"N"
         ~doc:"Worker threads draining the request queue."
         ~default:Fs_serve.Server.default_config.workers)
  in
  let queue_arg =
    Qt.value
      (Q.count ~name:"queue" ~flags:[ "queue" ] ~docv:"N"
         ~doc:"Admitted-request bound; beyond it the daemon answers 503 \
               with Retry-After."
         ~default:Fs_serve.Server.default_config.queue_capacity)
  in
  let cache_dir_arg =
    Arg.(value & opt string Fs_serve.Server.default_config.cache_dir
         & info [ "cache-dir" ] ~docv:"DIR"
             ~doc:"Root of the content-addressed result store.")
  in
  let cache_budget_arg =
    Arg.(value & opt int (Fs_serve.Server.default_config.cache_budget_bytes / (1024 * 1024))
         & info [ "cache-budget-mb" ] ~docv:"MB"
             ~doc:"Byte budget of the result store; least recently used \
                   entries are evicted beyond it.")
  in
  let debug_arg =
    Arg.(value & flag
         & info [ "debug-endpoints" ]
             ~doc:"Enable the debug endpoints (GET /sleepz) used by tests \
                   and benchmarks.")
  in
  (* not telemetrize-wrapped: the daemon owns its own registry and span
     recorders per request; the CLI scope's ambient state would only
     race the worker threads *)
  let run port workers queue jobs cache_dir budget_mb debug =
    let cfg =
      { Fs_serve.Server.default_config with
        port; workers; queue_capacity = queue; jobs; cache_dir;
        cache_budget_bytes = budget_mb * 1024 * 1024;
        debug_endpoints = debug }
    in
    let t = Fs_serve.Server.start cfg in
    Printf.printf
      "falseshare serve: listening on http://127.0.0.1:%d (workers %d, \
       queue %d, jobs %d, cache %s)\n\
       endpoints: POST /analyze /blame /hotlines /phases /repair /profile; \
       GET /healthz /metrics /statusz; POST /quitquitquit\n%!"
      (Fs_serve.Server.port t) workers queue jobs cache_dir;
    (* the handler runs on this very thread, which is about to block in
       [wait]: it may only trigger the shutdown, never join *)
    let stop_on_signal _ = Fs_serve.Server.shutdown t in
    (try Sys.set_signal Sys.sigint (Sys.Signal_handle stop_on_signal)
     with Invalid_argument _ -> ());
    (try Sys.set_signal Sys.sigterm (Sys.Signal_handle stop_on_signal)
     with Invalid_argument _ -> ());
    Fs_serve.Server.wait t;
    print_endline "falseshare serve: stopped"
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the analysis daemon: a multi-tenant HTTP/JSON server that \
          answers the toolchain's queries over recorded executions, with \
          a content-addressed result cache, request coalescing, bounded-\
          queue backpressure, and a live Prometheus surface at /metrics.")
    Term.(const run $ port_arg $ workers_arg $ queue_arg $ jobs_arg
          $ cache_dir_arg $ cache_budget_arg $ debug_arg)

(* --- trace: on-disk recordings ------------------------------------ *)

module Ct = Fs_trace.Cell_trace

let trace_format_arg =
  Arg.(value
       & opt (enum [ ("1", Ct.V1); ("2", Ct.V2) ]) Ct.default_format
       & info [ "trace-format" ] ~docv:"V"
           ~doc:"On-disk trace format: $(b,1) (flat 8-byte words) or \
                 $(b,2) (delta+varint blocks with a CRC per block and a \
                 trailing epoch index; the default).")

let block_events_arg =
  Qt.value
    (Q.count ~name:"block_events" ~flags:[ "block-events" ] ~docv:"N"
       ~doc:"Events per v2 block." ~default:Ct.default_block_events)

let trace_out_arg =
  Arg.(value & opt (some string) None
       & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output trace file.")

let trace_file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE")

let mb = 1024. *. 1024.

let trace_stat_json path =
  let s = Ct.of_file_stream path in
  let events = Ct.Stream.length s in
  let bytes = Ct.Stream.byte_size s in
  let epochs =
    match Ct.Stream.epochs s with Some e -> Array.length e | None -> 0
  in
  let j =
    Json.Obj
      [ ("file", Json.String path);
        ("format", Json.Int (Ct.format_version (Ct.Stream.format s)));
        ("events", Json.Int events);
        ("nprocs", Json.Int (Ct.Stream.nprocs s));
        ("vars", Json.Int (Array.length (Ct.Stream.vars s)));
        ("bytes", Json.Int bytes);
        ("bytes_per_event",
         Json.Float (float_of_int bytes /. float_of_int (max 1 events)));
        ("blocks", Json.Int (Ct.Stream.nblocks s));
        ("block_events", Json.Int (Ct.Stream.chunk s));
        ("epochs", Json.Int epochs) ]
  in
  Ct.Stream.close s;
  j

let print_trace_stat ~heading path =
  match trace_stat_json path with
  | Json.Obj fields ->
    Printf.printf "%s %s\n" heading path;
    List.iter
      (fun (k, v) ->
        match v with
        | Json.Int n when k <> "file" -> Printf.printf "  %-16s %d\n" k n
        | Json.Float f -> Printf.printf "  %-16s %.3f\n" k f
        | _ -> ())
      fields
  | _ -> assert false

let trace_record_cmd =
  let run t out fmt block_events json () =
    let { w; nprocs; scale; sched } = t in
    let prog = build t in
    let path = Option.value out ~default:(w.W.name ^ ".fstrace") in
    let t0 = Unix.gettimeofday () in
    (* stream straight to disk: the recording never materializes in
       memory, which is what makes --scale large enough for 10^8-event
       captures practical *)
    let wr =
      Ct.Writer.create ~format:fmt ~block_events
        ~vars:(Fs_replay.Replay.vars_of prog) ~nprocs path
    in
    (* registered workloads terminate by construction, and --scale can
       legitimately push a capture past the default nontermination
       guard, so run unguarded *)
    (match
       Fs_interp.Interp.run_packed ~max_steps:max_int ?sched prog ~nprocs
         ~sink:(Ct.Writer.push wr)
     with
    | _ -> Ct.Writer.close wr
    | exception e ->
      Ct.Writer.abort wr;
      raise e);
    let dt = Unix.gettimeofday () -. t0 in
    let events = Ct.Writer.length wr in
    let bytes = (Unix.stat path).Unix.st_size in
    if json then
      print_json
        (Json.Obj
           [ ("workload", Json.String w.W.name);
             ("nprocs", Json.Int nprocs);
             ("scale", Json.Int scale);
             ("file", Json.String path);
             ("format", Json.Int (Ct.format_version fmt));
             ("events", Json.Int events);
             ("bytes", Json.Int bytes);
             ("bytes_per_event",
              Json.Float (float_of_int bytes /. float_of_int (max 1 events)));
             ("seconds", Json.Float dt) ])
    else
      Printf.printf
        "recorded %s: %d events to %s (v%d, %d bytes, %.3f B/event, %.2fs, \
         %.1f Mevents/s)\n"
        w.W.name events path (Ct.format_version fmt) bytes
        (float_of_int bytes /. float_of_int (max 1 events))
        dt
        (float_of_int events /. 1e6 /. Float.max 1e-9 dt)
  in
  Cmd.v
    (Cmd.info "record"
       ~doc:
         "Interpret a workload once and stream the cell-event recording \
          to disk (constant memory however long the run; use $(b,--scale) \
          to size it).")
    (telemetrize "trace-record"
       Term.(
         const run $ target () $ trace_out_arg $ trace_format_arg
         $ block_events_arg $ json_arg))

let trace_stat_cmd =
  let run path json () =
    if json then print_json (trace_stat_json path)
    else print_trace_stat ~heading:"trace" path
  in
  Cmd.v
    (Cmd.info "stat"
       ~doc:
         "Describe a trace file: format version, event/epoch/block counts, \
          bytes per event.")
    (telemetrize "trace-stat" Term.(const run $ trace_file_arg $ json_arg))

let trace_convert_cmd =
  let run path out fmt block_events json () =
    let s = Ct.of_file_stream path in
    let out = Option.value out ~default:path in
    let in_bytes = Ct.Stream.byte_size s in
    let wr =
      Ct.Writer.create ~format:fmt ~block_events ~vars:(Ct.Stream.vars s)
        ~nprocs:(Ct.Stream.nprocs s) out
    in
    (* block-at-a-time re-encode: memory stays bounded, and converting a
       file onto itself is safe — the writer lands in a temp file renamed
       over the target only at close, while the source stays mapped *)
    (match
       Ct.Stream.iter_chunks
         (fun buf n ->
           for i = 0 to n - 1 do
             Ct.Writer.push wr buf.(i)
           done)
         s
     with
    | () -> Ct.Writer.close wr
    | exception e ->
      Ct.Writer.abort wr;
      raise e);
    Ct.Stream.close s;
    let events = Ct.Writer.length wr in
    let out_bytes = (Unix.stat out).Unix.st_size in
    if json then
      print_json
        (Json.Obj
           [ ("input", Json.String path);
             ("output", Json.String out);
             ("format", Json.Int (Ct.format_version fmt));
             ("events", Json.Int events);
             ("input_bytes", Json.Int in_bytes);
             ("output_bytes", Json.Int out_bytes);
             ("ratio",
              Json.Float (float_of_int in_bytes /. float_of_int (max 1 out_bytes))) ])
    else
      Printf.printf "converted %s -> %s (v%d): %d events, %d -> %d bytes (%.2fx)\n"
        path out (Ct.format_version fmt) events in_bytes out_bytes
        (float_of_int in_bytes /. float_of_int (max 1 out_bytes))
  in
  Cmd.v
    (Cmd.info "convert"
       ~doc:
         "Re-encode a trace between format versions (either direction; \
          the default output is v2).  Omitting $(b,--output) converts in \
          place, atomically.")
    (telemetrize "trace-convert"
       Term.(const run $ trace_file_arg $ trace_out_arg $ trace_format_arg
             $ block_events_arg $ json_arg))

let trace_replay_cmd =
  let run path w scale block version json () =
    let s = Ct.of_file_stream path in
    let nprocs = Ct.Stream.nprocs s in
    let t =
      { w; nprocs; scale = Option.value scale ~default:w.W.default_scale; sched = None }
    in
    let prog = build t in
    let plan = plan_of t version prog in
    let layout = Fs_layout.Layout.realize prog plan ~block in
    let cache =
      C.create ~max_addr:(Fs_layout.Layout.size layout)
        (C.default_config ~nprocs ~block)
    in
    let t0 = Unix.gettimeofday () in
    Fs_replay.Replay.simulate_stream s ~layout ~cache;
    let dt = Unix.gettimeofday () -. t0 in
    let events = Ct.Stream.length s in
    let bytes = Ct.Stream.byte_size s in
    let fmt = Ct.Stream.format s in
    (* the v2 index lists every barrier release; v1 files have no index *)
    let epochs = Option.map (fun rel -> Array.length rel + 1) (Ct.Stream.epochs s) in
    Ct.Stream.close s;
    let c = C.counts cache in
    if json then
      print_json
        (Json.Obj
           ([ ("file", Json.String path);
              ("workload", Json.String w.W.name);
              ("format", Json.Int (Ct.format_version fmt));
              ("nprocs", Json.Int nprocs);
              ("block", Json.Int block);
              ("events", Json.Int events);
              ("bytes", Json.Int bytes);
              ("seconds", Json.Float dt);
              ("mevents_per_s",
               Json.Float (float_of_int events /. 1e6 /. Float.max 1e-9 dt));
              ("mb_per_s",
               Json.Float (float_of_int bytes /. mb /. Float.max 1e-9 dt)) ]
           @ (match epochs with Some e -> [ ("epochs", Json.Int e) ] | None -> [])
           @ [ ("counts",
                Json.Obj
                  [ ("accesses", Json.Int (C.accesses c));
                    ("misses", Json.Int (C.misses c));
                    ("false_sharing", Json.Int c.C.false_sh);
                    ("true_sharing", Json.Int c.C.true_sh);
                    ("cold", Json.Int c.C.cold);
                    ("replacement", Json.Int c.C.repl) ]) ]))
    else begin
      Printf.printf
        "replayed %s through %s/%s: %d events in %.2fs (%.1f Mevents/s, \
         %.1f MB/s read)\n"
        path w.W.name
        (Q.layout_name version)
        events dt
        (float_of_int events /. 1e6 /. Float.max 1e-9 dt)
        (float_of_int bytes /. mb /. Float.max 1e-9 dt);
      let header = [ "accesses"; "misses"; "false sharing"; "miss rate" ] in
      print_string
        (Fs_util.Table.render ~header
           [ [ string_of_int (C.accesses c);
               string_of_int (C.misses c);
               string_of_int c.C.false_sh;
               Fs_util.Table.pct (C.miss_rate c) ] ])
    end
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "Replay a recorded trace file through a workload's layout with \
          the fused engine, one decoded block at a time, reporting counts, \
          Mevents/s, and effective read bandwidth.  The processor count \
          comes from the trace; pass the same $(b,--scale) the recording \
          used.")
    (telemetrize "trace-replay"
       Term.(
         const run $ trace_file_arg $ Qt.value ~at:1 Q.F.workload
         $ Qt.value Q.F.scale $ Qt.value Q.F.block $ Qt.value Q.F.layout
         $ json_arg))

let trace_cmd =
  Cmd.group
    (Cmd.info "trace"
       ~doc:
         "Record, inspect, convert, and replay on-disk trace files — the \
          durable form of one interpreted execution.")
    [ trace_record_cmd; trace_stat_cmd; trace_convert_cmd; trace_replay_cmd ]

(* --- paper reproductions --- *)

let paper_cmd name doc ~text ~json =
  let run jobs use_json () =
    if use_json then print_json (json ~jobs) else print_string (text ~jobs)
  in
  Cmd.v (Cmd.info name ~doc)
    (telemetrize name Term.(const run $ jobs_arg $ json_arg))

let fig3_cmd =
  paper_cmd "fig3" "Reproduce Figure 3 (miss rates before/after)."
    ~text:(fun ~jobs -> E.render_figure3 (E.figure3 ~jobs ()))
    ~json:(fun ~jobs -> Emit.fig3 (E.figure3 ~jobs ()))

let table2_cmd =
  paper_cmd "table2" "Reproduce Table 2 (reduction by transformation)."
    ~text:(fun ~jobs -> E.render_table2 (E.table2 ~jobs ()))
    ~json:(fun ~jobs -> Emit.table2 (E.table2 ~jobs ()))

let fig4_cmd =
  paper_cmd "fig4" "Reproduce Figure 4 (scalability curves)."
    ~text:(fun ~jobs -> E.render_series (E.figure4 ~jobs ()))
    ~json:(fun ~jobs -> Emit.series (E.figure4 ~jobs ()))

let table3_cmd =
  paper_cmd "table3" "Reproduce Table 3 (maximum speedups)."
    ~text:(fun ~jobs -> E.render_table3 (E.table3 ~jobs ()))
    ~json:(fun ~jobs -> Emit.table3 (E.table3 ~jobs ()))

let stats_cmd =
  paper_cmd "stats" "Reproduce the headline statistics."
    ~text:(fun ~jobs -> E.render_stats (E.text_stats ~jobs ()))
    ~json:(fun ~jobs -> Emit.stats (E.text_stats ~jobs ()))

let exectime_cmd =
  paper_cmd "exectime" "Reproduce the execution-time improvements."
    ~text:(fun ~jobs -> E.render_exec (E.exec_time_improvements ~jobs ()))
    ~json:(fun ~jobs -> Emit.exec (E.exec_time_improvements ~jobs ()))

let () =
  let doc =
    "Compile-time shared-data transformations that reduce false sharing \
     (reproduction of Jeremiassen & Eggers, PPoPP 1995)."
  in
  let info = Cmd.info "falseshare" ~version:"1.0.0" ~doc in
  let cmds =
    [ list_cmd; report_cmd; source_cmd; sim_cmd; speedup_cmd; hotspots_cmd;
      blame_cmd; phases_cmd; hotlines_cmd; repair_cmd; timeline_cmd;
      profile_cmd; check_cmd; serve_cmd; trace_cmd; fig3_cmd; table2_cmd; fig4_cmd;
      table3_cmd; stats_cmd; exectime_cmd ]
  in
  (* same near-miss courtesy the workload argument gets: a mistyped
     subcommand gets a suggestion, not just cmdliner's usage dump *)
  let names = List.map Cmd.name cmds in
  (match Array.to_list Sys.argv with
   | _ :: arg :: _
     when String.length arg > 0 && arg.[0] <> '-' && not (List.mem arg names)
     -> (
     match Fs_util.Strdist.suggest arg names with
     | [] -> ()
     | near ->
       Printf.eprintf "falseshare: unknown command %S, did you mean %s?\n" arg
         (String.concat " or " (List.map (Printf.sprintf "%S") near));
       exit 124)
   | _ -> ());
  exit (Cmd.eval (Cmd.group info cmds))
