(** One fully instrumented pipeline run.

    Runs every stage — the PDV and non-concurrency analyses, side-effect
    summarization, transformation planning, layout realization,
    interpretation, and one fused cache replay — each as an
    {!Fs_obs.Span.stage} of the ambient span recorder (under a
    ["pipeline"] span), and collects a {!Fs_obs.Metrics} registry
    holding the interpreter's work and synchronization counters and the
    cache's per-processor miss, invalidation, and upgrade counts. *)

type t = {
  report : Fs_transform.Transform.report;
  cache : Sim.cache_run;
  metrics : Fs_obs.Metrics.t;
}

val run :
  ?options:Fs_transform.Transform.options ->
  ?plan:Fs_layout.Plan.t ->
  ?sched:Fs_sched.Sched.config ->
  Fs_ir.Ast.program ->
  nprocs:int ->
  block:int ->
  t
(** [plan] overrides the compiler's plan for the simulated layout (the
    compiler analysis still runs and is timed); by default the
    compiler's own plan is simulated.  [sched] seeds the work-stealing
    runtime; required for programs using [spawn]/[sync]. *)
