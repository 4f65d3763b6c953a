(* repair-fixpoint: a cold Sim.record and Sim.compiler_plan, then
   Repair.refine from the compiler's plan to its fixpoint.  Tracked
   replay, hot-line forensics, the feedback loop, layout realization and
   cache construction do most of the work here and almost none
   elsewhere.  fib is the sparse, padded case: few events over a large
   address space, so the cache layer's per-run cost (Mpcache.create)
   dominates its replays where event volume dominates replay-sweep's. *)

open Suite
module L = Ledger
module Repair = Fs_feedback.Repair
module Hotlines = Falseshare.Hotlines

(* fib at scale 10 takes about 0.3 and 0.8 s a query and 200 MB of heap
   (see NOTES.md), so it runs at one block size and makes up under a
   tenth of the queries; the other programs are sized to 10-120 ms, with
   several sizes near the 90th percentile so it falls inside a cluster of
   queries rather than in the gap below fib *)
let recordings =
  [ (recording "fib" ~nprocs:8 ~scale:10 ~sched_seed:2, [ 128 ]);
    (recording "fib" ~nprocs:4 ~scale:10 ~sched_seed:1, [ 128 ]) ]
  @ List.map
      (fun r -> (r, [ 64; 128 ]))
      [ recording "stencil" ~nprocs:8 ~scale:16 ~sched_seed:1;
        recording "stencil" ~nprocs:4 ~scale:16 ~sched_seed:2;
        recording "stencil" ~nprocs:8 ~scale:32 ~sched_seed:3;
        recording "dstress" ~nprocs:8 ~scale:32 ~sched_seed:1;
        recording "dstress" ~nprocs:4 ~scale:32 ~sched_seed:2;
        recording "taskbag" ~nprocs:8 ~scale:16 ~sched_seed:1;
        recording "taskbag" ~nprocs:4 ~scale:16 ~sched_seed:2;
        recording "taskbag" ~nprocs:8 ~scale:32 ~sched_seed:3;
        recording "pverify" ~nprocs:8 ~scale:2;
        recording "pverify" ~nprocs:4 ~scale:3;
        recording "pverify" ~nprocs:8 ~scale:3;
        recording "topopt" ~nprocs:8 ~scale:16;
        recording "topopt" ~nprocs:4 ~scale:16;
        recording "topopt" ~nprocs:8 ~scale:24 ]

type spec = { r : recording; prog : Fs_ir.Ast.program; block : int }

let setup () =
  List.concat_map
    (fun (r, blocks) ->
      let prog = build r in
      List.map (fun block -> { r; prog; block }) blocks)
    recordings

(* what the checks and metrics need from a refinement *)
type outcome = {
  initial : C.counts;
  final : C.counts;
  plan : Fs_layout.Plan.t;
  accepted : int;
  iterations : int;
  candidates : int;  (** scored, over all iterations *)
  diagnoses : int;   (** Hotlines.analyze calls *)
  evaluated : int;   (** candidates replayed against the accept gate *)
}

(* the loop tries an iteration's candidates best-first up to the one it
   applies (all of them when none passes the gate) *)
let tried (it : Repair.iteration) =
  match it.Repair.applied with
  | None -> it.Repair.considered
  | Some c ->
    let rec upto = function
      | [] -> []
      | x :: rest -> if x == c then [ x ] else x :: upto rest
    in
    upto it.Repair.considered

(* The replays Repair.refine made, in order, rebuilt from what it
   returns: [evaluate plan] for each Sim.cache_sim (the initial plan, then
   every candidate tried — one whose plan edit is refused is skipped
   without a replay), [diagnose plan] for each Hotlines.analyze (one per
   iteration, and one more when the last diagnosis found no candidate and
   left no iteration record). *)
let replays (t : Repair.t) ~evaluate ~diagnose =
  evaluate t.Repair.plan0;
  let last =
    List.fold_left
      (fun plan (it : Repair.iteration) ->
        diagnose plan;
        List.iter
          (fun cand ->
            match Repair.apply plan cand with
            | plan' -> evaluate plan'
            | exception Fs_layout.Plan.Plan_error _ -> ())
          (tried it);
        match it.Repair.applied with
        | Some c -> Repair.apply plan c
        | None -> plan)
      t.Repair.plan0 t.Repair.iterations
  in
  if t.Repair.stop = Repair.Exhausted then diagnose last

let of_repair (t : Repair.t) =
  let evaluations = ref 0 and diagnoses = ref 0 in
  replays t
    ~evaluate:(fun _ -> incr evaluations)
    ~diagnose:(fun _ -> incr diagnoses);
  { initial = t.Repair.initial; final = t.Repair.final; plan = t.Repair.plan;
    accepted = Repair.accepted t;
    iterations = List.length t.Repair.iterations;
    candidates =
      List.fold_left
        (fun acc (it : Repair.iteration) -> acc + List.length it.Repair.considered)
        0 t.Repair.iterations;
    diagnoses = !diagnoses;
    evaluated = !evaluations - 1 }

(* Repair.refine is one public call, spanned as feedback.refine.  Beside
   the query, every replay it made is made again on the same plan, alone,
   and its cost moves out of feedback.refine:
   - each evaluation (Sim.cache_sim) to replay.fused, and from there its
     layout realization and cache creation (split_eval);
   - each diagnosis (Hotlines.analyze) to core.hotlines, and from there
     the tracked replay inside it to replay.tracked.
   What stays in feedback.refine is the loop's own work: extracting and
   scoring candidates, applying them, the accept gate. *)
let split_refine r prog (recorded : Sim.recorded) ~block (t : Repair.t) =
  let opts = Repair.default_options and nprocs = r.nprocs in
  let cache_bytes = opts.Repair.cache_bytes and assoc = opts.Repair.assoc in
  let evaluate plan =
    let run, s, w =
      L.measure (fun () ->
          Sim.cache_sim ~cache_bytes ~assoc ~recorded prog plan ~nprocs ~block)
    in
    L.move ~from:"feedback.refine" ~into:"replay.fused" (s, w);
    split_eval r prog plan ~block;
    L.count "replay.fused_accesses" (float_of_int (C.accesses run.Sim.counts))
  in
  let diagnose plan =
    let _, s, w =
      L.measure (fun () ->
          Hotlines.analyze ~cache_bytes ~assoc ~top:opts.Repair.top ~recorded
            prog plan ~nprocs ~block)
    in
    L.move ~from:"feedback.refine" ~into:"core.hotlines" (s, w);
    let layout = Fs_layout.Layout.realize prog plan ~block in
    let cache, s, w =
      L.measure (fun () ->
          let cache =
            C.create ~track_blocks:true ~track_lines:true
              ~max_addr:(Fs_layout.Layout.size layout) (config r ~block)
          in
          Fs_replay.Replay.replay_to_sink recorded.Sim.trace ~layout
            ~sink:(C.sink cache);
          cache)
    in
    L.move ~from:"core.hotlines" ~into:"replay.tracked" (s, w);
    L.count "replay.tracked_accesses" (float_of_int (C.accesses (C.counts cache)))
  in
  replays t ~evaluate ~diagnose

let query { r; prog; block } =
  let t0 = L.now () in
  let nprocs = r.nprocs in
  let recorded =
    L.span "interp.record" (fun () -> Sim.record ?sched:(sched r) prog ~nprocs)
  in
  let cplan =
    L.span "transform.plan" (fun () -> Sim.compiler_plan prog ~nprocs)
  in
  let t =
    L.span "feedback.refine" (fun () ->
        Repair.refine ~recorded prog cplan ~nprocs ~block)
  in
  let wall = L.now () -. t0 in
  let o = of_repair t in
  let key = repair_key r ~block in
  let ok =
    expect_counts key "initial" o.initial
    && expect_counts key "final" o.final
    && expect_int key "accepted" o.accepted
    && expect_int key "iterations" o.iterations
  in
  if !L.tracing then split_refine r prog recorded ~block t;
  (* every replay of the loop covers the same event stream; the initial
     run's access count stands for each (an indirection repair adds a few
     pointer loads this leaves out) *)
  let replays = 1 + o.diagnoses + o.evaluated in
  let accesses = replays * C.accesses o.initial in
  let events = Fs_trace.Cell_trace.length recorded.Sim.trace in
  L.count "interp.events" (float_of_int events);
  L.count "cache.accesses" (float_of_int accesses);
  L.count "feedback.iterations" (float_of_int o.iterations);
  L.count "feedback.candidates" (float_of_int o.candidates);
  L.count "feedback.evaluated" (float_of_int o.evaluated);
  L.count "feedback.accepted" (float_of_int o.accepted);
  L.count "transform.decisions" (float_of_int (List.length cplan));
  (match recorded.Sim.interp.Fs_interp.Interp.sched with
   | Some s ->
     L.count "sched.steals" (float_of_int s.Fs_sched.Sched.steals);
     L.count "sched.tasks" (float_of_int s.Fs_sched.Sched.tasks)
   | None -> ());
  let bytes = Fs_layout.Layout.size (Fs_layout.Layout.realize prog o.plan ~block) in
  L.count "layout.bytes" (float_of_int bytes);
  sample ~wall ~ok ~accesses
    ?fs_removed:(fs_removed r ~block ~false_sh:o.final.C.false_sh)
    ?space:(space_overhead r ~block ~bytes)
    ()

(* golden entries: initial and final counts of the pre-rewrite engine
   replaying the compiler's plan and the plan the loop settled on, plus
   the N layout the fs_removed and space denominators come from *)
let gen_repair r prog (recorded : Sim.recorded) ~block =
  let cplan = Suite.plan r prog C in
  gen_cache r prog recorded N ~block;
  let t = Repair.refine ~recorded prog cplan ~nprocs:r.nprocs ~block in
  let o = of_repair t in
  let legacy plan =
    legacy_counts recorded.Sim.trace
      (Fs_layout.Layout.realize prog plan ~block) (config r ~block)
  in
  let initial = legacy cplan and final = legacy o.plan in
  if counts_to_list initial <> counts_to_list o.initial
     || counts_to_list final <> counts_to_list o.final
  then failwith ("repair counts disagree with the pre-rewrite engine on "
                 ^ rec_id r);
  Hashtbl.replace table (repair_key r ~block)
    (Json.Obj
       [ ("initial", counts_json initial);
         ("final", counts_json final);
         ("accepted", Json.Int o.accepted);
         ("iterations", Json.Int o.iterations) ])

let gen_golden () =
  List.iter
    (fun (r, blocks) ->
      let prog = build r in
      let recorded = Sim.record ?sched:(sched r) prog ~nprocs:r.nprocs in
      List.iter (fun block -> gen_repair r prog recorded ~block) blocks)
    recordings
