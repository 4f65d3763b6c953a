(* The repository benchmark.  See perfbench/NOTES.md for the workloads,
   the metrics and the layer map.

     main.exe run --workload W --seed N --seconds S --trace 0|1
     main.exe golden     regenerate perfbench/golden.json
     main.exe selftest   determinism, held-out seed, perturbed golden

   [run] prints one line per metric and, last, one JSON object with
   [correct], [attempted], [failed] and [metrics]. *)

open Suite
module L = Ledger

(* ------------------------------------------------------------------ *)
(* Workloads                                                            *)

type workload = {
  name : string;
  setup : unit -> Random.State.t -> sample list * float * float;
      (** set up (including a warm-up) and return one pass: its samples
          and the seconds it was busy, scaled and as host time *)
  extra : sample list -> (string * float) list;
      (** workload-specific per-layer metrics, after a traced run *)
  cold_guard : bool;  (** fail the run on any Trace_memo hit *)
  probe : string * string;
      (** a golden entry and field every pass reads: the self-test
          perturbs it *)
}

(* set-up ends with a warm-up query of each program the workload draws *)
let sequential setup query ~label () =
  let specs = setup () in
  let program spec = List.hd (String.split_on_char '/' (label spec)) in
  let seen = Hashtbl.create 8 in
  List.iter
    (fun spec ->
      if not (Hashtbl.mem seen (program spec)) then begin
        Hashtbl.add seen (program spec) ();
        ignore (query spec)
      end)
    specs;
  sequential_pass specs query ~label

let workloads =
  [ { name = "analyze-cold";
      setup = sequential Analyze_cold.setup Analyze_cold.query
          ~label:(fun s -> rec_id s.Analyze_cold.r);
      extra = (fun _ -> []);
      cold_guard = true;
      probe = (cache_key (List.hd Analyze_cold.recordings) C ~block:128, "counts") };
    { name = "replay-sweep";
      setup = sequential Replay_sweep.setup Replay_sweep.query
          ~label:(fun s ->
            Printf.sprintf "%s/%s/b%d" (rec_id s.Replay_sweep.t.Replay_sweep.r)
              (layout_name s.Replay_sweep.layout) s.Replay_sweep.block);
      extra = (fun _ -> Replay_sweep.layer_metrics ());
      cold_guard = false;
      probe = (cache_key (List.hd Replay_sweep.recordings) P ~block:8, "counts") };
    { name = "repair-fixpoint";
      setup = sequential Repair_fixpoint.setup Repair_fixpoint.query
          ~label:(fun s ->
            Printf.sprintf "%s/b%d" (rec_id s.Repair_fixpoint.r) s.Repair_fixpoint.block);
      extra = (fun _ -> []);
      cold_guard = true;
      probe = (repair_key (fst (List.hd Repair_fixpoint.recordings)) ~block:128, "final") };
    { name = "serve-mix";
      setup =
        (fun () ->
          Serve_mix.setup ();
          Serve_mix.pass);
      extra = Serve_mix.layer_metrics;
      cold_guard = false;
      probe = (cache_key (List.hd Serve_mix.recordings) C ~block:128, "counts") } ]

let find_workload name =
  match List.find_opt (fun w -> w.name = name) workloads with
  | Some w -> w
  | None ->
    Printf.eprintf "unknown workload %S (expected %s)\n" name
      (String.concat ", " (List.map (fun w -> w.name) workloads));
    exit 2

let reset_counters () =
  L.reset ();
  Serve_mix.reset_counters ()

(* whole passes until the next one would overrun [seconds]; at least one.
   Returns each pass's samples and busy seconds (scaled, host). *)
let run_passes pass ~seconds rng =
  let t0 = L.now () in
  let rec go acc =
    let acc = pass rng :: acc in
    let elapsed = L.now () -. t0 in
    let n = float_of_int (List.length acc) in
    if elapsed +. (elapsed /. n) <= seconds then go acc else List.rev acc
  in
  go []

let all_samples passes = List.concat_map (fun (s, _, _) -> s) passes

let bytes_per_event () =
  let events = L.counter "trace.decoded_events" in
  if events > 0. then L.counter "trace.file_bytes" /. events else 0.

let memo_hits () =
  let hits, _, _, _ = Falseshare.Trace_memo.read_stats () in
  hits

(* ------------------------------------------------------------------ *)
(* Metrics                                                              *)

let walls samples = List.map (fun s -> s.wall) samples

(* Latencies and rates are in scaled seconds (see Ledger.calibration):
   a plain wall-clock figure on the shared hosts mostly says how much of
   the run fell in their slow phases. *)
let end_to_end ~setup_s ~passes ~words =
  let samples = all_samples passes in
  let sorted = L.sorted (walls samples) in
  let n = List.length samples in
  let accesses = List.fold_left (fun acc s -> acc + s.accesses) 0 samples in
  let busy = List.fold_left (fun acc (_, b, _) -> acc +. b) 0. passes in
  let failed = List.length (List.filter (fun s -> not s.ok) samples) in
  let mean_of f = L.mean (List.filter_map f samples) in
  [ ("setup_s", "s", setup_s);
    ("query_p50_ms", "ms", 1e3 *. L.quantile sorted 0.5);
    ("query_p90_ms", "ms", 1e3 *. L.quantile sorted (L.tail_quantile n));
    ("queries_per_s", "1/s", float_of_int n /. busy);
    ("sim_mevents_per_s", "Mevents/s", float_of_int accesses /. busy /. 1e6);
    ("alloc_words_per_event", "words", words /. float_of_int (max 1 accesses));
    ("peak_heap_mb", "MB",
     float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
     /. 1048576.);
    ("success_rate", "frac",
     1. -. (float_of_int failed /. float_of_int (max 1 n)));
    ("fs_removed_frac", "frac", mean_of (fun s -> s.fs_removed));
    ("space_overhead_frac", "frac", mean_of (fun s -> s.space)) ]

(* The same latencies and rate in plain host time, so that a change that
   speeds up the program and the calibration loop alike still shows.
   They swing with the host's phases (a 17% interquartile range between
   runs on replay-sweep), too far for a bound, so they are reported
   beside the end-to-end figures and in the per-layer set, unbounded. *)
let host_figures passes =
  let samples = all_samples passes in
  let n = List.length samples in
  let sorted = L.sorted (List.map (fun s -> s.raw) samples) in
  let busy = List.fold_left (fun acc (_, _, h) -> acc +. h) 0. passes in
  [ ("host.query_p50_ms", 1e3 *. L.quantile sorted 0.5);
    ("host.query_p90_ms", 1e3 *. L.quantile sorted (L.tail_quantile n));
    ("host.queries_per_s", float_of_int n /. busy) ]

let per_layer w ~traced ~untraced_passes =
  let untraced = all_samples untraced_passes in
  let nq = float_of_int (max 1 (List.length traced)) in
  let ms layer = 1e3 *. L.layer_s layer /. nq in
  let per_q k = L.counter k /. nq in
  let ratio a b = if b > 0. then a /. b else 0. in
  let rate events secs = ratio events secs /. 1e6 in
  let fused_ev = L.counter "replay.fused_accesses"
  and tracked_ev = L.counter "replay.tracked_accesses" in
  let raw_total = List.fold_left (fun a s -> a +. s.raw) 0. traced in
  let coverage =
    if w.name = "serve-mix" then
      ratio (List.fold_left (fun a s -> a +. s.server_s) 0. traced) raw_total
    else ratio (L.total_self_s ()) raw_total
  in
  let zeros =
    [ "trace.encode_ms"; "cache.touch_mevents_per_s";
      "serve.hit_p50_ms"; "serve.cold_p50_ms"; "serve.store_hit_ratio";
      "serve.coalesced"; "serve.rejected"; "memo.misses" ]
  in
  let base =
    [ ("parc.parse_ms", ms "parc.parse");
      ("analysis.pdv_ms", 1e3 *. per_q "analysis.pdv_s");
      ("analysis.nonconc_ms", 1e3 *. per_q "analysis.nonconc_s");
      ("analysis.summary_ms", ms "analysis.summary");
      ("transform.plan_ms", ms "transform.plan");
      ("transform.decisions", per_q "transform.decisions");
      ("interp.record_ms", ms "interp.record");
      ("interp.events", per_q "interp.events");
      ("interp.mevents_per_s",
       rate (L.counter "interp.events") (L.layer_s "interp.record"));
      ("interp.words_per_event",
       ratio (L.layer_words "interp.record") (L.counter "interp.events"));
      ("sched.steals", per_q "sched.steals");
      ("sched.tasks", per_q "sched.tasks");
      ("trace.decode_ms", ms "trace.decode");
      ("trace.decode_mevents_per_s",
       rate (L.counter "trace.decoded_events") (L.layer_s "trace.decode"));
      ("trace.bytes_per_event", bytes_per_event ());
      ("replay.fused_ms", ms "replay.fused");
      ("replay.fused_mevents_per_s", rate fused_ev (L.layer_s "replay.fused"));
      ("replay.fused_words_per_event", ratio (L.layer_words "replay.fused") fused_ev);
      ("replay.tracked_ms", ms "replay.tracked");
      ("replay.tracked_words_per_event",
       ratio (L.layer_words "replay.tracked") tracked_ev);
      ("replay.tracked_over_fused",
       ratio
         (ratio (L.layer_s "replay.tracked") tracked_ev)
         (ratio (L.layer_s "replay.fused") fused_ev));
      ("cache.create_ms", ms "cache.create");
      ("cache.accesses", per_q "cache.accesses");
      ("core.hotlines_ms", ms "core.hotlines");
      ("layout.realize_ms", ms "layout.realize");
      ("layout.bytes", per_q "layout.bytes");
      ("feedback.refine_ms", ms "feedback.refine");
      ("feedback.iterations", per_q "feedback.iterations");
      ("feedback.candidates", per_q "feedback.candidates");
      ("feedback.accepted", per_q "feedback.accepted");
      ("feedback.accept_ratio",
       ratio (L.counter "feedback.accepted") (L.counter "feedback.evaluated"));
      ("machine.ksr_ms", ms "machine.ksr");
      ("machine.sim_cycles", per_q "machine.sim_cycles");
      ("memo.hits", float_of_int (memo_hits ()));
      ("bench.coverage", coverage);
      ("bench.tracing_overhead",
       ratio (L.mean (walls traced)) (L.mean (walls untraced))) ]
    @ host_figures untraced_passes
  in
  let extra = w.extra traced in
  List.map
    (fun (k, v) -> (k, Option.value ~default:v (List.assoc_opt k extra)))
    (base @ List.map (fun k -> (k, 0.)) zeros)

let unit_of name =
  let ends s = String.ends_with ~suffix:s name in
  if ends "_ms" then "ms"
  else if ends "mevents_per_s" then "Mevents/s"
  else if ends "queries_per_s" then "1/s"
  else if ends "_per_event" then (if ends "bytes_per_event" then "B" else "words")
  else if ends "_ratio" || ends "_over_fused" || ends "coverage" || ends "overhead"
  then "ratio"
  else if name = "layout.bytes" then "B"
  else "count"

(* ------------------------------------------------------------------ *)
(* Commands                                                             *)

(* [extra] figures are printed with the metrics but left out of the
   result object *)
let report ?(extra = []) ~correct ~attempted ~failed metrics =
  let line (k, u, v) = Printf.printf "%-32s %14.6g %s\n" k v u in
  List.iter line metrics;
  List.iter line extra;
  let m =
    Json.Obj
      (List.map
         (fun (k, u, v) ->
           (k, Json.Obj [ ("value", Json.float v); ("unit", Json.String u) ]))
         metrics)
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [ ("correct", Json.Bool correct);
            ("attempted", Json.Int attempted);
            ("failed", Json.Int failed);
            ("metrics", m) ]))

let run w ~seed ~seconds ~trace ~verbose =
  let rng = Random.State.make [| seed |] in
  let setup () =
    let before = L.calibrations () in
    let pass, s, _ = L.measure w.setup in
    (pass, s *. L.scale ~before ~after:(L.calibrations ()))
  in
  let samples, ok_guard, metrics, extra =
    if not trace then begin
      (* set up at least three times and until the set-ups have taken
         two host seconds (at most fifteen times); report the median *)
      let t0 = L.now () in
      let rec setups acc =
        let acc = setup () :: acc in
        let n = List.length acc in
        if n >= 15 || (n >= 3 && L.now () -. t0 >= 2.) then acc else setups acc
      in
      let runs = setups [] in
      let pass = fst (List.hd runs) in
      reset_counters ();
      let w0 = L.words () in
      let passes = run_passes pass ~seconds rng in
      let words = L.words () -. w0 in
      let setup_s = L.median (List.map snd runs) in
      ( all_samples passes,
        memo_hits () = 0,
        end_to_end ~setup_s ~passes ~words,
        List.map (fun (k, v) -> (k, unit_of k, v)) (host_figures passes) )
    end
    else begin
      let pass, _ = setup () in
      let untraced_passes = run_passes pass ~seconds:(seconds /. 2.) rng in
      reset_counters ();
      L.tracing := true;
      let traced = all_samples (run_passes pass ~seconds:(seconds /. 2.) rng) in
      L.tracing := false;
      let layers = per_layer w ~traced ~untraced_passes in
      ( all_samples untraced_passes @ traced,
        memo_hits () = 0,
        List.map (fun (k, v) -> (k, unit_of k, v)) layers,
        [] )
    end
  in
  if verbose then
    List.iter
      (fun s -> Printf.eprintf "%-36s %9.2f ms%s\n" s.label (1e3 *. s.wall)
          (if s.ok then "" else "  FAILED"))
      samples;
  let attempted = List.length samples in
  let failed = List.length (List.filter (fun s -> not s.ok) samples) in
  if w.cold_guard && not ok_guard then
    Printf.eprintf "Trace_memo served a timed %s query: the cold path is not cold\n"
      w.name;
  let correct = failed = 0 && attempted > 0 && ((not w.cold_guard) || ok_guard) in
  report ~extra ~correct ~attempted ~failed metrics

(* ------------------------------------------------------------------ *)
(* Self-test                                                            *)

(* one pass from a fresh ledger, and the figures that must repeat
   exactly for a seed *)
let fingerprint pass ~seed =
  reset_counters ();
  let samples, _, _ = pass (Random.State.make [| seed |]) in
  let figures =
    [ ("interp.events", L.counter "interp.events");
      ("cache.accesses", L.counter "cache.accesses");
      ("sched.steals", L.counter "sched.steals");
      ("feedback.iterations", L.counter "feedback.iterations");
      ("trace.bytes_per_event", bytes_per_event ());
      ("fs_removed_frac", L.mean (List.filter_map (fun s -> s.fs_removed) samples)) ]
  in
  (samples, figures)

let selftest ~golden =
  let failures = ref 0 in
  let fail fmt =
    Printf.ksprintf (fun m -> incr failures; Printf.printf "FAIL %s\n%!" m) fmt
  in
  let bad samples = List.length (List.filter (fun s -> not s.ok) samples) in
  List.iter
    (fun w ->
      let pass = w.setup () in
      let s1, f1 = fingerprint pass ~seed:7 in
      let _, f2 = fingerprint pass ~seed:7 in
      List.iter2
        (fun (k, a) (_, b) ->
          if a <> b then fail "%s: %s differs between two seed-7 runs (%g, %g)" w.name k a b)
        f1 f2;
      let s3, _ = fingerprint pass ~seed:1009 in
      if bad s1 + bad s3 > 0 then
        fail "%s: %d golden mismatches on seeds 7 and 1009" w.name (bad s1 + bad s3);
      (* perturb one golden entry: the passes that read it must fail *)
      let key, field = w.probe in
      (match Suite.entry key with
       | Json.Obj kvs ->
         let bump = function
           | Json.List (Json.Int n :: rest) -> Json.List (Json.Int (n + 1) :: rest)
           | v -> v
         in
         Hashtbl.replace Suite.table key
           (Json.Obj (List.map (fun (k, v) -> (k, if k = field then bump v else v)) kvs))
       | _ -> fail "%s: golden entry %s is not an object" w.name key);
      let s4, _ = fingerprint pass ~seed:7 in
      if bad s4 = 0 then fail "%s: a perturbed golden %s.%s went unnoticed" w.name key field
      else Printf.printf "%s: perturbed %s.%s caught by %d of %d queries\n%!" w.name key field (bad s4) (List.length s4);
      Suite.load golden;
      Printf.printf "%s: %d queries on seeds 7, 7, 1009 — fingerprints %s\n%!"
        w.name (List.length s1)
        (String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%s=%g" k v) f1)))
    workloads;
  if !failures > 0 then exit 1;
  print_endline "selftest ok"

let generate ~golden =
  Hashtbl.reset Suite.table;
  Analyze_cold.gen_golden ();
  Replay_sweep.gen_golden ();
  Repair_fixpoint.gen_golden ();
  Serve_mix.gen_golden ();
  Suite.save golden;
  Printf.printf "wrote %d golden entries to %s\n" (Hashtbl.length Suite.table) golden

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opts acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      opts ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | bad :: _ ->
      Printf.eprintf "unexpected argument %S\n" bad;
      exit 2
  in
  let cmd, rest = match args with c :: r -> (c, r) | [] -> ("", []) in
  let o = opts [] rest in
  let get k default = Option.value ~default (List.assoc_opt k o) in
  let int k default =
    match int_of_string_opt (get k default) with
    | Some n -> n
    | None ->
      Printf.eprintf "--%s needs an integer\n" k;
      exit 2
  in
  let golden = get "golden" "perfbench/golden.json" in
  work_dir := get "work" "perfbench/.work";
  if not (Sys.file_exists !work_dir) then Sys.mkdir !work_dir 0o755;
  match cmd with
  | "golden" -> generate ~golden
  | "selftest" ->
    Suite.load golden;
    selftest ~golden
  | "run" ->
    Suite.load golden;
    let w = find_workload (get "workload" "") in
    run w ~seed:(int "seed" "1") ~seconds:(float_of_int (int "seconds" "10"))
      ~trace:(int "trace" "0" = 1) ~verbose:(int "verbose" "0" = 1)
  | _ ->
    prerr_endline "usage: main.exe (run --workload W --seed N --seconds S --trace 0|1 | golden | selftest)";
    exit 2
