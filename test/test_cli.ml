(* The command-line front end, run as a subprocess: argument errors
   must be usage errors (cmdliner's exit 124), and configurations the
   workload cannot realize plain errors (exit 1), never internal errors;
   a replayed trace file must land on the in-memory counts. *)

(* exit code and combined output of the CLI run with [args] *)
let run args =
  let code, out, err = Tutil.run_cli args in
  (code, out ^ err)

let test_procs_range () =
  List.iter
    (fun (args, needle) ->
      let code, text = run args in
      let what = String.concat " " args in
      Alcotest.(check int) (what ^ ": usage error") 124 code;
      Tutil.check_contains what text needle)
    [ ([ "sim"; "pverify"; "--procs"; "300" ], "processor count 300 out of range [1,256]");
      ([ "sim"; "pverify"; "--procs"; "0" ], "processor count 0 out of range [1,256]");
      ([ "trace"; "record"; "pverify"; "--procs=-1" ], "processor count -1 out of range");
      ([ "blame"; "pverify"; "-p"; "many" ], "invalid processor count") ]

(* a usage error naming the flag, never an internal error *)
let check_usage_errors cases =
  List.iter
    (fun (args, needle) ->
      let code, text = run args in
      let what = String.concat " " args in
      Alcotest.(check int) (what ^ ": usage error") 124 code;
      Tutil.check_contains what text needle)
    cases

let test_block_range () =
  check_usage_errors
    [ ([ "sim"; "pverify"; "-p"; "4"; "-s"; "1"; "-b"; "100" ],
       "block must be a power of two in 4..4096");
      ([ "timeline"; "pverify"; "-p"; "4"; "-s"; "1"; "-b"; "24"; "-o"; "-" ],
       "block must be a power of two in 4..4096");
      ([ "hotspots"; "pverify"; "-p"; "4"; "-s"; "1"; "-b"; "6" ],
       "block must be a power of two in 4..4096");
      ([ "sim"; "pverify"; "-b"; "8192" ], "block must be a power of two") ]

let test_scale_range () =
  check_usage_errors
    [ ([ "sim"; "pverify"; "-p"; "4"; "-s"; "0" ], "scale must be at least 1");
      ([ "phases"; "pverify"; "--scale=-3" ], "scale must be at least 1") ]

let test_flight_interval_range () =
  check_usage_errors
    [ ([ "profile"; "pverify"; "-p"; "4"; "-s"; "1"; "--flight-interval"; "0" ],
       "flight interval must be at least 1") ]

(* the query fields share the daemon's range rules and messages *)
let test_query_ranges () =
  check_usage_errors
    [ ([ "blame"; "pverify"; "-p"; "4"; "-s"; "1"; "--top=-2" ], "top must be in 1..10000");
      ([ "hotlines"; "pverify"; "-p"; "4"; "-s"; "1"; "--top=-3" ], "top must be in 1..10000");
      ([ "repair"; "pverify"; "-p"; "4"; "-s"; "1"; "--max-iters=-1" ],
       "max_iters must be in 0..100");
      ([ "speedup"; "pverify"; "--procs-list"; "0" ], "processor count 0 out of range [1,256]");
      (* refused before a daemon is started *)
      ([ "serve"; "--workers"; "0" ], "workers must be at least 1");
      ([ "serve"; "--queue"; "0" ], "queue must be at least 1");
      ([ "sim"; "dstress"; "-p"; "4" ], "--sched-seed") ]

let test_block_events_range () =
  check_usage_errors
    [ ([ "trace"; "record"; "pverify"; "-p"; "4"; "-s"; "1"; "-o"; "-";
         "--block-events"; "0" ],
       "block events must be at least 1") ]

let test_procs_upper_bound_runs () =
  let code, text = run [ "sim"; "pverify"; "-p"; "256"; "-s"; "1"; "--json" ] in
  Alcotest.(check int) "P=256 runs" 0 code;
  Tutil.check_contains "P=256 output" text "\"procs\": 256"

(* fmm's hand-written programmer plan regroups an array of extent 96 by
   P ways: at P=256 and scale 1 it cannot be realized *)
let test_unrealizable_plan () =
  let code, text = run [ "sim"; "fmm"; "-p"; "256"; "-s"; "1" ] in
  Alcotest.(check int) "plain error exit" 1 code;
  Alcotest.(check string) "one line"
    "falseshare: sim: fmm, programmer plan at P=256: regroup of acc: 256 \
     ways does not fit extent 96"
    (String.trim text)

(* topopt at P=50, scale 1 divides by a per-processor share that is
   zero: the program's runtime error, reported like a plan that does not
   fit *)
let test_runtime_error () =
  let code, text = run [ "sim"; "topopt"; "-p"; "50"; "-s"; "1" ] in
  Alcotest.(check int) "plain error exit" 1 code;
  Alcotest.(check string) "one line" "falseshare: sim: division by zero (%)"
    (String.trim text)

let json_of what text =
  match Fs_obs.Json.of_string text with
  | Ok j -> j
  | Error e -> Alcotest.failf "%s: not JSON (%s): %S" what e text

let field what path j =
  List.fold_left
    (fun j k ->
      match Fs_obs.Json.member k j with
      | Some v -> v
      | None -> Alcotest.failf "%s: no field %s" what k)
    j path

(* [trace replay --json] on a recorded file reports exactly the counts
   [sim --json] computes in memory for the unoptimized layout, for both
   formats; the epoch count comes from the v2 index, so v1 omits it *)
let test_trace_replay_matches_sim () =
  let args = [ "pverify"; "-p"; "4"; "-s"; "1" ] in
  let code, text = run ([ "sim" ] @ args @ [ "--json" ]) in
  Alcotest.(check int) "sim runs" 0 code;
  let sim =
    let versions =
      Option.value ~default:[]
        (Fs_obs.Json.get_list (field "sim" [ "versions" ] (json_of "sim" text)))
    in
    match
      List.find_opt
        (fun v ->
          Fs_obs.Json.member "version" v = Some (Fs_obs.Json.String "unoptimized"))
        versions
    with
    | Some v -> field "sim" [ "counts" ] v
    | None -> Alcotest.fail "sim: no unoptimized version"
  in
  List.iter
    (fun (format, has_epochs) ->
      let path = Filename.temp_file "fscli" ".fstrace" in
      let code, _ =
        run
          ([ "trace"; "record" ] @ args
          @ [ "-o"; path; "--trace-format"; format ])
      in
      Alcotest.(check int) ("record v" ^ format) 0 code;
      let code, text =
        run [ "trace"; "replay"; path; "pverify"; "-s"; "1"; "--json" ]
      in
      Sys.remove path;
      let what = "replay v" ^ format in
      Alcotest.(check int) what 0 code;
      let j = json_of what text in
      let counts = field what [ "counts" ] j in
      (match counts with
       | Fs_obs.Json.Obj kv ->
         List.iter
           (fun (k, v) ->
             Alcotest.(check bool)
               (Printf.sprintf "%s: %s equals sim" what k)
               true
               (Some v = Fs_obs.Json.member k sim))
           kv
       | _ -> Alcotest.fail (what ^ ": counts is not an object"));
      Alcotest.(check bool) (what ^ ": epochs iff v2") has_epochs
        (Fs_obs.Json.member "epochs" j <> None))
    [ ("1", false); ("2", true) ]

let suite =
  [ Alcotest.test_case "--procs out of range is a usage error" `Quick test_procs_range;
    Alcotest.test_case "--procs 256 runs" `Quick test_procs_upper_bound_runs;
    Alcotest.test_case "--block outside 4..4096 is a usage error" `Quick
      test_block_range;
    Alcotest.test_case "--scale below 1 is a usage error" `Quick test_scale_range;
    Alcotest.test_case "--flight-interval below 1 is a usage error" `Quick
      test_flight_interval_range;
    Alcotest.test_case "--block-events below 1 is a usage error" `Quick
      test_block_events_range;
    Alcotest.test_case "unrealizable plan is a plain error" `Quick
      test_unrealizable_plan;
    Alcotest.test_case "runtime error is a plain error" `Quick
      test_runtime_error;
    Alcotest.test_case "trace replay counts equal sim" `Quick
      test_trace_replay_matches_sim;
    Alcotest.test_case "query field ranges are usage errors" `Quick test_query_ranges ]
