(* The command-line front end, run as a subprocess: argument errors
   must be usage errors (cmdliner's exit 124), never internal errors. *)

(* next to the test runner in the build tree, wherever it is run from *)
let exe =
  List.fold_left Filename.concat
    (Filename.dirname Sys.executable_name)
    [ Filename.parent_dir_name; "bin"; "falseshare_cli.exe" ]

(* exit code and combined output of [exe args] *)
let run args =
  let out = Filename.temp_file "fscli" ".out" in
  let cmd =
    Printf.sprintf "%s %s > %s 2>&1" (Filename.quote exe)
      (String.concat " " (List.map Filename.quote args))
      (Filename.quote out)
  in
  let code = Sys.command cmd in
  let text = In_channel.with_open_bin out In_channel.input_all in
  Sys.remove out;
  (code, text)

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

let test_procs_upper_bound_runs () =
  let code, text = run [ "sim"; "pverify"; "-p"; "256"; "-s"; "1"; "--json" ] in
  Alcotest.(check int) "P=256 runs" 0 code;
  Tutil.check_contains "P=256 output" text "\"procs\": 256"

let suite =
  [ Alcotest.test_case "--procs out of range is a usage error" `Quick test_procs_range;
    Alcotest.test_case "--procs 256 runs" `Quick test_procs_upper_bound_runs ]
