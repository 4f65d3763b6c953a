(* Tests for the recorded cell-event trace: growth, and the printed form
   of its events. *)

module Cell_event = Fs_trace.Cell_event
module Cell_trace = Fs_trace.Cell_trace

let access k =
  Cell_event.Access { proc = k mod 7; write = k land 1 = 1; var = k mod 3; cell = k }

(* pushes past the initial capacity keep every event, in order *)
let test_capture () =
  let t = Cell_trace.create ~vars:[| "a"; "b"; "c" |] ~nprocs:7 in
  for k = 0 to 4999 do
    Cell_trace.push t (Cell_event.pack (access k))
  done;
  Alcotest.(check int) "length" 5000 (Cell_trace.length t);
  Alcotest.(check bool) "last event" true (Cell_trace.get t 4999 = access 4999);
  let n = ref 0 in
  Cell_trace.iter
    (fun e ->
      if e <> access !n then Alcotest.failf "event %d differs" !n;
      incr n)
    t;
  Alcotest.(check int) "iter visits all" 5000 !n;
  Alcotest.(check bool) "get out of range" true
    (match Cell_trace.get t 5000 with
     | _ -> false
     | exception Invalid_argument _ -> true)

(* every recorded access prints with Cell_event.pp in a form that parses
   back to the same (proc, write, var, cell) *)
let test_capture_pp_roundtrip () =
  let t = Cell_trace.create ~vars:[| "x" |] ~nprocs:12 in
  List.iter
    (fun (proc, write, var, cell) ->
      Cell_trace.push t (Cell_event.pack (Access { proc; write; var; cell })))
    [ (0, false, 0, 0); (3, true, 0, 256); (11, false, 0, 0xdeadbeef); (7, true, 0, 4) ];
  Cell_trace.iter
    (function
      | Cell_event.Access { proc; write; var; cell } as e ->
        let str = Format.asprintf "%a" Cell_event.pp e in
        let p, rw, v, c =
          Scanf.sscanf str "P%d %s v%d[%d]" (fun p s v c -> (p, s, v, c))
        in
        Alcotest.(check int) "proc round-trips" proc p;
        Alcotest.(check bool) "write round-trips" write (rw = "W");
        Alcotest.(check int) "var round-trips" var v;
        Alcotest.(check int) "cell round-trips" cell c
      | _ -> Alcotest.fail "only accesses were recorded")
    t

let test_event_pp () =
  let s =
    Format.asprintf "%a" Cell_event.pp
      (Access { proc = 3; write = true; var = 1; cell = 256 })
  in
  Tutil.check_contains "event pp" s "P3";
  Tutil.check_contains "event pp" s "W"

let suite =
  [ Alcotest.test_case "capture growth" `Quick test_capture;
    Alcotest.test_case "capture round-trip vs pp" `Quick test_capture_pp_roundtrip;
    Alcotest.test_case "event pp" `Quick test_event_pp ]
