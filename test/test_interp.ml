(* Tests for the SPMD interpreter: sequential semantics, synchronization,
   determinism, error detection, and the layout-driven trace. *)

open Fs_ir
module Interp = Fs_interp.Interp
module Value = Fs_interp.Value
module Layout = Fs_layout.Layout
module Plan = Fs_layout.Plan
module Listener = Fs_trace.Listener
module Replay = Fs_replay.Replay

(* interpret once, then replay the trace's references under the plan's
   layout into [sink] *)
let run ?(nprocs = 1) ?(plan = []) ?(block = 64) prog ~sink =
  let trace, r = Interp.record prog ~nprocs in
  Replay.replay_to_sink trace ~layout:(Layout.realize prog plan ~block) ~sink;
  r

let run_quiet ?nprocs ?plan ?block prog =
  run ?nprocs ?plan ?block prog ~sink:(fun ~proc:_ ~write:_ ~addr:_ -> ())

(* run, returning the replayed (proc, write, addr) stream *)
let capture ?nprocs ?plan prog =
  let acc = ref [] in
  ignore
    (run ?nprocs ?plan prog ~sink:(fun ~proc ~write ~addr ->
         acc := (proc, write, addr) :: !acc));
  List.rev !acc

let int_of v = match v with Value.Vint n -> n | Value.Vfloat _ -> Alcotest.fail "float"

let dsl_prog ?structs globals funcs =
  Validate.validate_exn (Dsl.program ~name:"t" ?structs ~globals funcs)

let test_arithmetic () =
  let open Dsl in
  let p =
    dsl_prog [ ("out", arr int_t 8) ]
      [ fn "main" []
          [ (v "out").%(i 0) <-- ((i 7 *% i 3) +% (i 10 /% i 4));
            (v "out").%(i 1) <-- (i 17 %% i 5);
            (v "out").%(i 2) <-- min_ (i 3) (i 9);
            (v "out").%(i 3) <-- max_ (i 3) (i 9);
            (v "out").%(i 4) <-- neg (i 5);
            (v "out").%(i 5) <-- ((i 3 <% i 4) &&% (i 4 <=% i 4));
            (v "out").%(i 6) <-- not_ (i 0);
            (v "out").%(i 7) <-- ((i 1 >% i 2) ||% (i 5 ==% i 5)) ] ]
  in
  let r = run_quiet p in
  let expect = [ 23; 2; 3; 9; -5; 1; 1; 1 ] in
  List.iteri
    (fun idx e ->
      Alcotest.(check int) (Printf.sprintf "out[%d]" idx) e
        (int_of (Interp.read_global r "out" idx)))
    expect

let test_control_flow () =
  let open Dsl in
  (* iterative fibonacci via while, plus function calls with return *)
  let p =
    dsl_prog [ ("out", int_t); ("out2", int_t) ]
      [ fn "fib" [ "n" ]
          [ decl "a" (i 0); decl "b" (i 1); decl "k" (i 0);
            swhile (p "k" <% p "n")
              [ decl "t" (p "a" +% p "b");
                set "a" (p "b"); set "b" (p "t"); set "k" (p "k" +% i 1) ];
            ret (p "a") ];
        fn "main" []
          [ decl "r" (i 0);
            call_ret "r" "fib" [ i 10 ];
            (v "out") <-- p "r";
            decl "acc" (i 0);
            sfor "j" (i 0) (i 5) [ set "acc" (p "acc" +% (p "j" *% p "j")) ];
            (v "out2") <-- p "acc" ] ]
  in
  let r = run_quiet p in
  Alcotest.(check int) "fib 10" 55 (int_of (Interp.read_global r "out" 0));
  Alcotest.(check int) "sum of squares" 30 (int_of (Interp.read_global r "out2" 0))

let test_recursion () =
  let open Dsl in
  let p =
    dsl_prog [ ("out", int_t) ]
      [ fn "fact" [ "n" ]
          [ sif (p "n" <=% i 1) [ ret (i 1) ]
              [ decl "r" (i 0);
                call_ret "r" "fact" [ p "n" -% i 1 ];
                ret (p "n" *% p "r") ] ];
        fn "main" [] [ decl "r" (i 0); call_ret "r" "fact" [ i 6 ]; (v "out") <-- p "r" ] ]
  in
  Alcotest.(check int) "6!" 720
    (int_of (Interp.read_global (run_quiet p) "out" 0))

let test_floats () =
  let open Dsl in
  let p =
    dsl_prog [ ("out", float_t) ]
      [ fn "main" [] [ (v "out") <-- ((f 1.5 *% i 4) +% f 0.25) ] ]
  in
  match Interp.read_global (run_quiet p) "out" 0 with
  | Value.Vfloat x -> Alcotest.(check (float 1e-9)) "float math" 6.25 x
  | Value.Vint _ -> Alcotest.fail "expected float"

let test_lock_mutual_exclusion () =
  let open Dsl in
  (* read-modify-write under a lock must lose no updates despite the
     fine-grained interleaving *)
  let p =
    dsl_prog [ ("total", int_t); ("l", lock_t) ]
      [ fn "main" []
          [ sfor "k" (i 0) (i 50)
              [ lock (v "l"); bump (v "total") (i 1); unlock (v "l") ] ] ]
  in
  let r = run_quiet ~nprocs:8 p in
  Alcotest.(check int) "no lost updates" 400
    (int_of (Interp.read_global r "total" 0))

let test_barrier_ordering () =
  let open Dsl in
  (* values written before a barrier are visible after it *)
  let p =
    dsl_prog [ ("a", arr int_t 8); ("ok", arr int_t 8) ]
      [ fn "main" []
          [ (v "a").%(pdv) <-- (pdv +% i 1);
            barrier;
            decl "sum" (i 0);
            sfor "q" (i 0) (i 8) [ set "sum" (p "sum" +% ld (v "a").%(p "q")) ];
            (v "ok").%(pdv) <-- p "sum" ] ]
  in
  let r = run_quiet ~nprocs:8 p in
  for pid = 0 to 7 do
    Alcotest.(check int) "every proc saw all writes" 36
      (int_of (Interp.read_global r "ok" pid))
  done

let test_barrier_episodes () =
  let open Dsl in
  let p =
    dsl_prog [ ("x", int_t) ]
      [ fn "main" [] [ barrier; sfor "k" (i 0) (i 3) [ barrier ] ] ]
  in
  let r = run_quiet ~nprocs:4 p in
  Alcotest.(check int) "episodes" 4 r.Interp.barrier_episodes

let test_deadlock_detected () =
  let open Dsl in
  let p =
    dsl_prog [ ("l", lock_t) ]
      [ fn "main" [] [ when_ (pdv ==% i 0) [ lock (v "l"); barrier ] ] ]
  in
  (* P0 holds the lock and waits at a barrier P1 never reaches... actually
     P1 finishes, so P0's barrier releases; make P1 wait on the lock. *)
  let p2 =
    dsl_prog [ ("l", lock_t) ]
      [ fn "main" []
          [ sif (pdv ==% i 0) [ lock (v "l"); barrier ] [ lock (v "l") ] ] ]
  in
  ignore p;
  match run_quiet ~nprocs:2 p2 with
  | _ -> Alcotest.fail "expected deadlock"
  | exception Interp.Deadlock _ -> ()

let test_runtime_errors () =
  let open Dsl in
  let expect_error name prog =
    match run_quiet prog with
    | _ -> Alcotest.fail ("expected runtime error: " ^ name)
    | exception Interp.Runtime_error _ -> ()
  in
  expect_error "out of bounds"
    (dsl_prog [ ("a", arr int_t 4) ] [ fn "main" [] [ (v "a").%(i 9) <-- i 1 ] ]);
  expect_error "negative index"
    (dsl_prog [ ("a", arr int_t 4) ] [ fn "main" [] [ (v "a").%(neg (i 1)) <-- i 1 ] ]);
  expect_error "unlock not held"
    (dsl_prog [ ("l", lock_t) ] [ fn "main" [] [ unlock (v "l") ] ]);
  expect_error "missing return"
    (dsl_prog [ ("x", int_t) ]
       [ fn "f" [] []; fn "main" [] [ decl "r" (i 0); call_ret "r" "f" [] ] ])

(* a zero divisor is the program's runtime error, naming the operator,
   on the unboxed int path and on the boxed path of a float-typed cell *)
let test_division_by_zero () =
  let open Dsl in
  let expect what op p =
    match run_quiet p with
    | _ -> Alcotest.fail ("expected a runtime error: " ^ what)
    | exception Interp.Runtime_error msg ->
      Alcotest.(check string) what (Printf.sprintf "division by zero (%s)" op) msg
  in
  expect "int /" "/"
    (dsl_prog [ ("x", int_t) ] [ fn "main" [] [ (v "x") <-- (i 1 /% ld (v "x")) ] ]);
  expect "int %" "%"
    (dsl_prog [ ("x", int_t) ] [ fn "main" [] [ (v "x") <-- (i 1 %% ld (v "x")) ] ]);
  (* [z] is assigned a float somewhere, so it is a boxed slot *)
  let boxed e =
    dsl_prog [ ("x", int_t) ]
      [ fn "main" [] [ decl "z" (f 1.5); set "z" (i 0); (v "x") <-- e (p "z") ] ]
  in
  expect "boxed int /" "/" (boxed (fun z -> i 1 /% z));
  expect "boxed int %" "%" (boxed (fun z -> i 1 %% z));
  expect "float /" "/" (boxed (fun z -> f 1.0 /% (z +% f 0.0)))

let test_trace_determinism () =
  let open Dsl in
  let p =
    dsl_prog [ ("a", arr int_t 16); ("l", lock_t); ("t", int_t) ]
      [ fn "main" []
          [ sfor "k" (i 0) (i 10) [ (v "a").%((p "k" +% pdv) %% i 16) <-- p "k" ];
            lock (v "l"); bump (v "t") (i 1); unlock (v "l") ] ]
  in
  Alcotest.(check int) "same traces" 0
    (compare (capture ~nprocs:6 p) (capture ~nprocs:6 p))

let test_layout_changes_addresses_not_semantics () =
  let open Dsl in
  let p =
    dsl_prog [ ("a", arr int_t 8); ("sum", int_t); ("l", lock_t) ]
      [ fn "main" []
          [ sfor "k" (i 0) (i 5) [ bump ((v "a").%(pdv)) (p "k") ];
            barrier;
            lock (v "l");
            bump (v "sum") (ld (v "a").%(pdv));
            unlock (v "l") ] ]
  in
  let result plan =
    int_of (Interp.read_global (run_quiet ~nprocs:8 ~plan p) "sum" 0)
  in
  let transposed = [ Plan.Group_transpose { vars = [ "a" ]; pdv_axis = 0 }; Plan.Pad_locks ] in
  Alcotest.(check int) "same result" (result []) (result transposed);
  Alcotest.(check int) "value" 80 (result transposed)

let test_indirection_extra_loads () =
  let open Dsl in
  let structs = [ { Ast.sname = "s"; fields = [ ("f", arr int_t 2) ] } ] in
  let p =
    dsl_prog ~structs [ ("n", arr (struct_t "s") 2) ]
      [ fn "main" [] [ (v "n").%(i 0).%{"f"}.%(pdv) <-- i 1 ] ]
  in
  let count plan = List.length (capture ~nprocs:2 ~plan p) in
  let direct = count [] in
  let indirect = count [ Plan.Indirect { var = "n"; fields = [ "f" ] } ] in
  (* each field access now carries one extra pointer load *)
  Alcotest.(check int) "extra loads" (direct * 2) indirect

let test_work_and_access_counters () =
  let open Dsl in
  let p =
    dsl_prog [ ("a", arr int_t 4) ]
      [ fn "main" [] [ sfor "k" (i 0) (i 10) [ (v "a").%(pdv) <-- p "k" ] ] ]
  in
  let r = run_quiet ~nprocs:4 p in
  Array.iter
    (fun w -> Alcotest.(check bool) "work counted" true (w > 0))
    r.Interp.work;
  Array.iter
    (fun a -> Alcotest.(check int) "accesses per proc" 10 a)
    r.Interp.accesses

let test_nontermination_guard () =
  let open Dsl in
  let p =
    dsl_prog [ ("x", int_t) ]
      [ fn "main" [] [ swhile (i 1) [ (v "x") <-- i 1 ] ] ]
  in
  match Interp.run_packed ~max_steps:10_000 p ~nprocs:1 ~sink:ignore with
  | _ -> Alcotest.fail "expected nontermination guard"
  | exception Interp.Nontermination _ -> ()

let test_listener_events () =
  let open Dsl in
  let p =
    dsl_prog [ ("l", lock_t); ("x", int_t) ]
      [ fn "main" []
          [ lock (v "l"); bump (v "x") (i 1); unlock (v "l"); barrier ] ]
  in
  let grants = ref 0 and waits = ref 0 and releases = ref 0 and work = ref 0 in
  let listener =
    { Listener.null with
      lock_grant = (fun ~proc:_ ~addr:_ ~from:_ -> incr grants);
      lock_wait = (fun ~proc:_ ~addr:_ -> incr waits);
      barrier_release = (fun () -> incr releases);
      work = (fun ~proc:_ ~amount -> work := !work + amount);
    }
  in
  let trace, _ = Interp.record p ~nprocs:3 in
  Replay.replay trace ~layout:(Layout.default p ~block:64) ~listener;
  Alcotest.(check int) "three grants" 3 !grants;
  Alcotest.(check bool) "some contention" true (!waits >= 1);
  Alcotest.(check int) "one release" 1 !releases;
  Alcotest.(check bool) "work reported" true (!work > 0)

let suite =
  [ Alcotest.test_case "arithmetic" `Quick test_arithmetic;
    Alcotest.test_case "control flow" `Quick test_control_flow;
    Alcotest.test_case "recursion" `Quick test_recursion;
    Alcotest.test_case "floats" `Quick test_floats;
    Alcotest.test_case "lock mutual exclusion" `Quick test_lock_mutual_exclusion;
    Alcotest.test_case "barrier ordering" `Quick test_barrier_ordering;
    Alcotest.test_case "barrier episodes" `Quick test_barrier_episodes;
    Alcotest.test_case "deadlock detected" `Quick test_deadlock_detected;
    Alcotest.test_case "runtime errors" `Quick test_runtime_errors;
    Alcotest.test_case "division by zero" `Quick test_division_by_zero;
    Alcotest.test_case "trace determinism" `Quick test_trace_determinism;
    Alcotest.test_case "layout transparency" `Quick test_layout_changes_addresses_not_semantics;
    Alcotest.test_case "indirection extra loads" `Quick test_indirection_extra_loads;
    Alcotest.test_case "work/access counters" `Quick test_work_and_access_counters;
    Alcotest.test_case "nontermination guard" `Quick test_nontermination_guard;
    Alcotest.test_case "listener events" `Quick test_listener_events ]

(* Mixed int/float programs.  Values are dynamically typed: a private,
   parameter or result that ever holds a float stays on the boxed path,
   and a global's declared scalar type does not coerce what is stored in
   it.  [test_fuzz] generates int-only programs, so these pin the boxed
   semantics down case by case. *)

let vint n = Value.Vint n
let vfloat x = Value.Vfloat x
let value = Alcotest.testable Value.pp Value.equal

let check_cells r name expect =
  List.iteri
    (fun idx e ->
      Alcotest.check value (Printf.sprintf "%s[%d]" name idx) e
        (Interp.read_global r name idx))
    expect

let test_mixed_private () =
  let open Dsl in
  let p =
    dsl_prog [ ("out", arr int_t 5) ]
      [ fn "main" []
          [ decl "x" (i 1);
            (v "out").%(i 0) <-- p "x";
            set "x" (f 2.5);
            (v "out").%(i 1) <-- p "x";
            (v "out").%(i 2) <-- (p "x" +% i 1);
            (* a loop variable later assigned a float: the loop counter
               itself stays an int *)
            decl "acc" (i 0);
            sfor "k" (i 0) (i 3) [ set "acc" (p "acc" +% p "k"); set "k" (f 9.5) ];
            (v "out").%(i 3) <-- p "acc";
            (v "out").%(i 4) <-- p "k" ] ]
  in
  check_cells (run_quiet p) "out"
    [ vint 1; vfloat 2.5; vfloat 3.5; vint 3; vfloat 9.5 ]

let test_mixed_param () =
  let open Dsl in
  let p =
    dsl_prog [ ("out", arr int_t 2); ("g", arr float_t 2) ]
      [ fn "twice" [ "x" ] [ ret (p "x" +% p "x") ];
        fn "put" [ "k"; "x" ] [ (v "g").%(p "k") <-- p "x" ];
        fn "main" []
          [ decl "r" (i 0);
            call_ret "r" "twice" [ i 3 ];
            (v "out").%(i 0) <-- p "r";
            call_ret "r" "twice" [ f 1.5 ];
            (v "out").%(i 1) <-- p "r";
            call "put" [ i 0; i 7 ];
            call "put" [ i 1; f 0.5 ] ] ]
  in
  let r = run_quiet p in
  check_cells r "out" [ vint 6; vfloat 3.0 ];
  check_cells r "g" [ vint 7; vfloat 0.5 ]

let test_mixed_spawn_param () =
  let open Dsl in
  let prog =
    dsl_prog [ ("g", arr float_t 2) ]
      [ fn "put" [ "k"; "x" ] [ (v "g").%(p "k") <-- p "x" ];
        fn "main" []
          [ when_ (pdv ==% i 0) [ spawn "put" [ i 0; f 1.5 ]; spawn "put" [ i 1; i 2 ] ];
            sync ] ]
  in
  let prog = Fs_sched.Sched.instrument ~nprocs:2 prog in
  let _, r = Interp.record ~sched:(Fs_sched.Sched.seeded 5) prog ~nprocs:2 in
  check_cells r "g" [ vfloat 1.5; vint 2 ]

let test_mixed_result () =
  let open Dsl in
  let p =
    dsl_prog [ ("out", arr int_t 2) ]
      [ fn "h" [ "c" ] [ sif (p "c") [ ret (i 4) ] [ ret (f 4.0) ] ];
        fn "main" []
          [ decl "r" (i 0);
            call_ret "r" "h" [ i 1 ];
            (v "out").%(i 0) <-- p "r";
            call_ret "r" "h" [ i 0 ];
            (v "out").%(i 1) <-- p "r" ] ]
  in
  check_cells (run_quiet p) "out" [ vint 4; vfloat 4.0 ]

let test_mixed_globals () =
  let open Dsl in
  let p =
    dsl_prog [ ("fg", arr float_t 2); ("ig", int_t); ("cmp", arr int_t 6) ]
      [ fn "main" []
          [ (v "fg").%(i 0) <-- i 5;
            (v "ig") <-- f 2.5;
            (v "cmp").%(i 0) <-- (f 1.5 <% i 2);
            (v "cmp").%(i 1) <-- min_ (i 3) (f 2.5);
            (v "cmp").%(i 2) <-- max_ (i 3) (f 2.5);
            (v "cmp").%(i 3) <-- (i 7 /% f 2.0);
            (v "cmp").%(i 4) <-- (not_ (f 0.5) ||% neg (f 0.0));
            (v "cmp").%(i 5) <-- (ld (v "ig") *% i 2) ] ]
  in
  let r = run_quiet p in
  (* a Tfloat global that only ever receives ints reads back ints, and
     a float stored into a Tint global reads back a float *)
  check_cells r "fg" [ vint 5; vint 0 ];
  check_cells r "ig" [ vfloat 2.5 ];
  check_cells r "cmp"
    [ vint 1; vfloat 2.5; vint 3; vfloat 3.5; vint 0; vfloat 5.0 ]

let test_mixed_errors () =
  let open Dsl in
  let expect what exn_ok prog =
    match run_quiet prog with
    | _ -> Alcotest.fail ("expected an exception: " ^ what)
    | exception e when exn_ok e -> ()
  in
  let type_error = function Value.Type_error _ -> true | _ -> false in
  let div_zero = function
    | Interp.Runtime_error msg -> Tutil.contains msg "division by zero"
    | _ -> false
  in
  expect "float index" type_error
    (dsl_prog [ ("a", arr int_t 4) ] [ fn "main" [] [ (v "a").%(f 1.0) <-- i 1 ] ]);
  expect "float mod" type_error
    (dsl_prog [ ("x", int_t) ] [ fn "main" [] [ (v "x") <-- (i 5 %% f 2.0) ] ]);
  expect "int div by zero" div_zero
    (dsl_prog [ ("x", int_t) ]
       [ fn "main" [] [ decl "z" (i 0); (v "x") <-- (i 5 /% p "z") ] ]);
  expect "int mod by zero" div_zero
    (dsl_prog [ ("x", int_t) ]
       [ fn "main" [] [ decl "z" (i 0); (v "x") <-- (i 5 %% p "z") ] ]);
  expect "float div by zero" div_zero
    (dsl_prog [ ("x", int_t) ] [ fn "main" [] [ (v "x") <-- (f 1.0 /% i 0) ] ])

(* operands of a binary operator evaluate right to left, so the trace
   records the right operand's load first *)
let test_binop_operand_order () =
  let open Dsl in
  let p =
    dsl_prog [ ("a", arr int_t 2); ("b", arr float_t 2); ("out", arr int_t 2) ]
      [ fn "main" []
          [ (v "out").%(i 0) <-- (ld (v "a").%(i 0) +% ld (v "a").%(i 1));
            (v "out").%(i 1) <-- (ld (v "b").%(i 0) -% ld (v "b").%(i 1)) ] ]
  in
  let trace, _ = Interp.record p ~nprocs:1 in
  let accesses = ref [] in
  Fs_trace.Cell_trace.iter
    (function
      | Fs_trace.Cell_event.Access { var; cell; write; _ } ->
        accesses := (var, cell, write) :: !accesses
      | _ -> ())
    trace;
  Alcotest.(check (list (triple int int bool)))
    "right operand first"
    [ (0, 1, false); (0, 0, false); (2, 0, true);
      (1, 1, false); (1, 0, false); (2, 1, true) ]
    (List.rev !accesses)

(* processor ids are packed into 8 bits per event: a count outside
   [1, 256] is refused up front, before any event is emitted *)
let test_nprocs_range () =
  let open Dsl in
  let p = dsl_prog [ ("x", int_t) ] [ fn "main" [] [ (v "x") <-- pdv ] ] in
  List.iter
    (fun nprocs ->
      let events = ref 0 in
      (match Interp.run_packed p ~nprocs ~sink:(fun _ -> incr events) with
       | _ -> Alcotest.failf "nprocs %d accepted" nprocs
       | exception Invalid_argument _ -> ());
      Alcotest.(check int) (Printf.sprintf "nprocs %d: no events" nprocs) 0 !events;
      (match Interp.record p ~nprocs with
       | _ -> Alcotest.failf "record: nprocs %d accepted" nprocs
       | exception Invalid_argument _ -> ());
      match Fs_trace.Cell_trace.create ~vars:[| "x" |] ~nprocs with
      | _ -> Alcotest.failf "Cell_trace.create: nprocs %d accepted" nprocs
      | exception Invalid_argument _ -> ())
    [ 0; -1; 257; 300 ];
  let trace, r = Interp.record p ~nprocs:256 in
  Alcotest.(check int) "P=256 runs" 255 (int_of (Interp.read_global r "x" 0));
  Alcotest.(check int) "P=256 trace" 256 (Fs_trace.Cell_trace.nprocs trace)

let test_storage_classes () =
  let open Dsl in
  let module S = Fs_interp.Storage in
  let p =
    dsl_prog [ ("fg", float_t); ("ig", int_t); ("n", int_t) ]
      [ fn "h" [ "c"; "k" ] [ sif (p "c") [ ret (i 4) ] [ ret (f 4.0) ] ];
        fn "g" [ "k" ] [ ret (p "k" +% i 1) ];
        fn "main" []
          [ decl "x" (i 1); decl "y" (i 3 *% pdv); decl "r" (i 0); decl "q" (i 0);
            set "x" (f 0.5);
            decl "z" (p "x" -% i 1);
            call_ret "r" "h" [ i 1; p "y" ];
            call_ret "q" "g" [ p "y" ];
            (v "fg") <-- p "y";
            (v "ig") <-- p "r";
            (v "n") <-- (ld (v "ig") <% i 1) ] ]
  in
  let c = S.infer p in
  let cls =
    Alcotest.testable
      (fun fmt c -> Format.pp_print_string fmt (match c with S.I -> "I" | S.V -> "V"))
      ( = )
  in
  Alcotest.check cls "x: int then float" S.V (S.private_ c ~fname:"main" "x");
  Alcotest.check cls "y: int arithmetic" S.I (S.private_ c ~fname:"main" "y");
  (* flow-insensitive: anything computed from x is boxed *)
  Alcotest.check cls "z: arithmetic on x" S.V (S.private_ c ~fname:"main" "z");
  Alcotest.check cls "h returns a float" S.V (S.result c "h");
  Alcotest.check cls "r receives h's result" S.V (S.private_ c ~fname:"main" "r");
  Alcotest.check cls "g returns ints" S.I (S.result c "g");
  Alcotest.check cls "q receives g's result" S.I (S.private_ c ~fname:"main" "q");
  Alcotest.check cls "k of h: only int arguments" S.I (S.private_ c ~fname:"h" "k");
  Alcotest.check cls "declared float, stored ints" S.I (S.global c "fg");
  Alcotest.check cls "declared int, stored a float" S.V (S.global c "ig");
  Alcotest.check cls "comparison of a float" S.I (S.global c "n");
  (* the registered workloads are all-int: every location runs unboxed *)
  List.iter
    (fun (w : Fs_workloads.Workload.t) ->
      let prog = w.build ~nprocs:4 ~scale:1 in
      let c = S.infer prog in
      List.iter
        (fun (g, _) -> Alcotest.check cls (w.name ^ " global " ^ g) S.I (S.global c g))
        prog.Ast.globals;
      List.iter
        (fun (f : Ast.func) ->
          Alcotest.check cls (w.name ^ " result of " ^ f.fname) S.I (S.result c f.fname))
        prog.funcs)
    Fs_workloads.Workloads.every

let mixed_suite =
  [ Alcotest.test_case "mixed: private int then float" `Quick test_mixed_private;
    Alcotest.test_case "mixed: int and float arguments" `Quick test_mixed_param;
    Alcotest.test_case "mixed: spawned float argument" `Quick test_mixed_spawn_param;
    Alcotest.test_case "mixed: int and float results" `Quick test_mixed_result;
    Alcotest.test_case "mixed: globals keep stored kinds" `Quick test_mixed_globals;
    Alcotest.test_case "mixed: type and division errors" `Quick test_mixed_errors;
    Alcotest.test_case "mixed: binop operand order" `Quick test_binop_operand_order;
    Alcotest.test_case "nprocs range" `Quick test_nprocs_range;
    Alcotest.test_case "storage classes" `Quick test_storage_classes ]

(* Differential testing: random arithmetic expression trees evaluated by
   the interpreter must match direct evaluation with Value.binop. *)
let expr_gen =
  let open QCheck.Gen in
  let leaf = map (fun n -> Ast.Int_lit n) (int_range (-20) 20) in
  fix
    (fun self depth ->
      if depth <= 0 then leaf
      else
        frequency
          [ (2, leaf);
            ( 3,
              let op =
                oneofl
                  [ Ast.Add; Ast.Sub; Ast.Mul; Ast.Min; Ast.Max; Ast.Lt;
                    Ast.Le; Ast.Eq; Ast.Ne ]
              in
              map3
                (fun op a b -> Ast.Binop (op, a, b))
                op (self (depth - 1)) (self (depth - 1)) );
            (1, map (fun e -> Ast.Unop (Ast.Neg, e)) (self (depth - 1))) ])
    4

let rec eval_direct (e : Ast.expr) =
  match e with
  | Ast.Int_lit n -> Value.Vint n
  | Ast.Unop (op, a) -> Value.unop op (eval_direct a)
  | Ast.Binop (op, a, b) -> Value.binop op (eval_direct a) (eval_direct b)
  | _ -> assert false

let test_differential_eval =
  QCheck.Test.make ~name:"interpreter matches direct evaluation" ~count:200
    (QCheck.make expr_gen)
    (fun e ->
      let open Dsl in
      let prog = dsl_prog [ ("out", int_t) ] [ fn "main" [] [ (v "out") <-- e ] ] in
      let r = run_quiet prog in
      Value.equal (Interp.read_global r "out" 0) (eval_direct e))

let suite = suite @ mixed_suite @ [ QCheck_alcotest.to_alcotest test_differential_eval ]
