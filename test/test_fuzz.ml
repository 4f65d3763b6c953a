(* Program-level fuzzing: generate random (but well-formed, terminating,
   barrier-balanced) ParC programs and check the end-to-end properties
   that hold for *every* program, not just the curated workloads:

   - the program validates and executes without runtime errors;
   - the compiler's plan validates and its layout has no overlapping
     addresses;
   - every layout — default, compiler-planned, and randomly planned —
     produces bit-identical final shared memory.  The scheduler is
     layout-independent, so even racy programs must agree exactly: any
     difference would mean a transformation changed program semantics;
   - the concrete syntax round-trips. *)

open Fs_ir
module Interp = Fs_interp.Interp
module Value = Fs_interp.Value
module Layout = Fs_layout.Layout
module Plan = Fs_layout.Plan
module T = Fs_transform.Transform

(* ------------------------------------------------------------------ *)
(* Generator                                                           *)

(* Globals available to generated programs.  pv has a per-process shape so
   the compiler has something to find; every other index goes through the
   safe-index wrapper below. *)
let nprocs = 4

let globals =
  [ ("s0", Dsl.int_t);
    ("s1", Dsl.int_t);
    ("a8", Dsl.arr Dsl.int_t 8);
    ("m46", Dsl.arr2 Dsl.int_t 4 6);
    ("pv", Dsl.arr Dsl.int_t nprocs);
    ("lk", Dsl.lock_t) ]

(* clamp any int expression into [0, n) *)
let safe_idx e n = Dsl.(((e %% i n) +% i n) %% i n)

let np_expr = Dsl.nprocs

let gen_expr privs =
  let open QCheck.Gen in
  let open Dsl in
  let leaf =
    frequency
      [ (3, map i (int_range (-9) 9));
        (2, return pdv);
        (1, return np_expr);
        (if privs = [] then (0, return (i 0)) else (3, map p (oneofl privs)));
        (2,
         oneof
           [ return (ld (v "s0"));
             return (ld (v "s1"));
             return (ld (v "pv").%(pdv)) ]) ]
  in
  fix
    (fun self depth ->
      if depth <= 0 then leaf
      else
        frequency
          [ (3, leaf);
            ( 4,
              let op = oneofl [ ( +% ); ( -% ); ( *% ); min_; max_ ] in
              map3 (fun f a b -> f a b) op (self (depth - 1)) (self (depth - 1)) );
            ( 1,
              map (fun a -> a /% i 3) (self (depth - 1)) );
            ( 1,
              map2
                (fun a b -> ld (v "a8").%(safe_idx (a +% b) 8))
                (self (depth - 1)) (self (depth - 1)) ) ])
    3

let gen_lvalue privs =
  let open QCheck.Gen in
  let open Dsl in
  let* e = gen_expr privs in
  oneofl
    [ v "s0";
      v "s1";
      (v "a8").%(safe_idx e 8);
      (v "m46").%(safe_idx e 4).%(safe_idx (e +% i 1) 6);
      (v "pv").%(pdv) ]

(* Statements; [privs] is the set of declared privates in scope. *)
let rec gen_stmts privs depth budget =
  let open QCheck.Gen in
  if budget <= 0 then return []
  else
    let* n = int_range 1 3 in
    let rec seq privs k acc =
      if k <= 0 then return (List.rev acc)
      else
        let* s, privs' = gen_stmt privs depth in
        seq privs' (k - 1) (s :: acc)
    in
    seq privs n []

and gen_stmt privs depth =
  let open QCheck.Gen in
  let open Dsl in
  let store =
    let* lv = gen_lvalue privs in
    let* e = gen_expr privs in
    return (lv <-- e, privs)
  in
  let declare =
    let name = Printf.sprintf "t%d" (List.length privs) in
    let* e = gen_expr privs in
    return (decl name e, name :: privs)
  in
  let assign =
    if privs = [] then store
    else
      let* name = oneofl privs in
      let* e = gen_expr privs in
      return (set name e, privs)
  in
  let loop =
    if depth <= 0 then store
    else
      let vn = Printf.sprintf "k%d" depth in
      let* hi = int_range 1 4 in
      let* body = gen_stmts (vn :: privs) (depth - 1) 2 in
      return (sfor vn (i 0) (i hi) body, privs)
  in
  let cond =
    if depth <= 0 then store
    else
      let* c = gen_expr privs in
      let* b1 = gen_stmts privs (depth - 1) 2 in
      let* b2 = gen_stmts privs (depth - 1) 1 in
      return (sif (c >% i 0) b1 b2, privs)
  in
  let critical =
    let* lv = gen_lvalue privs in
    let* e = gen_expr privs in
    return
      ( sif (i 1) [ lock (v "lk"); (lv <-- e); unlock (v "lk") ] [],
        privs )
  in
  frequency
    [ (4, store); (2, declare); (2, assign); (2, loop); (2, cond); (1, critical) ]

let gen_program =
  let open QCheck.Gen in
  (* top-level: a few phases separated by barriers *)
  let* nphases = int_range 1 3 in
  let rec phases k acc =
    if k <= 0 then return (List.rev acc)
    else
      let* body = gen_stmts [] 2 3 in
      phases (k - 1) ((body @ [ Ast.Barrier ]) :: acc)
  in
  let* ps = phases nphases [] in
  let prog =
    Dsl.program ~name:"fuzz" ~globals
      [ Dsl.fn "main" [] (List.concat ps) ]
  in
  return prog

let arbitrary_program =
  QCheck.make ~print:Pp.program_to_string gen_program

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)

let final_memory prog plan =
  (* the plan must realize; the interpreter itself is layout-free *)
  ignore (Layout.realize prog plan ~block:64 : Layout.t);
  let r = Interp.run_packed prog ~nprocs ~sink:ignore in
  List.map
    (fun (name, _) ->
      let values = Hashtbl.find r.Interp.store name in
      Array.to_list values)
    prog.Ast.globals

let test_fuzz_transparency =
  QCheck.Test.make ~name:"random programs: every layout preserves semantics"
    ~count:150 arbitrary_program
    (fun prog ->
      match Validate.check prog with
      | Error errs -> QCheck.Test.fail_reportf "invalid: %s" (String.concat ";" errs)
      | Ok () ->
        let base = final_memory prog [] in
        let report = T.plan prog ~nprocs in
        Plan.validate prog report.T.plan;
        let cplan_mem = final_memory prog report.T.plan in
        let manual =
          [ Plan.Group_transpose { vars = [ "pv" ]; pdv_axis = 0 };
            Plan.Pad_align { var = "a8"; element = true };
            Plan.Regroup { var = "m46"; ways = 2; chunked = true };
            Plan.Pad_locks ]
        in
        let manual_mem = final_memory prog manual in
        base = cplan_mem && base = manual_mem)

let test_fuzz_layout_disjoint =
  QCheck.Test.make ~name:"random programs: compiler layouts never overlap"
    ~count:100 arbitrary_program
    (fun prog ->
      let report = T.plan prog ~nprocs in
      List.for_all
        (fun block ->
          match Layout.check_disjoint (Layout.realize prog report.T.plan ~block) with
          | Ok () -> true
          | Error _ -> false)
        [ 16; 128 ])

let test_fuzz_parse_roundtrip =
  QCheck.Test.make ~name:"random programs: concrete syntax round-trips"
    ~count:100 arbitrary_program
    (fun prog ->
      let s1 = Pp.program_to_string prog in
      let s2 = Pp.program_to_string (Fs_parc.Parser.parse s1) in
      s1 = s2)

let suite =
  [ QCheck_alcotest.to_alcotest test_fuzz_transparency;
    QCheck_alcotest.to_alcotest test_fuzz_layout_disjoint;
    QCheck_alcotest.to_alcotest test_fuzz_parse_roundtrip ]
