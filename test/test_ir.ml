(* Unit and property tests for the ParC IR: the cell model, validation,
   and the builder DSL. *)

open Fs_ir
module A = Ast

let tiny_structs =
  [ { A.sname = "pair"; fields = [ ("fst", A.Scalar A.Tint); ("snd", A.Scalar A.Tfloat) ] };
    { A.sname = "node";
      fields =
        [ ("hdr", A.Scalar A.Tint);
          ("vals", A.Array (A.Scalar A.Tint, 4));
          ("l", A.Scalar A.Tlock) ] } ]

let prog_with globals funcs =
  { A.pname = "t"; structs = tiny_structs; globals; funcs; entry = "main" }

let empty_main = { A.fname = "main"; params = []; body = [] }

let base = prog_with [ ("x", A.Scalar A.Tint) ] [ empty_main ]

let test_cells_count () =
  Alcotest.(check int) "scalar" 1 (Cells.count base (A.Scalar A.Tint));
  Alcotest.(check int) "array" 6 (Cells.count base (A.Array (A.Scalar A.Tint, 6)));
  Alcotest.(check int) "nested" 12
    (Cells.count base (A.Array (A.Array (A.Scalar A.Tint, 4), 3)));
  Alcotest.(check int) "struct pair" 2 (Cells.count base (A.Struct "pair"));
  Alcotest.(check int) "struct node" 6 (Cells.count base (A.Struct "node"));
  Alcotest.(check int) "array of struct" 18
    (Cells.count base (A.Array (A.Struct "node", 3)))

let test_field_offset () =
  let node = A.find_struct base "node" in
  Alcotest.(check int) "hdr" 0 (Cells.field_offset base node "hdr");
  Alcotest.(check int) "vals" 1 (Cells.field_offset base node "vals");
  Alcotest.(check int) "l" 5 (Cells.field_offset base node "l")

let test_resolve () =
  let ty = A.Array (A.Struct "node", 3) in
  let off, final = Cells.resolve base ty [ Cells.Eidx 2; Cells.Efld "vals"; Cells.Eidx 1 ] in
  Alcotest.(check int) "offset" ((2 * 6) + 1 + 1) off;
  (match final with
   | A.Scalar A.Tint -> ()
   | _ -> Alcotest.fail "expected int scalar");
  Alcotest.check_raises "oob" (Cells.Bounds "index 3 out of bounds [0,3)")
    (fun () -> ignore (Cells.resolve base ty [ Cells.Eidx 3 ]))

let test_scalar_at () =
  let ty = A.Array (A.Struct "node", 2) in
  Alcotest.(check bool) "lock cell" true (Cells.scalar_at base ty 5 = A.Tlock);
  Alcotest.(check bool) "int cell" true (Cells.scalar_at base ty 7 = A.Tint);
  let locks = ref 0 in
  Cells.iter_scalars base ty (fun _ s -> if s = A.Tlock then incr locks);
  Alcotest.(check int) "two locks" 2 !locks

let test_array_dims () =
  (match Cells.array_dims base (A.Array (A.Array (A.Scalar A.Tint, 4), 3)) with
   | Some ([ 3; 4 ], A.Scalar A.Tint) -> ()
   | _ -> Alcotest.fail "dims wrong");
  (match Cells.array_dims base (A.Scalar A.Tint) with
   | None -> ()
   | Some _ -> Alcotest.fail "scalar has no dims")

let test_coords_roundtrip =
  QCheck.Test.make ~name:"cell coords roundtrip" ~count:500
    QCheck.(triple (int_range 1 6) (int_range 1 6) (int_range 1 3))
    (fun (d0, d1, ec) ->
      let dims = [ d0; d1 ] in
      let total = d0 * d1 * ec in
      List.for_all
        (fun id ->
          let coords, inner = Cells.coords_of_cell ~dims ~elt_cells:ec id in
          Cells.cell_of_coords ~dims ~elt_cells:ec coords inner = id)
        (List.init total Fun.id))

(* --- validation --- *)

let check_invalid expected_frag prog =
  match Validate.check prog with
  | Ok () -> Alcotest.fail ("expected invalid: " ^ expected_frag)
  | Error errs ->
    let found = List.exists (fun e -> Tutil.contains e expected_frag) errs in
    if not found then
      Alcotest.fail
        (Printf.sprintf "expected %S among: %s" expected_frag (String.concat "; " errs))

let test_validate_ok () =
  let open Dsl in
  let p =
    program ~name:"ok"
      ~globals:[ ("a", arr int_t 4); ("l", lock_t) ]
      [ fn "main" []
          [ lock (v "l"); (v "a").%(i 0) <-- i 1; unlock (v "l") ] ]
  in
  match Validate.check p with
  | Ok () -> ()
  | Error e -> Alcotest.fail (String.concat "; " e)

let test_validate_errors () =
  let open Dsl in
  let with_main body = [ { A.fname = "main"; params = []; body } ] in
  check_invalid "unknown global"
    (prog_with [] (with_main [ (v "nope") <-- i 1 ]));
  check_invalid "undeclared private"
    (prog_with [ ("x", int_t) ] (with_main [ (v "x") <-- p "u" ]));
  check_invalid "lock operation on data cell"
    (prog_with [ ("x", int_t) ] (with_main [ lock (v "x") ]));
  check_invalid "data access to lock cell"
    (prog_with [ ("l", lock_t) ] (with_main [ (v "l") <-- i 1 ]));
  check_invalid "needs an index"
    (prog_with [ ("a", arr int_t 3) ] (with_main [ (v "a") <-- i 1 ]));
  check_invalid "call to unknown function"
    (prog_with [] (with_main [ call "nope" [] ]));
  check_invalid "entry function \"main\" not defined" (prog_with [] []);
  check_invalid "duplicate global"
    (prog_with [ ("x", int_t); ("x", int_t) ] (with_main []));
  check_invalid "array dimension"
    { A.pname = "t"; structs = []; globals = [ ("a", A.Array (A.Scalar A.Tint, 0)) ];
      funcs = with_main []; entry = "main" }

let test_validate_arity () =
  let open Dsl in
  let p =
    { A.pname = "t"; structs = []; globals = [];
      funcs = [ fn "f" [ "a"; "b" ] []; fn "main" [] [ call "f" [ i 1 ] ] ];
      entry = "main" }
  in
  check_invalid "expected 2" p;
  check_invalid "duplicate parameter of function f \"a\""
    { p with funcs = [ fn "f" [ "a"; "a" ] []; fn "main" [] [ call "f" [ i 1; i 2 ] ] ] }

let test_validate_recursive_struct () =
  let p =
    { A.pname = "t";
      structs = [ { A.sname = "s"; fields = [ ("self", A.Struct "s") ] } ];
      globals = [ ("x", A.Struct "s") ]; funcs = [ empty_main ]; entry = "main" }
  in
  check_invalid "contains itself" p

let test_iterators () =
  let open Dsl in
  let body =
    [ sfor "k" (i 0) (i 3) [ (v "x") <-- (ld (v "x") +% p "k") ];
      when_ (pdv ==% i 0) [ barrier ] ]
  in
  let stores = ref 0 and total = ref 0 in
  Ast.iter_stmts
    (fun s ->
      incr total;
      match s with A.Store _ -> incr stores | _ -> ())
    body;
  Alcotest.(check int) "stores found" 1 !stores;
  Alcotest.(check int) "statements walked" 4 !total;
  let loads = ref 0 in
  Ast.iter_lvalues_expr (fun _ -> incr loads) (ld (v "a").%(ld (v "b")));
  Alcotest.(check int) "nested lvalue loads" 2 !loads

let test_pp_prints () =
  let open Dsl in
  let p =
    program ~name:"pp" ~structs:tiny_structs
      ~globals:[ ("a", arr2 int_t 3 4); ("n", struct_t "node") ]
      [ fn "main" []
          [ decl "t" (i 1);
            sif (p "t" >% i 0) [ (v "a").%(i 0).%(i 1) <-- f 2.5 ] [ barrier ];
            swhile (p "t" <% i 10) [ set "t" (p "t" *% i 2) ] ] ]
  in
  let s = Pp.program_to_string p in
  List.iter
    (fun frag ->
      Alcotest.(check bool) (Printf.sprintf "contains %S" frag) true
        (Tutil.contains s frag))
    [ "program pp;"; "int a[3][4]"; "struct node"; "while"; "if"; "barrier;" ]

let suite =
  [ Alcotest.test_case "cells count" `Quick test_cells_count;
    Alcotest.test_case "field offset" `Quick test_field_offset;
    Alcotest.test_case "resolve" `Quick test_resolve;
    Alcotest.test_case "scalar at / iter" `Quick test_scalar_at;
    Alcotest.test_case "array dims" `Quick test_array_dims;
    QCheck_alcotest.to_alcotest test_coords_roundtrip;
    Alcotest.test_case "validate ok" `Quick test_validate_ok;
    Alcotest.test_case "validate errors" `Quick test_validate_errors;
    Alcotest.test_case "validate arity" `Quick test_validate_arity;
    Alcotest.test_case "validate recursive struct" `Quick test_validate_recursive_struct;
    Alcotest.test_case "iterators" `Quick test_iterators;
    Alcotest.test_case "pretty printer" `Quick test_pp_prints ]
