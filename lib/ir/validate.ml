open Ast

let dup_names what names errs =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun n ->
      if Hashtbl.mem tbl n then
        errs := Printf.sprintf "duplicate %s %S" what n :: !errs
      else Hashtbl.add tbl n ())
    names

(* Struct acyclicity: a struct may not (transitively) contain itself. *)
let check_struct_cycles p errs =
  let visiting = Hashtbl.create 16 in
  let done_ = Hashtbl.create 16 in
  let rec visit name =
    if Hashtbl.mem done_ name then ()
    else if Hashtbl.mem visiting name then
      errs := Printf.sprintf "struct %S contains itself" name :: !errs
    else begin
      Hashtbl.add visiting name ();
      (match List.find_opt (fun s -> s.sname = name) p.structs with
       | None -> ()
       | Some s -> List.iter (fun (_, ft) -> visit_ty ft) s.fields);
      Hashtbl.remove visiting name;
      Hashtbl.add done_ name ()
    end
  and visit_ty = function
    | Scalar _ -> ()
    | Array (t, _) -> visit_ty t
    | Struct n -> visit n
  in
  List.iter (fun s -> visit s.sname) p.structs

let rec check_ty p where t errs =
  match t with
  | Scalar _ -> ()
  | Array (elt, n) ->
    if n <= 0 then
      errs := Printf.sprintf "%s: array dimension %d not positive" where n :: !errs;
    check_ty p where elt errs
  | Struct name ->
    if not (List.exists (fun s -> s.sname = name) p.structs) then
      errs := Printf.sprintf "%s: unknown struct %S" where name :: !errs

(* Shape-check an lvalue path; returns the scalar it reaches, if any. *)
let check_lvalue p where lv errs =
  match List.assoc_opt lv.base p.globals with
  | None ->
    errs := Printf.sprintf "%s: unknown global %S" where lv.base :: !errs;
    None
  | Some t0 ->
    let rec walk t path =
      match (t, path) with
      | Scalar s, [] -> Some s
      | Scalar _, _ :: _ ->
        errs := Printf.sprintf "%s: path into scalar on %S" where lv.base :: !errs;
        None
      | Array (elt, _), Idx _ :: rest -> walk elt rest
      | Array _, (Fld _ :: _ | []) ->
        errs :=
          Printf.sprintf "%s: array access on %S needs an index" where lv.base :: !errs;
        None
      | Struct name, Fld f :: rest -> (
        match List.find_opt (fun s -> s.sname = name) p.structs with
        | None -> None (* already reported by check_ty *)
        | Some s -> (
          match List.assoc_opt f s.fields with
          | Some ft -> walk ft rest
          | None ->
            errs :=
              Printf.sprintf "%s: struct %S has no field %S" where name f :: !errs;
            None))
      | Struct _, (Idx _ :: _ | []) ->
        errs :=
          Printf.sprintf "%s: struct access on %S needs a field" where lv.base :: !errs;
        None
    in
    walk t0 lv.path

let check_func p func errs =
  let where = "function " ^ func.fname in
  dup_names ("parameter of " ^ where) func.params errs;
  let privs = Hashtbl.create 16 in
  List.iter (fun prm -> Hashtbl.replace privs prm ()) func.params;
  (* Collect every private binding in the function, flow-insensitively. *)
  iter_stmts
    (fun s ->
      match s with
      | Decl (n, _) | For (n, _, _, _) | Call { ret = Some n; _ } ->
        Hashtbl.replace privs n ()
      | _ -> ())
    func.body;
  let rec check_expr e =
    match e with
    | Int_lit _ | Float_lit _ | Pdv | Nprocs -> ()
    | Priv n ->
      if not (Hashtbl.mem privs n) then
        errs := Printf.sprintf "%s: undeclared private %S" where n :: !errs
    | Load lv -> check_access ~want_lock:false lv
    | Unop (_, e) -> check_expr e
    | Binop (_, e1, e2) -> check_expr e1; check_expr e2
  and check_access ~want_lock lv =
    List.iter (function Idx e -> check_expr e | Fld _ -> ()) lv.path;
    match check_lvalue p where lv errs with
    | None -> ()
    | Some Tlock when not want_lock ->
      errs := Printf.sprintf "%s: data access to lock cell %S" where lv.base :: !errs
    | Some (Tint | Tfloat) when want_lock ->
      errs := Printf.sprintf "%s: lock operation on data cell %S" where lv.base :: !errs
    | Some _ -> ()
  in
  iter_stmts
    (fun s ->
      match s with
      | Store (lv, e) -> check_access ~want_lock:false lv; check_expr e
      | Set (n, e) ->
        if not (Hashtbl.mem privs n) then
          errs := Printf.sprintf "%s: set of undeclared private %S" where n :: !errs;
        check_expr e
      | Decl (_, e) -> check_expr e
      | If (c, _, _) | While (c, _) -> check_expr c
      | For (_, lo, hi, _) -> check_expr lo; check_expr hi
      | Call { callee; args; _ } ->
        (match List.find_opt (fun f -> f.fname = callee) p.funcs with
         | None ->
           errs := Printf.sprintf "%s: call to unknown function %S" where callee :: !errs
         | Some f ->
           if List.length f.params <> List.length args then
             errs :=
               Printf.sprintf "%s: call to %S with %d args, expected %d" where
                 callee (List.length args) (List.length f.params)
               :: !errs);
        List.iter check_expr args
      | Spawn { callee; args } ->
        (match List.find_opt (fun f -> f.fname = callee) p.funcs with
         | None ->
           errs := Printf.sprintf "%s: spawn of unknown function %S" where callee :: !errs
         | Some f ->
           if List.length f.params <> List.length args then
             errs :=
               Printf.sprintf "%s: spawn of %S with %d args, expected %d" where
                 callee (List.length args) (List.length f.params)
               :: !errs);
        List.iter check_expr args
      | Return (Some e) -> check_expr e
      | Return None | Barrier | Sync -> ()
      | Lock lv | Unlock lv -> check_access ~want_lock:true lv)
    func.body

(* A spawned task may be executed by any process (a thief), so a barrier
   inside it — directly or through any call or nested spawn — would tear
   the global barrier out of the SPMD structure the model depends on. *)
let check_task_barriers p errs =
  let memo = Hashtbl.create 16 in
  let rec has_barrier fname =
    match Hashtbl.find_opt memo fname with
    | Some b -> b
    | None ->
      Hashtbl.add memo fname false (* cycle cut: recursion adds nothing *)
      ;
      let found = ref false in
      (match List.find_opt (fun f -> f.fname = fname) p.funcs with
       | None -> ()
       | Some f ->
         iter_stmts
           (fun s ->
             match s with
             | Barrier -> found := true
             | Call { callee; _ } | Spawn { callee; _ } ->
               if has_barrier callee then found := true
             | _ -> ())
           f.body);
      Hashtbl.replace memo fname !found;
      !found
  in
  List.iter
    (fun f ->
      iter_stmts
        (fun s ->
          match s with
          | Spawn { callee; _ } ->
            if has_barrier callee then
              errs :=
                Printf.sprintf
                  "function %s: spawned function %S reaches a barrier (tasks \
                   may migrate between processes and cannot synchronize \
                   globally)"
                  f.fname callee
                :: !errs
          | _ -> ())
        f.body)
    p.funcs

let check p =
  let errs = ref [] in
  dup_names "struct" (List.map (fun s -> s.sname) p.structs) errs;
  dup_names "global" (List.map fst p.globals) errs;
  dup_names "function" (List.map (fun f -> f.fname) p.funcs) errs;
  List.iter
    (fun s ->
      dup_names ("field of struct " ^ s.sname) (List.map fst s.fields) errs;
      List.iter (fun (f, ft) -> check_ty p (s.sname ^ "." ^ f) ft errs) s.fields)
    p.structs;
  check_struct_cycles p errs;
  List.iter (fun (g, t) -> check_ty p ("global " ^ g) t errs) p.globals;
  (match List.find_opt (fun f -> f.fname = p.entry) p.funcs with
   | None -> errs := Printf.sprintf "entry function %S not defined" p.entry :: !errs
   | Some f ->
     if f.params <> [] then
       errs := Printf.sprintf "entry function %S must take no parameters" p.entry :: !errs);
  List.iter (fun f -> check_func p f errs) p.funcs;
  check_task_barriers p errs;
  match List.rev !errs with [] -> Ok () | l -> Error l

exception Invalid_program of string list

let validate_exn p =
  match check p with Ok () -> p | Error errs -> raise (Invalid_program errs)
