module Ast = Fs_ir.Ast

type cls = I | V

type t = {
  globals : (string, cls) Hashtbl.t;
  privs : (string * string, cls) Hashtbl.t;  (* (function, name) *)
  results : (string, cls) Hashtbl.t;
}

(* absent means never widened *)
let get tbl k = Option.value (Hashtbl.find_opt tbl k) ~default:I

let global t n = get t.globals n
let private_ t ~fname n = get t.privs (fname, n)
let result t f = get t.results f

let rec expr t ~fname (e : Ast.expr) =
  match e with
  | Int_lit _ | Pdv | Nprocs | Unop (Not, _) -> I
  | Binop ((Eq | Ne | Lt | Le | Gt | Ge | And | Or), _, _) -> I
  | Float_lit _ -> V
  | Priv n -> private_ t ~fname n
  | Load lv -> global t lv.base
  | Unop (Neg, e) -> expr t ~fname e
  | Binop ((Add | Sub | Mul | Div | Mod | Min | Max), a, b) ->
    if expr t ~fname a = V then V else expr t ~fname b

let infer (prog : Ast.program) =
  let t =
    { globals = Hashtbl.create 16; privs = Hashtbl.create 64; results = Hashtbl.create 16 }
  in
  let changed = ref true in
  let widen tbl k = function
    | V when get tbl k = I ->
      Hashtbl.replace tbl k V;
      changed := true
    | _ -> ()
  in
  let params callee = (Ast.find_func prog callee).params in
  while !changed do
    changed := false;
    List.iter
      (fun (f : Ast.func) ->
        let cls = expr t ~fname:f.fname in
        let pass callee args =
          List.iter2 (fun prm a -> widen t.privs (callee, prm) (cls a)) (params callee) args
        in
        Ast.iter_stmts
          (fun (s : Ast.stmt) ->
            match s with
            | Store (lv, e) -> widen t.globals lv.base (cls e)
            | Set (n, e) | Decl (n, e) -> widen t.privs (f.fname, n) (cls e)
            | Call { ret; callee; args } ->
              pass callee args;
              Option.iter (fun n -> widen t.privs (f.fname, n) (result t callee)) ret
            | Spawn { callee; args } -> pass callee args
            | Return (Some e) -> widen t.results f.fname (cls e)
            | Return None | If _ | While _ | For _ | Sync | Barrier | Lock _ | Unlock _ -> ())
          f.body)
      prog.funcs
  done;
  t
