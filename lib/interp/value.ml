module Ast = Fs_ir.Ast

type t = Vint of int | Vfloat of float

exception Type_error of string
exception Runtime_error of string

let zero_divisor op =
  raise (Runtime_error (Printf.sprintf "division by zero (%s)" op))

let zero = Vint 0
let of_bool b = Vint (if b then 1 else 0)

let to_int = function
  | Vint n -> n
  | Vfloat f -> raise (Type_error (Printf.sprintf "expected int, got float %g" f))

let truthy = function Vint n -> n <> 0 | Vfloat f -> f <> 0.0

let to_float = function Vint n -> float_of_int n | Vfloat f -> f

let unop op v =
  match (op, v) with
  | Ast.Neg, Vint n -> Vint (-n)
  | Ast.Neg, Vfloat f -> Vfloat (-.f)
  | Ast.Not, v -> of_bool (not (truthy v))

let arith fint ffloat a b =
  match (a, b) with
  | Vint x, Vint y -> Vint (fint x y)
  | _ -> Vfloat (ffloat (to_float a) (to_float b))

let compare_vals a b =
  match (a, b) with
  | Vint x, Vint y -> compare x y
  | _ -> compare (to_float a) (to_float b)

let binop op a b =
  match op with
  | Ast.Add -> arith ( + ) ( +. ) a b
  | Ast.Sub -> arith ( - ) ( -. ) a b
  | Ast.Mul -> arith ( * ) ( *. ) a b
  | Ast.Div -> (
    match (a, b) with
    | Vint _, Vint 0 -> zero_divisor "/"
    | Vint x, Vint y -> Vint (x / y)
    | _ ->
      let d = to_float b in
      if d = 0.0 then zero_divisor "/" else Vfloat (to_float a /. d))
  | Ast.Mod -> (
    match (a, b) with
    | Vint _, Vint 0 -> zero_divisor "%"
    | Vint x, Vint y -> Vint (x mod y)
    | _ -> raise (Type_error "mod requires integer operands"))
  | Ast.Eq -> of_bool (compare_vals a b = 0)
  | Ast.Ne -> of_bool (compare_vals a b <> 0)
  | Ast.Lt -> of_bool (compare_vals a b < 0)
  | Ast.Le -> of_bool (compare_vals a b <= 0)
  | Ast.Gt -> of_bool (compare_vals a b > 0)
  | Ast.Ge -> of_bool (compare_vals a b >= 0)
  | Ast.And -> of_bool (truthy a && truthy b)
  | Ast.Or -> of_bool (truthy a || truthy b)
  | Ast.Min -> if compare_vals a b <= 0 then a else b
  | Ast.Max -> if compare_vals a b >= 0 then a else b

let pp fmt = function
  | Vint n -> Format.fprintf fmt "%d" n
  | Vfloat f -> Format.fprintf fmt "%g" f

let equal a b =
  match (a, b) with
  | Vint x, Vint y -> x = y
  | Vfloat x, Vfloat y -> x = y
  | Vint _, Vfloat _ | Vfloat _, Vint _ -> false
