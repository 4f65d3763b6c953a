(** Dynamically-typed ParC runtime values.

    Integer operands stay exact (indices, counters); mixing an integer with
    a float promotes to float.  Comparison and logic produce integer 0/1. *)

type t = Vint of int | Vfloat of float

exception Type_error of string

exception Runtime_error of string
(** A dynamic error of the running program; re-exported as
    [Interp.Runtime_error]. *)

val zero_divisor : string -> 'a
(** [zero_divisor op] raises {!Runtime_error} for a zero divisor of the
    ParC operator [op] (["/"] or ["%"]) — the one route for both the
    boxed operators below and the interpreter's unboxed ones. *)

val zero : t
val of_bool : bool -> t
val to_int : t -> int
(** @raise Type_error on a float (indices must be integers). *)

val truthy : t -> bool
val unop : Fs_ir.Ast.unop -> t -> t
val binop : Fs_ir.Ast.binop -> t -> t -> t
(** Lock words are plain ints, so every operator accepts every value
    except as noted.
    @raise Type_error on [Mod] with a float operand
    @raise Runtime_error on a zero divisor of [Div] (int or float) or of
      an int [Mod] *)

val pp : Format.formatter -> t -> unit
val equal : t -> t -> bool
