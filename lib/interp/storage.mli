(** Whole-program storage-class inference for the interpreter.

    ParC values are dynamically typed ({!Value.t}), but almost every
    program location only ever holds an int.  This pass proves which ones,
    so the interpreter can keep them unboxed.  It is a flow-insensitive
    fixpoint over the whole program that gives every private slot (per
    function and name), every global and every function result one of two
    classes:

    - [I]: only ever holds an int;
    - [V]: may hold a float.

    The rules: int literals, [Pdv], [Nprocs], [for] variables,
    comparisons, [&&]/[||]/[!] and lock words are [I]; arithmetic,
    [min]/[max] and negation are [I] only when their operands are;
    [Float_lit] is [V].  A store joins the global's class with the stored
    expression's; a parameter joins over the arguments of every call and
    spawn site; a call-result slot joins over the callee's returns.
    Everything starts at [I] and only ever moves to [V], so the fixpoint
    terminates.  A global's class covers all of its cells. *)

type cls = I | V

type t

val infer : Fs_ir.Ast.program -> t
(** The program must be valid ({!Fs_ir.Validate.check}). *)

val global : t -> string -> cls
val private_ : t -> fname:string -> string -> cls
val result : t -> string -> cls
