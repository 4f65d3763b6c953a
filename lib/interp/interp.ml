module Ast = Fs_ir.Ast
module Cells = Fs_ir.Cells
module Cell_event = Fs_trace.Cell_event
module Cell_trace = Fs_trace.Cell_trace
module Sched = Fs_sched.Sched
module Rng = Fs_util.Rng

exception Runtime_error = Value.Runtime_error
exception Deadlock of string
exception Nontermination of string

type result = {
  work : int array;
  accesses : int array;
  barrier_episodes : int;
  store : (string, Value.t array) Hashtbl.t;
  sched : Sched.stats option;
}

(* ------------------------------------------------------------------ *)
(* Effects through which processes yield to the scheduler.  Locks are
   identified by their abstract location (var id, cell id): layouts give
   distinct cells distinct addresses, so this names exactly the same
   locks the address did, without consulting any layout.                *)

type _ Effect.t += Yield : unit Effect.t
type _ Effect.t += Barrier_wait : unit Effect.t
type _ Effect.t += Lock_acq : (int * int) -> unit Effect.t
type _ Effect.t += Lock_rel : (int * int) -> unit Effect.t

(* A [return] unwinds to its activation with one of these constant
   exceptions; a returned value travels in the context's result
   registers ([ret_int] or [ret_val], by the function's result class).
   Nothing can run between the raise and the caller's read of the
   register, so one register pair serves every process. *)
exception Return_value
exception Return_void

(* ------------------------------------------------------------------ *)
(* Run context and per-process environments.                           *)

(* A global's cells live unboxed in [ints] when its storage class is
   [I]; otherwise boxed in [vals].  The other array is empty. *)
type ginfo = {
  gty : Ast.ty;
  vid : int;                  (* variable id: index in declaration order *)
  boxed : bool;               (* storage class V *)
  ints : int array;
  vals : Value.t array;
}

(* One activation frame per function invocation (entry, call, or task).
   [sync] joins the frame's own spawned children — except in the entry
   activation, where it waits for global quiescence so that processes
   which spawned nothing still steal. *)
type frame = { mutable fpending : int; fentry : bool }

(* A function's private slots, split by storage class. *)
type env = { proc : int; ints : int array; vals : Value.t array; frame : frame }

(* [true] when the activation returned a value (in the result register
   of the function's class). *)
type compiled_fun = env -> bool

type task = {
  t_id : int;
  t_cf : compiled_fun ref;
  t_args : env;               (* the callee's slots, arguments filled in *)
  t_frame : frame;            (* spawning activation, for the join count *)
}

(* Shadow state of the per-process Chase–Lev-style deques.  Every state
   transition is plain OCaml and therefore atomic with respect to the
   coroutine scheduler; the matching cell traffic on the scheduler's
   ParC globals is emitted afterwards (emitting can yield). *)
type sched_state = {
  s_cap : int;                     (* slots per process *)
  s_deque : task option array array;
  s_top : int array;               (* unbounded; slot = idx mod cap *)
  s_bot : int array;
  s_fails : int array;             (* consecutive failed random probes *)
  s_rngs : Rng.t array;            (* per-process victim stream *)
  s_g_top : ginfo;
  s_g_bot : ginfo;
  s_g_deq : ginfo;
  mutable s_outstanding : int;     (* queued tasks not yet completed *)
  mutable s_tasks_n : int;
  mutable s_steals : int;
  mutable s_attempts : int;
  mutable s_inline : int;
  mutable s_next_id : int;
}

type ctx = {
  prog : Ast.program;
  nprocs : int;
  quantum : int;
  max_steps : int;
  sink : int -> unit;         (* packed Cell_event stream *)
  ginfos : (string, ginfo) Hashtbl.t;
  sched : sched_state option;
  work : int array;           (* monotone work units per proc *)
  ymark : int array;          (* [work] at the proc's last scheduling point *)
  fmark : int array;          (* [work] already reported in Work events *)
  accesses : int array;
  mutable total : int;
  mutable barrier_episodes : int;
  mutable ret_int : int;
  mutable ret_val : Value.t;
}

let err fmt = Format.kasprintf (fun s -> raise (Runtime_error s)) fmt

let flush_work ctx proc =
  let w = ctx.work.(proc) in
  let amount = w - ctx.fmark.(proc) in
  if amount > 0 then begin
    ctx.fmark.(proc) <- w;
    ctx.sink (Cell_event.pack_work ~proc ~amount)
  end

let tick ctx proc w =
  let total = ctx.total + w in
  ctx.total <- total;
  if total > ctx.max_steps then
    raise (Nontermination (Printf.sprintf "exceeded %d work units" ctx.max_steps));
  let wp = ctx.work.(proc) + w in
  ctx.work.(proc) <- wp;
  if wp - ctx.ymark.(proc) >= ctx.quantum then begin
    ctx.ymark.(proc) <- wp;
    Effect.perform Yield
  end

let access_cost = 3

let emit ctx g ~write ~proc cell =
  flush_work ctx proc;
  ctx.accesses.(proc) <- ctx.accesses.(proc) + 1;
  ctx.sink (Cell_event.pack_access ~write ~proc ~var:g.vid ~cell);
  tick ctx proc access_cost

(* runtime-generated ints (lock words, deque indices) fit either class *)
let set_int g cell n = if g.boxed then g.vals.(cell) <- Value.Vint n else g.ints.(cell) <- n

(* ------------------------------------------------------------------ *)
(* The work-stealing task runtime behind [spawn]/[sync].

   Help-first child stealing: the spawner pushes the child at the bottom
   of its own deque and continues; idle processes pop their own bottom
   (LIFO) or steal from a victim's top (FIFO).  Victims come from a
   per-thief split PRNG stream seeded by the run's scheduler config, so
   the whole execution is a pure function of (program, nprocs, seed).
   After [nprocs - 1] consecutive failed random probes the thief sweeps
   every victim deterministically, so progress never depends on luck.

   The deque indices and slots are ParC globals ([Sched.top_var] etc.):
   each operation below emits the cell traffic a real Chase–Lev deque
   would generate, which is how the scheduler's own false sharing enters
   the trace. *)

let new_frame fentry = { fpending = 0; fentry }

let[@inline] deq_cell s p idx = (p * s.s_cap) + (idx mod s.s_cap)

let run_task s env (t : task) =
  ignore (!(t.t_cf) { t.t_args with proc = env.proc; frame = new_frame false });
  t.t_frame.fpending <- t.t_frame.fpending - 1;
  s.s_outstanding <- s.s_outstanding - 1

let spawn_task ctx s env (cf : compiled_fun ref) args =
  let p = env.proc in
  s.s_tasks_n <- s.s_tasks_n + 1;
  if s.s_bot.(p) - s.s_top.(p) >= s.s_cap then begin
    (* deque full: run in place — the fullness probe still reads top *)
    s.s_inline <- s.s_inline + 1;
    emit ctx s.s_g_top ~write:false ~proc:p p;
    ignore (!cf { args with frame = new_frame false })
  end
  else begin
    let id = s.s_next_id in
    s.s_next_id <- id + 1;
    let b = s.s_bot.(p) in
    s.s_deque.(p).(b mod s.s_cap) <-
      Some { t_id = id; t_cf = cf; t_args = args; t_frame = env.frame };
    s.s_bot.(p) <- b + 1;
    env.frame.fpending <- env.frame.fpending + 1;
    s.s_outstanding <- s.s_outstanding + 1;
    (* push: fullness check reads top, then the slot and bottom writes *)
    emit ctx s.s_g_top ~write:false ~proc:p p;
    let cell = deq_cell s p b in
    set_int s.s_g_deq cell id;
    emit ctx s.s_g_deq ~write:true ~proc:p cell;
    set_int s.s_g_bot p (b + 1);
    emit ctx s.s_g_bot ~write:true ~proc:p p
  end

let pop_own ctx s p =
  if s.s_bot.(p) - s.s_top.(p) <= 0 then None
  else begin
    let b = s.s_bot.(p) - 1 in
    s.s_bot.(p) <- b;
    let t = s.s_deque.(p).(b mod s.s_cap) in
    s.s_deque.(p).(b mod s.s_cap) <- None;
    (* owner pop: bottom write, top race check, slot read *)
    set_int s.s_g_bot p b;
    emit ctx s.s_g_bot ~write:true ~proc:p p;
    emit ctx s.s_g_top ~write:false ~proc:p p;
    emit ctx s.s_g_deq ~write:false ~proc:p (deq_cell s p b);
    t
  end

let steal_from ctx s ~thief ~victim =
  s.s_attempts <- s.s_attempts + 1;
  if s.s_bot.(victim) - s.s_top.(victim) <= 0 then begin
    (* failed probe: the thief still reads both ends of the victim's deque *)
    emit ctx s.s_g_top ~write:false ~proc:thief victim;
    emit ctx s.s_g_bot ~write:false ~proc:thief victim;
    None
  end
  else begin
    let tp = s.s_top.(victim) in
    let t = s.s_deque.(victim).(tp mod s.s_cap) in
    s.s_deque.(victim).(tp mod s.s_cap) <- None;
    s.s_top.(victim) <- tp + 1;
    emit ctx s.s_g_top ~write:false ~proc:thief victim;
    emit ctx s.s_g_bot ~write:false ~proc:thief victim;
    emit ctx s.s_g_deq ~write:false ~proc:thief (deq_cell s victim tp);
    set_int s.s_g_top victim (tp + 1);
    emit ctx s.s_g_top ~write:true ~proc:thief victim;
    (match t with
     | Some t ->
       s.s_steals <- s.s_steals + 1;
       flush_work ctx thief;
       ctx.sink (Cell_event.pack (Steal { thief; victim; task = t.t_id }))
     | None -> ());
    t
  end

let try_steal ctx s p =
  let n = ctx.nprocs in
  if n <= 1 then None
  else
    let v = (p + 1 + Rng.int s.s_rngs.(p) (n - 1)) mod n in
    match steal_from ctx s ~thief:p ~victim:v with
    | Some _ as r ->
      s.s_fails.(p) <- 0;
      r
    | None ->
      s.s_fails.(p) <- s.s_fails.(p) + 1;
      if s.s_fails.(p) < n - 1 then None
      else begin
        s.s_fails.(p) <- 0;
        let rec sweep k =
          if k >= n then None
          else
            match steal_from ctx s ~thief:p ~victim:((p + k) mod n) with
            | Some _ as r -> r
            | None -> sweep (k + 1)
        in
        sweep 1
      end

let rec sched_sync ctx s env =
  let done_ () =
    if env.frame.fentry then s.s_outstanding = 0 else env.frame.fpending <= 0
  in
  if not (done_ ()) then begin
    (match pop_own ctx s env.proc with
     | Some t -> run_task s env t
     | None -> (
       match try_steal ctx s env.proc with
       | Some t -> run_task s env t
       | None ->
         (* nothing visible to run: burn a unit and let the others go *)
         tick ctx env.proc 1;
         ctx.ymark.(env.proc) <- ctx.work.(env.proc);
         Effect.perform Yield));
    sched_sync ctx s env
  end

(* ------------------------------------------------------------------ *)
(* Compilation of the AST to closures.

   Every expression compiles by its storage class ({!Storage}): [CI] to
   an unboxed [env -> int], [CV] to a boxed [env -> Value.t] with the
   dynamic semantics of {!Value}.  Each case below mirrors one of
   Storage's rules, so an [I] slot or global only ever receives a [CI].

   Evaluation order is part of the trace contract: binary operands
   evaluate right to left (the order [Value.binop op (c1 env) (c2 env)]
   has under ocamlopt), [&&]/[||] left to right with short circuit, call
   arguments left to right. *)

type cexpr = CI of (env -> int) | CV of (env -> Value.t)

let boxed = function CI f -> fun env -> Value.Vint (f env) | CV f -> f

let unboxed = function CI f -> f | CV f -> fun env -> Value.to_int (f env)

let truth = function
  | CI f -> fun env -> f env <> 0
  | CV f -> fun env -> Value.truthy (f env)

let int_binop (op : Ast.binop) a b =
  match op with
  | Add -> fun env -> let y = b env in a env + y
  | Sub -> fun env -> let y = b env in a env - y
  | Mul -> fun env -> let y = b env in a env * y
  | Div ->
    fun env ->
      let y = b env in
      let x = a env in
      if y = 0 then Value.zero_divisor "/" else x / y
  | Mod ->
    fun env ->
      let y = b env in
      let x = a env in
      if y = 0 then Value.zero_divisor "%" else x mod y
  | Eq -> fun env -> let y = b env in if a env = y then 1 else 0
  | Ne -> fun env -> let y = b env in if a env <> y then 1 else 0
  | Lt -> fun env -> let y = b env in if a env < y then 1 else 0
  | Le -> fun env -> let y = b env in if a env <= y then 1 else 0
  | Gt -> fun env -> let y = b env in if a env > y then 1 else 0
  | Ge -> fun env -> let y = b env in if a env >= y then 1 else 0
  | Min -> fun env -> let y = b env in let x = a env in if x <= y then x else y
  | Max -> fun env -> let y = b env in let x = a env in if x >= y then x else y
  | And | Or -> assert false (* short-circuit; compiled separately *)

(* Private variables of a function are slot-allocated, flow-insensitively:
   one slot per distinct name among parameters, [Decl]s, [For] variables
   and call-return targets, numbered within its storage class. *)
type slots = {
  table : (string, Storage.cls * int) Hashtbl.t;
  nints : int;
  nvals : int;
  params : (Storage.cls * int) array;
  result : Storage.cls;
}

let slot_table classes (f : Ast.func) =
  let table = Hashtbl.create 16 in
  let nints = ref 0 and nvals = ref 0 in
  let add n =
    if not (Hashtbl.mem table n) then begin
      let cls = Storage.private_ classes ~fname:f.fname n in
      let counter = match cls with I -> nints | V -> nvals in
      Hashtbl.add table n (cls, !counter);
      incr counter
    end
  in
  List.iter add f.params;
  Ast.iter_stmts
    (fun s ->
      match s with
      | Ast.Decl (n, _) | Ast.For (n, _, _, _) | Ast.Call { ret = Some n; _ } -> add n
      | _ -> ())
    f.body;
  {
    table;
    nints = !nints;
    nvals = !nvals;
    params = Array.of_list (List.map (Hashtbl.find table) f.params);
    result = Storage.result classes f.fname;
  }

let compile ctx classes =
  let prog = ctx.prog in
  let funs : (string, compiled_fun ref * slots) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (f : Ast.func) ->
      Hashtbl.add funs f.fname
        (ref (fun _ -> err "function %s not yet compiled" f.fname), slot_table classes f))
    prog.funcs;
  let callee_of what callee =
    match Hashtbl.find_opt funs callee with
    | Some r -> r
    | None -> err "%s unknown function %s" what callee
  in
  let ginfo name =
    match Hashtbl.find_opt ctx.ginfos name with
    | Some g -> g
    | None -> err "unknown global %s" name
  in
  let compile_func (f : Ast.func) (sl : slots) =
    let slot n =
      match Hashtbl.find_opt sl.table n with
      | Some s -> s
      | None -> err "undeclared private %s in %s" n f.fname
    in
    (* Storage's joins rule this out: a [CV] never meets an [I] location *)
    let float_into what = err "storage class: float %s in %s" what f.fname in
    let rec compile_expr (e : Ast.expr) : cexpr =
      match e with
      | Int_lit n -> CI (fun _ -> n)
      | Float_lit x ->
        let v = Value.Vfloat x in
        CV (fun _ -> v)
      | Pdv -> CI (fun env -> env.proc)
      | Nprocs ->
        let n = ctx.nprocs in
        CI (fun _ -> n)
      | Priv n -> (
        match slot n with
        | I, s -> CI (fun env -> env.ints.(s))
        | V, s -> CV (fun env -> env.vals.(s)))
      | Load lv ->
        let g, cellf = compile_lvalue lv in
        if g.boxed then
          CV
            (fun env ->
              let cell = cellf env in
              emit ctx g ~write:false ~proc:env.proc cell;
              g.vals.(cell))
        else
          CI
            (fun env ->
              let cell = cellf env in
              emit ctx g ~write:false ~proc:env.proc cell;
              g.ints.(cell))
      | Unop (Neg, e) -> (
        match compile_expr e with
        | CI f -> CI (fun env -> -f env)
        | CV f -> CV (fun env -> Value.unop Neg (f env)))
      | Unop (Not, e) ->
        let t = truth (compile_expr e) in
        CI (fun env -> if t env then 0 else 1)
      | Binop (And, e1, e2) ->
        let t1 = truth (compile_expr e1) and t2 = truth (compile_expr e2) in
        CI (fun env -> if t1 env && t2 env then 1 else 0)
      | Binop (Or, e1, e2) ->
        let t1 = truth (compile_expr e1) and t2 = truth (compile_expr e2) in
        CI (fun env -> if t1 env || t2 env then 1 else 0)
      | Binop (op, e1, e2) -> (
        match (compile_expr e1, compile_expr e2) with
        | CI a, CI b -> CI (int_binop op a b)
        | c1, c2 -> (
          let a = boxed c1 and b = boxed c2 in
          match op with
          | Eq | Ne | Lt | Le | Gt | Ge ->
            CI
              (fun env ->
                let y = b env in
                Value.to_int (Value.binop op (a env) y))
          | _ ->
            CV
              (fun env ->
                let y = b env in
                Value.binop op (a env) y)))

    (* An lvalue compiles to its global's info plus a cell-id computation:
       constant field offsets are folded at compile time; each index
       contributes eval * stride with a bounds check. *)
    and compile_lvalue (lv : Ast.lvalue) : ginfo * (env -> int) =
      let g = ginfo lv.base in
      let rec walk ty path const parts =
        match (ty, path) with
        | _, [] -> (const, List.rev parts)
        | Ast.Array (elt, n), Ast.Idx e :: rest ->
          let ce = unboxed (compile_expr e) in
          let stride = Cells.count prog elt in
          walk elt rest const ((ce, stride, n) :: parts)
        | Ast.Struct sname, Ast.Fld fld :: rest ->
          let sdef = Ast.find_struct prog sname in
          let fty =
            match List.assoc_opt fld sdef.fields with
            | Some t -> t
            | None -> err "struct %s has no field %s" sname fld
          in
          walk fty rest (const + Cells.field_offset prog sdef fld) parts
        | _ -> err "ill-shaped access path on %s" lv.base
      in
      let const, parts = walk g.gty lv.path 0 [] in
      let check i n =
        if i < 0 || i >= n then
          err "index %d out of bounds [0,%d) on %s" i n lv.base
      in
      let cellf =
        match parts with
        | [] -> fun _ -> const
        | [ (ce, stride, n) ] ->
          fun env ->
            let i = ce env in
            check i n;
            const + (i * stride)
        | parts ->
          let parts = Array.of_list parts in
          fun env ->
            let cell = ref const in
            for k = 0 to Array.length parts - 1 do
              let ce, stride, n = parts.(k) in
              let i = ce env in
              check i n;
              cell := !cell + (i * stride)
            done;
            !cell
      in
      (g, cellf)
    in
    (* [slot <- e]: an [I] slot only ever receives a [CI] (Storage's join) *)
    let set_slot (cls, s) (ce : cexpr) : env -> unit =
      match (cls : Storage.cls), ce with
      | I, CI f -> fun env -> env.ints.(s) <- f env
      | I, CV _ -> float_into "assigned to an int slot"
      | V, ce ->
        let f = boxed ce in
        fun env -> env.vals.(s) <- f env
    in
    (* evaluate call/spawn arguments left to right into the callee's
       environment, its slot arrays sized to the callee's classes *)
    let compile_args (callee : slots) args =
      let setters =
        Array.of_list
          (List.mapi
             (fun k a ->
               match (callee.params.(k), compile_expr a) with
               | (I, s), CI f -> fun env ints _ -> ints.(s) <- f env
               | (I, _), CV _ -> float_into "passed to an int parameter"
               | (V, s), ce ->
                 let f = boxed ce in
                 fun env _ vals -> vals.(s) <- f env)
             args)
      in
      let nints = callee.nints and nvals = callee.nvals in
      fun env frame ->
        let ints = Array.make nints 0 and vals = Array.make nvals Value.zero in
        for k = 0 to Array.length setters - 1 do
          setters.(k) env ints vals
        done;
        { proc = env.proc; ints; vals; frame }
    in
    let rec compile_stmt (s : Ast.stmt) : env -> unit =
      match s with
      | Store (lv, e) -> (
        let g, cellf = compile_lvalue lv in
        match (g.boxed, compile_expr e) with
        | false, CI ce ->
          fun env ->
            tick ctx env.proc 1;
            let cell = cellf env in
            let v = ce env in
            emit ctx g ~write:true ~proc:env.proc cell;
            g.ints.(cell) <- v
        | false, CV _ -> float_into ("stored into int global " ^ lv.base)
        | true, ce ->
          let ce = boxed ce in
          fun env ->
            tick ctx env.proc 1;
            let cell = cellf env in
            let v = ce env in
            emit ctx g ~write:true ~proc:env.proc cell;
            g.vals.(cell) <- v)
      | Set (n, e) | Decl (n, e) ->
        let set = set_slot (slot n) (compile_expr e) in
        fun env ->
          tick ctx env.proc 1;
          set env
      | If (c, b1, b2) ->
        let cc = truth (compile_expr c) in
        let cb1 = compile_block b1 and cb2 = compile_block b2 in
        fun env ->
          tick ctx env.proc 1;
          if cc env then cb1 env else cb2 env
      | While (c, b) ->
        let cc = truth (compile_expr c) in
        let cb = compile_block b in
        fun env ->
          tick ctx env.proc 1;
          while cc env do
            cb env;
            tick ctx env.proc 1
          done
      | For (n, lo, hi, b) -> (
        let clo = unboxed (compile_expr lo) and chi = unboxed (compile_expr hi) in
        let cb = compile_block b in
        match slot n with
        | I, s ->
          fun env ->
            tick ctx env.proc 1;
            let i = ref (clo env) in
            while !i < chi env do
              env.ints.(s) <- !i;
              cb env;
              tick ctx env.proc 1;
              incr i
            done
        | V, s ->
          fun env ->
            tick ctx env.proc 1;
            let i = ref (clo env) in
            while !i < chi env do
              env.vals.(s) <- Value.Vint !i;
              cb env;
              tick ctx env.proc 1;
              incr i
            done)
      | Call { ret; callee; args } ->
        let cf, csl = callee_of "call to" callee in
        let cargs = compile_args csl args in
        let no_value () = err "function %s returned no value" callee in
        let store_result : env -> bool -> unit =
          match (Option.map slot ret, csl.result) with
          | None, _ -> fun _ _ -> ()
          | Some (I, s), I ->
            fun env returned -> if returned then env.ints.(s) <- ctx.ret_int else no_value ()
          | Some (I, _), V -> float_into "result assigned to an int slot"
          | Some (V, s), I ->
            fun env returned ->
              if returned then env.vals.(s) <- Value.Vint ctx.ret_int else no_value ()
          | Some (V, s), V ->
            fun env returned -> if returned then env.vals.(s) <- ctx.ret_val else no_value ()
        in
        fun env ->
          tick ctx env.proc 1;
          let frame =
            (* frames only matter to the task runtime; without it, reusing
               the caller's frame saves an allocation per call *)
            match ctx.sched with None -> env.frame | Some _ -> new_frame false
          in
          store_result env (!cf (cargs env frame))
      | Spawn { callee; args } ->
        let cf, csl = callee_of "spawn of" callee in
        let cargs = compile_args csl args in
        fun env ->
          tick ctx env.proc 1;
          (* the frame is replaced by whichever activation runs the task *)
          let args = cargs env env.frame in
          (match ctx.sched with
           | Some s -> spawn_task ctx s env cf args
           | None -> err "spawn executed without an active scheduler")
      | Sync ->
        fun env ->
          tick ctx env.proc 1;
          (match ctx.sched with
           | Some s -> sched_sync ctx s env
           | None -> err "sync executed without an active scheduler")
      | Return None ->
        fun env ->
          tick ctx env.proc 1;
          raise_notrace Return_void
      | Return (Some e) -> (
        match (sl.result, compile_expr e) with
        | I, CI ce ->
          fun env ->
            tick ctx env.proc 1;
            ctx.ret_int <- ce env;
            raise_notrace Return_value
        | I, CV _ -> float_into "returned from an int function"
        | V, ce ->
          let ce = boxed ce in
          fun env ->
            tick ctx env.proc 1;
            ctx.ret_val <- ce env;
            raise_notrace Return_value)
      | Barrier ->
        fun env ->
          tick ctx env.proc 1;
          flush_work ctx env.proc;
          ctx.sink (Cell_event.pack (Barrier_arrive { proc = env.proc }));
          Effect.perform Barrier_wait
      | Lock lv ->
        let g, cellf = compile_lvalue lv in
        fun env ->
          tick ctx env.proc 1;
          let cell = cellf env in
          (* the probe read of test-and-test-and-set *)
          emit ctx g ~write:false ~proc:env.proc cell;
          Effect.perform (Lock_acq (g.vid, cell));
          (* granted: the re-read after invalidation and the acquiring write *)
          emit ctx g ~write:false ~proc:env.proc cell;
          emit ctx g ~write:true ~proc:env.proc cell;
          set_int g cell 1
      | Unlock lv ->
        let g, cellf = compile_lvalue lv in
        fun env ->
          tick ctx env.proc 1;
          let cell = cellf env in
          emit ctx g ~write:true ~proc:env.proc cell;
          set_int g cell 0;
          Effect.perform (Lock_rel (g.vid, cell))
    and compile_block (b : Ast.block) : env -> unit =
      match Array.of_list (List.map compile_stmt b) with
      | [||] -> fun _ -> ()
      | [| s |] -> s
      | stmts ->
        fun env ->
          for k = 0 to Array.length stmts - 1 do
            stmts.(k) env
          done
    in
    let cbody = compile_block f.body in
    fun (env : env) ->
      match cbody env with
      | () -> false
      | exception Return_value -> true
      | exception Return_void -> false
  in
  List.iter
    (fun (f : Ast.func) ->
      let cf, sl = Hashtbl.find funs f.fname in
      cf := compile_func f sl)
    prog.funcs;
  funs

(* ------------------------------------------------------------------ *)
(* The scheduler.                                                      *)

type pstate =
  | Not_started
  | Ready of (unit, unit) Effect.Deep.continuation
  | Running
  | At_barrier of (unit, unit) Effect.Deep.continuation
  | Waiting_lock
  | Finished

type lockinfo = {
  mutable owner : int;  (* -1 = free *)
  waiters : (int * (unit, unit) Effect.Deep.continuation) Queue.t;
}

let check_nprocs nprocs =
  if nprocs < 1 || nprocs > Cell_event.max_proc + 1 then
    invalid_arg
      (Printf.sprintf "Interp: nprocs %d out of range [1,%d]" nprocs
         (Cell_event.max_proc + 1))

let run_packed ?(quantum = 12) ?(max_steps = 400_000_000) ?sched prog ~nprocs
    ~sink =
  check_nprocs nprocs;
  (match Fs_ir.Validate.check prog with
   | Ok () -> ()
   | Error errs -> raise (Fs_ir.Validate.Invalid_program errs));
  let classes = Storage.infer prog in
  let ginfos = Hashtbl.create 16 in
  List.iteri
    (fun vid (name, gty) ->
      let n = Cells.count prog gty in
      let boxed = Storage.global classes name = V in
      Hashtbl.add ginfos name
        {
          gty;
          vid;
          boxed;
          ints = (if boxed then [||] else Array.make n 0);
          vals = (if boxed then Array.make n Value.zero else [||]);
        })
    prog.Ast.globals;
  let sched_state =
    let uses = Sched.uses_tasks prog in
    match sched with
    | Some cfg when uses ->
      let cap =
        match Sched.deque_cap ~nprocs prog with
        | Some c -> c
        | None ->
          err
            "program uses spawn/sync but lacks the scheduler globals; \
             build it through Sched.instrument"
      in
      let gi name =
        match Hashtbl.find_opt ginfos name with
        | Some g -> g
        | None -> err "scheduler global %s missing" name
      in
      let master = Rng.create cfg.Sched.seed in
      Some
        {
          s_cap = cap;
          s_deque = Array.init nprocs (fun _ -> Array.make cap None);
          s_top = Array.make nprocs 0;
          s_bot = Array.make nprocs 0;
          s_fails = Array.make nprocs 0;
          s_rngs = Array.init nprocs (fun _ -> Rng.split master);
          s_g_top = gi Sched.top_var;
          s_g_bot = gi Sched.bot_var;
          s_g_deq = gi Sched.deq_var;
          s_outstanding = 0;
          s_tasks_n = 0;
          s_steals = 0;
          s_attempts = 0;
          s_inline = 0;
          s_next_id = 0;
        }
    | _ ->
      if uses then
        raise
          (Runtime_error
             "program uses spawn/sync: a scheduler seed is required (pass \
              --sched-seed)");
      None
  in
  let ctx =
    {
      prog;
      nprocs;
      quantum;
      max_steps;
      sink;
      ginfos;
      sched = sched_state;
      work = Array.make nprocs 0;
      ymark = Array.make nprocs 0;
      fmark = Array.make nprocs 0;
      accesses = Array.make nprocs 0;
      total = 0;
      barrier_episodes = 0;
      ret_int = 0;
      ret_val = Value.zero;
    }
  in
  let funs = compile ctx classes in
  let entry, entry_slots =
    match Hashtbl.find_opt funs prog.entry with
    | Some (r, sl) -> (!r, sl)
    | None -> err "entry function %s not found" prog.entry
  in
  let states = Array.make nprocs Not_started in
  let locks : (int * int, lockinfo) Hashtbl.t = Hashtbl.create 16 in
  let lockinfo key =
    match Hashtbl.find_opt locks key with
    | Some l -> l
    | None ->
      let l = { owner = -1; waiters = Queue.create () } in
      Hashtbl.add locks key l;
      l
  in
  let alive_count () =
    Array.fold_left
      (fun acc s -> match s with Finished -> acc | _ -> acc + 1)
      0 states
  in
  let barrier_count () =
    Array.fold_left
      (fun acc s -> match s with At_barrier _ -> acc + 1 | _ -> acc)
      0 states
  in
  let release_packed = Cell_event.pack Barrier_release in
  let release_barrier_if_complete () =
    let n_at = barrier_count () in
    if n_at > 0 && n_at = alive_count () then begin
      ctx.barrier_episodes <- ctx.barrier_episodes + 1;
      ctx.sink release_packed;
      Array.iteri
        (fun i s ->
          match s with At_barrier k -> states.(i) <- Ready k | _ -> ())
        states
    end
  in
  let run_proc proc =
    let body () =
      let env =
        {
          proc;
          ints = Array.make entry_slots.nints 0;
          vals = Array.make entry_slots.nvals Value.zero;
          frame = new_frame true;
        }
      in
      ignore (entry env);
      flush_work ctx proc
    in
    (* built once: a process yields every [quantum] work units *)
    let on_yield =
      Some (fun (k : (unit, unit) Effect.Deep.continuation) -> states.(proc) <- Ready k)
    in
    Effect.Deep.match_with body ()
      {
        retc = (fun () -> states.(proc) <- Finished);
        exnc = (fun e -> raise e);
        effc =
          (fun (type a) (eff : a Effect.t) :
               ((a, unit) Effect.Deep.continuation -> unit) option ->
            match eff with
            | Yield -> on_yield
            | Barrier_wait ->
              Some
                (fun (k : (a, _) Effect.Deep.continuation) ->
                  states.(proc) <- At_barrier k;
                  release_barrier_if_complete ())
            | Lock_acq ((var, cell) as key) ->
              Some
                (fun (k : (a, _) Effect.Deep.continuation) ->
                  let l = lockinfo key in
                  if l.owner < 0 then begin
                    l.owner <- proc;
                    ctx.sink (Cell_event.pack (Lock_grant { proc; var; cell; from = -1 }));
                    Effect.Deep.continue k ()
                  end
                  else begin
                    flush_work ctx proc;
                    ctx.sink (Cell_event.pack (Lock_wait { proc; var; cell }));
                    Queue.add (proc, k) l.waiters;
                    states.(proc) <- Waiting_lock
                  end)
            | Lock_rel ((var, cell) as key) ->
              Some
                (fun (k : (a, _) Effect.Deep.continuation) ->
                  let l = lockinfo key in
                  if l.owner <> proc then
                    err "P%d unlocks lock v%d[%d] held by %d" proc var cell l.owner;
                  (match Queue.take_opt l.waiters with
                   | None -> l.owner <- -1
                   | Some (waiter, wk) ->
                     l.owner <- waiter;
                     ctx.sink
                       (Cell_event.pack
                          (Lock_grant { proc = waiter; var; cell; from = proc }));
                     states.(waiter) <- Ready wk);
                  Effect.Deep.continue k ())
            | _ -> None);
      }
  in
  (* Round-robin over ready processes; deterministic. *)
  let next = ref 0 in
  let find_ready () =
    (* -1 when nothing is ready; runs at every scheduling point, so it
       allocates nothing *)
    let found = ref (-1) and tried = ref 0 in
    while !found < 0 && !tried < nprocs do
      let p = (!next + !tried) mod nprocs in
      (match states.(p) with
       | Not_started | Ready _ -> found := p
       | Running | At_barrier _ | Waiting_lock | Finished -> ());
      incr tried
    done;
    !found
  in
  let rec loop () =
    match find_ready () with
    | -1 ->
      if alive_count () = 0 then ()
      else begin
        let held =
          Hashtbl.fold
            (fun (var, cell) l acc ->
              if l.owner >= 0 then
                Printf.sprintf "lock v%d[%d] held by P%d" var cell l.owner :: acc
              else acc)
            locks []
        in
        raise
          (Deadlock
             (Printf.sprintf "%d processes blocked (%d at barrier)%s"
                (alive_count ()) (barrier_count ())
                (match held with [] -> "" | l -> "; " ^ String.concat ", " l)))
      end
    | p ->
      next := (p + 1) mod nprocs;
      (match states.(p) with
       | Not_started ->
         states.(p) <- Running;
         run_proc p
       | Ready k ->
         states.(p) <- Running;
         Effect.Deep.continue k ()
       | _ -> assert false);
      loop ()
  in
  loop ();
  let store = Hashtbl.create 16 in
  Hashtbl.iter
    (fun name g ->
      Hashtbl.add store name
        (if g.boxed then g.vals else Array.map (fun n -> Value.Vint n) g.ints))
    ginfos;
  {
    work = ctx.work;
    accesses = ctx.accesses;
    barrier_episodes = ctx.barrier_episodes;
    store;
    sched =
      Option.map
        (fun s ->
          {
            Sched.tasks = s.s_tasks_n;
            steals = s.s_steals;
            steal_attempts = s.s_attempts;
            inline_runs = s.s_inline;
          })
        sched_state;
  }

let record ?quantum ?max_steps ?sched prog ~nprocs =
  let trace =
    Cell_trace.create
      ~vars:(Array.of_list (List.map fst prog.Ast.globals))
      ~nprocs
  in
  let r =
    run_packed ?quantum ?max_steps ?sched prog ~nprocs ~sink:(fun packed ->
        Cell_trace.push trace packed)
  in
  (trace, r)

let read_global r name cell =
  match Hashtbl.find_opt r.store name with
  | None -> raise Not_found
  | Some values -> values.(cell)
