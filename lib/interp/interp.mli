(** The SPMD interpreter.

    Runs a ParC program with [nprocs] processes, each executing the entry
    function with [Pdv] bound to its process id, exactly as the fork model
    of Section 2 of the paper: processes are created together, run the same
    code, synchronize at barriers and locks, and share the global data.

    Processes are OCaml effect-handler coroutines scheduled round-robin
    with a small quantum measured in interpreter work units, so the emitted
    reference trace interleaves processor accesses at fine grain — the
    cross-processor interleaving false sharing depends on.  Scheduling is
    fully deterministic.

    Execution is {e layout-free}: the interpreter names every shared
    reference by its abstract location — (variable id, cell id) — and
    emits it as a packed {!Fs_trace.Cell_event} int through one
    [int -> unit] sink ({!run_packed}).  Locks are likewise identified by
    cell, so the schedule is a property of the program alone and one
    interpreted execution can be re-laid-out arbitrarily often.
    {!record} pushes the stream straight into a {!Fs_trace.Cell_trace},
    and every consumer replays that trace under a layout
    ([Fs_replay.Replay]), where cells become byte addresses and an
    indirection layout's pointer loads appear.  Spin
    waiting on a contended lock is modelled as test-and-test-and-set: the
    initial probe read, then silence while spinning on the locally cached
    copy, then the re-read and the acquiring write when the lock is
    handed over.

    {b Storage classes.}  Values are dynamically typed ({!Value.t}), but
    the program is compiled to closures after a whole-program
    storage-class inference ({!Storage}): every private slot, global and
    function result that provably only holds ints is class [I] and lives
    unboxed in an [int array]; the rest is class [V] and keeps the boxed
    {!Value} semantics exactly, so mixed int/float programs behave as
    they would if everything were boxed.  [Value.t] is built only at the
    API boundary ([result.store], {!read_global}).

    {b Evaluation order} is part of the trace contract, since a load is
    an event and an event may yield to another process: binary operands
    evaluate right to left; [&&]/[||] left to right, short-circuiting;
    call and spawn arguments left to right; a load emits its access
    before reading the cell; a store evaluates the cell, then the value,
    then emits, then writes.  Identical programs, [nprocs], [quantum] and
    scheduler seeds give bit-identical traces, counts and stores. *)

exception Runtime_error of string
(** The program's own dynamic errors; the same exception as
    {!Value.Runtime_error}. *)

exception Deadlock of string
exception Nontermination of string

type result = {
  work : int array;        (** interpreter work units per processor *)
  accesses : int array;    (** shared-memory references per processor *)
  barrier_episodes : int;  (** completed global barriers *)
  store : (string, Value.t array) Hashtbl.t;  (** final shared memory *)
  sched : Fs_sched.Sched.stats option;
      (** task-runtime counters; [Some] exactly when the program uses
          [spawn]/[sync] and a scheduler config was supplied *)
}

val run_packed :
  ?quantum:int ->
  ?max_steps:int ->
  ?sched:Fs_sched.Sched.config ->
  Fs_ir.Ast.program ->
  nprocs:int ->
  sink:(int -> unit) ->
  result
(** The layout-free core: one interpreted execution, every event passed
    to [sink] packed ({!Fs_trace.Cell_event.pack}), in program order.
    [Cell_trace.Writer.push w] makes a streaming recorder.

    [quantum] (default 12) is the number of work units a process
    executes between scheduling points; an access costs 3 units, other
    statements 1.  [max_steps] (default 400 million) bounds total work.

    [sched] seeds the deterministic work-stealing runtime executing any
    [spawn]/[sync] in the program (see {!Fs_sched.Sched}); running a
    task-parallel program without it is a [Runtime_error] — never a
    silent default, because the seed is part of the experiment's
    identity.  For programs without tasks, [sched] is ignored.

    @raise Invalid_argument before any event when [nprocs] is outside
      [1 .. Cell_event.max_proc + 1]
    @raise Runtime_error on dynamic errors (bad index, unlock of a lock
      not held, missing return value, a zero divisor of [/] or [%])
    @raise Value.Type_error on a float index or a float [mod] operand
    @raise Deadlock when no process can make progress
    @raise Nontermination when [max_steps] is exceeded *)

val record :
  ?quantum:int ->
  ?max_steps:int ->
  ?sched:Fs_sched.Sched.config ->
  Fs_ir.Ast.program ->
  nprocs:int ->
  Fs_trace.Cell_trace.t * result
(** Interpret once, capturing the full cell-event stream for later
    replay under any layout.  Identical [sched] seeds give bit-identical
    traces; steals appear as [Cell_event.Steal] alongside the deque cell
    traffic. *)

val read_global : result -> string -> int -> Value.t
(** [read_global r name cell] reads a cell of the final shared memory.
    @raise Not_found / Invalid_argument on bad names or cells. *)
