(** Mapping layout-free cell traces to concrete address streams.

    The interpreter decides {e what} is accessed in {e which} order; a
    layout decides {e where} each cell lives.  This module is the second
    half of that split: it routes a {!Fs_trace.Cell_trace} (or a live
    cell-event stream) through a layout's address oracle, producing
    exactly the address-level {!Fs_trace.Listener} stream the simulators
    consume — including the pointer-load reads an indirection layout
    interposes, which exist only at replay time.

    Replay is deterministic and order-preserving: one recorded trace
    replayed under two layouts yields two address streams over the same
    schedule, which is what makes false-sharing comparisons across
    layouts meaningful (the paper's simulator "only observes the address
    stream"). *)

val vars_of : Fs_ir.Ast.program -> string array
(** Variable ids in declaration order — the id space of the interpreter's
    cell events and of recorded traces. *)

type oracle

val oracle : Fs_layout.Layout.t -> vars:string array -> oracle
(** Resolve the per-variable address tables once.
    @raise Invalid_argument when the layout lacks one of [vars]. *)

val translating : oracle -> Fs_trace.Listener.t -> Fs_trace.Cell_listener.t
(** The translation itself, usable both online (the interpreter's direct
    path wires its cell stream straight into this) and offline (replay of
    a recorded trace). *)

val replay :
  Fs_trace.Cell_trace.t ->
  layout:Fs_layout.Layout.t ->
  listener:Fs_trace.Listener.t ->
  unit
(** Replay a recorded trace through a layout, event for event. *)

val replay_to_sink :
  Fs_trace.Cell_trace.t ->
  layout:Fs_layout.Layout.t ->
  sink:Fs_trace.Sink.t ->
  unit

val simulate :
  ?flight:Flight.t ->
  Fs_trace.Cell_trace.t ->
  layout:Fs_layout.Layout.t ->
  cache:Fs_cache.Mpcache.t ->
  unit
(** The fused simulator hot path: iterate the packed event stream
    directly, decode each access inline, map it through the oracle's flat
    arrays, and feed {!Fs_cache.Mpcache.touch} — no per-event variant
    allocation and no listener dispatch.  Produces the same counts —
    and, on a cache created with tracking flags, the same per-block,
    line and invalidation-pair tables — as
    [replay_to_sink _ ~sink:(Mpcache.sink cache)], the reference path;
    every consumer that needs only the cache runs here.

    Passing [?flight] walks the same loop in [Flight.interval]-event
    chunks and deposits one allocation-free sample into the {!Flight}
    ring between chunks (live cumulative counts, wall offset, block of
    the most recent access).  Cache counts are identical with or without
    a recorder, and without one no sampling code runs at all. *)

val simulate_stream :
  Fs_trace.Cell_trace.Stream.t ->
  layout:Fs_layout.Layout.t ->
  cache:Fs_cache.Mpcache.t ->
  unit
(** {!simulate} over an on-disk trace, one decoded block at a time: the
    counts are identical to replaying the in-memory trace, while the
    trace itself never materializes — peak heap stays at one block
    buffer.
    @raise Fs_trace.Cell_trace.Corrupt on a damaged block, and
    [Invalid_argument] on a closed stream. *)
