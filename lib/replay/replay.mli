(** Mapping layout-free cell traces to concrete address streams.

    The interpreter decides {e what} is accessed in {e which} order; a
    layout decides {e where} each cell lives.  This module is the second
    half of that split: it routes a recorded {!Fs_trace.Cell_trace}
    through a layout's address oracle — the one place cells become byte
    addresses, including the pointer-load reads an indirection layout
    interposes, which exist only at replay time.

    Every consumer reads the packed event stream.  The cache simulations
    run the fused loop ({!simulate}, {!simulate_epochs},
    {!simulate_stream}); the KSR2 model and the timeline export take the
    unfused walk ({!walk}, {!replay}), which delivers one event at a
    time.

    Replay is deterministic and order-preserving: one recorded trace
    replayed under two layouts yields two address streams over the same
    schedule, which is what makes false-sharing comparisons across
    layouts meaningful (the paper's simulator "only observes the address
    stream"). *)

val vars_of : Fs_ir.Ast.program -> string array
(** Variable ids in declaration order — the id space of the interpreter's
    cell events and of recorded traces. *)

val walk :
  Fs_trace.Cell_trace.t ->
  layout:Fs_layout.Layout.t ->
  access:(proc:int -> write:bool -> addr:int -> unit) ->
  other:(int -> unit) ->
  unit
(** The unfused walk, event for event: each access is mapped through the
    layout's address oracle and delivered to [access] — an indirection layout's pointer
    load first, as a read — and every other event reaches [other] still
    packed (read it with {!Fs_trace.Cell_event}'s [packed_*]
    extractors).  Allocation-free. *)

val replay :
  Fs_trace.Cell_trace.t ->
  layout:Fs_layout.Layout.t ->
  listener:Fs_trace.Listener.t ->
  unit
(** {!walk} with every event decoded onto the listener's hooks: lock
    events carry their lock word's address; steals, which have none,
    are dropped.  The reference path the fused loop is tested against. *)

val replay_to_sink :
  Fs_trace.Cell_trace.t ->
  layout:Fs_layout.Layout.t ->
  sink:Fs_trace.Sink.t ->
  unit
(** The accesses of {!walk} alone. *)

val simulate :
  ?flight:Flight.t ->
  Fs_trace.Cell_trace.t ->
  layout:Fs_layout.Layout.t ->
  cache:Fs_cache.Mpcache.t ->
  unit
(** The fused simulator hot path: iterate the packed event stream
    directly, decode each access inline, map it through the oracle's flat
    arrays, and feed {!Fs_cache.Mpcache.touch} — no per-event variant
    allocation and no closure call.  Produces the same counts —
    and, on a cache created with tracking flags, the same per-block,
    line and invalidation-pair tables — as
    [replay_to_sink _ ~sink:(Mpcache.sink cache)], the reference path;
    every consumer that needs only the cache runs here.

    Passing [?flight] walks the same loop in [Flight.interval]-event
    chunks and deposits one allocation-free sample into the {!Flight}
    ring between chunks (live cumulative counts, wall offset, block of
    the most recent access).  Cache counts are identical with or without
    a recorder, and without one no sampling code runs at all. *)

val simulate_epochs :
  Fs_trace.Cell_trace.t ->
  layout:Fs_layout.Layout.t ->
  cache:Fs_cache.Mpcache.t ->
  epoch:(lo:int -> hi:int -> unit) ->
  unit
(** {!simulate} cut at every [Barrier_release]: after the fused loop
    retires the events [lo, hi) of an epoch, [epoch ~lo ~hi] runs, with
    the cache's counters as of the epoch's end.  The events after the
    last release form the final epoch, so a trace with [k] releases
    makes [k + 1] calls.  Indices are into
    {!Fs_trace.Cell_trace.unsafe_data}. *)

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
