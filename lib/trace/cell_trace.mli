(** Recorded layout-free traces.

    A cell trace is the durable form of one interpreted execution: the
    packed {!Cell_event} stream in program order plus the variable-id ->
    name table and the processor count it was recorded with.  Because the
    interpreter's schedule is layout-independent, a single trace replays
    under {e any} layout of the same program — the trace-once /
    replay-many contract the experiment drivers build on. *)

type t

val create : vars:string array -> nprocs:int -> t
(** [vars] maps variable ids (indices) to global names — the program's
    declaration order.
    @raise Invalid_argument when [nprocs] is outside
    [1 .. Cell_event.max_proc + 1] or there are more than 256 variables. *)

val push : t -> int -> unit
(** Append one packed event ([Interp.record] feeds the trace this way). *)

val vars : t -> string array
val nprocs : t -> int
val length : t -> int

val var_id : t -> string -> int option

val get : t -> int -> Cell_event.t
(** @raise Invalid_argument out of range. *)

val iter : (Cell_event.t -> unit) -> t -> unit
val iter_packed : (int -> unit) -> t -> unit

val unsafe_data : t -> int array
(** The backing array of packed events.  Only indices
    [0 .. length t - 1] hold events (the array over-allocates for
    growth), and the array must not be mutated; it is exposed so the
    fused replay loop can iterate without a per-event closure call. *)

val equal : t -> t -> bool

(** {1 Capture to disk}

    Two little-endian binary formats, both written atomically (temp file
    + rename) and both understood by every reader here:

    - {b v1} ("FSTRACE1"): one flat 8-byte word per packed event.
    - {b v2} ("FSTRACE2"): events grouped into fixed-size blocks, each
      block delta + LEB128-varint encoded with a footer carrying its
      event count, payload length and CRC-32, plus a trailing index
      mapping block starts and [Barrier_release] positions to file
      offsets (so replay can seek to an epoch without scanning).  Block
      delta state resets at each boundary, making blocks independently —
      and concurrently — decodable.

    Readers sniff the magic; writers default to v2. *)

exception Corrupt of string

type format = V1 | V2

val default_format : format
(** What writers emit unless told otherwise: [V2]. *)

val format_version : format -> int
val format_of_version : int -> format option

val default_block_events : int
(** Events per v2 block unless overridden: 65536. *)

val file_format : string -> format
(** Sniff a trace file's magic.
    @raise Corrupt when the file is not a trace. *)

val write_file : ?format:format -> ?block_events:int -> t -> string -> unit
val read_file : string -> t
(** @raise Corrupt on malformed input, [Sys_error] on IO failure. *)

val write_channel : ?format:format -> ?block_events:int -> t -> out_channel -> unit
val read_channel : in_channel -> t

(** {1 Streaming capture}

    Record straight to disk — header first, then blocks as they fill —
    so a recording's heap cost is one encoder block, not the trace.
    This is what makes 10{^8}-event captures practical. *)

module Writer : sig
  type t

  val create :
    ?format:format ->
    ?block_events:int ->
    vars:string array ->
    nprocs:int ->
    string ->
    t
  (** Open a streaming writer targeting [path] (written as
      [path ^ ".tmp"], renamed on {!close}).
      @raise Invalid_argument on bad [nprocs] / [vars] /
      [block_events]. *)

  val push : t -> int -> unit
  (** Append one packed event — pass [push w] as [Interp.run_packed]'s
      sink to record without materializing the trace.
      @raise Invalid_argument after {!close} / {!abort}. *)

  val length : t -> int
  (** Events pushed so far. *)

  val close : t -> unit
  (** Finalize (v1: patch the length word; v2: flush the last block and
      write index + trailer) and atomically rename into place. *)

  val abort : t -> unit
  (** Discard: close and delete the temp file.  Idempotent, as is
      {!close}; whichever runs first wins. *)
end

(** {1 Streaming replay}

    For traces too large to hold in memory.  Both formats present the
    same shape: a sequence of blocks, each decoded on demand into a
    caller buffer, so peak heap is bounded by the block size however
    long the trace.  For v1 a block is a chunk-sized window of the
    memory-mapped word array; for v2 it is an encoded block, CRC-checked
    against its footer and located through the trailing index.  Headers
    and (v2) index geometry are validated eagerly at open time. *)

module Stream : sig
  type t

  val open_file : ?chunk:int -> string -> t
  (** [chunk] is the v1 window size in events (default 2{^20}); v2 block
      granularity is fixed by the file.
      @raise Corrupt on malformed or truncated input, [Sys_error] /
      [Unix.Unix_error] on IO failure,  [Invalid_argument] on a
      non-positive [chunk]. *)

  val format : t -> format
  val vars : t -> string array
  val nprocs : t -> int

  val length : t -> int
  (** Total events in the trace (not the window). *)

  val chunk : t -> int

  val byte_size : t -> int
  (** Size of the underlying file in bytes — the denominator for
      bytes/event and effective-bandwidth reporting. *)

  val nblocks : t -> int

  val block_events : t -> int -> int
  (** Events in block [k]. *)

  val block_start : t -> int -> int
  (** Global index of block [k]'s first event. *)

  val max_block_events : t -> int
  (** An upper bound on {!block_events} over all blocks — the buffer
      size {!decode_block} requires.  At least 1. *)

  val epochs : t -> int array option
  (** v2 only: the global event position of every [Barrier_release], in
      order, from the index — the seek points for epoch-addressed
      consumers. *)

  val decode_block : t -> int -> int array -> int
  (** [decode_block t k buf] decodes block [k] into [buf.(0 .. n - 1)]
      and returns [n].  Scratch state is per call, so distinct blocks of
      one open stream may be decoded from different domains
      concurrently.
      @raise Corrupt on a damaged block (the message names it),
      [Invalid_argument] if closed, [k] is out of range, or [buf] is
      smaller than {!max_block_events}. *)

  val iter_chunks : (int array -> int -> unit) -> t -> unit
  (** [iter_chunks f s] calls [f buf n] for each successive block: the
      packed events are [buf.(0 .. n - 1)], in trace order.  [buf] is
      {e one reused array} — callers must consume (or copy) its contents
      before returning, and must not hold references to it across
      calls. *)

  val close : t -> unit
  (** Fence further iteration ([iter_chunks] / [decode_block] then raise
      [Invalid_argument]); the mapping itself is reclaimed by the GC. *)
end

val of_file_stream : ?chunk:int -> string -> Stream.t
(** Alias for {!Stream.open_file}. *)
