(** Address-level reference consumers: one call per memory reference,
    in program order.  {!Fs_replay.Replay.replay_to_sink} feeds one from a
    recorded trace under a layout. *)

type t = proc:int -> write:bool -> addr:int -> unit
