(** Address-level execution listeners: every event of a recorded trace
    under one layout, one closure call each.

    {!Fs_replay.Replay.replay} delivers a recorded trace through this
    interface, event for event, as the unfused reference walk.  The
    production consumers (the cache simulations, the KSR2 model, the
    epoch segmenter) read the packed {!Cell_event} stream directly; a
    listener suits cold consumers such as the {!Fs_obs.Timeline} export. *)

type t = {
  access : proc:int -> write:bool -> addr:int -> unit;
  work : proc:int -> amount:int -> unit;
      (** [amount] interpreter work units (≈ statements) executed by [proc]
          since its previous event. *)
  barrier_arrive : proc:int -> unit;
  barrier_release : unit -> unit;
      (** all live processes have arrived; everyone proceeds *)
  lock_wait : proc:int -> addr:int -> unit;
      (** [proc] found the lock at [addr] held and blocked *)
  lock_grant : proc:int -> addr:int -> from:int -> unit;
      (** [proc] now owns the lock; [from] is the releasing processor, or
          [-1] when the lock was free on arrival *)
}

val null : t
(** Ignores every event. *)
