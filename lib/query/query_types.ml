(* The types of the query layer, declared once: [Query] includes this
   module and its interface re-exports it. *)

type kind = [ `Analyze | `Blame | `Phases | `Hotlines | `Repair | `Profile ]
type layout = Unoptimized | Compiler | Programmer

type subject =
  | Workload of string  (** a registered workload, by canonical name *)
  | Source of string    (** validated ParC text (the daemon only) *)

type common = { subject : subject; nprocs : int; scale : int; sched_seed : int option }

type t =
  | Analyze of { c : common; block : int }
  | Blame of { c : common; block : int; layout : layout; top : int; epochs : bool }
  | Phases of { c : common; block : int; layout : layout }
  | Hotlines of { c : common; block : int; layout : layout; top : int }
  | Repair of { c : common; block : int; layout : layout; top : int; max_iters : int }
  | Profile of { c : common; layout : layout; flight_interval : int }

type error_kind =
  | Usage    (** a field's value, or a missing one *)
  | Plan     (** a plan that does not fit the configuration *)
  | Runtime  (** the program itself fails there *)

type error = {
  kind : error_kind;
  field : (string * string) option;  (** JSON name and CLI spelling *)
  msg : string;
}

type front = Cli | Http

type raw = Arg of string | Json of Fs_obs.Json.t
(** A value as a front received it: CLI text or a JSON value. *)

type cli =
  | Positional           (** the CLI's WORKLOAD argument *)
  | Flags of string list (** an option taking a value *)
  | Switch of string list
  | Http_only

(** What a front needs to know of a field to collect its raw value. *)
type spec = {
  name : string;  (** the JSON member *)
  cli : cli;
  docv : string;
  doc : string;
  absent : kind option -> string option;  (** the default, for [--help] *)
}

type 'a field = {
  spec : spec;
  check : raw -> ('a, string) Stdlib.result;
  default : kind option -> 'a option;
      (** per query, or [None] for a CLI-only command; [None] when required *)
  encode : 'a -> Fs_obs.Json.t;
}

type result =
  | Sim_runs of {
      workload : string;
      nprocs : int;
      block : int;
      runs : (string * Falseshare.Sim.cache_run) list;
    }
  | Blame_report of Falseshare.Blame.t * Falseshare.Phases.t option
  | Phase_profile of Falseshare.Phases.t
  | Hot_lines of Falseshare.Hotlines.t
  | Repair_trace of Fs_feedback.Repair.t
  | Profile_report of {
      workload : string;
      nprocs : int;
      scale : int;
      layout : string;
      pool : Fs_util.Par.stats;
      sweep : (int * Fs_cache.Mpcache.counts) list;
      flight : Fs_replay.Flight.t;
    }
