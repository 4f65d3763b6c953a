(** One typed query, shared by the CLI and the daemon.

    The toolchain answers six kinds of question about one workload (or
    ParC source) at one configuration: the N/C/P cache simulation
    ([analyze], the CLI's [sim]), the blame matrix, the phase profile,
    the hot lines, a profile-guided repair, and a profile of the run
    itself.  Each is a typed record ({!t}).  Its fields are declared
    once, as data ({!F}): JSON name, CLI spelling, doc, default per
    query and check.  The CLI folds the specs into Cmdliner terms, the
    daemon reads the same names from a JSON body, and both hand the raw
    values to {!of_fields}: a default or a range rule exists in one
    place, and the two fronts report the same message, spelling the
    field their own way. *)

include module type of struct
  include Query_types
end

val kinds : (kind * string) list
(** Every query with its name, which is also its endpoint path. *)

val name : kind -> string
val version : layout -> Fs_workloads.Workload.version
val layout_name : layout -> string

(** {1 Errors} *)

val message : front -> error -> string
(** [msg], after the field as the front spells it: [option '--top'],
    [WORKLOAD argument] or [field "top"]. *)

val exit_code : error -> int
(** 124 (Cmdliner's usage error) for [Usage], else 1. *)

val http_status : error -> int
(** 400: every query error is the client's. *)

val usage_error : string -> error

val error_of_exn : exn -> error option
(** [Plan_error] and [Runtime_error], typed; [None] for anything else. *)

(** {1 Fields} *)

module F : sig
  val workload : Fs_workloads.Workload.t field
  val source : string field
  val nprocs : int field

  val scale : int option field
  (** [None]: the workload's default scale (1 for a source). *)

  val block : int field
  val layout : layout field
  val top : int field
  val max_iters : int field
  val epochs : bool field
  val flight_interval : int field
  val sched_seed : int option field
end

val fields : kind -> spec list
(** The fields a query takes, in the order the CLI lists them. *)

val count :
  name:string -> flags:string list -> docv:string -> doc:string -> default:int -> int field
(** A CLI-only positive integer ([--workers], [--block-events]). *)

val parse : 'a field -> raw -> ('a, error) Stdlib.result

val resolve : 'a field -> kind option -> raw option -> ('a, error) Stdlib.result
(** {!parse}, or the default when the value is absent. *)

val sched :
  Fs_workloads.Workload.t -> int option ->
  (Fs_sched.Sched.config option, error) Stdlib.result
(** The scheduler a run of the workload uses: a usage error when it
    spawns tasks and no seed was given. *)

val of_fields : kind -> (string * raw) list -> (t, error) Stdlib.result
(** Validate and default raw values by name.  A name the query does not
    take is a usage error that lists the fields it takes, with the
    nearest ones as a suggestion. *)

val of_json : kind -> Fs_obs.Json.t -> (t, error) Stdlib.result
(** {!of_fields} over the members of a JSON object. *)

val canonical : t -> string
(** The resolved query, the program's printed text and the trace format
    as one JSON string: equal exactly when two queries may share a
    stored result. *)

val cache_version : string

(** {1 Answers} *)

val run : ?jobs:int -> t -> (result, error) Stdlib.result
(** Record (through {!Falseshare.Trace_memo} for a workload), plan with
    {!Falseshare.Experiments.checked_plan_for} and replay, under spans
    named [plan], [memo] or [record], and [replay].  [jobs] fans out the
    analyze versions and the profile's block sweep. *)

val to_json : result -> Fs_obs.Json.t
(** The payload: the daemon's [result] and the CLI's [--json]. *)
