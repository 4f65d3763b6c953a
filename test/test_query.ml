(* The typed query, through both fronts, with no subprocess: a random
   query spelled as CLI flags (parsed by the CLI's own Cmdliner terms)
   and as a daemon JSON body must resolve to the same typed query and
   the same store key; a random invalid one must give the same error,
   spelled each front's way, with the CLI's usage exit code and the
   daemon's 400. *)

open Cmdliner
module Q = Fs_query.Query
module Qt = Fs_cli.Query_term
module Json = Fs_obs.Json
module W = Fs_workloads.Workload
module Ws = Fs_workloads.Workloads

(* a query drawn field by field; [None] leaves the field to its default *)
type draw = {
  kind : Q.kind;
  workload : string;
  fields : (string * Json.t) list;  (** JSON name, value *)
}

let takes kind name = List.exists (fun (s : Q.spec) -> s.name = name) (Q.fields kind)

let gen_valid =
  let open QCheck.Gen in
  let* kind = oneofl (List.map fst Q.kinds) in
  let* w = oneofl Ws.every in
  let opt name g = if takes kind name then map (Option.map (fun v -> (name, v))) (opt g) else return None in
  let int_in lo hi = map (fun n -> Json.Int n) (int_range lo hi) in
  let* nprocs = opt "nprocs" (int_in 1 256) in
  let* scale = opt "scale" (int_in 1 3) in
  let* block = opt "block" (map (fun k -> Json.Int (1 lsl k)) (int_range 2 12)) in
  let* layout =
    opt "layout" (map (fun s -> Json.String s) (oneofl [ "unoptimized"; "compiler"; "programmer" ]))
  in
  let* top = opt "top" (int_in 1 10_000) in
  let* max_iters = opt "max_iters" (int_in 0 100) in
  let* epochs = opt "epochs" (map (fun b -> Json.Bool b) bool) in
  let* interval = opt "flight_interval" (int_in 1 100_000) in
  let* seed = int_in (-1000) 1000 in
  let* seed = if w.W.dynamic then return (Some ("sched_seed", seed)) else opt "sched_seed" (return seed) in
  return
    { kind; workload = w.W.name;
      fields =
        List.filter_map Fun.id
          [ nprocs; scale; block; layout; top; max_iters; epochs; interval; seed ] }

(* one field of a valid draw made invalid, or a dynamic workload's seed
   dropped *)
let gen_invalid =
  let open QCheck.Gen in
  let* d = gen_valid in
  let int n = Json.Int n and str s = Json.String s in
  let bad =
    [ ("nprocs", [ int 0; int 257; int (-5); str "many" ]);
      ("scale", [ int 0; int (-3) ]);
      ("block", [ int 100; int 8192; int 2 ]);
      ("layout", [ str "bogus" ]);
      ("top", [ int 0; int 10_001; int (-2) ]);
      ("max_iters", [ int (-1); int 101 ]);
      ("flight_interval", [ int 0 ]);
      ("sched_seed", [ str "x" ]) ]
    |> List.filter (fun (name, _) -> takes d.kind name)
  in
  let* choice = int_bound (List.length bad + 1) in
  if choice < List.length bad then
    let name, values = List.nth bad choice in
    let* v = oneofl values in
    return { d with fields = (name, v) :: List.remove_assoc name d.fields }
  else if choice = List.length bad then
    let* w = oneofl [ "wa ter"; "pverfy"; "nosuch" ] in
    return { d with workload = w }
  else
    let* w = oneofl (List.filter (fun w -> w.W.dynamic) Ws.every) in
    return { d with workload = w.W.name; fields = List.remove_assoc "sched_seed" d.fields }

let print d =
  Printf.sprintf "%s %s %s" (Q.name d.kind) d.workload
    (Json.to_string (Json.Obj d.fields))

(* the draw as the CLI's argv: the workload, then --long=value flags *)
let argv d =
  let flag name =
    List.find_map
      (fun (s : Q.spec) ->
        match s.cli with
        | (Q.Flags names | Q.Switch names) when s.name = name ->
          Some (List.fold_left (fun a n -> if String.length n > String.length a then n else a) "" names)
        | _ -> None)
      (Q.fields d.kind)
    |> Option.get
  in
  Array.of_list
    ("falseshare" :: d.workload
     :: List.filter_map
          (fun (name, v) ->
            match v with
            | Json.Bool false -> None
            | Json.Bool true -> Some ("--" ^ flag name)
            | Json.Int n -> Some (Printf.sprintf "--%s=%d" (flag name) n)
            | Json.String s -> Some (Printf.sprintf "--%s=%s" (flag name) s)
            | _ -> assert false)
          d.fields)

let info d = Cmd.info (Q.name d.kind)

(* the CLI's raw values, through the same fold the CLI's commands use *)
let cli_raws d =
  match Cmd.eval_value ~argv:(argv d) (Cmd.v (info d) (Qt.raws d.kind)) with
  | Ok (`Ok raws) -> raws
  | _ -> QCheck.Test.fail_reportf "the CLI did not parse %s" (print d)

let body d =
  Json.Obj (("workload", Json.String d.workload) :: d.fields) |> Json.to_string

let http d =
  match Json.of_string (body d) with
  | Ok j -> Q.of_json d.kind j
  | Error m -> QCheck.Test.fail_reportf "unparsable body %s: %s" (body d) m

let prop_valid =
  QCheck.Test.make ~name:"CLI argv and JSON body give one query and one key" ~count:150
    (QCheck.make ~print gen_valid)
    (fun d ->
      match (Q.of_fields d.kind (cli_raws d), http d) with
      | Ok a, Ok b -> a = b && Q.canonical a = Q.canonical b
      | Error e, _ | _, Error e ->
        QCheck.Test.fail_reportf "%s refused: %s" (print d) (Q.message Q.Http e))

let prop_invalid =
  QCheck.Test.make ~name:"CLI and daemon give one error, spelled their own way" ~count:150
    (QCheck.make ~print gen_invalid)
    (fun d ->
      match (Q.of_fields d.kind (cli_raws d), http d) with
      | Error a, Error b ->
        let err = Buffer.create 80 in
        let code =
          Cmd.eval ~argv:(argv d) ~err:(Format.formatter_of_buffer err)
            (Cmd.v (info d) Term.(const ignore $ Qt.query d.kind))
        in
        let cli = Q.message Q.Cli a and web = Q.message Q.Http b in
        let spelled_apart =
          match a.Q.field with
          | Some (name, spelled) ->
            cli = spelled ^ ": " ^ a.Q.msg && web = Printf.sprintf "field %S: %s" name b.Q.msg
          | None -> cli = web
        in
        a = b && spelled_apart && a.Q.kind = Q.Usage && code = 124
        && Q.exit_code a = 124 && Q.http_status b = 400
        && Tutil.contains (Buffer.contents err) cli
      | _ -> QCheck.Test.fail_reportf "%s was accepted by a front" (print d))

(* a plan that does not fit, and a program that fails at run time:
   exit 1 on the CLI, 400 from the daemon *)
let test_run_errors () =
  List.iter
    (fun (body, kind) ->
      match Result.map (Q.run ~jobs:1) (Result.bind (Json.of_string body) (fun j ->
                Result.map_error (Q.message Q.Http) (Q.of_json `Analyze j))) with
      | Ok (Error e) ->
        Alcotest.(check bool) (body ^ ": kind") true (e.Q.kind = kind);
        Alcotest.(check int) (body ^ ": exit") 1 (Q.exit_code e);
        Alcotest.(check int) (body ^ ": status") 400 (Q.http_status e)
      | _ -> Alcotest.failf "%s: expected a run error" body)
    [ ({|{"workload":"fmm","nprocs":256,"scale":1}|}, Q.Plan);
      ({|{"workload":"topopt","nprocs":50,"scale":1}|}, Q.Runtime) ]

let suite =
  [ QCheck_alcotest.to_alcotest prop_valid;
    QCheck_alcotest.to_alcotest prop_invalid;
    Alcotest.test_case "plan and runtime errors" `Quick test_run_errors ]
