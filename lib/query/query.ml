module W = Fs_workloads.Workload
module Ws = Fs_workloads.Workloads
module E = Falseshare.Experiments
module Sim = Falseshare.Sim
module Emit = Falseshare.Emit
module Json = Fs_obs.Json
module Span = Fs_obs.Span
module Par = Fs_util.Par
module C = Fs_cache.Mpcache
module Repair = Fs_feedback.Repair

include Query_types

let kinds : (kind * string) list =
  [ (`Analyze, "analyze"); (`Blame, "blame"); (`Phases, "phases");
    (`Hotlines, "hotlines"); (`Repair, "repair"); (`Profile, "profile") ]

let name k = List.assoc k kinds

let layouts =
  [ ("unoptimized", Unoptimized); ("compiler", Compiler); ("programmer", Programmer) ]

let layout_name l = fst (List.find (fun (_, l') -> l' = l) layouts)
let version = function Unoptimized -> W.N | Compiler -> W.C | Programmer -> W.P

let kind : t -> kind = function
  | Analyze _ -> `Analyze | Blame _ -> `Blame | Phases _ -> `Phases
  | Hotlines _ -> `Hotlines | Repair _ -> `Repair | Profile _ -> `Profile

let common = function
  | Analyze { c; _ } | Blame { c; _ } | Phases { c; _ } | Hotlines { c; _ }
  | Repair { c; _ } | Profile { c; _ } -> c

(* ------------------------------------------------------------------ *)
(* Errors                                                              *)

let message front e =
  match e.field with
  | None -> e.msg
  | Some (name, cli) ->
    (match front with Cli -> cli | Http -> Printf.sprintf "field %S" name) ^ ": " ^ e.msg

(* 124 is Cmdliner's exit code for a usage error *)
let exit_code e = match e.kind with Usage -> 124 | Plan | Runtime -> 1
let http_status _ = 400
let usage_error msg = { kind = Usage; field = None; msg }

let error_of_exn = function
  | Fs_layout.Plan.Plan_error msg -> Some { kind = Plan; field = None; msg }
  | Fs_interp.Interp.Runtime_error msg -> Some { kind = Runtime; field = None; msg }
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Fields                                                              *)

let jint n = Json.Int n
let always v _ = Some v
let errorf fmt = Printf.ksprintf Result.error fmt

let field ?(cli = Http_only) ?(docv = "") name ~doc ~check ~default ~encode =
  let absent k =
    match Option.map encode (default k) with
    | None | Some Json.Null -> None
    | Some (Json.String s) -> Some s
    | Some j -> Some (Json.to_string j)
  in
  { spec = { name; cli; docv; doc; absent }; check; default; encode }

(* the raw value's type, checked before its range: [what] names it *)
let invalid what raw =
  errorf "invalid %s %s" what
    (match raw with Arg s -> Printf.sprintf "%S" s | Json j -> Json.to_string j)

(* a JSON number with no fraction (8.0) is the integer it spells *)
let ints what f raw =
  match raw with
  | Arg s -> ( match int_of_string_opt s with Some n -> f n | None -> invalid what raw)
  | Json j -> ( match Json.get_int j with Some n -> f n | None -> invalid what raw)

let text what f = function Arg s | Json (Json.String s) -> f s | raw -> invalid what raw

let at_least what n = if n >= 1 then Ok n else errorf "%s must be at least 1, got %d" what n

let in_range lo hi what n =
  if n >= lo && n <= hi then Ok n else errorf "%s must be in %d..%d" what lo hi

let count ~name ~flags ~docv ~doc ~default =
  let what = String.map (function '_' -> ' ' | c -> c) name in
  field name ~cli:(Flags flags) ~docv ~doc ~check:(ints what (at_least what))
    ~default:(always default) ~encode:jint

let parse_source src =
  Result.map_error
    (fun errs -> "source does not validate: " ^ String.concat "; " errs)
    (Fs_parc.Parser.parse_and_validate src)

module F = struct
  let workload =
    field "workload" ~cli:Positional ~docv:"WORKLOAD"
      ~doc:"A workload of the suite (see $(b,falseshare list))."
      ~check:
        (text "workload" (fun s ->
             match Ws.find s with
             | w -> Ok w
             | exception Not_found ->
               errorf "unknown workload %S (%s)" s
                 (match Fs_util.Strdist.suggest s (List.map (fun w -> w.W.name) Ws.every) with
                  | [] -> "run `falseshare list` or GET /statusz for the suite"
                  | near ->
                    "did you mean " ^ String.concat " or " (List.map (Printf.sprintf "%S") near)
                    ^ "?")))
      ~default:(fun _ -> None) ~encode:(fun w -> Json.String w.W.name)

  let source =
    field "source" ~doc:"Inline ParC text."
      ~check:(text "source" (fun s -> Result.map (fun _ -> s) (parse_source s)))
      ~default:(fun _ -> None) ~encode:(fun s -> Json.String s)

  (* trace events carry the processor id in 8 bits *)
  let nprocs =
    let max = Fs_trace.Cell_event.max_proc + 1 in
    field "nprocs" ~cli:(Flags [ "p"; "procs" ]) ~docv:"P" ~doc:"Processor count."
      ~default:(always 12) ~encode:jint
      ~check:
        (ints "processor count" (fun n ->
             if n >= 1 && n <= max then Ok n
             else errorf "processor count %d out of range [1,%d]" n max))

  let scale =
    field "scale" ~cli:(Flags [ "s"; "scale" ]) ~docv:"N"
      ~doc:"Problem scale (default: the workload's own)."
      ~check:(ints "scale" (fun n -> Result.map Option.some (at_least "scale" n)))
      ~default:(always None) ~encode:(function Some n -> Json.Int n | None -> Json.Null)

  let block =
    field "block" ~cli:(Flags [ "b"; "block" ]) ~docv:"BYTES"
      ~doc:"Cache block size: a power of two in 4..4096." ~encode:jint
      ~check:
        (ints "block size" (fun b ->
             if b >= 4 && b <= 4096 && b land (b - 1) = 0 then Ok b
             else Error "block must be a power of two in 4..4096"))
      ~default:(function Some `Profile -> None | _ -> Some 128)

  (* the feedback-flavored queries start from the compiler's layout: the
     lines still hot there are exactly the ones the static analysis
     could not fix *)
  let layout =
    field "layout" ~cli:(Flags [ "layout" ]) ~docv:"V"
      ~doc:"Which layout: $(b,unoptimized), $(b,compiler), or $(b,programmer)."
      ~check:
        (text "layout" (fun s ->
             match List.assoc_opt s layouts with
             | Some l -> Ok l
             | None -> errorf "unknown layout %S (expected unoptimized, compiler, or programmer)" s))
      ~default:(function
        | Some (`Hotlines | `Repair | `Profile) -> Some Compiler
        | Some `Analyze -> None
        | _ -> Some Unoptimized)
      ~encode:(fun l -> Json.String (layout_name l))

  let top =
    field "top" ~cli:(Flags [ "top" ]) ~docv:"K" ~check:(ints "top" (in_range 1 10_000 "top"))
      ~doc:"How many hot blocks ($(b,blame)) or hot lines ($(b,hotlines), \
            $(b,repair)) to track and list."
      ~default:(function
        | Some `Repair -> Some Repair.default_options.top
        | Some (`Blame | `Hotlines) -> Some 10
        | _ -> None)
      ~encode:jint

  let max_iters =
    field "max_iters" ~cli:(Flags [ "max-iters" ]) ~docv:"N"
      ~doc:"Cap on accepted repair iterations."
      ~check:(ints "max_iters" (in_range 0 100 "max_iters"))
      ~default:(always Repair.default_options.max_iters) ~encode:jint

  let epochs =
    field "epochs" ~cli:(Switch [ "epochs" ])
      ~doc:"Also segment the run at barrier releases and append the per-epoch \
            sharing profile."
      ~check:(function
        | Arg "true" | Json (Json.Bool true) -> Ok true
        | Json (Json.Bool false) -> Ok false
        | raw -> invalid "epochs flag" raw)
      ~default:(always false) ~encode:(fun b -> Json.Bool b)

  let flight_interval =
    { (count ~name:"flight_interval" ~flags:[ "flight-interval" ] ~docv:"N"
         ~doc:"Packed events between flight-recorder samples." ~default:4096)
      with default = (function Some `Profile -> Some 4096 | _ -> None) }

  let sched_seed =
    field "sched_seed" ~cli:(Flags [ "sched-seed" ]) ~docv:"SEED"
      ~doc:"Seed for the deterministic work-stealing scheduler.  Required by the \
            dynamic (spawn/sync) workloads; the same seed reproduces the same \
            execution bit for bit.  Ignored by the static suite."
      ~check:(ints "seed" (fun n -> Ok (Some n))) ~default:(always None)
      ~encode:(function Some n -> Json.Int n | None -> Json.Null)
end

let fields (k : kind) =
  let open F in
  [ workload.spec; source.spec; nprocs.spec; scale.spec ]
  @ (match k with
     | `Analyze -> [ block.spec ]
     | `Blame -> [ block.spec; layout.spec; top.spec; epochs.spec ]
     | `Phases -> [ block.spec; layout.spec ]
     | `Hotlines -> [ block.spec; layout.spec; top.spec ]
     | `Repair -> [ block.spec; layout.spec; top.spec; max_iters.spec ]
     | `Profile -> [ layout.spec; flight_interval.spec ])
  @ [ sched_seed.spec ]

let fail spec msg =
  let cli =
    match spec.cli with
    | Positional -> spec.docv ^ " argument"
    | Flags names | Switch names ->
      (* the long name, as Cmdliner spells an option in its own errors *)
      List.fold_left (fun a n -> if String.length n > String.length a then n else a) "" names
      |> Printf.sprintf "option '--%s'"
    | Http_only -> spec.name
  in
  Error { kind = Usage; field = Some (spec.name, cli); msg }

let parse f raw = Result.fold ~ok:Result.ok ~error:(fail f.spec) (f.check raw)

let resolve f k = function
  | Some raw -> parse f raw
  | None -> (
    match f.default k with
    | Some v -> Ok v
    | None -> fail f.spec (Printf.sprintf "a %s is required" f.spec.name))

(* dynamic executions refuse to run without an explicit seed: a silent
   default would let two people's "same" run alias different steal
   schedules the day the default changes *)
let require_seed program ~spawns seed =
  if spawns && seed = None then
    fail F.sched_seed.spec
      (program ^ " spawns tasks: its work-stealing schedule needs an explicit \
                  seed (an integer; the same seed gives the same execution)")
  else Ok ()

let sched (w : W.t) seed =
  Result.map
    (fun () -> Option.map Fs_sched.Sched.seeded seed)
    (require_seed w.W.name ~spawns:w.W.dynamic seed)

(* a submitted source that spawns tasks gets the scheduler globals
   grafted on, like the registered dynamic workloads do in their
   builders (instrument is the identity otherwise) *)
let program c =
  match c.subject with
  | Workload n -> (Ws.find n).W.build ~nprocs:c.nprocs ~scale:c.scale
  | Source src ->
    Fs_sched.Sched.instrument ~nprocs:c.nprocs (Result.get_ok (parse_source src))

exception Bad of error

(* a member the query does not take is refused, not ignored: a misspelled
   field would otherwise run with its default *)
let check_known k raws =
  let takes = List.map (fun s -> s.name) (fields k) in
  match List.find_opt (fun (n, _) -> not (List.mem n takes)) raws with
  | None -> ()
  | Some (n, _) ->
    let hint =
      match Fs_util.Strdist.suggest n takes with
      | [] -> ""
      | near ->
        " (did you mean " ^ String.concat " or " (List.map (Printf.sprintf "%S") near) ^ "?)"
    in
    raise
      (Bad
         { kind = Usage; field = Some (n, n);
           msg =
             Printf.sprintf "unknown field%s; %s takes %s" hint (name k)
               (String.concat ", " takes) })

let of_fields (k : kind) raws =
  let ok = function Ok v -> v | Error e -> raise (Bad e) in
  let get f = ok (resolve f (Some k) (List.assoc_opt f.spec.name raws)) in
  try
    check_known k raws;
    let nprocs = get F.nprocs in
    let subject, default_scale =
      match (List.mem_assoc "workload" raws, List.mem_assoc "source" raws) with
      | true, true -> raise (Bad (usage_error "give either a workload or a ParC source, not both"))
      | false, true -> (Source (get F.source), 1)
      | false, false -> raise (Bad (usage_error "name a \"workload\" or send ParC \"source\""))
      | true, false ->
        let w = get F.workload in
        (Workload w.W.name, w.W.default_scale)
    in
    let scale = Option.value (get F.scale) ~default:default_scale in
    let c = { subject; nprocs; scale; sched_seed = get F.sched_seed } in
    (match subject with
     | Workload n -> ok (require_seed n ~spawns:(Ws.find n).W.dynamic c.sched_seed)
     | Source _ ->
       ok (require_seed "the source" ~spawns:(Fs_sched.Sched.uses_tasks (program c)) c.sched_seed));
    (* one field at a time, in the CLI's order: the first bad one is
       the one reported *)
    Ok
      (match k with
       | `Analyze -> Analyze { c; block = get F.block }
       | `Blame ->
         let block = get F.block in
         let layout = get F.layout in
         let top = get F.top in
         Blame { c; block; layout; top; epochs = get F.epochs }
       | `Phases ->
         let block = get F.block in
         Phases { c; block; layout = get F.layout }
       | `Hotlines ->
         let block = get F.block in
         let layout = get F.layout in
         Hotlines { c; block; layout; top = get F.top }
       | `Repair ->
         let block = get F.block in
         let layout = get F.layout in
         let top = get F.top in
         Repair { c; block; layout; top; max_iters = get F.max_iters }
       | `Profile ->
         let layout = get F.layout in
         Profile { c; layout; flight_interval = get F.flight_interval })
  with Bad e -> Error e

let of_json k = function
  | Json.Obj members -> of_fields k (List.map (fun (n, v) -> (n, Json v)) members)
  | _ -> Error (usage_error "the request body must be a JSON object")

(* ------------------------------------------------------------------ *)
(* The store key                                                       *)

(* bumped whenever a resolved query may answer differently than the
   entries already on disk *)
let cache_version = "falseshare-serve/3"

let subject_name c = match c.subject with Workload n -> n | Source _ -> "<source>"

(* every resolved field is part of the address: two queries whose
   defaults resolve differently must never alias *)
let canonical q =
  let c = common q in
  let ( => ) f v = (f.spec.name, f.encode v) in
  let own =
    match q with
    | Analyze { block; _ } -> [ F.block => block ]
    | Blame { block; layout; top; epochs; _ } ->
      [ F.block => block; F.layout => layout; F.top => top; F.epochs => epochs ]
    | Phases { block; layout; _ } -> [ F.block => block; F.layout => layout ]
    | Hotlines { block; layout; top; _ } -> [ F.block => block; F.layout => layout; F.top => top ]
    | Repair { block; layout; top; max_iters; _ } ->
      [ F.block => block; F.layout => layout; F.top => top; F.max_iters => max_iters ]
    | Profile { layout; flight_interval; _ } ->
      [ F.layout => layout; F.flight_interval => flight_interval ]
  in
  Json.to_string
    (Json.Obj
       ([ ("version", Json.String cache_version);
          (* the trace format feeds the memoized recordings every query
             replays: a format-default change must recompute, not alias *)
          ( "trace_format",
            jint (Fs_trace.Cell_trace.format_version Fs_trace.Cell_trace.default_format) );
          ("query", Json.String (name (kind q)));
          ("workload", Json.String (subject_name c));
          F.nprocs => c.nprocs;
          F.scale => Some c.scale;
          F.sched_seed => c.sched_seed ]
       @ own
       @ [ ("program", Json.String (Fs_ir.Pp.program_to_string (program c))) ]))

(* ------------------------------------------------------------------ *)
(* Answers                                                             *)

(* validated like every plan handed out: one that does not fit raises
   [Plan_error] naming the workload, the version and P *)
let plan c prog layout =
  match (c.subject, layout) with
  | _, Unoptimized -> Fs_layout.Plan.empty
  | Workload n, l ->
    E.checked_plan_for (Ws.find n) (version l) prog ~nprocs:c.nprocs ~scale:c.scale
  | Source _, Programmer -> raise (Fs_layout.Plan.Plan_error "a ParC source has no programmer plan")
  | Source _, Compiler ->
    let plan = Sim.compiler_plan prog ~nprocs:c.nprocs in
    Fs_layout.Plan.validate prog plan;
    plan

let recorded c prog =
  match c.subject with
  | Workload n ->
    Span.timed "memo" ~attrs:[ ("workload", n) ] (fun () ->
        E.recorded_of
          (Falseshare.Trace_memo.get ?seed:c.sched_seed (Ws.find n) ~nprocs:c.nprocs
             ~scale:c.scale))
  | Source _ ->
    let sched = Option.map Fs_sched.Sched.seeded c.sched_seed in
    Span.timed "record" (fun () -> Sim.record ?sched prog ~nprocs:c.nprocs)

let answer ~jobs q =
  let c = common q in
  let nprocs = c.nprocs and prog = program c in
  let plan_of l = Span.timed "plan" (fun () -> plan c prog l) in
  let replay ?(attrs = []) f = Span.timed "replay" ~attrs f in
  match q with
  | Analyze { block; _ } ->
    (* every version the subject has, unoptimized first *)
    let layouts =
      match c.subject with
      | Workload n ->
        let vs = (Ws.find n).W.versions in
        List.map
          (function W.N -> Unoptimized | W.C -> Compiler | W.P -> Programmer)
          (if List.mem W.N vs then vs else W.N :: vs)
      | Source _ -> [ Unoptimized; Compiler ]
    in
    let versions =
      Span.timed "plan" (fun () -> List.map (fun l -> (layout_name l, plan c prog l)) layouts)
    in
    let recorded = recorded c prog in
    let runs =
      replay ~attrs:[ ("versions", string_of_int (List.length versions)) ] (fun () ->
          Par.map ~jobs
            (fun (name, plan) -> (name, Sim.cache_sim ~recorded prog plan ~nprocs ~block))
            versions)
    in
    Sim_runs { workload = subject_name c; nprocs; block; runs }
  | Blame { block; layout; top; epochs; _ } ->
    let plan = plan_of layout in
    let recorded = recorded c prog in
    replay (fun () ->
        Blame_report
          ( Falseshare.Blame.analyze ~top ~recorded prog plan ~nprocs ~block,
            if epochs then Some (Falseshare.Phases.analyze ~recorded prog plan ~nprocs ~block)
            else None ))
  | Phases { block; layout; _ } ->
    let plan = plan_of layout in
    let recorded = recorded c prog in
    replay (fun () -> Phase_profile (Falseshare.Phases.analyze ~recorded prog plan ~nprocs ~block))
  | Hotlines { block; layout; top; _ } ->
    let plan = plan_of layout in
    let recorded = recorded c prog in
    replay (fun () -> Hot_lines (Falseshare.Hotlines.analyze ~top ~recorded prog plan ~nprocs ~block))
  | Repair { block; layout; top; max_iters; _ } ->
    let plan = plan_of layout in
    let recorded = recorded c prog in
    let options = { Repair.default_options with max_iters; top } in
    Repair_trace
      (Span.timed "repair" (fun () -> Repair.refine ~options ~recorded prog plan ~nprocs ~block))
  | Profile { layout; flight_interval; _ } ->
    let plan = plan_of layout in
    let recorded = recorded c prog in
    (* the block sweep exercises the domain pool; its stats become the
       per-worker summary *)
    let sweep, pool =
      replay ~attrs:[ ("jobs", string_of_int jobs) ] (fun () ->
          Par.map_with_stats ~jobs
            (fun block -> (block, (Sim.cache_sim ~recorded prog plan ~nprocs ~block).Sim.counts))
            [ 8; 16; 32; 64; 128; 256 ])
    in
    (* one flight-instrumented fused replay at the paper's block size *)
    let flight = Fs_replay.Flight.create ~interval:flight_interval () in
    Span.timed "flight-replay" (fun () ->
        ignore (Sim.cache_sim ~flight ~recorded prog plan ~nprocs ~block:128));
    Profile_report
      { workload = subject_name c; nprocs; scale = c.scale; layout = layout_name layout;
        pool; sweep; flight }

let run ?(jobs = 1) q =
  match answer ~jobs q with
  | r -> Ok r
  | exception e -> ( match error_of_exn e with Some err -> Error err | None -> raise e)

let to_json = function
  | Sim_runs { workload; nprocs; block; runs } -> Emit.sim ~workload ~nprocs ~block runs
  | Blame_report (b, None) -> Emit.blame b
  | Blame_report (b, Some p) -> Json.Obj [ ("blame", Emit.blame b); ("phases", Emit.phases p) ]
  | Phase_profile p -> Emit.phases p
  | Hot_lines h -> Emit.hotlines h
  | Repair_trace r -> Repair.to_json r
  | Profile_report p ->
    let entry (block, c) =
      Json.Obj
        [ ("block", jint block); ("accesses", jint (C.accesses c));
          ("misses", jint (C.misses c)); ("false_sharing", jint c.C.false_sh) ]
    in
    Json.Obj
      [ ("workload", Json.String p.workload); ("nprocs", jint p.nprocs);
        ("scale", jint p.scale); ("layout", Json.String p.layout);
        ("pool", Fs_obs.Pool.to_json p.pool);
        ("sweep", Json.List (List.map entry p.sweep));
        ("flight", Fs_replay.Flight.to_json p.flight) ]
