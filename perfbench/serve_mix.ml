(* serve-mix: the daemon (Fs_serve.Server, 2 workers, jobs 1) driven
   closed-loop by 2 client threads over loopback HTTP.  Each pass starts
   a daemon on an empty result store and an empty trace memo and sends a
   seeded stream over /analyze, /hotlines and /repair that mixes three
   kinds of request:
   - cold: the first request for a recording — interprets, replays and
     writes the store;
   - memo: the same recording with other parameters — a Trace_memo hit
     and a store write;
   - repeat: /analyze at 128 B and /repair asked again — a store read
     (or, when it overlaps the original, a Singleflight join).
   A third of the requests are repeats, so the median request lies
   inside the cold and memo requests' spread rather than in the gap
   between them and the store reads (see NOTES.md). *)

open Suite
module L = Ledger
module Server = Fs_serve.Server
module Http = Fs_serve.Http
module Trace_memo = Falseshare.Trace_memo

let recordings =
  [ recording "maxflow" ~nprocs:4 ~scale:2;
    recording "water" ~nprocs:4 ~scale:2;
    recording "fmm" ~nprocs:4 ~scale:2;
    recording "radiosity" ~nprocs:4 ~scale:2;
    recording "topopt" ~nprocs:4 ~scale:4;
    recording "pverify" ~nprocs:4 ~scale:2;
    recording "raytrace" ~nprocs:4 ~scale:1;
    recording "stencil" ~nprocs:4 ~scale:4 ~sched_seed:1;
    recording "taskbag" ~nprocs:4 ~scale:4 ~sched_seed:1;
    recording "dstress" ~nprocs:4 ~scale:4 ~sched_seed:1 ]

type endpoint = Analyze of int | Hotlines | Repair

let endpoints = [ Analyze 128; Analyze 64; Hotlines; Repair ]

(* the endpoints asked a second time *)
let repeated = [ Analyze 128; Repair ]

(* Repair.refine's default tracked-line budget, so the daemon's answer is
   the one the golden table holds (the endpoint's own default is 10) *)
let repair_top = Fs_feedback.Repair.default_options.Fs_feedback.Repair.top

type request = { r : recording; ep : endpoint }

let path = function
  | Analyze _ -> "/analyze"
  | Hotlines -> "/hotlines"
  | Repair -> "/repair"

let body { r; ep } =
  let fields =
    [ ("workload", Json.String r.w.W.name);
      ("nprocs", Json.Int r.nprocs);
      ("scale", Json.Int r.scale) ]
    @ (match r.sched_seed with
       | Some s -> [ ("sched_seed", Json.Int s) ]
       | None -> [])
    @
    match ep with
    | Analyze block -> [ ("block", Json.Int block) ]
    | Hotlines -> [ ("block", Json.Int 128) ]
    | Repair -> [ ("block", Json.Int 128); ("top", Json.Int repair_top) ]
  in
  Json.to_string (Json.Obj fields)

(* ------------------------------------------------------------------ *)
(* Checking a response                                                  *)

let ( |? ) j name =
  match Json.member name j with
  | Some v -> v
  | None -> failwith ("response lacks " ^ name)

let int_of j =
  match Json.get_int j with Some n -> n | None -> failwith "not an integer"

let counts_of j =
  List.map
    (fun f -> int_of (j |? f))
    [ "reads"; "writes"; "cold"; "replacement"; "true_sharing";
      "false_sharing"; "invalidations"; "upgrades" ]

let accesses_of c = List.nth c 0 + List.nth c 1
let false_sh_of c = List.nth c 5

let layout_of_version = function
  | "unoptimized" -> N
  | "compiler" -> C
  | "programmer" -> P
  | v -> failwith ("unknown version " ^ v)

(* (ok, accesses, fs_removed, space) of one result payload *)
let check { r; ep } result =
  match ep with
  | Analyze block ->
    let versions =
      match Json.get_list (result |? "versions") with
      | Some l ->
        List.map
          (fun v ->
            ( layout_of_version
                (Option.value ~default:"" (Json.get_string (v |? "version"))),
              counts_of (v |? "counts"),
              int_of (v |? "layout_bytes") ))
          l
      | None -> failwith "versions is not a list"
    in
    let ok =
      List.for_all
        (fun (l, c, _) -> expect_ints (cache_key r l ~block) "counts" c)
        versions
    in
    let accesses =
      List.fold_left (fun acc (_, c, _) -> acc + accesses_of c) 0 versions
    in
    let cv = List.find_opt (fun (l, _, _) -> l = C) versions in
    ( ok,
      accesses,
      Option.bind cv (fun (_, c, _) ->
          fs_removed r ~block ~false_sh:(false_sh_of c)),
      Option.bind cv (fun (_, _, bytes) -> space_overhead r ~block ~bytes) )
  | Hotlines ->
    let c = counts_of (result |? "total") in
    ( expect_ints (cache_key r C ~block:128) "counts" c,
      accesses_of c,
      fs_removed r ~block:128 ~false_sh:(false_sh_of c),
      space_overhead r ~block:128
        ~bytes:(int_field (cache_key r C ~block:128) "bytes") )
  | Repair ->
    let key = repair_key r ~block:128 in
    let initial = counts_of (result |? "initial")
    and final = counts_of (result |? "final") in
    ( expect_ints key "initial" initial
      && expect_ints key "final" final
      && expect_int key "accepted" (int_of (result |? "accepted")),
      accesses_of initial + accesses_of final,
      fs_removed r ~block:128 ~false_sh:(false_sh_of final),
      None )

(* the daemon's span tree: time spent inside its request handling, as the
   sum of the root spans' durations *)
let server_time spans =
  match Json.get_list spans with
  | Some roots ->
    List.fold_left
      (fun acc s ->
        acc
        +. Option.value ~default:0.
             (Option.bind (Json.member "wall_s" s) Json.get_float))
      0. roots
  | None -> 0.

(* ------------------------------------------------------------------ *)
(* One pass                                                             *)

(* the request stream: each recording's requests in a fixed order — the
   /analyze at 128 B first (cold), its other endpoints next (memo), then
   the repeats — with the recordings interleaved in seeded order, so
   every pass asks the same questions *)
let stream rng =
  let queues =
    Array.of_list
      (List.map
         (fun r ->
           List.mapi
             (fun i ep -> ({ r; ep }, if i = 0 then "cold" else "memo"))
             endpoints
           @ List.map (fun ep -> ({ r; ep }, "repeat")) repeated)
         recordings)
  in
  let rec go acc =
    match List.filter (fun i -> queues.(i) <> []) (List.init (Array.length queues) Fun.id) with
    | [] -> List.rev acc
    | live ->
      let i = List.nth live (Random.State.int rng (List.length live)) in
      let x = List.hd queues.(i) in
      queues.(i) <- List.tl queues.(i);
      go (x :: acc)
  in
  go []

let endpoint_name = function
  | Analyze b -> Printf.sprintf "analyze-b%d" b
  | Hotlines -> "hotlines"
  | Repair -> "repair"

(* "<kind> <recording>/<endpoint>": one spec of the pass *)
let label req kind = Printf.sprintf "%s %s/%s" kind (rec_id req.r) (endpoint_name req.ep)
let kind_of s = List.hd (String.split_on_char ' ' s.label)

(* guards the client threads' shared state: the stream, the samples and
   the counters below *)
let lock = Mutex.create ()
let passes = ref 0
let rejected = ref 0
let coalesced = ref 0
let memo_hits = ref 0
let memo_misses = ref 0

let config dir =
  { Server.default_config with
    Server.port = 0;
    workers = 2;
    jobs = 1;
    cache_dir = dir }

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let with_daemon f =
  incr passes;
  let dir = Filename.concat !work_dir (Printf.sprintf "store-%d" !passes) in
  Trace_memo.clear ();
  let server = Server.start (config dir) in
  Fun.protect
    ~finally:(fun () ->
      Server.stop server;
      remove_tree dir)
    (fun () -> f (Server.port server))

let send port (req, kind) =
  let spans = if !L.tracing then "" else "?spans=none" in
  let t0 = L.now () in
  match
    Http.request ~meth:"POST" ~body:(body req) ~port (path req.ep ^ spans)
  with
  | exception e ->
    Printf.eprintf "request failed: %s\n%!" (Printexc.to_string e);
    (failed ~wall:(L.now () -. t0), false)
  | status, _, resp -> (
    let wall = L.now () -. t0 in
    if status <> 200 then begin
      Printf.eprintf "%s -> %d %s\n%!" (path req.ep) status resp;
      ({ (failed ~wall) with label = label req kind }, status = 503)
    end
    else
      match Json.of_string resp with
      | Error m -> failwith ("response is not JSON: " ^ m)
      | Ok env ->
        let ok, accesses, fs_removed, space = check req (env |? "result") in
        let flag name = Json.get_bool (env |? name) = Some true in
        if flag "coalesced" then Mutex.protect lock (fun () -> incr coalesced);
        ( { wall; raw = wall; ok; accesses; fs_removed; space;
            label = label req kind;
            cached = flag "cached";
            server_s = server_time (env |? "spans") },
          false ))

let run_stream rng =
  with_daemon (fun port ->
      let todo = ref (stream rng) and samples = ref [] in
      let next () =
        Mutex.protect lock (fun () ->
            match !todo with
            | [] -> None
            | x :: rest ->
              todo := rest;
              Some x)
      in
      let rec client () =
        match next () with
        | None -> ()
        | Some item ->
          let s, was_rejected =
            try send port item
            with e ->
              Printf.eprintf "bad response: %s\n%!" (Printexc.to_string e);
              (failed ~wall:0., false)
          in
          Mutex.protect lock (fun () ->
              if was_rejected then incr rejected;
              samples := s :: !samples);
          client ()
      in
      let t0 = L.now () in
      let clients = List.init 2 (fun _ -> Thread.create client ()) in
      List.iter Thread.join clients;
      let active = L.now () -. t0 in
      let hits, misses, _, _ = Trace_memo.read_stats () in
      memo_hits := !memo_hits + hits;
      memo_misses := !memo_misses + misses;
      (List.rev !samples, active))

(* two closed-loop clients draining one stream; returns the samples and
   the seconds from the first send to the last answer, both scaled by
   calibrations taken before and after (a pass is about a third of a
   second), and those seconds as host time *)
let pass rng =
  let before = L.calibrations () in
  let samples, busy = run_stream rng in
  let scale = L.scale ~before ~after:(L.calibrations ()) in
  ( List.map (fun s -> { s with raw = s.wall; wall = s.wall *. scale }) samples,
    busy *. scale,
    busy )

(* set-up: a daemon start and a warm-up /analyze of every recording, on
   a store of its own *)
let setup () =
  with_daemon (fun port ->
      List.iter
        (fun r -> ignore (send port ({ r; ep = Analyze 128 }, "warm-up")))
        recordings)

let reset_counters () =
  rejected := 0;
  coalesced := 0;
  memo_hits := 0;
  memo_misses := 0

let layer_metrics samples =
  let lat pred =
    1e3 *. Ledger.median (List.filter_map (fun s -> if pred s then Some s.wall else None) samples)
  in
  let n = float_of_int (max 1 (List.length samples)) in
  [ ("serve.hit_p50_ms", lat (fun s -> s.cached));
    ("serve.cold_p50_ms", lat (fun s -> kind_of s = "cold"));
    ("serve.store_hit_ratio",
     float_of_int (List.length (List.filter (fun s -> s.cached) samples)) /. n);
    ("serve.coalesced", float_of_int !coalesced);
    ("serve.rejected", float_of_int !rejected);
    ("memo.hits", float_of_int !memo_hits);
    ("memo.misses", float_of_int !memo_misses) ]

let gen_golden () =
  List.iter
    (fun r ->
      let prog = build r in
      let recorded = Sim.record ?sched:(sched r) prog ~nprocs:r.nprocs in
      List.iter
        (fun block ->
          List.iter (fun l -> gen_cache r prog recorded l ~block) (layouts r))
        [ 64; 128 ];
      Repair_fixpoint.gen_repair r prog recorded ~block:128)
    recordings
