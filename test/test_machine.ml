(* Tests for the KSR2-style timing model. *)

open Fs_ir
module Ksr = Fs_machine.Ksr
module C = Fs_cache.Mpcache
module Layout = Fs_layout.Layout
module Plan = Fs_layout.Plan
module Sim = Falseshare.Sim
module W = Fs_workloads.Workload
module Ws = Fs_workloads.Workloads

let run ?config ?(plan = []) prog ~nprocs =
  (Sim.machine_sim ?config prog plan ~nprocs).Sim.machine

let dsl_prog globals funcs =
  Validate.validate_exn (Dsl.program ~name:"t" ~globals funcs)

let compute_prog =
  let open Dsl in
  dsl_prog [ ("out", arr int_t 64) ]
    [ fn "main" []
        [ decl "acc" (i 0);
          sfor "k" (i 0) (i 2000) [ set "acc" ((p "acc" +% p "k") %% i 9973) ];
          (v "out").%(pdv %% i 64) <-- p "acc" ] ]

let test_deterministic () =
  let a = run compute_prog ~nprocs:4 and b = run compute_prog ~nprocs:4 in
  Alcotest.(check int) "same cycles" a.Ksr.cycles b.Ksr.cycles

let test_compute_scales () =
  (* pure per-process computation scales nearly linearly *)
  let t1 = (run compute_prog ~nprocs:1).Ksr.cycles in
  let t8 = (run compute_prog ~nprocs:8).Ksr.cycles in
  let speedup = float_of_int t1 /. float_of_int t8 in
  Alcotest.(check bool)
    (Printf.sprintf "near-linear (got %.2f)" speedup)
    true (speedup > 0.9)
  (* each process runs the same loop here, so the parallel run does P times
     the work in roughly the serial time: the point is that no artificial
     bottleneck appears *)

let fs_prog =
  (* heavy false sharing: everyone hammers one block *)
  let open Dsl in
  dsl_prog [ ("hot", arr int_t 64) ]
    [ fn "main" []
        [ sfor "k" (i 0) (i 200) [ bump ((v "hot").%(pdv)) (i 1) ] ] ]

let test_false_sharing_costs () =
  (* the same program, same references, transformed layout: much cheaper *)
  let n = (run fs_prog ~nprocs:8).Ksr.cycles in
  let c =
    (run fs_prog ~nprocs:8
       ~plan:[ Plan.Group_transpose { vars = [ "hot" ]; pdv_axis = 0 } ])
      .Ksr.cycles
  in
  Alcotest.(check bool)
    (Printf.sprintf "transformed at least 3x cheaper (N=%d C=%d)" n c)
    true
    (n > 3 * c)

let test_mem_stall_attribution () =
  let r = run fs_prog ~nprocs:8 in
  let stall = Array.fold_left ( + ) 0 r.Ksr.mem_stall in
  Alcotest.(check bool) "stalls recorded" true (stall > 0);
  Alcotest.(check bool) "misses recorded" true
    (Fs_cache.Mpcache.misses r.Ksr.cache > 0)

let barrier_prog =
  let open Dsl in
  dsl_prog [ ("x", int_t) ]
    [ fn "main" [] [ sfor "k" (i 0) (i 10) [ barrier ] ] ]

let test_barrier_cost_grows_with_procs () =
  let t2 = (run barrier_prog ~nprocs:2).Ksr.cycles in
  let t32 = (run barrier_prog ~nprocs:32).Ksr.cycles in
  Alcotest.(check bool) "barriers dearer on more processors" true (t32 > t2)

let test_clock_alignment_at_barriers () =
  (* after a barrier-terminated program every participant's clock is equal *)
  let open Dsl in
  let p =
    dsl_prog [ ("a", arr int_t 8) ]
      [ fn "main" []
          [ when_ (pdv ==% i 0) [ sfor "k" (i 0) (i 500) [ (v "a").%(i 0) <-- p "k" ] ];
            barrier ] ]
  in
  let r = run p ~nprocs:4 in
  Array.iter
    (fun c -> Alcotest.(check int) "aligned" r.Ksr.per_proc.(0) c)
    r.Ksr.per_proc

let test_lock_handoff_serializes () =
  let open Dsl in
  let p =
    dsl_prog [ ("l", lock_t); ("x", int_t) ]
      [ fn "main" []
          [ lock (v "l");
            sfor "k" (i 0) (i 300) [ bump (v "x") (i 1) ];
            unlock (v "l") ] ]
  in
  (* the critical sections execute one after another: the 8-process run
     costs roughly 8 serial sections, not one *)
  let t1 = (run p ~nprocs:1).Ksr.cycles in
  let t8 = (run p ~nprocs:8).Ksr.cycles in
  Alcotest.(check bool)
    (Printf.sprintf "serialized (t1=%d t8=%d)" t1 t8)
    true
    (t8 > 5 * t1)

let test_cross_ring_latency () =
  (* a 33rd processor sits on the second ring: fetching data owned by
     processor 0 is dearer for it than for a same-ring processor *)
  let cfg = Ksr.default_config ~nprocs:34 in
  Alcotest.(check bool) "config sane" true
    (cfg.Ksr.cross_ring_latency > cfg.Ksr.same_ring_latency)

(* The full result of every static workload x N/C/P, against the table
   pinned before the model moved onto the packed trace. *)
let test_pinned () =
  List.iter
    (fun (row : Ksr_pinned.row) ->
      let w = Ws.find row.name in
      let version =
        match row.version with "N" -> W.N | "C" -> W.C | _ -> W.P
      in
      let prog = w.W.build ~nprocs:row.nprocs ~scale:row.scale in
      let plan =
        Falseshare.Experiments.checked_plan_for w version prog
          ~nprocs:row.nprocs ~scale:row.scale
      in
      let r = run ~plan prog ~nprocs:row.nprocs in
      let what field =
        Printf.sprintf "%s/%s P=%d %s" row.name row.version row.nprocs field
      in
      let c = r.Ksr.cache in
      Alcotest.(check int) (what "cycles") row.cycles r.Ksr.cycles;
      Alcotest.(check (array int)) (what "per_proc") row.per_proc r.Ksr.per_proc;
      Alcotest.(check (array int)) (what "mem_stall") row.mem_stall r.Ksr.mem_stall;
      Alcotest.(check (array int)) (what "sync_stall") row.sync_stall
        r.Ksr.sync_stall;
      Alcotest.(check (array int)) (what "lock_stall") row.lock_stall
        r.Ksr.lock_stall;
      Alcotest.(check (array int)) (what "cache") row.cache
        [| c.C.reads; c.writes; c.cold; c.repl; c.true_sh; c.false_sh;
           c.invalidations; c.upgrades |])
    Ksr_pinned.table

(* The cache embedded in the model counts what the independent reference
   protocol counts on the same address stream, for every static workload
   x N/C/P. *)
let test_embedded_cache_vs_reference () =
  let nprocs = 4 and scale = 1 in
  let kc = Ksr.default_config ~nprocs in
  List.iter
    (fun (w : W.t) ->
      let prog = w.build ~nprocs ~scale in
      let recorded = Sim.record prog ~nprocs in
      List.iter
        (fun version ->
          let plan =
            Falseshare.Experiments.checked_plan_for w version prog ~nprocs ~scale
          in
          let r = (Sim.machine_sim ~recorded prog plan ~nprocs).Sim.machine in
          let legacy =
            Legacy_cache.create
              { C.nprocs; block = kc.Ksr.block; cache_bytes = kc.Ksr.cache_bytes;
                assoc = kc.Ksr.assoc }
          in
          Fs_replay.Replay.replay_to_sink recorded.Sim.trace
            ~layout:(Layout.realize prog plan ~block:kc.Ksr.block)
            ~sink:(Legacy_cache.sink legacy);
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s: embedded cache = reference" w.name
               (W.version_to_string version))
            true
            (Legacy_cache.counts legacy = r.Ksr.cache))
        (if List.mem W.N w.versions then w.versions else W.N :: w.versions))
    Ws.all

let suite =
  [ Alcotest.test_case "deterministic" `Quick test_deterministic;
    Alcotest.test_case "compute scales" `Quick test_compute_scales;
    Alcotest.test_case "false sharing costs" `Quick test_false_sharing_costs;
    Alcotest.test_case "mem stall attribution" `Quick test_mem_stall_attribution;
    Alcotest.test_case "barrier cost grows" `Quick test_barrier_cost_grows_with_procs;
    Alcotest.test_case "clock alignment" `Quick test_clock_alignment_at_barriers;
    Alcotest.test_case "lock handoff serializes" `Quick test_lock_handoff_serializes;
    Alcotest.test_case "cross ring config" `Quick test_cross_ring_latency;
    Alcotest.test_case "pinned results (all workloads x N/C/P)" `Quick test_pinned;
    Alcotest.test_case "embedded cache vs reference protocol" `Quick
      test_embedded_cache_vs_reference ]
