(* Golden trace digests: the interpreter's complete observable output on
   every workload, pinned to fixed SHA-256 values.

   Each digest covers the packed cell trace, the per-processor work and
   access counts, the barrier episodes, the scheduler statistics and a
   canonical rendering of the final store (kind and value per cell, so
   sharing between boxed values cannot change it).  The other interpreter
   tests compare the interpreter with itself; these compare it with the
   engine the digests were generated from, so a schedule, evaluation-order
   or storage change anywhere in the interpreter shows up here. *)

module Interp = Fs_interp.Interp
module Value = Fs_interp.Value
module Cell_trace = Fs_trace.Cell_trace
module Sched = Fs_sched.Sched
module Sha256 = Fs_util.Sha256
module W = Fs_workloads.Workload

let configs = [ (4, 1); (8, 2); (3, 1) ]
let sched_seed = 3

let digest (w : W.t) ~nprocs ~scale =
  let prog = w.W.build ~nprocs ~scale in
  let sched = if w.W.dynamic then Some (Sched.seeded sched_seed) else None in
  let trace, r = Interp.record ?sched prog ~nprocs in
  let h = Sha256.init () in
  let feed = Sha256.feed h in
  let int n = feed (string_of_int n); feed " " in
  let ints a = int (Array.length a); Array.iter int a; feed "\n" in
  feed "trace ";
  int (Cell_trace.length trace);
  Cell_trace.iter_packed int trace;
  feed "\nwork ";
  ints r.Interp.work;
  feed "accesses ";
  ints r.accesses;
  feed "barriers ";
  int r.barrier_episodes;
  (match r.sched with
   | None -> feed "sched none\n"
   | Some s ->
     feed "sched ";
     List.iter int [ s.Sched.tasks; s.steals; s.steal_attempts; s.inline_runs ];
     feed "\n");
  let names =
    List.sort compare (Hashtbl.fold (fun name _ acc -> name :: acc) r.store [])
  in
  List.iter
    (fun name ->
      feed ("store " ^ name ^ " ");
      Array.iter
        (function
          | Value.Vint n -> feed (Printf.sprintf "i%d " n)
          | Value.Vfloat x -> feed (Printf.sprintf "f%h " x))
        (Hashtbl.find r.store name);
      feed "\n")
    names;
  Sha256.hex h

(* (workload, nprocs, scale) -> digest, generated from the boxed
   interpreter that predates storage-class inference. *)
let golden =
  [
    (("maxflow", 4, 1),
     "7c81477f41a5f045ec5018528ae7c86d53ff03c0bbc2672b8138a98d00ae9bc5");
    (("maxflow", 8, 2),
     "94875be2ec64d59c499236f60d7c3e4b63b48b74d08f4bbbd37a550c93d5ff12");
    (("maxflow", 3, 1),
     "fc1fd75b86731fe966885f264eae5a8390d6d93808a2440649e74a54784ec259");
    (("pverify", 4, 1),
     "01afa5c6075f5e95709a09dd20d925637f86ea56da2d046189bd47768766fb34");
    (("pverify", 8, 2),
     "da6c098c747c0326d3b9e7f70efc6743c87b035bcd20d37e61b17d20be891bff");
    (("pverify", 3, 1),
     "5dafac7d6026cc680c82571fe6bd855951dc351b97d3c8f76c11ecc056802732");
    (("topopt", 4, 1),
     "6e0624f1a8f685b0d7680c4976cb5956185360ad2fb458229ea22914c33867f6");
    (("topopt", 8, 2),
     "b814da82031efc94fbb8bcba6d4126b8178bb5babe74ae200876604a27cba74f");
    (("topopt", 3, 1),
     "3fc6f0a0e6b7fe58b33ca12cf84504e8929505ffb0e558c38a3a2a68a8ba825b");
    (("fmm", 4, 1),
     "289b5c8eec5ff25119856b7c780faa2b09a38e8cdd14f82b29614ecaac476b64");
    (("fmm", 8, 2),
     "093c9783d0280c25e2f41f2790be2497bb0a1a5db2add2683925904ee784f63f");
    (("fmm", 3, 1),
     "90bc8efc57dfe443d623f5e31a8f2e400e0a584928f493e340087369e1fd267f");
    (("radiosity", 4, 1),
     "e18c8e169f4c4c137883bbdb4c9ee7714c3ddfc9013e94b714d0ae7f8cd59e3e");
    (("radiosity", 8, 2),
     "e8d51ea104d6b998c67c1aeb1d2164296e52c4fe24de0bffcd8c926492ced951");
    (("radiosity", 3, 1),
     "225a0ff2052bf243f8d505eb66283fcded3aa477da8ec65cdb4998012b7c55c0");
    (("raytrace", 4, 1),
     "08b37481fd36adaec728af05eee29fb890e6a61c6bc42d6d48245a6f27d44404");
    (("raytrace", 8, 2),
     "e7bc6a46c71288fb327b02751021dfbf361559f9142d6ccda338d912ebbcf2d1");
    (("raytrace", 3, 1),
     "3b1cd3d04bd72c8cd2275efb18f6da48bc54d147bcbaf0558b5488ac237f5ff2");
    (("locusroute", 4, 1),
     "965a17991dc8cd6664ea66e854e35066584a82b64d19fd83b1221c2c3fd17de2");
    (("locusroute", 8, 2),
     "3557cbb190ff13f15db96c58abd57d353b8495c22aa889d6231e98f201b613d7");
    (("locusroute", 3, 1),
     "358780961bafa3ca2b0c3ec676ca84c19da9bc0961cd00917cf651dd586c4820");
    (("mp3d", 4, 1),
     "9874c1b253f663b89fd3c77dfe00c41ef9d4d98e09b5a125cf869b7b879ca9d7");
    (("mp3d", 8, 2),
     "49ba18670c18caa550bc601537d5167a61dac73f8afdf01def597483014fd7b9");
    (("mp3d", 3, 1),
     "47b146db9d7bef3db769945aa5f0647d1106cfc538e5454705156d5ee53b3ab1");
    (("pthor", 4, 1),
     "a42897632a745289c44c23ab4e9e91af9c5b2829aa192aeee5dc1260f81475f0");
    (("pthor", 8, 2),
     "2da54f0357b663ff2621882c4aa3e03a2b66c9edaf6e13d3a890789f7e26270f");
    (("pthor", 3, 1),
     "4fb1266ecf80342708acbe2a539df668cb13f39a2c495d2cbeb1ac57e3bf1777");
    (("water", 4, 1),
     "4159beaf80700b0c86e161842bc5add0b2593d34938ef9cd04fc667e39cd6105");
    (("water", 8, 2),
     "76fd93a88c95b8927e935b65a765b9a2a448eb3257d02ba05976fa422563216c");
    (("water", 3, 1),
     "6e5b6d222d6cbd1d2e9421d31dd8952398f72d513c871a7a1ee1a2ee09e26dbf");
    (("fib", 4, 1),
     "60ba0217413333cc639b90aa01d735092900229a5bf7df5d8dbbb6dde87bfacc");
    (("fib", 8, 2),
     "3a23867f3210085d4b65e98809f755943af7e68872d0a15aeee90346c1f306c2");
    (("fib", 3, 1),
     "1ba08bec051cf3edcb28c4298e438fc18361df5f6acb2edd759a14da3d21e23d");
    (("taskbag", 4, 1),
     "7d11d0ddbac654c73a477d2acb44a45e83e879f6c11306a47a96101a53b08b8c");
    (("taskbag", 8, 2),
     "c9a2b1d824ee471530c521521bb3cc26b93c607bcb7add3258823192180ebe39");
    (("taskbag", 3, 1),
     "1f3b0e3fa03eab00d85f1971bcda33fe9cfe5dbb030b9f4666281d05228dfa54");
    (("stencil", 4, 1),
     "7b1f5825a93b5ff67daea64d173b26e9d9fc7420a49723c55d5d88501d249095");
    (("stencil", 8, 2),
     "cff108feaf5f45e105705189bf638dcaaf8d0d2ae638c0dc154d6f816febe6d7");
    (("stencil", 3, 1),
     "f38984901ae490499736f249c24a24560476584943258f4db641ab595df17a65");
    (("dstress", 4, 1),
     "b931fa5430a7c46cff3cd84219f1a8ed6e1a1c45a2eca1bd68d0a682de94eb58");
    (("dstress", 8, 2),
     "bc1d2e7090a7bcea900c8230b8eb83d5b8d77130bf30d06ee9d5f8e5a8674474");
    (("dstress", 3, 1),
     "5547f38218f3bf915b250cb57144e38179dda38b388fce26f5b0862d62bab27d")
  ]

let test_golden (w : W.t) () =
  List.iter
    (fun (nprocs, scale) ->
      let got = digest w ~nprocs ~scale in
      match List.assoc_opt (w.W.name, nprocs, scale) golden with
      | Some want ->
        Alcotest.(check string)
          (Printf.sprintf "%s P=%d s=%d" w.W.name nprocs scale)
          want got
      | None ->
        Alcotest.failf "no golden digest for (%S, %d, %d): %s" w.W.name nprocs
          scale got)
    configs

let suite =
  List.map
    (fun (w : W.t) ->
      Alcotest.test_case ("digest " ^ w.W.name) `Quick (test_golden w))
    Fs_workloads.Workloads.every
