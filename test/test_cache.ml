(* Tests for the multiprocessor cache simulator: MSI protocol invariants
   and the false/true sharing miss classification. *)

module C = Fs_cache.Mpcache

let mk ?(nprocs = 4) ?(block = 16) ?(cache_bytes = 1024) ?(assoc = 2)
    ?(track_blocks = false) ?(track_lines = false) () =
  C.create ~track_blocks ~track_lines { C.nprocs; block; cache_bytes; assoc }

let rd t p a = C.access t ~proc:p ~write:false ~addr:a
let wr t p a = C.access t ~proc:p ~write:true ~addr:a

let kind = function
  | C.Miss { info = { kind; _ }; _ } -> Some kind
  | C.Hit | C.Upgrade _ -> None

let test_cold_then_hit () =
  let t = mk () in
  Alcotest.(check bool) "first ref cold" true (kind (rd t 0 0) = Some C.Cold);
  Alcotest.(check bool) "second ref hits" true (rd t 0 4 = C.Hit);
  Alcotest.(check bool) "other block cold" true (kind (rd t 0 16) = Some C.Cold);
  Alcotest.(check bool) "other proc cold" true (kind (rd t 1 0) = Some C.Cold)

let test_msi_states () =
  let t = mk () in
  ignore (wr t 0 0);
  Alcotest.(check bool) "writer modified" true (C.state_of t ~proc:0 ~addr:0 = `Modified);
  ignore (rd t 1 0);
  Alcotest.(check bool) "writer downgraded" true (C.state_of t ~proc:0 ~addr:0 = `Shared);
  Alcotest.(check bool) "reader shared" true (C.state_of t ~proc:1 ~addr:0 = `Shared);
  ignore (wr t 2 0);
  Alcotest.(check bool) "new writer modified" true (C.state_of t ~proc:2 ~addr:0 = `Modified);
  Alcotest.(check bool) "old copies invalid" true
    (C.state_of t ~proc:0 ~addr:0 = `Invalid && C.state_of t ~proc:1 ~addr:0 = `Invalid)

let test_upgrade () =
  let t = mk () in
  ignore (rd t 0 0);
  ignore (rd t 1 0);
  (match wr t 0 0 with
   | C.Upgrade { invalidated } -> Alcotest.(check int) "one copy invalidated" 1 invalidated
   | _ -> Alcotest.fail "expected upgrade");
  Alcotest.(check int) "upgrade counted" 1 (C.counts t).C.upgrades

let test_true_sharing () =
  let t = mk () in
  (* P1 reads word 0; P0 writes word 0; P1 rereads word 0: essential *)
  ignore (rd t 1 0);
  ignore (wr t 0 0);
  Alcotest.(check bool) "true sharing" true (kind (rd t 1 0) = Some C.True_sharing)

let test_false_sharing () =
  let t = mk () in
  (* P1 reads word 1; P0 writes word 0 (same block); P1 rereads word 1 *)
  ignore (rd t 1 4);
  ignore (wr t 0 0);
  Alcotest.(check bool) "false sharing" true (kind (rd t 1 4) = Some C.False_sharing)

let test_false_sharing_own_word () =
  let t = mk () in
  (* the word P1 rereads was last written by P1 itself: false sharing *)
  ignore (wr t 1 4);
  ignore (wr t 0 0);  (* invalidates P1's copy via word 0 *)
  Alcotest.(check bool) "own word false sharing" true
    (kind (rd t 1 4) = Some C.False_sharing)

let test_write_write_false_sharing () =
  let t = mk () in
  ignore (wr t 0 0);
  ignore (wr t 1 4);
  (* P0's next write to its own word misses only because of P1: false *)
  Alcotest.(check bool) "write/write false sharing" true
    (kind (wr t 0 0) = Some C.False_sharing)

let test_one_word_blocks_no_false_sharing () =
  (* with one-word blocks false sharing is impossible by definition *)
  let t = mk ~block:4 () in
  for k = 0 to 200 do
    let p = k mod 4 in
    ignore (wr t p (4 * p));
    ignore (rd t p (4 * ((p + 1) mod 4)))
  done;
  Alcotest.(check int) "no false sharing" 0 (C.counts t).C.false_sh

let test_replacement () =
  (* direct-mapped single-set cache: two conflicting blocks evict each other *)
  let t = mk ~nprocs:1 ~cache_bytes:32 ~block:16 ~assoc:2 () in
  ignore (rd t 0 0);
  ignore (rd t 0 16);
  ignore (rd t 0 32);  (* evicts block 0 (LRU) *)
  Alcotest.(check bool) "replacement classified" true
    (kind (rd t 0 0) = Some C.Replacement);
  Alcotest.(check int) "repl counted" 1 (C.counts t).C.repl

let test_lru () =
  let t = mk ~nprocs:1 ~cache_bytes:32 ~block:16 ~assoc:2 () in
  ignore (rd t 0 0);
  ignore (rd t 0 16);
  ignore (rd t 0 0);   (* touch block 0: block 16 is now LRU *)
  ignore (rd t 0 32);  (* evicts 16 *)
  Alcotest.(check bool) "block 0 still resident" true (rd t 0 0 = C.Hit);
  Alcotest.(check bool) "block 16 evicted" true (kind (rd t 0 16) = Some C.Replacement)

let test_provider () =
  let t = mk () in
  ignore (wr t 2 0);
  (match rd t 0 0 with
   | C.Miss { info = { provider; _ }; _ } ->
     Alcotest.(check int) "modified owner provides" 2 provider
   | _ -> Alcotest.fail "expected miss");
  (* now 2 and 0 share; a write miss by 3 invalidates both *)
  (match wr t 3 0 with
   | C.Miss { invalidated; _ } -> Alcotest.(check int) "two invalidated" 2 invalidated
   | _ -> Alcotest.fail "expected miss")

let test_counts_consistency =
  QCheck.Test.make ~name:"cache counts are consistent" ~count:100
    QCheck.(list_of_size Gen.(int_range 1 400)
              (triple (int_range 0 3) bool (int_range 0 63)))
    (fun ops ->
      let t = mk () in
      List.iter (fun (p, w, word) -> ignore (C.access t ~proc:p ~write:w ~addr:(4 * word))) ops;
      let c = C.counts t in
      C.accesses c = List.length ops
      && C.misses c <= C.accesses c
      && c.C.cold >= 0 && c.C.repl >= 0 && c.C.true_sh >= 0 && c.C.false_sh >= 0)

(* Against the independent reference protocol: random reference
   sequences over small caches (so evictions happen) and several block
   sizes, and the two simulators' totals agree field for field. *)
let test_matches_reference =
  let gen =
    QCheck.Gen.(
      int_range 1 6 >>= fun nprocs ->
      oneofl [ 4; 8; 16; 32; 64 ] >>= fun block ->
      int_range 1 4 >>= fun assoc ->
      int_range 1 4 >>= fun sets ->
      list_size (int_range 1 400)
        (triple (int_bound (nprocs - 1)) bool (int_bound 255))
      >|= fun ops ->
      ({ C.nprocs; block; cache_bytes = block * assoc * sets; assoc }, ops))
  in
  let print ((cfg : C.config), ops) =
    Printf.sprintf "P=%d block=%d bytes=%d assoc=%d, %d refs" cfg.nprocs
      cfg.block cfg.cache_bytes cfg.assoc (List.length ops)
  in
  QCheck.Test.make ~name:"counts match the reference protocol" ~count:300
    (QCheck.make gen ~print)
    (fun (cfg, ops) ->
      let t = C.create cfg and r = Legacy_cache.create cfg in
      List.iter
        (fun (proc, write, word) ->
          C.touch t ~proc ~write ~addr:(4 * word);
          Legacy_cache.sink r ~proc ~write ~addr:(4 * word))
        ops;
      C.counts t = Legacy_cache.counts r)

let test_single_writer_no_sharing_misses =
  QCheck.Test.make ~name:"single processor never has sharing misses" ~count:100
    QCheck.(list_of_size Gen.(int_range 1 300) (pair bool (int_range 0 255)))
    (fun ops ->
      let t = mk ~nprocs:1 () in
      List.iter (fun (w, word) -> ignore (C.access t ~proc:0 ~write:w ~addr:(4 * word))) ops;
      let c = C.counts t in
      c.C.true_sh = 0 && c.C.false_sh = 0 && c.C.invalidations = 0)

let test_per_block_tracking () =
  let t = mk ~track_blocks:true () in
  ignore (wr t 0 0);
  ignore (wr t 1 4);
  ignore (wr t 0 160);
  let blocks = C.per_block t in
  Alcotest.(check int) "two blocks tracked" 2 (List.length blocks);
  let b0 = List.assoc 0 blocks in
  Alcotest.(check int) "block 0 writes" 2 b0.C.writes

let test_line_tracking () =
  let t = mk ~track_lines:true () in
  (* P0 and P1 ping-pong over distinct words of block 0; P2 reads once *)
  ignore (wr t 0 0);
  ignore (wr t 1 4);
  ignore (wr t 0 0);
  ignore (wr t 1 4);
  ignore (rd t 2 8);
  ignore (wr t 3 160);  (* a second, single-writer line *)
  match C.lines t with
  | [ l0; l10 ] ->
    Alcotest.(check int) "block id" 0 l0.C.line_block;
    Alcotest.(check int) "reads" 1 l0.C.line_reads;
    Alcotest.(check int) "writes" 4 l0.C.line_writes;
    Alcotest.(check int) "writers" 2 l0.C.writers;
    Alcotest.(check int) "readers" 1 l0.C.readers;
    (* every write after the first changed hands *)
    Alcotest.(check int) "migrations" 3 l0.C.migrations;
    (* the last two writes returned to their previous writer: ABA *)
    Alcotest.(check int) "strict aba ping-pong" 2 l0.C.pingpong;
    Alcotest.(check int) "longest alternating run" 4 l0.C.max_run;
    Alcotest.(check (float 1e-9)) "score = migrations/writes" 0.75
      (C.pingpong_score l0);
    Alcotest.(check int) "two words written" 2 l0.C.written_words;
    Alcotest.(check int) "no word has two writers" 0 l0.C.shared_words;
    Alcotest.(check int) "word 0 writer mask" 0b0001 l0.C.word_writers.(0);
    Alcotest.(check int) "word 1 writer mask" 0b0010 l0.C.word_writers.(1);
    Alcotest.(check int) "other line single writer" 1 l10.C.writers;
    Alcotest.(check int) "other line no migrations" 0 l10.C.migrations;
    Alcotest.(check (float 1e-9)) "other line score" 0.0 (C.pingpong_score l10)
  | ls -> Alcotest.fail (Printf.sprintf "expected 2 lines, got %d" (List.length ls))

let test_shared_words () =
  let t = mk ~track_lines:true () in
  ignore (wr t 0 0);
  ignore (wr t 1 0);  (* same word, second writer *)
  match C.lines t with
  | [ l ] ->
    Alcotest.(check int) "one word written" 1 l.C.written_words;
    Alcotest.(check int) "and it is shared" 1 l.C.shared_words
  | _ -> Alcotest.fail "expected one line"

(* The slot-indexed tracking tables against the test-side oracle, which
   re-derives them from an untracked cache's outcomes: random processors,
   small caches (evictions), addresses over enough blocks that the slot
   tables and the block arrays both grow, and each flag alone or both. *)
let test_tracking_matches_oracle =
  let gen =
    QCheck.Gen.(
      let* nprocs = int_range 1 8 in
      let* block = oneofl [ 4; 16; 64; 128 ] in
      let* assoc = int_range 1 4 in
      let* nsets = oneofl [ 1; 2; 8 ] in
      let* flags = oneofl [ (true, true); (true, false); (false, true) ] in
      let* span = oneofl [ 256; 4096; 65536 ] in
      let+ ops =
        list_size (int_range 1 600)
          (triple (int_range 0 (nprocs - 1)) bool (int_range 0 (span - 1)))
      in
      (nprocs, block, assoc * nsets * block, assoc, flags, ops))
  in
  let print (nprocs, block, cache_bytes, assoc, (tb, tl), ops) =
    Printf.sprintf "P=%d block=%d cache=%d assoc=%d blocks=%b lines=%b, %d ops"
      nprocs block cache_bytes assoc tb tl (List.length ops)
  in
  QCheck.Test.make ~name:"tracking tables match the oracle" ~count:300
    (QCheck.make gen ~print)
    (fun (nprocs, block, cache_bytes, assoc, (track_blocks, track_lines), ops) ->
      let cfg = { C.nprocs; block; cache_bytes; assoc } in
      let t = C.create ~track_blocks ~track_lines cfg in
      let o = Tutil.Oracle.create (C.create cfg) in
      List.iter
        (fun (proc, write, word) ->
          let addr = 4 * word in
          Tutil.Oracle.sink o ~proc ~write ~addr;
          C.touch t ~proc ~write ~addr)
        ops;
      C.counts t = C.counts o.Tutil.Oracle.cache
      && ((not track_blocks) || C.per_block t = Tutil.Oracle.per_block o)
      && ((not track_lines) || C.lines t = Tutil.Oracle.lines o))

(* The reference protocol driven with its invalidation pairs re-derived
   from its own state: before a write that does not hit a Modified copy,
   every other processor in the block's sharer mask loses its copy, by
   upgrade when the writer held the block Shared. *)
let legacy_with_pairs (cfg : C.config) =
  let r = Legacy_cache.create cfg in
  let pairs = Hashtbl.create 16 in
  let sink ~proc ~write ~addr =
    (if write then
       let b = addr / cfg.block in
       match Hashtbl.find_opt r.Legacy_cache.blocks b with
       | None -> ()
       | Some bi ->
         let mine =
           match Hashtbl.find_opt r.Legacy_cache.procs.(proc).Legacy_cache.entries b with
           | Some e -> e.Legacy_cache.state
           | None -> 0
         in
         if mine <> 2 then
           for q = 0 to cfg.nprocs - 1 do
             if q <> proc && bi.Legacy_cache.mask land (1 lsl q) <> 0 then begin
               let u, m = Option.value ~default:(0, 0) (Hashtbl.find_opt pairs (b, proc, q)) in
               Hashtbl.replace pairs (b, proc, q)
                 (if mine = 1 then (u + 1, m) else (u, m + 1))
             end
           done);
    Legacy_cache.sink r ~proc ~write ~addr
  in
  let pairs () =
    Hashtbl.fold
      (fun (block, src, victim) (upgrades, write_misses) acc ->
        { C.block; src; victim; upgrades; write_misses } :: acc)
      pairs []
    |> List.sort (fun (a : C.pair) (b : C.pair) ->
           compare (a.block, a.src, a.victim) (b.block, b.src, b.victim))
  in
  (r, sink, pairs)

(* A sparse arena: a few blocks spread over 4 MB, first touched
   highest first (so first-touch order is not address order), into a
   cache with every tracking flag on — unhinted, hinted with the whole
   arena, and hinted far short of it so the block index grows past the
   hint.  Counts match the reference protocol; per-block counts, lines
   and invalidation pairs match the oracle and the pairs re-derived from
   the reference; a block never touched reads Invalid. *)
let test_sparse_arena =
  let gen =
    QCheck.Gen.(
      let* nprocs = int_range 1 8 in
      let* block = oneofl [ 4; 16; 64; 128 ] in
      let* assoc = int_range 1 4 in
      let* nsets = oneofl [ 1; 2; 8 ] in
      let arena = 1 lsl 22 in
      let* nb = int_range 2 6 in
      let* blocks = list_repeat nb (int_bound ((arena / block) - 1)) in
      let blocks = Array.of_list (List.sort_uniq (fun a b -> compare b a) blocks) in
      let+ ops =
        list_size (int_range 1 400)
          (quad (int_range 0 (nprocs - 1)) bool
             (int_bound (Array.length blocks - 1))
             (int_bound ((block / 4) - 1)))
      in
      (* the highest block first *)
      let addrs =
        (0, true, 0, 0) :: ops
        |> List.map (fun (p, w, i, word) -> (p, w, (blocks.(i) * block) + (4 * word)))
      in
      ({ C.nprocs; block; cache_bytes = assoc * nsets * block; assoc }, arena, blocks, addrs))
  in
  let print ((cfg : C.config), arena, blocks, ops) =
    Printf.sprintf "P=%d block=%d cache=%d assoc=%d arena=%d blocks=[%s], %d ops"
      cfg.nprocs cfg.block cfg.cache_bytes cfg.assoc arena
      (String.concat ";" (Array.to_list (Array.map string_of_int blocks)))
      (List.length ops)
  in
  QCheck.Test.make ~name:"sparse arena matches the reference and the oracle"
    ~count:100 (QCheck.make gen ~print)
    (fun (cfg, arena, blocks, ops) ->
      let r, legacy_sink, legacy_pairs = legacy_with_pairs cfg in
      let o = Tutil.Oracle.create (C.create cfg) in
      List.iter
        (fun (proc, write, addr) ->
          legacy_sink ~proc ~write ~addr;
          Tutil.Oracle.sink o ~proc ~write ~addr)
        ops;
      let untouched =
        (* a block between or beyond the drawn ones *)
        let rec pick b = if Array.mem b blocks then pick (b + 1) else b in
        pick (blocks.(Array.length blocks - 1) + 1)
      in
      List.for_all
        (fun max_addr ->
          let t =
            C.create ~track_blocks:true ~track_pairs:true ~track_lines:true
              ?max_addr cfg
          in
          List.iter (fun (proc, write, addr) -> C.touch t ~proc ~write ~addr) ops;
          C.counts t = Legacy_cache.counts r
          && C.per_block t = Tutil.Oracle.per_block o
          && C.lines t = Tutil.Oracle.lines o
          && C.invalidation_pairs t = legacy_pairs ()
          && List.for_all
               (fun addr ->
                 List.for_all
                   (fun proc -> C.state_of t ~proc ~addr = `Invalid)
                   (List.init cfg.nprocs Fun.id))
               [ untouched * cfg.block; arena * 4 ])
        [ None; Some arena; Some (arena / 64) ])

let test_tracking_off_raises () =
  let t = mk () in
  ignore (wr t 0 0);
  let raises what f =
    Alcotest.(check bool) (what ^ " raises when tracking off") true
      (match f () with _ -> false | exception Invalid_argument _ -> true)
  in
  raises "per_block" (fun () -> C.per_block t);
  raises "invalidation_pairs" (fun () -> C.invalidation_pairs t);
  raises "lines" (fun () -> C.lines t)

let test_counts_arithmetic () =
  let t = mk () in
  ignore (wr t 0 0);
  ignore (wr t 1 4);
  ignore (rd t 2 0);
  let c = C.counts t in
  let copy = C.copy_counts c in
  Alcotest.(check bool) "copy equals" true (copy = c);
  ignore (wr t 3 8);
  Alcotest.(check bool) "copy is a snapshot" true (copy <> C.counts t);
  let diff = C.sub_counts (C.counts t) copy in
  let rebuilt = C.copy_counts copy in
  C.add_into rebuilt diff;
  Alcotest.(check bool) "sub then add rebuilds" true (rebuilt = C.counts t)

let test_miss_rates () =
  let t = mk () in
  ignore (rd t 0 0);
  ignore (rd t 0 0);
  ignore (rd t 0 0);
  ignore (rd t 0 0);
  let c = C.counts t in
  Alcotest.(check (float 1e-9)) "miss rate" 0.25 (C.miss_rate c);
  Alcotest.(check (float 1e-9)) "fs rate" 0.0 (C.false_sharing_rate c)

let test_touch_matches_access () =
  (* touch is access minus the boxed outcome; drive the same reference
     stream through both entry points, with and without a max_addr hint,
     and compare every counter — exercising the growth path on the
     unhinted cache (addresses run far past the initial arena) *)
  let ops =
    List.init 4000 (fun k -> (k mod 4, k land 3 = 0, 4 * (k * 37 mod 40_000)))
  in
  let a = mk () in
  let b = mk () in
  let c = C.create ~max_addr:160_000 { C.nprocs = 4; block = 16; cache_bytes = 1024; assoc = 2 } in
  List.iter
    (fun (p, w, addr) ->
      ignore (C.access a ~proc:p ~write:w ~addr);
      C.touch b ~proc:p ~write:w ~addr;
      C.touch c ~proc:p ~write:w ~addr)
    ops;
  Alcotest.(check bool) "touch = access" true (C.counts a = C.counts b);
  Alcotest.(check bool) "presized = grown" true (C.counts a = C.counts c);
  Alcotest.(check bool) "per-proc agree" true (C.proc_counts a = C.proc_counts c);
  (* an address beyond anything ever touched reads as Invalid *)
  Alcotest.(check bool) "unseen block invalid" true
    (C.state_of a ~proc:0 ~addr:10_000_000 = `Invalid)

let test_bad_config () =
  Alcotest.(check bool) "non-power block rejected" true
    (match mk ~block:24 () with
     | _ -> false
     | exception Invalid_argument _ -> true)

(* Merging counts is a field-wise sum ([add_into] on a copy), so it must
   be associative and order-independent — what lets per-epoch and
   per-processor counts be summed to totals in any order. *)
let merge a b =
  let c = C.copy_counts a in
  C.add_into c b;
  c

let counts_gen =
  QCheck.Gen.(
    map
      (fun l ->
        match l with
        | [ reads; writes; cold; repl; true_sh; false_sh; invalidations;
            upgrades ] ->
          { C.reads; writes; cold; repl; true_sh; false_sh; invalidations;
            upgrades }
        | _ -> assert false)
      (list_repeat 8 (int_bound 1_000_000)))

let counts_arb =
  QCheck.make counts_gen ~print:(fun (c : C.counts) ->
      Printf.sprintf "{r=%d w=%d cold=%d repl=%d ts=%d fs=%d inv=%d up=%d}"
        c.C.reads c.writes c.cold c.repl c.true_sh c.false_sh c.invalidations
        c.upgrades)

let test_merge_associative =
  QCheck.Test.make ~name:"counts merge is associative" ~count:200
    QCheck.(triple counts_arb counts_arb counts_arb)
    (fun (a, b, c) ->
      merge (merge a b) c = merge a (merge b c))

let test_merge_order_independent =
  QCheck.Test.make ~name:"counts merge is order-independent" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 8) counts_arb)
    (fun cs ->
      let fold l =
        List.fold_left merge (C.zero_counts ()) l
      in
      fold cs = fold (List.rev cs)
      && fold cs = fold (List.sort compare cs))

let suite =
  [ Alcotest.test_case "cold then hit" `Quick test_cold_then_hit;
    Alcotest.test_case "msi states" `Quick test_msi_states;
    Alcotest.test_case "upgrade" `Quick test_upgrade;
    Alcotest.test_case "true sharing" `Quick test_true_sharing;
    Alcotest.test_case "false sharing" `Quick test_false_sharing;
    Alcotest.test_case "own-word false sharing" `Quick test_false_sharing_own_word;
    Alcotest.test_case "write/write false sharing" `Quick test_write_write_false_sharing;
    Alcotest.test_case "one-word blocks" `Quick test_one_word_blocks_no_false_sharing;
    Alcotest.test_case "replacement" `Quick test_replacement;
    Alcotest.test_case "lru" `Quick test_lru;
    Alcotest.test_case "provider" `Quick test_provider;
    QCheck_alcotest.to_alcotest test_counts_consistency;
    QCheck_alcotest.to_alcotest test_single_writer_no_sharing_misses;
    QCheck_alcotest.to_alcotest test_matches_reference;
    Alcotest.test_case "per-block tracking" `Quick test_per_block_tracking;
    Alcotest.test_case "line tracking" `Quick test_line_tracking;
    Alcotest.test_case "shared words" `Quick test_shared_words;
    Alcotest.test_case "tracking off raises" `Quick test_tracking_off_raises;
    QCheck_alcotest.to_alcotest test_tracking_matches_oracle;
    Alcotest.test_case "counts arithmetic" `Quick test_counts_arithmetic;
    Alcotest.test_case "miss rates" `Quick test_miss_rates;
    Alcotest.test_case "touch matches access" `Quick test_touch_matches_access;
    Alcotest.test_case "bad config" `Quick test_bad_config;
    QCheck_alcotest.to_alcotest test_merge_associative;
    QCheck_alcotest.to_alcotest test_merge_order_independent;
    QCheck_alcotest.to_alcotest test_sparse_arena ]
