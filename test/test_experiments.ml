(* Tests for the experiment drivers: structural sanity of every table and
   figure reproduction, on reduced parameters so the suite stays fast. *)

module E = Falseshare.Experiments
module W = Fs_workloads.Workload

let test_figure3_rows () =
  let rows = E.figure3 ~blocks:[ 32 ] ~scale_override:1 () in
  Alcotest.(check int) "six programs, one block" 6 (List.length rows);
  List.iter
    (fun (r : E.fig3_row) ->
      (* indirection adds pointer loads, so the transformed run may have
         more references, never fewer *)
      Alcotest.(check bool) (r.name ^ " accesses not lost") true
        (r.unopt.E.accesses <= r.compiler.E.accesses);
      Alcotest.(check bool) (r.name ^ " has misses") true (r.unopt.E.misses > 0);
      Alcotest.(check bool) (r.name ^ " fs <= misses") true
        (r.unopt.E.false_sharing <= r.unopt.E.misses
         && r.compiler.E.false_sharing <= r.compiler.E.misses);
      Alcotest.(check bool) (r.name ^ " fs reduced") true
        (r.compiler.E.false_sharing < r.unopt.E.false_sharing))
    rows;
  let s = E.render_figure3 rows in
  Tutil.check_contains "fig3 render" s "maxflow";
  Tutil.check_contains "fig3 render" s "FS removed"

let test_table2_rows () =
  let rows = E.table2 ~blocks:[ 64 ] () in
  Alcotest.(check int) "six programs" 6 (List.length rows);
  List.iter
    (fun (r : E.table2_row) ->
      (* the per-transformation fractions decompose the total *)
      let parts = r.group_transpose +. r.indirection +. r.pad_align +. r.locks in
      Alcotest.(check (float 0.02)) (r.name ^ " parts sum to total")
        r.total_reduction parts;
      Alcotest.(check bool) (r.name ^ " meaningful reduction") true
        (r.total_reduction > 0.5))
    rows;
  (* the per-benchmark signatures of Table 2 *)
  let row n = List.find (fun (r : E.table2_row) -> r.name = n) rows in
  Alcotest.(check bool) "pverify is indirection-dominated" true
    ((row "pverify").indirection > (row "pverify").group_transpose);
  Alcotest.(check bool) "fmm is g&t-dominated" true
    ((row "fmm").group_transpose > 0.5);
  Alcotest.(check bool) "maxflow uses no g&t" true
    ((row "maxflow").group_transpose < 0.01 && (row "maxflow").indirection < 0.01);
  Alcotest.(check bool) "maxflow pads" true ((row "maxflow").pad_align > 0.1);
  let s = E.render_table2 rows in
  Tutil.check_contains "table2 render" s "pverify"

let test_speedups_and_table3 () =
  let procs = [ 1; 4; 8 ] in
  let series = E.speedups ~procs ~names:[ "pverify"; "water" ] () in
  (* pverify has three versions, water two *)
  Alcotest.(check int) "five series" 5 (List.length series);
  List.iter
    (fun (s : E.series) ->
      Alcotest.(check int) "all points" 3 (List.length s.points);
      let one = List.assoc 1 s.points in
      Alcotest.(check bool) "defined at P=1" true (one > 0.0))
    series;
  (* the baseline is the unoptimized uniprocessor run: its own speedup is 1 *)
  let pv_n =
    List.find (fun (s : E.series) -> s.workload = "pverify" && s.version = W.N) series
  in
  Alcotest.(check (float 1e-6)) "N speedup at 1" 1.0 (List.assoc 1 pv_n.points);
  let rows = E.table3 ~series () in
  let pv = List.find (fun (r : E.table3_row) -> r.name = "pverify") rows in
  Alcotest.(check int) "three versions reported" 3 (List.length pv.results);
  let best_of v =
    let _, sp, _ = List.find (fun (v', _, _) -> v' = v) pv.results in
    sp
  in
  Alcotest.(check bool) "compiler wins" true (best_of W.C > best_of W.N);
  let s = E.render_table3 rows in
  Tutil.check_contains "table3 render" s "pverify"

let test_plan_for () =
  let w = Fs_workloads.Workloads.find "pverify" in
  let prog = w.W.build ~nprocs:4 ~scale:1 in
  Alcotest.(check bool) "N empty" true (E.plan_for w W.N prog ~nprocs:4 ~scale:1 = []);
  Alcotest.(check bool) "single proc empty" true
    (E.plan_for w W.C prog ~nprocs:1 ~scale:1 = []);
  Alcotest.(check bool) "C non-empty" true
    (E.plan_for w W.C prog ~nprocs:4 ~scale:1 <> []);
  Alcotest.(check bool) "P non-empty" true
    (E.plan_for w W.P prog ~nprocs:4 ~scale:1 <> [])

let test_renderers_nonempty () =
  let stats =
    { E.fs_share_of_misses_128 = 0.7;
      fs_removed_128 = 0.8;
      other_miss_increase_128 = 0.19;
      total_miss_reduction_64 = 0.49 }
  in
  let s = E.render_stats stats in
  Tutil.check_contains "stats render" s "70.0%";
  let rows = [ { E.name = "x"; improvement = 0.25; at_procs = 8 } ] in
  Tutil.check_contains "exec render" (E.render_exec rows) "25.0%"

let suite =
  [ Alcotest.test_case "figure 3" `Slow test_figure3_rows;
    Alcotest.test_case "table 2" `Slow test_table2_rows;
    Alcotest.test_case "speedups / table 3" `Slow test_speedups_and_table3;
    Alcotest.test_case "plan_for" `Quick test_plan_for;
    Alcotest.test_case "renderers" `Quick test_renderers_nonempty ]

let test_attribution () =
  (* the simulator's per-structure verdict names the same culprits the
     compiler's static report does *)
  let w = Fs_workloads.Workloads.find "pverify" in
  let nprocs = 8 in
  let prog = w.W.build ~nprocs ~scale:1 in
  let rows = Falseshare.Attribution.attribute prog [] ~nprocs ~block:128 in
  (match rows with
   | top :: _ ->
     Alcotest.(check string) "gates records dominate false sharing" "gates"
       top.Falseshare.Attribution.var
   | [] -> Alcotest.fail "no rows");
  (* after transformation the false sharing collapses everywhere *)
  let cplan = Falseshare.Sim.compiler_plan prog ~nprocs in
  let rows' = Falseshare.Attribution.attribute prog cplan ~nprocs ~block:128 in
  let total_fs r =
    List.fold_left
      (fun acc (x : Falseshare.Attribution.row) ->
        acc + x.counts.Fs_cache.Mpcache.false_sh)
      0 r
  in
  Alcotest.(check bool) "transformed fs tiny" true
    (total_fs rows' * 10 < total_fs rows);
  Tutil.check_contains "render" (Falseshare.Attribution.render rows) "gates"

(* The attribution rule as it was first written, kept as the reference
   for Attribution.owners: a hashtable of owner tables over every block,
   and a scan of the owner's cells per block. *)
module Attr_ref = struct
  module Layout = Fs_layout.Layout
  module A = Falseshare.Attribution

  let block_owner prog layout ~block =
    let owner_cells : (int, (string, int) Hashtbl.t) Hashtbl.t = Hashtbl.create 256 in
    let bump blk var =
      let tbl =
        match Hashtbl.find_opt owner_cells blk with
        | Some t -> t
        | None ->
          let t = Hashtbl.create 4 in
          Hashtbl.add owner_cells blk t;
          t
      in
      Hashtbl.replace tbl var (1 + Option.value (Hashtbl.find_opt tbl var) ~default:0)
    in
    List.iter
      (fun (name, _) ->
        let vl = Layout.lookup layout name in
        Array.iter (fun a -> bump (a / block) name) vl.Layout.addr;
        Array.iter (fun a -> if a >= 0 then bump (a / block) A.pointer_owner) vl.Layout.extra)
      prog.Fs_ir.Ast.globals;
    fun blk ->
      match Hashtbl.find_opt owner_cells blk with
      | None -> A.unmapped_owner
      | Some tbl ->
        fst
          (Hashtbl.fold
             (fun var n (bv, bn) -> if n > bn then (var, n) else (bv, bn))
             tbl (A.unmapped_owner, 0))

  let cell_range prog layout ~block var blk =
    match List.assoc_opt var prog.Fs_ir.Ast.globals with
    | None -> (-1, -1)
    | Some _ ->
      let vl = Layout.lookup layout var in
      let lo = ref max_int and hi = ref (-1) in
      Array.iteri
        (fun cell a ->
          if a / block = blk then begin
            if cell < !lo then lo := cell;
            if cell > !hi then hi := cell
          end)
        vl.Layout.addr;
      if !hi < 0 then (-1, -1) else (!lo, !hi)

  (* owners of every block of the layout and one past it, against the
     reference; returns the blocks checked *)
  let check what prog layout ~block =
    let nblocks = (Layout.size layout / block) + 1 in
    let blocks = Array.init nblocks Fun.id in
    let got = A.owners prog layout ~block blocks in
    let owner = block_owner prog layout ~block in
    Array.iteri
      (fun b (o : A.owner) ->
        let var = owner b in
        let lo, hi = cell_range prog layout ~block var b in
        if (o.var, o.cell_lo, o.cell_hi) <> (var, lo, hi) then
          Alcotest.failf "%s block %d: owners says %s [%d,%d], reference %s [%d,%d]"
            what b o.var o.cell_lo o.cell_hi var lo hi)
      got;
    (* repeated and unordered requests answer the same *)
    let again = A.owners prog layout ~block (Array.append (Array.map (fun b -> nblocks - 1 - b) blocks) blocks) in
    Array.iteri
      (fun i (o : A.owner) ->
        if o <> got.(if i < nblocks then nblocks - 1 - i else i - nblocks) then
          Alcotest.failf "%s: a repeated request answered differently" what)
      again
end

let test_owners_identity () =
  let nprocs = 4 and scale = 1 in
  List.iter
    (fun (w : W.t) ->
      let prog = w.build ~nprocs ~scale in
      List.iter
        (fun version ->
          if version <> W.P || w.programmer_plan <> None then
            let plan = E.plan_for w version prog ~nprocs ~scale in
            List.iter
              (fun block ->
                Attr_ref.check
                  (Printf.sprintf "%s/%s b=%d" w.name (W.version_to_string version) block)
                  prog (Fs_layout.Layout.realize prog plan ~block) ~block)
              [ 16; 64; 128 ])
        [ W.N; W.C; W.P ])
    Fs_workloads.Workloads.every;
  (* two and three variables tied on cell count in one block: the winner
     is whichever the reference's table fold meets first *)
  let open Fs_ir.Dsl in
  let prog =
    Fs_ir.Validate.validate_exn
      (program ~name:"ties"
         ~globals:[ ("a", arr int_t 2); ("b", arr int_t 2); ("c", arr int_t 3);
                    ("d", arr int_t 3); ("e", arr int_t 2) ]
         [ fn "main" [] [ (v "a").%(i 0) <-- i 1 ] ])
  in
  Attr_ref.check "ties" prog (Fs_layout.Layout.default prog ~block:16) ~block:16;
  Attr_ref.check "ties" prog (Fs_layout.Layout.default prog ~block:32) ~block:32;
  let o = Falseshare.Attribution.owners prog (Fs_layout.Layout.default prog ~block:16) ~block:16 [| 0 |] in
  Alcotest.(check bool) "block 0 goes to a or b" true (o.(0).var = "a" || o.(0).var = "b")

let test_parc_example_file () =
  (* the shipped .parc example parses, validates, and gets the expected plan *)
  let file = "../../../examples/histogram.parc" in
  if Sys.file_exists file then begin
    let ic = open_in file in
    let src = really_input_string ic (in_channel_length ic) in
    close_in ic;
    match Fs_parc.Parser.parse_and_validate src with
    | Error errs -> Alcotest.fail (String.concat "; " errs)
    | Ok prog ->
      let plan = Falseshare.Sim.compiler_plan prog ~nprocs:8 in
      Alcotest.(check bool) "counts regrouped" true
        (List.exists
           (function
             | Fs_layout.Plan.Regroup { var = "counts"; _ } -> true
             | _ -> false)
           plan)
  end

let suite =
  suite
  @ [ Alcotest.test_case "attribution" `Slow test_attribution;
      Alcotest.test_case "parc example file" `Quick test_parc_example_file;
      Alcotest.test_case "owners match the reference attribution" `Quick
        test_owners_identity ]
