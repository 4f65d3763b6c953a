module Mpcache = Fs_cache.Mpcache
module Layout = Fs_layout.Layout

type owner = { var : string; cell_lo : int; cell_hi : int }

type row = { var : string; counts : Mpcache.counts; blocks : int }

let pointer_owner = "(indirection pointers)"
let unmapped_owner = "(unmapped)"

(* One variable's share of one block: its cell count, and the lowest and
   highest of its cells placed there. *)
type tally = { mutable n : int; mutable lo : int; mutable hi : int }

(* Dominant owner of each requested block, by cell count, in one pass
   over the layout's addresses.  Globals are walked in declaration order,
   each variable's cells in index order and then its pointer cells, and
   every block's table is created at size 4 and receives its keys in
   first-sighting order — so [Hashtbl.fold] visits owners in a fixed
   order and a tie goes the same way on every run. *)
let owners prog layout ~block blocks =
  let nb = Array.fold_left (fun m b -> max m (b + 1)) 0 blocks in
  let index = Array.make nb (-1) in
  let tables = ref [] and k = ref 0 in
  Array.iter
    (fun b ->
      if index.(b) < 0 then begin
        index.(b) <- !k;
        incr k;
        tables := Hashtbl.create 4 :: !tables
      end)
    blocks;
  let tables = Array.of_list (List.rev !tables) in
  let bump a var cell =
    let b = a / block in
    if b < nb && index.(b) >= 0 then begin
      let tbl = tables.(index.(b)) in
      match Hashtbl.find_opt tbl var with
      | Some t ->
        t.n <- t.n + 1;
        t.hi <- cell
      | None -> Hashtbl.add tbl var { n = 1; lo = cell; hi = cell }
    end
  in
  List.iter
    (fun (name, _) ->
      let vl = Layout.lookup layout name in
      Array.iteri (fun cell a -> bump a name cell) vl.Layout.addr;
      Array.iter
        (fun a -> if a >= 0 then bump a pointer_owner (-1))
        vl.Layout.extra)
    prog.Fs_ir.Ast.globals;
  Array.map
    (fun b ->
      let best, t =
        Hashtbl.fold
          (fun var t ((_, bt) as acc) -> if t.n > bt.n then (var, t) else acc)
          tables.(index.(b))
          (unmapped_owner, { n = 0; lo = -1; hi = -1 })
      in
      if best = pointer_owner then { var = best; cell_lo = -1; cell_hi = -1 }
      else { var = best; cell_lo = t.lo; cell_hi = t.hi })
    blocks

let attribute ?(cache_bytes = 32 * 1024) ?(assoc = 4) ?sched prog plan ~nprocs
    ~block =
  let layout = Layout.realize prog plan ~block in
  let cache =
    Mpcache.create ~track_blocks:true ~max_addr:(Layout.size layout)
      { Mpcache.nprocs; block; cache_bytes; assoc }
  in
  let recorded = Sim.record ?sched prog ~nprocs in
  Fs_replay.Replay.simulate recorded.Sim.trace ~layout ~cache;
  let per_block = Mpcache.per_block cache in
  let owner = owners prog layout ~block (Array.of_list (List.map fst per_block)) in
  let per_var : (string, Mpcache.counts * int ref) Hashtbl.t = Hashtbl.create 32 in
  List.iteri
    (fun i (_, c) ->
      let var = (owner.(i) : owner).var in
      let dst, nblocks =
        match Hashtbl.find_opt per_var var with
        | Some x -> x
        | None ->
          let x = (Mpcache.zero_counts (), ref 0) in
          Hashtbl.add per_var var x;
          x
      in
      incr nblocks;
      Mpcache.add_into dst c)
    per_block;
  Hashtbl.fold
    (fun var (counts, nblocks) acc ->
      { var; counts; blocks = !nblocks } :: acc)
    per_var []
  |> List.sort (fun a b ->
         compare b.counts.Mpcache.false_sh a.counts.Mpcache.false_sh)

let render rows =
  let header =
    [ "data structure"; "blocks"; "accesses"; "misses"; "false sh."; "true sh." ]
  in
  let body =
    List.map
      (fun r ->
        [ r.var;
          string_of_int r.blocks;
          string_of_int (Mpcache.accesses r.counts);
          string_of_int (Mpcache.misses r.counts);
          string_of_int r.counts.Mpcache.false_sh;
          string_of_int r.counts.Mpcache.true_sh ])
      rows
  in
  Fs_util.Table.render ~header body
