(* Trace format v2: round-trips through both on-disk formats, streamed
   replay identity against the in-memory engine, and corruption
   detection (truncation anywhere, CRC damage naming the bad block,
   payload damage the CRC was recomputed over). *)

module Ct = Fs_trace.Cell_trace
module R = Fs_replay.Replay
module C = Fs_cache.Mpcache
module Layout = Fs_layout.Layout
module W = Fs_workloads.Workload
module Ws = Fs_workloads.Workloads
module Sim = Falseshare.Sim
module E = Falseshare.Experiments

let tmp tag = Filename.temp_file ("fstracefmt-" ^ tag) ".fstrace"

let with_tmp tag f =
  let path = tmp tag in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

(* one recorded trace per workload, shared across every property case *)
let recorded : (string, W.t * int * Fs_ir.Ast.program * Sim.recorded) Hashtbl.t
    =
  Hashtbl.create 16

let trace_of name =
  match Hashtbl.find_opt recorded name with
  | Some x -> x
  | None ->
    let w = Ws.find name in
    let nprocs = w.W.fig3_procs in
    let prog = w.W.build ~nprocs ~scale:w.W.default_scale in
    let r = Sim.record prog ~nprocs in
    let x = (w, nprocs, prog, r) in
    Hashtbl.add recorded name x;
    x

let names = List.map (fun (w : W.t) -> w.W.name) Ws.all

let read_all path = In_channel.with_open_bin path In_channel.input_all

let write_all path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

(* ------------------------------------------------------------------ *)
(* Round-trip property: for every workload, either format, any block
   granularity, the file reads back equal, and replaying the streamed
   file through any of the workload's layout versions at 16B or 128B
   lands on counts bit-identical to the in-memory engine.             *)

let prop_roundtrip =
  QCheck.Test.make
    ~name:
      "disk round-trip + streamed replay identity (workloads x formats x \
       versions x {16,128}B)"
    ~count:48
    QCheck.(
      quad
        (int_range 0 (List.length names - 1))
        (int_range 0 23) (int_range 1 300) bool)
    (fun (wi, mix, block_events, big_block) ->
      let name = List.nth names wi in
      let w, nprocs, prog, r = trace_of name in
      let trace = r.Sim.trace in
      let format = if mix / 3 mod 2 = 0 then Ct.V1 else Ct.V2 in
      let block = if big_block then 128 else 16 in
      let version =
        List.nth w.W.versions (mix mod List.length w.W.versions)
      in
      with_tmp "prop" @@ fun path ->
      Ct.write_file ~format ~block_events trace path;
      let back = Ct.read_file path in
      if not (Ct.equal trace back) then
        QCheck.Test.fail_reportf "%s: %s round-trip not equal" name
          (match format with Ct.V1 -> "v1" | Ct.V2 -> "v2");
      let plan =
        E.plan_for w version prog ~nprocs ~scale:w.W.default_scale
      in
      let layout = Layout.realize prog plan ~block in
      let cache () =
        C.create ~max_addr:(Layout.size layout) (C.default_config ~nprocs ~block)
      in
      let reference = cache () and streamed = cache () in
      R.simulate trace ~layout ~cache:reference;
      let s = Ct.of_file_stream path in
      R.simulate_stream s ~layout ~cache:streamed;
      Ct.Stream.close s;
      if C.counts streamed <> C.counts reference then
        QCheck.Test.fail_reportf
          "%s: streamed %s counts differ from in-memory (block %d)" name
          (match format with Ct.V1 -> "v1" | Ct.V2 -> "v2")
          block;
      true)

(* ------------------------------------------------------------------ *)
(* Corruption: v2 must refuse damaged input, never mis-decode it.      *)

let expect_corrupt what f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Corrupt" what
  | exception Ct.Corrupt msg -> msg

(* little-endian u64 at [off], as an int *)
let u64_at s off =
  let v = ref 0 in
  for k = 7 downto 0 do
    v := (!v lsl 8) lor Char.code s.[off + k]
  done;
  !v

let v2_bytes ?(block_events = 1024) name =
  let _, _, _, r = trace_of name in
  let path = tmp "corrupt" in
  Ct.write_file ~format:Ct.V2 ~block_events r.Sim.trace path;
  let s = read_all path in
  Sys.remove path;
  s

let test_truncation () =
  let whole = v2_bytes "pverify" in
  let len = String.length whole in
  let index_off = u64_at whole (len - 24) in
  (* mid-block, mid-footer (just before the index), and mid-index: every
     cut destroys the trailer, so both readers refuse at open *)
  List.iter
    (fun (what, cut) ->
      with_tmp "trunc" @@ fun path ->
      write_all path (String.sub whole 0 cut);
      ignore (expect_corrupt (what ^ " (stream)")
                (fun () -> Ct.of_file_stream path));
      ignore (expect_corrupt (what ^ " (read_file)")
                (fun () -> Ct.read_file path)))
    [ ("mid-block", index_off / 2);
      ("mid-footer", index_off - 4);
      ("mid-index", index_off + ((len - 24 - index_off) / 2));
      ("mid-trailer", len - 9) ]

let test_crc_corruption () =
  let whole = v2_bytes "pverify" in
  let len = String.length whole in
  let index_off = u64_at whole (len - 24) in
  (* flip one payload byte well past the tiny header: the index still
     parses, so the stream opens — but decoding must stop at exactly the
     damaged block and name it *)
  let p = index_off * 2 / 3 in
  let damaged = Bytes.of_string whole in
  Bytes.set damaged p (Char.chr (Char.code (Bytes.get damaged p) lxor 0x55));
  with_tmp "crc" @@ fun path ->
  write_all path (Bytes.to_string damaged);
  let s = Ct.of_file_stream path in
  let buf = Array.make (Ct.Stream.max_block_events s) 0 in
  let bad = ref (-1) in
  let msg = ref "" in
  (try
     for k = 0 to Ct.Stream.nblocks s - 1 do
       ignore (Ct.Stream.decode_block s k buf)
     done
   with Ct.Corrupt m ->
     msg := m;
     (* recover which block the message names and check it also fails in
        isolation while its neighbors still decode *)
     Scanf.sscanf m "block %d" (fun k -> bad := k));
  Alcotest.(check bool) "one block failed" true (!bad >= 0);
  let prefix = Printf.sprintf "block %d" !bad in
  Alcotest.(check bool)
    (Printf.sprintf "message %S names block %d" !msg !bad)
    true
    (String.length !msg >= String.length prefix
    && String.sub !msg 0 (String.length prefix) = prefix);
  ignore
    (expect_corrupt "damaged block in isolation"
       (fun () -> Ct.Stream.decode_block s !bad buf));
  if !bad > 0 then ignore (Ct.Stream.decode_block s (!bad - 1) buf);
  if !bad < Ct.Stream.nblocks s - 1 then
    ignore (Ct.Stream.decode_block s (!bad + 1) buf);
  Ct.Stream.close s

let test_index_crc () =
  let whole = v2_bytes "pverify" in
  let len = String.length whole in
  let index_off = u64_at whole (len - 24) in
  let p = index_off + ((len - 24 - index_off) / 2) in
  let damaged = Bytes.of_string whole in
  Bytes.set damaged p (Char.chr (Char.code (Bytes.get damaged p) lxor 0x55));
  with_tmp "idx" @@ fun path ->
  write_all path (Bytes.to_string damaged);
  ignore
    (expect_corrupt "damaged index" (fun () -> Ct.of_file_stream path))

(* ------------------------------------------------------------------ *)
(* Hostile payloads: random bytes of one block overwritten and that
   block's footer CRC recomputed, so the checksum no longer catches the
   damage.  The decoder alone must then either refuse the block by name
   or return events that keep every invariant of the packed form; any
   other outcome (another exception, a crash, an out-of-range field) is
   a memory-safety hole in its unchecked loads and stores.             *)

let hostile_block_events = 256

(* the v2 image of each workload, written once *)
let hostile_images : (string, string) Hashtbl.t = Hashtbl.create 16

let hostile_image name =
  match Hashtbl.find_opt hostile_images name with
  | Some s -> s
  | None ->
    let s = v2_bytes ~block_events:hostile_block_events name in
    Hashtbl.add hostile_images name s;
    s

let event_ok ~nprocs ~nvars packed =
  let e = Fs_trace.Cell_event.unpack packed in
  (match e with
   | Access { proc; var; _ } | Lock_wait { proc; var; _ } | Lock_grant { proc; var; _ } ->
     proc < nprocs && var < nvars
   | Work { proc; _ } | Barrier_arrive { proc } -> proc < nprocs
   | Barrier_release -> true
   | Steal { thief; victim; _ } -> thief < nprocs && victim < nprocs)
  && Fs_trace.Cell_event.pack e = packed

let prop_hostile_payload =
  QCheck.Test.make
    ~name:
      "v2 payload damage under a recomputed CRC: Corrupt naming the block, or \
       in-range events"
    ~count:300
    QCheck.(
      quad
        (int_range 0 (List.length names - 1))
        (int_range 1 4) bool (int_range 0 1_000_000))
    (fun (wi, nbytes, flip, seed) ->
      let name = List.nth names wi in
      let _, _, _, r = trace_of name in
      let trace = r.Sim.trace in
      let whole = hostile_image name in
      let len = String.length whole in
      let index_off = u64_at whole (len - 24) in
      let nblocks = u64_at whole index_off in
      let rng = Fs_util.Rng.create seed in
      let k = Fs_util.Rng.int rng nblocks in
      let block_off k = u64_at whole (index_off + 8 + (16 * k)) in
      let off = block_off k in
      let next = if k + 1 < nblocks then block_off (k + 1) else index_off in
      let plen = next - off - 24 in
      let damaged = Bytes.of_string whole in
      (* a flipped low bit keeps a varint's length, so the damaged block
         often still decodes to the end: the case the range checks, not
         the framing, must catch *)
      for _ = 1 to nbytes do
        let at = off + Fs_util.Rng.int rng plen in
        let old = Char.code (Bytes.get damaged at) in
        Bytes.set damaged at
          (Char.chr
             (if flip then old lxor (1 lsl Fs_util.Rng.int rng 7)
              else Fs_util.Rng.int rng 256))
      done;
      Bytes.set_int64_le damaged (off + plen + 16)
        (Int64.of_int (Fs_util.Crc32.of_string (Bytes.sub_string damaged off plen)));
      with_tmp "hostile" @@ fun path ->
      write_all path (Bytes.to_string damaged);
      match Ct.read_file path with
      | exception Ct.Corrupt msg ->
        let prefix = Printf.sprintf "block %d: " k in
        if not (String.starts_with ~prefix msg) then
          QCheck.Test.fail_reportf "%s: damage in block %d reported as %S" name k
            msg;
        true
      | back ->
        let nprocs = Ct.nprocs back and nvars = Array.length (Ct.vars back) in
        if Ct.length back <> Ct.length trace then
          QCheck.Test.fail_reportf "%s: %d events decoded, %d recorded" name
            (Ct.length back) (Ct.length trace);
        Ct.iter_packed
          (fun packed ->
            if not (event_ok ~nprocs ~nvars packed) then
              QCheck.Test.fail_reportf
                "%s: damaged block %d decoded to an invalid event %#x" name k
                packed)
          back;
        true)

(* ------------------------------------------------------------------ *)
(* Conversion: v2 -> v1 -> v2 through the streaming Writer preserves
   the event stream exactly (the CLI's `trace convert` path).          *)

let test_convert_roundtrip () =
  let _, _, _, r = trace_of "mp3d" in
  let trace = r.Sim.trace in
  let convert src format dst =
    let s = Ct.of_file_stream src in
    let wr =
      Ct.Writer.create ~format ~block_events:512 ~vars:(Ct.Stream.vars s)
        ~nprocs:(Ct.Stream.nprocs s) dst
    in
    Ct.Stream.iter_chunks
      (fun buf n ->
        for i = 0 to n - 1 do
          Ct.Writer.push wr buf.(i)
        done)
      s;
    Ct.Writer.close wr;
    Ct.Stream.close s
  in
  with_tmp "conv2" @@ fun p2 ->
  with_tmp "conv1" @@ fun p1 ->
  with_tmp "conv2b" @@ fun p2b ->
  Ct.write_file ~format:Ct.V2 trace p2;
  convert p2 Ct.V1 p1;
  convert p1 Ct.V2 p2b;
  Alcotest.(check bool) "sniffed v1" true (Ct.file_format p1 = Ct.V1);
  Alcotest.(check bool) "sniffed v2" true (Ct.file_format p2b = Ct.V2);
  Alcotest.(check bool) "v2 -> v1 -> v2 equal" true
    (Ct.equal trace (Ct.read_file p2b))

let suite =
  [ Alcotest.test_case "v2 truncation refused (block/footer/index/trailer)"
      `Quick test_truncation;
    Alcotest.test_case "v2 CRC damage names the bad block" `Quick
      test_crc_corruption;
    Alcotest.test_case "v2 index damage refused at open" `Quick test_index_crc;
    Alcotest.test_case "convert round-trip v2 -> v1 -> v2" `Quick
      test_convert_roundtrip;
    QCheck_alcotest.to_alcotest prop_roundtrip;
    QCheck_alcotest.to_alcotest prop_hostile_payload ]
