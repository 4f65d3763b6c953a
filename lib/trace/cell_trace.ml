type t = {
  vars : string array;
  ids : (string, int) Hashtbl.t;  (* name -> variable id, built once *)
  nprocs : int;
  mutable data : int array;
  mutable len : int;
}

let id_table vars =
  let ids = Hashtbl.create (Array.length vars) in
  Array.iteri (fun i name -> if not (Hashtbl.mem ids name) then Hashtbl.add ids name i) vars;
  ids

let create ~vars ~nprocs =
  if nprocs <= 0 || nprocs > Cell_event.max_proc + 1 then
    invalid_arg
      (Printf.sprintf "Cell_trace.create: nprocs %d out of range [1,%d]" nprocs
         (Cell_event.max_proc + 1));
  if Array.length vars > Cell_event.max_var + 1 then
    invalid_arg "Cell_trace.create: too many variables";
  { vars; ids = id_table vars; nprocs; data = Array.make 1024 0; len = 0 }

let vars t = t.vars
let nprocs t = t.nprocs
let length t = t.len

let var_id t name = Hashtbl.find_opt t.ids name

let push t packed =
  if t.len = Array.length t.data then begin
    let bigger = Array.make (2 * t.len) 0 in
    Array.blit t.data 0 bigger 0 t.len;
    t.data <- bigger
  end;
  t.data.(t.len) <- packed;
  t.len <- t.len + 1

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Cell_trace.get: out of range";
  Cell_event.unpack t.data.(i)

let iter_packed f t =
  for i = 0 to t.len - 1 do
    f t.data.(i)
  done

let unsafe_data t = t.data

let iter f t = iter_packed (fun packed -> f (Cell_event.unpack packed)) t

let equal a b =
  a.nprocs = b.nprocs && a.vars = b.vars && a.len = b.len
  &&
  let rec go i = i >= a.len || (a.data.(i) = b.data.(i) && go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Disk formats.  Both are little-endian with 64-bit header fields.

   v1 — flat words:

     "FSTRACE1" | nprocs | nvars | (name length | name bytes)* | len
     | len x 8-byte packed events

   v2 — delta/varint blocks with a trailing index:

     "FSTRACE2" | nprocs | nvars | (name length | name bytes)*
     | block_events
     | block*      each block: payload bytes
                   ++ footer (events | payload length | CRC-32 of payload)
     | index       nblocks | (payload offset | events)* per block
                   | nepochs | (global event position of each
                     Barrier_release)* | total events
     | trailer     index offset | CRC-32 of index | "FSTRIDX2"

   Blocks are located through the index (the footer trails its payload,
   so a forward scan cannot skip a block without decoding it); the
   trailer is found from the end of the file.  Each block's delta state
   resets, so any block decodes independently — that is what bounds the
   streamed replay's heap by one block buffer and lets an epoch seek
   start at a block boundary.

   Per-event encoding inside a block.  The lead byte's low 3 bits are
   the event tag, with two pseudo-tags for the hot path:

     tag 6 / 7     compact read / write access: var = last var this
                   proc touched, cell = last cell there + 1 (the
                   sequential inner-loop pattern).  Bits 3-7 hold q:
                   q <= 29 encodes zigzag(proc - prev proc) inline,
                   q = 31 means an explicit proc varint follows, and
                   lead byte 0xF6 (tag 6, q = 30) escapes to a Steal
                   event: varints thief, victim, task follow and the
                   previous-proc register becomes the thief.  0xFE
                   (tag 7, q = 30) stays reserved.
     tags 0-5      standard form: bit 3 = write flag (Access),
                   bits 4-5 proc code (0 same as previous event's,
                   1 previous + 1, 2 explicit varint), bits 6-7
                   payload code — for cell-bearing tags the cell delta
                   vs the last cell of (proc, var) (0 -> +1, 1 -> +0,
                   2 -> explicit zigzag varint); for Work the amount
                   vs this proc's last (0 -> same, 2 -> explicit
                   zigzag delta).
                   Trailing fields, in order: proc varint (code 2);
                   zigzag var delta vs this proc's last var (Access /
                   Lock_wait / Lock_grant, always); cell delta varint
                   (code 2); from + 1 varint (Lock_grant); amount
                   delta varint (Work, code 2).

   Barrier_release (lead byte 0x03) does not update the previous-proc
   register; every other event does. *)

let magic_v1 = "FSTRACE1"
let magic_v2 = "FSTRACE2"
let magic_index = "FSTRIDX2"

type format = V1 | V2

let format_version = function V1 -> 1 | V2 -> 2
let format_of_version = function 1 -> Some V1 | 2 -> Some V2 | _ -> None
let default_format = V2
let default_block_events = 1 lsl 16

exception Corrupt of string

let corrupt fmt = Format.kasprintf (fun s -> raise (Corrupt s)) fmt

let format_of_magic m =
  if String.equal m magic_v1 then Some V1
  else if String.equal m magic_v2 then Some V2
  else None

let read_magic ic =
  let m = Bytes.create 8 in
  (try really_input ic m 0 8 with End_of_file -> corrupt "truncated trace");
  match format_of_magic (Bytes.to_string m) with
  | Some f -> f
  | None -> corrupt "bad magic"

let file_format path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> read_magic ic)

(* ------------------------------------------------------------------ *)
(* v1 writer / reader (flat words). *)

let write_channel_v1 t oc =
  let b = Bytes.create 8 in
  let w64 n =
    Bytes.set_int64_le b 0 (Int64.of_int n);
    output_bytes oc b
  in
  output_string oc magic_v1;
  w64 t.nprocs;
  w64 (Array.length t.vars);
  Array.iter
    (fun name ->
      w64 (String.length name);
      output_string oc name)
    t.vars;
  w64 t.len;
  for i = 0 to t.len - 1 do
    w64 t.data.(i)
  done

(* Parse and validate the v1 header after its magic; returns the header
   fields with the channel positioned at the first event.  Shared by the
   in-memory reader and the streaming one. *)
let read_v1_header ic =
  let b = Bytes.create 8 in
  let r64 () =
    (try really_input ic b 0 8 with End_of_file -> corrupt "truncated trace");
    Int64.to_int (Bytes.get_int64_le b 0)
  in
  let nprocs = r64 () in
  if nprocs <= 0 || nprocs > Cell_event.max_proc + 1 then
    corrupt "bad nprocs %d" nprocs;
  let nvars = r64 () in
  if nvars < 0 || nvars > Cell_event.max_var + 1 then corrupt "bad nvars %d" nvars;
  let vars =
    Array.init nvars (fun _ ->
        let n = r64 () in
        if n < 0 || n > 4096 then corrupt "bad name length %d" n;
        let s = Bytes.create n in
        (try really_input ic s 0 n with End_of_file -> corrupt "truncated trace");
        Bytes.to_string s)
  in
  let len = r64 () in
  if len < 0 then corrupt "bad length %d" len;
  (nprocs, vars, len)

let read_channel_v1 ic =
  let nprocs, vars, len = read_v1_header ic in
  (* the event section is one bulk read: a single [really_input] of
     [len * 8] bytes decoded in place, instead of one 8-byte read per
     event — truncation still surfaces as [Corrupt] *)
  let data = Array.make (max len 1) 0 in
  if len > 0 then begin
    let raw =
      try Bytes.create (len * 8)
      with Invalid_argument _ -> corrupt "bad length %d" len
    in
    (try really_input ic raw 0 (len * 8)
     with End_of_file -> corrupt "truncated trace");
    for i = 0 to len - 1 do
      data.(i) <- Int64.to_int (Bytes.get_int64_le raw (i * 8))
    done
  end;
  { vars; ids = id_table vars; nprocs; data; len }

(* ------------------------------------------------------------------ *)
(* v2 encoder. *)

let[@inline] zigzag v = (v lsl 1) lxor (v asr 62)
let[@inline] unzigzag u = (u lsr 1) lxor (-(u land 1))

let rec put_varint b v =
  if v < 0x80 then Buffer.add_char b (Char.unsafe_chr v)
  else begin
    Buffer.add_char b (Char.unsafe_chr (0x80 lor (v land 0x7f)));
    put_varint b (v lsr 7)
  end

(* Per-block delta state; reset at every block boundary so each block
   decodes independently of the others. *)
type enc = {
  en_nprocs : int;
  en_nvars : int;
  en_buf : Buffer.t;
  en_last_var : int array;     (* per proc: last var touched *)
  en_last_amount : int array;  (* per proc: last work amount *)
  en_last_cell : int array;    (* proc * nvars + var: last cell touched *)
  mutable en_prev_proc : int;
}

let enc_create ~nprocs ~nvars =
  {
    en_nprocs = nprocs;
    en_nvars = nvars;
    en_buf = Buffer.create (1 lsl 16);
    en_last_var = Array.make (max 1 nprocs) 0;
    en_last_amount = Array.make (max 1 nprocs) 0;
    en_last_cell = Array.make (max 1 (nprocs * nvars)) 0;
    en_prev_proc = 0;
  }

let enc_reset e =
  Buffer.clear e.en_buf;
  Array.fill e.en_last_var 0 (Array.length e.en_last_var) 0;
  Array.fill e.en_last_amount 0 (Array.length e.en_last_amount) 0;
  Array.fill e.en_last_cell 0 (Array.length e.en_last_cell) 0;
  e.en_prev_proc <- 0

let[@inline] enc_pcode e proc =
  if proc = e.en_prev_proc then 0 else if proc = e.en_prev_proc + 1 then 1 else 2

let enc_field_guard e ~proc ~var =
  if proc >= e.en_nprocs || var >= e.en_nvars then
    invalid_arg "Cell_trace: event proc/var exceeds the trace header"

let enc_event e packed =
  let buf = e.en_buf in
  let tag = packed land 7 in
  match tag with
  | 0 ->
    let proc = Cell_event.packed_proc packed in
    let var = Cell_event.packed_var packed in
    let cell = Cell_event.packed_cell packed in
    let write = Cell_event.packed_write packed in
    enc_field_guard e ~proc ~var;
    let ctx = (proc * e.en_nvars) + var in
    let d = cell - e.en_last_cell.(ctx) in
    if d = 1 && var = e.en_last_var.(proc) then begin
      (* compact access: the sequential inner-loop case, one byte *)
      let q = zigzag (proc - e.en_prev_proc) in
      let lead = if write then 7 else 6 in
      if q <= 29 then Buffer.add_char buf (Char.unsafe_chr (lead lor (q lsl 3)))
      else begin
        Buffer.add_char buf (Char.unsafe_chr (lead lor (31 lsl 3)));
        put_varint buf proc
      end
    end
    else begin
      let pcode = enc_pcode e proc in
      let ccode = if d = 1 then 0 else if d = 0 then 1 else 2 in
      Buffer.add_char buf
        (Char.unsafe_chr
           (tag lor (if write then 8 else 0) lor (pcode lsl 4) lor (ccode lsl 6)));
      if pcode = 2 then put_varint buf proc;
      put_varint buf (zigzag (var - e.en_last_var.(proc)));
      if ccode = 2 then put_varint buf (zigzag d)
    end;
    e.en_last_var.(proc) <- var;
    e.en_last_cell.(ctx) <- cell;
    e.en_prev_proc <- proc
  | 1 ->
    let proc = Cell_event.packed_proc packed in
    let amount = Cell_event.packed_amount packed in
    enc_field_guard e ~proc ~var:0;
    let pcode = enc_pcode e proc in
    let acode = if amount = e.en_last_amount.(proc) then 0 else 2 in
    Buffer.add_char buf (Char.unsafe_chr (tag lor (pcode lsl 4) lor (acode lsl 6)));
    if pcode = 2 then put_varint buf proc;
    if acode = 2 then put_varint buf (zigzag (amount - e.en_last_amount.(proc)));
    e.en_last_amount.(proc) <- amount;
    e.en_prev_proc <- proc
  | 2 ->
    let proc = Cell_event.packed_proc packed in
    enc_field_guard e ~proc ~var:0;
    let pcode = enc_pcode e proc in
    Buffer.add_char buf (Char.unsafe_chr (tag lor (pcode lsl 4)));
    if pcode = 2 then put_varint buf proc;
    e.en_prev_proc <- proc
  | 3 -> Buffer.add_char buf '\003'
  | 4 | 5 ->
    let proc = Cell_event.packed_proc packed in
    let var = Cell_event.packed_var packed in
    let cell =
      if tag = 5 then Cell_event.packed_grant_cell packed
      else Cell_event.packed_cell packed
    in
    enc_field_guard e ~proc ~var;
    let ctx = (proc * e.en_nvars) + var in
    let d = cell - e.en_last_cell.(ctx) in
    let pcode = enc_pcode e proc in
    let ccode = if d = 1 then 0 else if d = 0 then 1 else 2 in
    Buffer.add_char buf (Char.unsafe_chr (tag lor (pcode lsl 4) lor (ccode lsl 6)));
    if pcode = 2 then put_varint buf proc;
    put_varint buf (zigzag (var - e.en_last_var.(proc)));
    if ccode = 2 then put_varint buf (zigzag d);
    if tag = 5 then put_varint buf (Cell_event.packed_grant_from1 packed);
    e.en_last_var.(proc) <- var;
    e.en_last_cell.(ctx) <- cell;
    e.en_prev_proc <- proc
  | 6 ->
    (* steal: escape through the reserved compact-access lead byte *)
    let thief = Cell_event.packed_proc packed in
    let victim = Cell_event.packed_var packed in
    let task = Cell_event.packed_cell packed in
    if thief >= e.en_nprocs || victim >= e.en_nprocs then
      invalid_arg "Cell_trace: steal thief/victim exceeds the trace header";
    Buffer.add_char buf '\xf6';
    put_varint buf thief;
    put_varint buf victim;
    put_varint buf task;
    e.en_prev_proc <- thief
  | _ -> invalid_arg "Cell_trace: bad packed tag"

(* Streaming v2 emitter over an out_channel: header at create, one block
   flushed per [v2_block_events] events, index + trailer at finish. *)
type v2_writer = {
  v_oc : out_channel;
  v_block_events : int;
  v_enc : enc;
  v_b8 : Bytes.t;
  mutable v_in_block : int;
  mutable v_total : int;
  mutable v_pos : int;  (* running file offset *)
  mutable v_blocks_rev : (int * int) list;  (* payload offset, events *)
  mutable v_epochs_rev : int list;
}

let vw64 w n =
  Bytes.set_int64_le w.v_b8 0 (Int64.of_int n);
  output_bytes w.v_oc w.v_b8;
  w.v_pos <- w.v_pos + 8

let v2_start oc ~vars ~nprocs ~block_events =
  if block_events <= 0 then
    invalid_arg "Cell_trace: block_events must be positive";
  let w =
    {
      v_oc = oc;
      v_block_events = block_events;
      v_enc = enc_create ~nprocs ~nvars:(Array.length vars);
      v_b8 = Bytes.create 8;
      v_in_block = 0;
      v_total = 0;
      v_pos = 0;
      v_blocks_rev = [];
      v_epochs_rev = [];
    }
  in
  output_string oc magic_v2;
  w.v_pos <- 8;
  vw64 w nprocs;
  vw64 w (Array.length vars);
  Array.iter
    (fun name ->
      vw64 w (String.length name);
      output_string oc name;
      w.v_pos <- w.v_pos + String.length name)
    vars;
  vw64 w block_events;
  w

let v2_flush_block w =
  if w.v_in_block > 0 then begin
    let payload = Buffer.contents w.v_enc.en_buf in
    let plen = String.length payload in
    w.v_blocks_rev <- (w.v_pos, w.v_in_block) :: w.v_blocks_rev;
    output_string w.v_oc payload;
    w.v_pos <- w.v_pos + plen;
    vw64 w w.v_in_block;
    vw64 w plen;
    vw64 w (Fs_util.Crc32.of_string payload);
    w.v_in_block <- 0;
    enc_reset w.v_enc
  end

let v2_push w packed =
  if Cell_event.packed_tag packed = Cell_event.tag_barrier_release then
    w.v_epochs_rev <- w.v_total :: w.v_epochs_rev;
  enc_event w.v_enc packed;
  w.v_in_block <- w.v_in_block + 1;
  w.v_total <- w.v_total + 1;
  if w.v_in_block >= w.v_block_events then v2_flush_block w

let v2_finish w =
  v2_flush_block w;
  let ib = Buffer.create 1024 in
  let a64 n = Buffer.add_int64_le ib (Int64.of_int n) in
  let blocks = List.rev w.v_blocks_rev in
  a64 (List.length blocks);
  List.iter
    (fun (off, n) ->
      a64 off;
      a64 n)
    blocks;
  let epochs = List.rev w.v_epochs_rev in
  a64 (List.length epochs);
  List.iter a64 epochs;
  a64 w.v_total;
  let index = Buffer.contents ib in
  let index_off = w.v_pos in
  output_string w.v_oc index;
  w.v_pos <- w.v_pos + String.length index;
  vw64 w index_off;
  vw64 w (Fs_util.Crc32.of_string index);
  output_string w.v_oc magic_index;
  w.v_pos <- w.v_pos + 8

let write_channel ?(format = default_format) ?(block_events = default_block_events)
    t oc =
  match format with
  | V1 -> write_channel_v1 t oc
  | V2 ->
    let w = v2_start oc ~vars:t.vars ~nprocs:t.nprocs ~block_events in
    for i = 0 to t.len - 1 do
      v2_push w t.data.(i)
    done;
    v2_finish w

let write_file ?format ?block_events t path =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> write_channel ?format ?block_events t oc);
  Sys.rename tmp path

(* ------------------------------------------------------------------ *)
(* v2 decoder, over the whole file as a byte bigarray (memory map or a
   slurped channel).  All scratch is per call, so concurrent decodes of
   different blocks of one open stream are safe.  Each block is
   CRC-checked (slicing-by-8, [Fs_util.Crc32]) before one pass of
   [decode_v2_payload] unpacks it. *)

type bigstring = Fs_util.Crc32.bigstring

let[@inline] get_byte (map : bigstring) i =
  Char.code (Bigarray.Array1.unsafe_get map i)

(* Unsigned LE 64-bit read as an OCaml int.  Well-formed files never
   carry values near 2^62; a corrupt huge value wraps negative and fails
   the range checks downstream. *)
let get64 (map : bigstring) i =
  let v = ref 0 in
  for k = 7 downto 0 do
    v := (!v lsl 8) lor get_byte map (i + k)
  done;
  !v

(* Unchecked packing over fields the decoder has already range-checked
   (so corruption surfaces as [Corrupt], not [Invalid_argument]).  These
   mirror [Cell_event]'s bit layout; they live here rather than behind
   calls into that module because dev builds compile with [-opaque],
   which would turn every decoded event into a cross-module call.  The
   disk round-trip properties compare every decoded event with its
   packed original, which pins the two together.  [wbit] is the write
   flag already in place (8 or 0), taken from the lead byte without a
   branch. *)
let[@inline] pack_access ~wbit ~proc ~var ~cell =
  wbit lor (proc lsl 4) lor (var lsl 12) lor (cell lsl 20)

let[@inline] pack_work ~proc ~amount = 1 lor (proc lsl 4) lor (amount lsl 12)
let[@inline] pack_barrier_arrive ~proc = 2 lor (proc lsl 4)

let[@inline] pack_lock_wait ~proc ~var ~cell =
  4 lor (proc lsl 4) lor (var lsl 12) lor (cell lsl 20)

let[@inline] pack_lock_grant ~proc ~var ~from1 ~cell =
  5 lor (proc lsl 4) lor (var lsl 12) lor (from1 lsl 20) lor (cell lsl 29)

let[@inline] pack_steal ~thief ~victim ~task =
  6 lor (thief lsl 4) lor (victim lsl 12) lor (task lsl 20)

(* [Corrupt] for block [block], built but not raised: the decoder writes
   [raise (bad block ...)], so the compiler sees that control ends there
   and keeps no loop state live across the message formatting. *)
let bad block fmt =
  Printf.ksprintf (fun s -> Corrupt (Printf.sprintf "block %d: %s" block s)) fmt

(* One block's payload bounds, plus where the last [varint] stopped: the
   payload loop keeps its read position in a local and reads the new
   one back from [c_end] after a slow-path call, so the position never
   lives in memory on the hot path. *)
type cursor = {
  c_map : bigstring;
  c_limit : int;
  c_block : int;
  mutable c_end : int;
}

(* The varint of any length at [pos]; sets [c.c_end] past it and
   allocates nothing. *)
let varint c pos =
  let v = ref 0 and shift = ref 0 and p = ref pos and continue = ref true in
  while !continue do
    if !p >= c.c_limit then raise (bad c.c_block "truncated varint");
    if !shift > 62 then raise (bad c.c_block "varint too long");
    let b = get_byte c.c_map !p in
    incr p;
    v := !v lor ((b land 0x7f) lsl !shift);
    shift := !shift + 7;
    if b < 0x80 then continue := false
  done;
  c.c_end <- !p;
  !v

(* Decode [count] events of the payload at [pos, pos + plen) into
   [dst.(dst_off ..)].  Every decoded field is range-checked before the
   unchecked pack, so data that defeats the CRC still cannot produce
   packed events outside the event invariants.

   The hot fields (proc, var delta, cell delta, amount delta) are almost
   always one-byte varints; each decodes its first byte inline, with the
   bounds test folded in: past the end the byte reads as 0x80, a
   continuation, and [varint] raises the truncation.  Stores into [dst]
   are unchecked after the one range test up front; reads of [last_var]
   and [last_cell] are unchecked only behind the proc and var range
   checks. *)
let decode_v2_payload map ~pos ~plen ~count ~block ~nprocs ~nvars dst dst_off =
  if dst_off < 0 || count < 0 || dst_off > Array.length dst - count then
    invalid_arg "Cell_trace: decode destination too small";
  let limit = pos + plen in
  let cur = { c_map = map; c_limit = limit; c_block = block; c_end = pos } in
  let p = ref pos in
  let last_var = Array.make (max 1 nprocs) 0 in
  let last_amount = Array.make (max 1 nprocs) 0 in
  let last_cell = Array.make (max 1 (nprocs * nvars)) 0 in
  let prev_proc = ref 0 in
  for n = dst_off to dst_off + count - 1 do
    if !p >= limit then raise (bad block "truncated payload");
    let b = get_byte map !p in
    incr p;
    let tag = b land 7 in
    if tag >= 6 then begin
      let q = b lsr 3 in
      if q <> 30 then begin
        (* compact access: var and cell implied, proc inline or (q = 31)
           an explicit varint *)
        let proc =
          if q < 30 then !prev_proc + unzigzag q
          else begin
            let v = varint cur !p in
            p := cur.c_end;
            v
          end
        in
        if proc < 0 || proc >= nprocs then
          raise (bad block "proc %d out of range" proc);
        let var = Array.unsafe_get last_var proc in
        (* only an empty variable table leaves the initial 0 invalid *)
        if var >= nvars then raise (bad block "var %d out of range" var);
        let ctx = (proc * nvars) + var in
        let cell = Array.unsafe_get last_cell ctx + 1 in
        if cell > Cell_event.max_wide_cell then
          raise (bad block "cell out of range");
        Array.unsafe_set dst n
          (pack_access ~wbit:((tag land 1) lsl 3) ~proc ~var ~cell);
        Array.unsafe_set last_cell ctx cell;
        prev_proc := proc
      end
      else begin
        (* 0xF6: steal escape (0xFE stays reserved) *)
        if tag = 7 then raise (bad block "reserved proc code");
        let thief = varint cur !p in
        let victim = varint cur cur.c_end in
        let task = varint cur cur.c_end in
        p := cur.c_end;
        if thief < 0 || thief >= nprocs || victim < 0 || victim >= nprocs then
          raise (bad block "steal proc out of range");
        if task < 0 || task > Cell_event.max_wide_cell then
          raise (bad block "task out of range");
        Array.unsafe_set dst n (pack_steal ~thief ~victim ~task);
        prev_proc := thief
      end
    end
    else if tag = 3 then begin
      if b <> 3 then raise (bad block "bad release lead byte");
      Array.unsafe_set dst n Cell_event.tag_barrier_release
    end
    else begin
      (* standard form: proc code 0 and 1 are offsets from the previous
         proc, 2 an explicit varint *)
      let pcode = (b lsr 4) land 3 in
      let proc =
        if pcode < 2 then !prev_proc + pcode
        else if pcode = 2 then begin
          let v = if !p < limit then get_byte map !p else 0x80 in
          if v < 0x80 then (incr p; v)
          else begin
            let v = varint cur !p in
            p := cur.c_end;
            v
          end
        end
        else raise (bad block "reserved proc code")
      in
      if proc < 0 || proc >= nprocs then
        raise (bad block "proc %d out of range" proc);
      if tag = 1 then begin
        let amount =
          match b lsr 6 with
          | 0 -> Array.unsafe_get last_amount proc
          | 2 ->
            let v = if !p < limit then get_byte map !p else 0x80 in
            let v =
              if v < 0x80 then (incr p; v)
              else begin
                let v = varint cur !p in
                p := cur.c_end;
                v
              end
            in
            Array.unsafe_get last_amount proc + unzigzag v
          | _ -> raise (bad block "reserved amount code")
        in
        if amount < 0 || amount > Cell_event.max_amount then
          raise (bad block "amount out of range");
        Array.unsafe_set dst n (pack_work ~proc ~amount);
        Array.unsafe_set last_amount proc amount
      end
      else if tag = 2 then begin
        if b lsr 6 <> 0 then raise (bad block "bad arrive lead byte");
        Array.unsafe_set dst n (pack_barrier_arrive ~proc)
      end
      else begin
        (* Access, Lock_wait, Lock_grant: var delta, then cell code 0
           (+1) and 1 (+0) inline, 2 an explicit delta *)
        let dv =
          let v = if !p < limit then get_byte map !p else 0x80 in
          if v < 0x80 then (incr p; v)
          else begin
            let v = varint cur !p in
            p := cur.c_end;
            v
          end
        in
        let var = Array.unsafe_get last_var proc + unzigzag dv in
        if var < 0 || var >= nvars then
          raise (bad block "var %d out of range" var);
        let ctx = (proc * nvars) + var in
        let ccode = b lsr 6 in
        let d =
          if ccode < 2 then 1 - ccode
          else if ccode = 2 then begin
            let v = if !p < limit then get_byte map !p else 0x80 in
            let v =
              if v < 0x80 then (incr p; v)
              else begin
                let v = varint cur !p in
                p := cur.c_end;
                v
              end
            in
            unzigzag v
          end
          else raise (bad block "reserved cell code")
        in
        let cell = Array.unsafe_get last_cell ctx + d in
        if cell < 0 then raise (bad block "cell out of range");
        if tag = 0 then begin
          if cell > Cell_event.max_wide_cell then
            raise (bad block "cell out of range");
          Array.unsafe_set dst n (pack_access ~wbit:(b land 8) ~proc ~var ~cell)
        end
        else if tag = 4 then begin
          if cell > Cell_event.max_wide_cell then
            raise (bad block "cell out of range");
          Array.unsafe_set dst n (pack_lock_wait ~proc ~var ~cell)
        end
        else begin
          let from1 = varint cur !p in
          p := cur.c_end;
          if from1 < 0 || from1 > Cell_event.max_proc + 1 then
            raise (bad block "bad lock source");
          if cell > Cell_event.max_cell then
            raise (bad block "cell out of range");
          Array.unsafe_set dst n (pack_lock_grant ~proc ~var ~from1 ~cell)
        end;
        Array.unsafe_set last_var proc var;
        Array.unsafe_set last_cell ctx cell
      end;
      prev_proc := proc
    end
  done;
  if !p <> limit then
    corrupt "block %d: %d trailing payload bytes" block (limit - !p)

(* Parsed v2 geometry: everything but the payloads, validated. *)
type v2_info = {
  i_nprocs : int;
  i_vars : string array;
  i_block_events : int;
  i_offsets : int array;  (* payload start per block *)
  i_lens : int array;     (* payload bytes per block *)
  i_counts : int array;   (* events per block *)
  i_starts : int array;   (* first event index per block *)
  i_epochs : int array;   (* event position of each Barrier_release *)
  i_total : int;
}

let parse_v2 (map : bigstring) =
  let l = Bigarray.Array1.dim map in
  if l < 8 + (3 * 8) + 24 then corrupt "truncated trace";
  let pos = ref 8 in
  let r64 () =
    if !pos + 8 > l then corrupt "truncated trace";
    let v = get64 map !pos in
    pos := !pos + 8;
    v
  in
  let nprocs = r64 () in
  if nprocs <= 0 || nprocs > Cell_event.max_proc + 1 then
    corrupt "bad nprocs %d" nprocs;
  let nvars = r64 () in
  if nvars < 0 || nvars > Cell_event.max_var + 1 then corrupt "bad nvars %d" nvars;
  let vars = Array.make nvars "" in
  for i = 0 to nvars - 1 do
    let n = r64 () in
    if n < 0 || n > 4096 then corrupt "bad name length %d" n;
    if !pos + n > l then corrupt "truncated trace";
    vars.(i) <- String.init n (fun k -> Bigarray.Array1.get map (!pos + k));
    pos := !pos + n
  done;
  let block_events = r64 () in
  if block_events <= 0 || block_events > 1 lsl 30 then
    corrupt "bad block size %d" block_events;
  let header_end = !pos in
  (* trailer *)
  if String.init 8 (fun i -> Bigarray.Array1.get map (l - 8 + i)) <> magic_index
  then corrupt "bad index trailer (truncated trace?)";
  let index_off = get64 map (l - 24) in
  let index_crc = get64 map (l - 16) in
  if index_off < header_end || index_off > l - 24 then corrupt "bad index offset";
  let index_end = l - 24 in
  if Fs_util.Crc32.of_bigstring_sub map index_off (index_end - index_off)
     <> index_crc
  then corrupt "index checksum mismatch";
  pos := index_off;
  let r64i () =
    if !pos + 8 > index_end then corrupt "truncated index";
    let v = get64 map !pos in
    pos := !pos + 8;
    v
  in
  let nblocks = r64i () in
  if nblocks < 0 || nblocks > (index_end - index_off) / 16 then
    corrupt "bad block count %d" nblocks;
  let offsets = Array.make nblocks 0 in
  let counts = Array.make nblocks 0 in
  for k = 0 to nblocks - 1 do
    offsets.(k) <- r64i ();
    counts.(k) <- r64i ()
  done;
  let nepochs = r64i () in
  if nepochs < 0 || nepochs > (index_end - index_off) / 8 then
    corrupt "bad epoch count %d" nepochs;
  let epochs = Array.make nepochs 0 in
  for k = 0 to nepochs - 1 do
    epochs.(k) <- r64i ()
  done;
  let total = r64i () in
  if !pos <> index_end then corrupt "index has trailing bytes";
  if total < 0 then corrupt "bad event count %d" total;
  let lens = Array.make nblocks 0 in
  let starts = Array.make nblocks 0 in
  let sum = ref 0 in
  for k = 0 to nblocks - 1 do
    let off = offsets.(k) in
    let expect = if k = 0 then header_end else offsets.(k - 1) in
    if off < expect || off > index_off then corrupt "block %d: bad offset" k;
    let next = if k + 1 < nblocks then offsets.(k + 1) else index_off in
    let plen = next - off - 24 in
    if plen < 0 then corrupt "block %d: bad extent" k;
    lens.(k) <- plen;
    starts.(k) <- !sum;
    let c = counts.(k) in
    if c <= 0 || c > block_events then
      corrupt "block %d: bad event count %d" k c;
    sum := !sum + c
  done;
  if nblocks > 0 && offsets.(0) <> header_end then corrupt "block 0: bad offset";
  if nblocks = 0 && index_off <> header_end then corrupt "orphan bytes before index";
  if total <> !sum then
    corrupt "event count mismatch: index says %d, blocks hold %d" total !sum;
  let last = ref (-1) in
  Array.iter
    (fun e ->
      if e <= !last || e >= total then corrupt "bad epoch position %d" e;
      last := e)
    epochs;
  {
    i_nprocs = nprocs;
    i_vars = vars;
    i_block_events = block_events;
    i_offsets = offsets;
    i_lens = lens;
    i_counts = counts;
    i_starts = starts;
    i_epochs = epochs;
    i_total = total;
  }

(* Verify one block's footer + CRC against the index, then decode its
   payload into [dst] at [dst_off].  Raises [Corrupt] naming the block. *)
let decode_v2_block (map : bigstring) info k dst dst_off =
  let off = info.i_offsets.(k) in
  let plen = info.i_lens.(k) in
  let count = info.i_counts.(k) in
  let fpos = off + plen in
  if get64 map fpos <> count || get64 map (fpos + 8) <> plen then
    corrupt "block %d: footer disagrees with index" k;
  if Fs_util.Crc32.of_bigstring_sub map off plen <> get64 map (fpos + 16) then
    corrupt "block %d: checksum mismatch" k;
  decode_v2_payload map ~pos:off ~plen ~count ~block:k ~nprocs:info.i_nprocs
    ~nvars:(Array.length info.i_vars) dst dst_off

let of_v2_map map =
  let info = parse_v2 map in
  let data = Array.make (max info.i_total 1) 0 in
  for k = 0 to Array.length info.i_offsets - 1 do
    decode_v2_block map info k data info.i_starts.(k)
  done;
  {
    vars = info.i_vars;
    ids = id_table info.i_vars;
    nprocs = info.i_nprocs;
    data;
    len = info.i_total;
  }

let map_whole_file path =
  let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let size = (Unix.fstat fd).Unix.st_size in
      Bigarray.array1_of_genarray
        (Unix.map_file fd Bigarray.char Bigarray.c_layout false [| size |]))

let read_channel ic =
  match read_magic ic with
  | V1 -> read_channel_v1 ic
  | V2 ->
    (* channels cannot be mapped: slurp the rest and parse in memory *)
    let rest = In_channel.input_all ic in
    let n = 8 + String.length rest in
    let map = Bigarray.Array1.create Bigarray.char Bigarray.c_layout n in
    String.iteri (fun i c -> Bigarray.Array1.set map i c) magic_v2;
    String.iteri (fun i c -> Bigarray.Array1.set map (8 + i) c) rest;
    of_v2_map map

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      match read_magic ic with
      | V1 -> read_channel_v1 ic
      | V2 -> of_v2_map (map_whole_file path))

(* ------------------------------------------------------------------ *)
(* Streaming writer: record straight to disk without holding the trace
   in memory — the path that makes 10^8-event recordings practical. *)

module Writer = struct
  type body =
    | W1 of { w1_len_pos : int }  (* the length word, patched at close *)
    | W2 of v2_writer

  type w = {
    w_oc : out_channel;
    w_tmp : string;
    w_path : string;
    w_body : body;
    mutable w_len : int;
    mutable w_done : bool;
  }

  type nonrec t = w

  let create ?(format = default_format) ?(block_events = default_block_events)
      ~vars ~nprocs path =
    if nprocs <= 0 || nprocs > Cell_event.max_proc + 1 then
      invalid_arg "Cell_trace.Writer.create: bad nprocs";
    if Array.length vars > Cell_event.max_var + 1 then
      invalid_arg "Cell_trace.Writer.create: too many variables";
    if block_events <= 0 then
      invalid_arg "Cell_trace.Writer.create: block_events must be positive";
    let tmp = path ^ ".tmp" in
    let oc = open_out_bin tmp in
    match
      match format with
      | V2 -> W2 (v2_start oc ~vars ~nprocs ~block_events)
      | V1 ->
        let b = Bytes.create 8 in
        let w64 n =
          Bytes.set_int64_le b 0 (Int64.of_int n);
          output_bytes oc b
        in
        output_string oc magic_v1;
        w64 nprocs;
        w64 (Array.length vars);
        Array.iter
          (fun name ->
            w64 (String.length name);
            output_string oc name)
          vars;
        let len_pos = pos_out oc in
        w64 0;
        W1 { w1_len_pos = len_pos }
    with
    | body ->
      { w_oc = oc; w_tmp = tmp; w_path = path; w_body = body; w_len = 0;
        w_done = false }
    | exception e ->
      close_out_noerr oc;
      (try Sys.remove tmp with Sys_error _ -> ());
      raise e

  let push t packed =
    if t.w_done then invalid_arg "Cell_trace.Writer.push: closed";
    (match t.w_body with
    | W1 _ ->
      let b = Bytes.create 8 in
      Bytes.set_int64_le b 0 (Int64.of_int packed);
      output_bytes t.w_oc b
    | W2 w -> v2_push w packed);
    t.w_len <- t.w_len + 1

  let length t = t.w_len

  let close t =
    if not t.w_done then begin
      t.w_done <- true;
      (match t.w_body with
      | W1 { w1_len_pos } ->
        seek_out t.w_oc w1_len_pos;
        let b = Bytes.create 8 in
        Bytes.set_int64_le b 0 (Int64.of_int t.w_len);
        output_bytes t.w_oc b
      | W2 w -> v2_finish w);
      close_out t.w_oc;
      Sys.rename t.w_tmp t.w_path
    end

  let abort t =
    if not t.w_done then begin
      t.w_done <- true;
      close_out_noerr t.w_oc;
      (try Sys.remove t.w_tmp with Sys_error _ -> ())
    end
end

(* ------------------------------------------------------------------ *)
(* Streaming reader.  Both formats present the same shape: a sequence of
   blocks, each decodable independently into a caller buffer, so peak
   heap is bounded by the block size however long the trace.  For v1 a
   "block" is a chunk-sized window of the mapped word array; for v2 it
   is an encoded block, CRC-checked and located through the index. *)

module Stream = struct
  type body =
    | S1 of (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t
    | S2 of { s2_map : bigstring; s2_info : v2_info }

  type nonrec t = {
    s_vars : string array;
    s_nprocs : int;
    s_len : int;
    s_chunk : int;  (* v1: window size; v2: the file's block_events *)
    s_bytes : int;  (* whole file, for effective-bandwidth reporting *)
    s_body : body;
    mutable s_closed : bool;
  }

  let default_chunk = 1 lsl 20

  let open_file ?(chunk = default_chunk) path =
    if chunk <= 0 then
      invalid_arg "Cell_trace.Stream.open_file: chunk must be positive";
    match file_format path with
    | V2 ->
      let map = map_whole_file path in
      let info = parse_v2 map in
      {
        s_vars = info.i_vars;
        s_nprocs = info.i_nprocs;
        s_len = info.i_total;
        s_chunk = info.i_block_events;
        s_bytes = Bigarray.Array1.dim map;
        s_body = S2 { s2_map = map; s2_info = info };
        s_closed = false;
      }
    | V1 ->
      let ic = open_in_bin path in
      let nprocs, vars, len, pos, bytes =
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () ->
            let fmt = read_magic ic in
            assert (fmt = V1);
            let nprocs, vars, len = read_v1_header ic in
            let pos = pos_in ic in
            let bytes = in_channel_length ic in
            if bytes - pos < len * 8 then corrupt "truncated trace";
            (nprocs, vars, len, pos, bytes))
      in
      let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
      let map =
        Fun.protect
          ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
          (fun () ->
            Bigarray.array1_of_genarray
              (Unix.map_file fd ~pos:(Int64.of_int pos) Bigarray.int64
                 Bigarray.c_layout false [| len |]))
      in
      { s_vars = vars; s_nprocs = nprocs; s_len = len; s_chunk = chunk;
        s_bytes = bytes; s_body = S1 map; s_closed = false }

  let vars t = t.s_vars
  let nprocs t = t.s_nprocs
  let length t = t.s_len
  let chunk t = t.s_chunk
  let byte_size t = t.s_bytes
  let format t = match t.s_body with S1 _ -> V1 | S2 _ -> V2

  let nblocks t =
    match t.s_body with
    | S1 _ -> if t.s_len = 0 then 0 else (t.s_len + t.s_chunk - 1) / t.s_chunk
    | S2 { s2_info; _ } -> Array.length s2_info.i_offsets

  let block_events t k =
    match t.s_body with
    | S1 _ -> min t.s_chunk (t.s_len - (k * t.s_chunk))
    | S2 { s2_info; _ } -> s2_info.i_counts.(k)

  let block_start t k =
    match t.s_body with
    | S1 _ -> k * t.s_chunk
    | S2 { s2_info; _ } -> s2_info.i_starts.(k)

  let max_block_events t =
    match t.s_body with
    | S1 _ -> max 1 (min t.s_chunk t.s_len)
    | S2 { s2_info; _ } -> max 1 s2_info.i_block_events

  let epochs t =
    match t.s_body with
    | S1 _ -> None
    | S2 { s2_info; _ } -> Some (Array.copy s2_info.i_epochs)

  let decode_block t k buf =
    if t.s_closed then invalid_arg "Cell_trace.Stream.decode_block: closed";
    if k < 0 || k >= nblocks t then
      invalid_arg "Cell_trace.Stream.decode_block: block out of range";
    let n = block_events t k in
    if Array.length buf < n then
      invalid_arg "Cell_trace.Stream.decode_block: buffer too small";
    (match t.s_body with
    | S1 map ->
      let start = k * t.s_chunk in
      for i = 0 to n - 1 do
        buf.(i) <- Int64.to_int (Bigarray.Array1.unsafe_get map (start + i))
      done
    | S2 { s2_map; s2_info } -> decode_v2_block s2_map s2_info k buf 0);
    n

  let iter_chunks f t =
    if t.s_closed then invalid_arg "Cell_trace.Stream.iter_chunks: closed";
    let nb = nblocks t in
    if nb > 0 then begin
      let buf = Array.make (max_block_events t) 0 in
      for k = 0 to nb - 1 do
        let n = decode_block t k buf in
        f buf n
      done
    end

  (* the mapping itself is released when the bigarray is collected;
     [close] only fences further iteration so a use-after-close is an
     error instead of a silent read *)
  let close t = t.s_closed <- true
end

let of_file_stream = Stream.open_file
