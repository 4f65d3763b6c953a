module Align = Fs_util.Align

let word_size = 4

type config = { nprocs : int; block : int; cache_bytes : int; assoc : int }

let default_config ~nprocs ~block =
  { nprocs; block; cache_bytes = 32 * 1024; assoc = 4 }

type kind = Cold | Replacement | True_sharing | False_sharing

let kind_to_string = function
  | Cold -> "cold"
  | Replacement -> "replacement"
  | True_sharing -> "true sharing"
  | False_sharing -> "false sharing"

type counts = {
  mutable reads : int;
  mutable writes : int;
  mutable cold : int;
  mutable repl : int;
  mutable true_sh : int;
  mutable false_sh : int;
  mutable invalidations : int;
  mutable upgrades : int;
}

let zero_counts () =
  { reads = 0; writes = 0; cold = 0; repl = 0; true_sh = 0; false_sh = 0;
    invalidations = 0; upgrades = 0 }

let accesses c = c.reads + c.writes
let misses c = c.cold + c.repl + c.true_sh + c.false_sh

let miss_rate c =
  let a = accesses c in
  if a = 0 then 0.0 else float_of_int (misses c) /. float_of_int a

let false_sharing_rate c =
  let a = accesses c in
  if a = 0 then 0.0 else float_of_int c.false_sh /. float_of_int a

let copy_counts c =
  { reads = c.reads; writes = c.writes; cold = c.cold; repl = c.repl;
    true_sh = c.true_sh; false_sh = c.false_sh;
    invalidations = c.invalidations; upgrades = c.upgrades }

let add_into dst src =
  dst.reads <- dst.reads + src.reads;
  dst.writes <- dst.writes + src.writes;
  dst.cold <- dst.cold + src.cold;
  dst.repl <- dst.repl + src.repl;
  dst.true_sh <- dst.true_sh + src.true_sh;
  dst.false_sh <- dst.false_sh + src.false_sh;
  dst.invalidations <- dst.invalidations + src.invalidations;
  dst.upgrades <- dst.upgrades + src.upgrades

let sub_counts a b =
  { reads = a.reads - b.reads; writes = a.writes - b.writes;
    cold = a.cold - b.cold; repl = a.repl - b.repl;
    true_sh = a.true_sh - b.true_sh; false_sh = a.false_sh - b.false_sh;
    invalidations = a.invalidations - b.invalidations;
    upgrades = a.upgrades - b.upgrades }

type miss_info = { kind : kind; provider : int }

type outcome =
  | Hit
  | Upgrade of { invalidated : int }
  | Miss of { info : miss_info; invalidated : int }

(* One invalidation flow: writes by [src] that destroyed [victim]'s copy
   of a block, split by whether the write hit a Shared copy (upgrade) or
   missed outright. *)
type flow = { mutable by_upgrade : int; mutable by_miss : int }

type pair = {
  block : int;
  src : int;
  victim : int;
  upgrades : int;
  write_misses : int;
}

type line = {
  line_block : int;
  line_reads : int;
  line_writes : int;
  writers : int;
  readers : int;
  migrations : int;
  pingpong : int;
  max_run : int;
  max_inval_chain : int;
  written_words : int;
  shared_words : int;
  word_writers : int array;
}

let popcount m =
  let rec go m acc = if m = 0 then acc else go (m lsr 1) (acc + (m land 1)) in
  go m 0

let pingpong_score l =
  if l.line_writes = 0 then 0.0
  else float_of_int l.migrations /. float_of_int l.line_writes

(* Why a processor's copy of a block went away, packed into one int:
   [lost_never] before the block was ever held, [lost_evicted] after an
   LRU eviction, and the (positive) invalidation time after a remote
   write destroyed the copy.  Times start at 1, so they never collide
   with the two sentinels — and [lost_never] is 0 so freshly grown
   storage needs no re-fill. *)
let lost_never = 0
let lost_evicted = -1

(* The simulator state lives in flat int arrays indexed by the slot that
   each block is handed at its first touch.  One int per block of the
   arena, [slot] (0 until the block is first touched, else its slot + 1),
   is the only array sized by the arena; every other per-block table is
   sized by the touched blocks and doubled as slots run out, so a padded
   layout whose arena is mostly untouched costs one int per block and no
   more.  Fields touched by the same protocol step are interleaved so one
   reference lands on one cache line, not three:

   - per (slot, proc) entry state is a (state, lost, last_use, way) quad
     at element index [4 * (s * nprocs + p)] — 32 bytes, so two entries
     per cache line;
   - per-slot coherence state is a (sharer mask, owner, last_writer)
     triple at [3 * s], and the word-level write history a (writer, time)
     pair at [2 * (s * words_per_block + w)];
   - LRU sets are fixed [assoc]-wide arrays of resident slots per (proc,
     set), updated in place (free ways hold -1); the set comes from the
     real block address, so conflicts are those of the real layout.  Each
     resident entry's [way] field caches its absolute index into [ways],
     making invalidation-time removal O(1).

   Owners and writers are stored as [proc + 1] with 0 meaning none, so
   every growable array zero-fills and growth is a single blit.

   The optional per-block counts and line lifetimes are per-slot tables
   as well: [counts_stride] counters in {!counts} field order,
   [line_stride] lifetime ints (writers as [proc + 1]) and one writer
   mask per word.  Nothing on the access path allocates, with or without
   these two, except the blame pair flows, which stay hash-based (a key
   per invalidation, by real block) since only Blame reads them. *)
type t = {
  cfg : config;
  nsets : int;
  nprocs : int;             (* = cfg.nprocs, unboxed copy for the hot path *)
  assoc : int;              (* = cfg.assoc, likewise *)
  block_shift : int;        (* log2 block *)
  word_mask : int;          (* block - 1 *)
  set_mask : int;           (* nsets - 1 when nsets is a power of two, else 0 *)
  words : int;              (* words per block *)
  mutable cap : int;        (* block ids the slot index covers *)
  mutable slot : int array; (* per block: slot + 1, or 0 while untouched *)
  mutable nslots : int;
  mutable scap : int;       (* slots the per-slot tables can hold *)
  (* per (slot, proc): state (0 = I, 1 = S, 2 = M), lost, last_use,
     and the absolute [ways] index while resident *)
  mutable ent : int array;
  (* per slot: sharer mask (bit p: p holds a valid copy), owner + 1,
     last_writer + 1 *)
  mutable blk : int array;
  (* per (slot, word): last writing processor + 1, time of that write *)
  mutable wrd : int array;
  (* per (proc, set, way), stride nsets * assoc per proc *)
  ways : int array;           (* resident slot, or -1 *)
  totals : counts;
  per_proc : counts array;
  track_blocks : bool;
  track_lines : bool;
  tracking : bool;          (* track_blocks || track_lines *)
  mutable bcounts : int array;  (* per slot, [counts_stride] counters *)
  mutable lstate : int array;   (* per slot, [line_stride] lifetime ints *)
  mutable lwords : int array;   (* per (slot, word): writer mask *)
  pair_tbl : (int * int * int, flow) Hashtbl.t option;  (* block, src, victim *)
  mutable time : int;
}

let counts_stride = 8

(* Offsets into a slot's [lstate] record. *)
let line_stride = 12
let l_reads = 0
let l_writes = 1
let l_reader_mask = 2
let l_writer_mask = 3
let l_last_w = 4       (* most recent writer + 1, or 0 *)
let l_prev_w = 5       (* the writer before that + 1, or 0 *)
let l_migrations = 6
let l_pingpong = 7
let l_run = 8          (* current alternating-writer run, in writes *)
let l_max_run = 9
let l_ichain = 10      (* current invalidating-write streak *)
let l_max_ichain = 11

(* The per-slot tables start with room for this many blocks (or the
   whole arena, when smaller): every arena of the fixed workloads at
   their experiment scales fits, so only sparse padded layouts grow. *)
let initial_slots = 4096

let create ?(track_blocks = false) ?(track_pairs = false)
    ?(track_lines = false) ?max_addr (cfg : config) =
  if not (Align.is_power_of_two cfg.block) || cfg.block < word_size then
    invalid_arg "Mpcache.create: block must be a power of two >= 4";
  if cfg.assoc <= 0 || cfg.cache_bytes < cfg.block * cfg.assoc then
    invalid_arg "Mpcache.create: cache too small for one set";
  let nsets = cfg.cache_bytes / (cfg.block * cfg.assoc) in
  let log2 n =
    let rec go s n = if n <= 1 then s else go (s + 1) (n lsr 1) in
    go 0 n
  in
  let words = cfg.block / word_size in
  let cap =
    match max_addr with
    | Some a when a > 0 -> ((a - 1) / cfg.block) + 1
    | _ -> 1024
  in
  let tracking = track_blocks || track_lines in
  let scap = min cap initial_slots in
  let table on stride = if on then Array.make (scap * stride) 0 else [||] in
  {
    cfg;
    nsets;
    nprocs = cfg.nprocs;
    assoc = cfg.assoc;
    block_shift = log2 cfg.block;
    word_mask = cfg.block - 1;
    set_mask = (if Align.is_power_of_two nsets then nsets - 1 else 0);
    words;
    cap;
    slot = Array.make cap 0;
    nslots = 0;
    scap;
    ent = Array.make (scap * cfg.nprocs * 4) 0;
    blk = Array.make (scap * 3) 0;
    wrd = Array.make (scap * words * 2) 0;
    ways = Array.make (cfg.nprocs * nsets * cfg.assoc) (-1);
    totals = zero_counts ();
    per_proc = Array.init cfg.nprocs (fun _ -> zero_counts ());
    track_blocks;
    track_lines;
    tracking;
    bcounts = table track_blocks counts_stride;
    lstate = table track_lines line_stride;
    lwords = table track_lines words;
    pair_tbl = (if track_pairs then Some (Hashtbl.create 256) else None);
    time = 0;
  }

let config t = t.cfg

(* [extend old ~len stride] is [old] copied into a zero-filled array of
   [len * stride] elements; strides are fixed and zero means "empty"
   everywhere, so old contents move with a single blit.  Tables that are
   off ([||]) stay off. *)
let extend old ~len stride =
  if Array.length old = 0 then old
  else begin
    let bigger = Array.make (len * stride) 0 in
    Array.blit old 0 bigger 0 (Array.length old);
    bigger
  end

(* Double the slot index until block id [b] fits. *)
let grow t b =
  let cap = ref t.cap in
  while b >= !cap do
    cap := !cap * 2
  done;
  t.slot <- extend t.slot ~len:!cap 1;
  t.cap <- !cap

(* Hand block [b] the next slot, doubling the per-slot tables when they
   are full. *)
let new_slot t b =
  if t.nslots = t.scap then begin
    let len = t.scap * 2 in
    t.ent <- extend t.ent ~len (t.nprocs * 4);
    t.blk <- extend t.blk ~len 3;
    t.wrd <- extend t.wrd ~len (t.words * 2);
    t.bcounts <- extend t.bcounts ~len counts_stride;
    t.lstate <- extend t.lstate ~len line_stride;
    t.lwords <- extend t.lwords ~len t.words;
    t.scap <- len
  end;
  let s = t.nslots in
  t.nslots <- s + 1;
  Array.unsafe_set t.slot b (s + 1);
  s

let set_index t b =
  if t.set_mask <> 0 then b land t.set_mask else b mod t.nsets

(* Remove [victim]'s copy of block [b] (slot [s]) because a write by
   [src] invalidated it.  [cause] distinguishes upgrades (write hits on a
   Shared copy) from outright write misses, for the blame matrix.  The
   victim holds a valid copy (it is in the sharer mask), so its cached
   way index is current and the LRU removal is a single store. *)
let invalidate t b s ~src ~victim ~cause =
  let e = ((s * t.nprocs) + victim) * 4 in
  Array.unsafe_set t.ent e 0;
  Array.unsafe_set t.ent (e + 1) t.time;
  let s3 = s * 3 in
  let m = Array.unsafe_get t.blk s3 in
  Array.unsafe_set t.blk s3 (m land lnot (1 lsl victim));
  if Array.unsafe_get t.blk (s3 + 1) = victim + 1 then
    Array.unsafe_set t.blk (s3 + 1) 0;
  Array.unsafe_set t.ways (Array.unsafe_get t.ent (e + 3)) (-1);
  (* the caller batches [totals.invalidations] over all victims, and
     the per-block count is taken from the packed outcome *)
  let c = t.per_proc.(victim) in
  c.invalidations <- c.invalidations + 1;
  match t.pair_tbl with
  | None -> ()
  | Some tbl ->
    let key = (b, src, victim) in
    let f =
      match Hashtbl.find_opt tbl key with
      | Some f -> f
      | None ->
        let f = { by_upgrade = 0; by_miss = 0 } in
        Hashtbl.add tbl key f;
        f
    in
    (match cause with
     | `Upgrade -> f.by_upgrade <- f.by_upgrade + 1
     | `Wmiss -> f.by_miss <- f.by_miss + 1)

let invalidate_others t b s ~keep ~cause =
  let mask = t.blk.(s * 3) land lnot (1 lsl keep) in
  (* walk the sharer mask, stopping after its highest set bit *)
  let n = ref 0 in
  let m = ref mask in
  let q = ref 0 in
  while !m <> 0 do
    if !m land 1 <> 0 then begin
      invalidate t b s ~src:keep ~victim:!q ~cause;
      incr n
    end;
    m := !m lsr 1;
    incr q
  done;
  if !n > 0 then t.totals.invalidations <- t.totals.invalidations + !n;
  !n

(* Make room in [proc]'s set for block [b] (slot [s]) and insert it.  The
   LRU victim is unique: [last_use] times are distinct access times, so
   the scan order cannot change which block is evicted. *)
let install t ~proc b s =
  let base = ((proc * t.nsets) + set_index t b) * t.assoc in
  let free = ref (-1) in
  let victim_i = ref (-1) in
  let victim_lu = ref max_int in
  for i = 0 to t.assoc - 1 do
    let s' = Array.unsafe_get t.ways (base + i) in
    if s' < 0 then begin
      if !free < 0 then free := i
    end
    else begin
      let lu = Array.unsafe_get t.ent ((((s' * t.nprocs) + proc) * 4) + 2) in
      if lu < !victim_lu then begin
        victim_lu := lu;
        victim_i := i
      end
    end
  done;
  let wi =
    if !free >= 0 then base + !free
    else begin
      let vs = Array.unsafe_get t.ways (base + !victim_i) in
      let ve = ((vs * t.nprocs) + proc) * 4 in
      Array.unsafe_set t.ent ve 0;
      Array.unsafe_set t.ent (ve + 1) lost_evicted;
      let vs3 = vs * 3 in
      t.blk.(vs3) <- t.blk.(vs3) land lnot (1 lsl proc);
      if t.blk.(vs3 + 1) = proc + 1 then t.blk.(vs3 + 1) <- 0;
      base + !victim_i
    end
  in
  Array.unsafe_set t.ways wi s;
  Array.unsafe_set t.ent ((((s * t.nprocs) + proc) * 4) + 3) wi

(* [e] is the entry quad's base index, [w2] the word pair's. *)
let classify_miss t ~proc ~w2 e =
  let lost = Array.unsafe_get t.ent (e + 1) in
  if lost = lost_never then Cold
  else if lost = lost_evicted then Replacement
  else
    (* invalidated at time [lost] *)
    let wp = Array.unsafe_get t.wrd w2 - 1 in
    if wp >= 0 && wp <> proc && Array.unsafe_get t.wrd (w2 + 1) >= lost then
      True_sharing
    else False_sharing

let provider_of t s3 =
  let o = Array.unsafe_get t.blk (s3 + 1) - 1 in
  if o >= 0 then o
  else
    let lw = Array.unsafe_get t.blk (s3 + 2) - 1 in
    if lw >= 0 && Array.unsafe_get t.blk s3 land (1 lsl lw) <> 0 then lw
    else -1

let bump_kind c = function
  | Cold -> c.cold <- c.cold + 1
  | Replacement -> c.repl <- c.repl + 1
  | True_sharing -> c.true_sh <- c.true_sh + 1
  | False_sharing -> c.false_sh <- c.false_sh + 1

(* The raw protocol step.  Returns the outcome packed into an int —
   bits 0-2 a code (0 hit, 1 upgrade, 2-5 a miss of that [kind]),
   bits 3-11 [provider + 1], bits 12+ the invalidation count — so the
   fused replay loop pays no allocation; {!access} below re-boxes it. *)
let kind_code = function
  | Cold -> 2
  | Replacement -> 3
  | True_sharing -> 4
  | False_sharing -> 5

(* The tracking step for one reference to the block in slot [s], after
   the protocol has acted on it and packed its outcome into [raw].  Every
   copy a write destroys is a copy of that block, so [raw lsr 12] is also
   the block's invalidation count.  Indices are in range: [s < scap],
   [proc < nprocs]. *)
let incr_at a i = Array.unsafe_set a i (Array.unsafe_get a i + 1)

let track t ~proc ~write ~addr s raw =
  let invalidated = raw lsr 12 in
  if t.track_blocks then begin
    let a = t.bcounts in
    let c = s * counts_stride in
    (* counters in field order: reads, writes, then the outcome's code
       (2-5) is the miss kind's own index, upgrades last *)
    incr_at a (if write then c + 1 else c);
    let code = raw land 7 in
    if code <> 0 then incr_at a (if code = 1 then c + 7 else c + code);
    if invalidated > 0 then
      Array.unsafe_set a (c + 6) (Array.unsafe_get a (c + 6) + invalidated)
  end;
  if t.track_lines then begin
    let a = t.lstate in
    let l = s * line_stride in
    let bit = 1 lsl proc in
    if write then begin
      incr_at a (l + l_writes);
      Array.unsafe_set a (l + l_writer_mask)
        (Array.unsafe_get a (l + l_writer_mask) lor bit);
      let w = (s * t.words) + ((addr land t.word_mask) lsr 2) in
      Array.unsafe_set t.lwords w (Array.unsafe_get t.lwords w lor bit);
      let last = Array.unsafe_get a (l + l_last_w) in
      if last <> 0 && last <> proc + 1 then begin
        incr_at a (l + l_migrations);
        if Array.unsafe_get a (l + l_prev_w) = proc + 1 then
          incr_at a (l + l_pingpong);
        (* a run starts at 2 writes: the previous one and this one *)
        let run = Array.unsafe_get a (l + l_run) in
        let run = if run = 0 then 2 else run + 1 in
        Array.unsafe_set a (l + l_run) run;
        if run > Array.unsafe_get a (l + l_max_run) then
          Array.unsafe_set a (l + l_max_run) run
      end
      else Array.unsafe_set a (l + l_run) 0;
      Array.unsafe_set a (l + l_prev_w) last;
      Array.unsafe_set a (l + l_last_w) (proc + 1);
      if invalidated > 0 then begin
        incr_at a (l + l_ichain);
        let chain = Array.unsafe_get a (l + l_ichain) in
        if chain > Array.unsafe_get a (l + l_max_ichain) then
          Array.unsafe_set a (l + l_max_ichain) chain
      end
      else Array.unsafe_set a (l + l_ichain) 0
    end
    else begin
      incr_at a (l + l_reads);
      Array.unsafe_set a (l + l_reader_mask)
        (Array.unsafe_get a (l + l_reader_mask) lor bit)
    end
  end

let access_raw t ~proc ~write ~addr =
  (* one range check up front licenses the unsafe array accesses below:
     every index is then [s * stride + k] with [s < scap] (after
     [new_slot]), [proc < nprocs], [word < words] by construction, and
     [b < cap] after [grow] *)
  if proc < 0 || proc >= t.nprocs || addr < 0 then
    invalid_arg "Mpcache.access: processor id or address out of range";
  t.time <- t.time + 1;
  let b = addr lsr t.block_shift in
  if b >= t.cap then grow t b;
  let s =
    let s1 = Array.unsafe_get t.slot b in
    if s1 > 0 then s1 - 1 else new_slot t b
  in
  let e = ((s * t.nprocs) + proc) * 4 in
  let pp = Array.unsafe_get t.per_proc proc in
  (if write then begin
     t.totals.writes <- t.totals.writes + 1;
     pp.writes <- pp.writes + 1
   end
   else begin
     t.totals.reads <- t.totals.reads + 1;
     pp.reads <- pp.reads + 1
   end);
  let raw =
    if write then begin
      let w2 = ((s * t.words) + ((addr land t.word_mask) lsr 2)) * 2 in
      let s3 = s * 3 in
      let note_write () =
        Array.unsafe_set t.wrd w2 (proc + 1);
        Array.unsafe_set t.wrd (w2 + 1) t.time;
        Array.unsafe_set t.blk (s3 + 2) (proc + 1)
      in
      match Array.unsafe_get t.ent e with
      | 2 ->
        Array.unsafe_set t.ent (e + 2) t.time;
        note_write ();
        0
      | 1 ->
        (* write hit on a shared copy: upgrade, invalidating other sharers *)
        let invalidated = invalidate_others t b s ~keep:proc ~cause:`Upgrade in
        Array.unsafe_set t.ent e 2;
        Array.unsafe_set t.ent (e + 2) t.time;
        Array.unsafe_set t.blk (s3 + 1) (proc + 1);
        note_write ();
        t.totals.upgrades <- t.totals.upgrades + 1;
        pp.upgrades <- pp.upgrades + 1;
        1 lor (invalidated lsl 12)
      | _ ->
        let kind = classify_miss t ~proc ~w2 e in
        let provider = provider_of t s3 in
        let invalidated = invalidate_others t b s ~keep:proc ~cause:`Wmiss in
        install t ~proc b s;
        Array.unsafe_set t.ent e 2;
        Array.unsafe_set t.ent (e + 1) lost_never;
        Array.unsafe_set t.ent (e + 2) t.time;
        Array.unsafe_set t.blk s3 (Array.unsafe_get t.blk s3 lor (1 lsl proc));
        Array.unsafe_set t.blk (s3 + 1) (proc + 1);
        note_write ();
        bump_kind t.totals kind;
        bump_kind pp kind;
        kind_code kind lor ((provider + 1) lsl 3) lor (invalidated lsl 12)
    end
    else begin
      match Array.unsafe_get t.ent e with
      | 1 | 2 ->
        Array.unsafe_set t.ent (e + 2) t.time;
        0
      | _ ->
        let w2 = ((s * t.words) + ((addr land t.word_mask) lsr 2)) * 2 in
        let s3 = s * 3 in
        let kind = classify_miss t ~proc ~w2 e in
        let provider = provider_of t s3 in
        (* a modified copy elsewhere is downgraded to shared *)
        let o = Array.unsafe_get t.blk (s3 + 1) - 1 in
        if o >= 0 then begin
          Array.unsafe_set t.ent (((s * t.nprocs) + o) * 4) 1;
          Array.unsafe_set t.blk (s3 + 1) 0
        end;
        install t ~proc b s;
        Array.unsafe_set t.ent e 1;
        Array.unsafe_set t.ent (e + 1) lost_never;
        Array.unsafe_set t.ent (e + 2) t.time;
        Array.unsafe_set t.blk s3 (Array.unsafe_get t.blk s3 lor (1 lsl proc));
        bump_kind t.totals kind;
        bump_kind pp kind;
        kind_code kind lor ((provider + 1) lsl 3)
    end
  in
  if t.tracking then track t ~proc ~write ~addr s raw;
  raw

let touch t ~proc ~write ~addr = ignore (access_raw t ~proc ~write ~addr : int)

let kind_of_code = function
  | 2 -> Cold
  | 3 -> Replacement
  | 4 -> True_sharing
  | _ -> False_sharing

let access t ~proc ~write ~addr =
  let raw = access_raw t ~proc ~write ~addr in
  match raw land 7 with
  | 0 -> Hit
  | 1 -> Upgrade { invalidated = raw lsr 12 }
  | code ->
    Miss
      { info = { kind = kind_of_code code; provider = ((raw lsr 3) land 0x1ff) - 1 };
        invalidated = raw lsr 12 }

let sink t ~proc ~write ~addr = touch t ~proc ~write ~addr

let counts t = t.totals

let proc_counts t = t.per_proc

let tracking_off what flag =
  invalid_arg
    (Printf.sprintf
       "Mpcache.%s: cache was created without ~%s:true, nothing was recorded"
       what flag)

let invalidation_pairs t =
  match t.pair_tbl with
  | None -> tracking_off "invalidation_pairs" "track_pairs"
  | Some tbl ->
    Hashtbl.fold
      (fun (block, src, victim) f acc ->
        { block; src; victim; upgrades = f.by_upgrade; write_misses = f.by_miss }
        :: acc)
      tbl []
    |> List.sort (fun a b ->
           compare (a.block, a.src, a.victim) (b.block, b.src, b.victim))

(* Touched blocks in ascending order, each with its slot. *)
let fold_slots t f =
  let acc = ref [] in
  for b = Array.length t.slot - 1 downto 0 do
    let s1 = t.slot.(b) in
    if s1 > 0 then acc := f b (s1 - 1) :: !acc
  done;
  !acc

let per_block t =
  if not t.track_blocks then tracking_off "per_block" "track_blocks";
  let a = t.bcounts in
  fold_slots t (fun b s ->
      let c = s * counts_stride in
      ( b,
        { reads = a.(c); writes = a.(c + 1); cold = a.(c + 2);
          repl = a.(c + 3); true_sh = a.(c + 4); false_sh = a.(c + 5);
          invalidations = a.(c + 6); upgrades = a.(c + 7) } ))

let lines t =
  if not t.track_lines then tracking_off "lines" "track_lines";
  let a = t.lstate in
  fold_slots t (fun b s ->
      let l = s * line_stride in
      let word_writers = Array.sub t.lwords (s * t.words) t.words in
      let written = ref 0 and shared = ref 0 in
      Array.iter
        (fun m ->
          if m <> 0 then begin
            incr written;
            if m land (m - 1) <> 0 then incr shared
          end)
        word_writers;
      { line_block = b;
        line_reads = a.(l + l_reads);
        line_writes = a.(l + l_writes);
        writers = popcount a.(l + l_writer_mask);
        readers = popcount a.(l + l_reader_mask);
        migrations = a.(l + l_migrations);
        pingpong = a.(l + l_pingpong);
        max_run = a.(l + l_max_run);
        max_inval_chain = a.(l + l_max_ichain);
        written_words = !written;
        shared_words = !shared;
        word_writers })

let state_of t ~proc ~addr =
  let b = addr lsr t.block_shift in
  let s1 = if b >= t.cap then 0 else t.slot.(b) in
  if s1 = 0 then `Invalid
  else
    match t.ent.((((s1 - 1) * t.nprocs) + proc) * 4) with
    | 2 -> `Modified
    | 1 -> `Shared
    | _ -> `Invalid
