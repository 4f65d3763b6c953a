(* CRC-32 (IEEE 802.3, the zlib polynomial), slicing-by-8: eight bytes
   per step through eight lookup tables, with a byte-wise tail.  Used by
   the v2 trace format to checksum each event block and the trailing
   index, so bit rot surfaces as a typed [Corrupt] naming the damaged
   block instead of silently wrong replay counts. *)

type bigstring =
  (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

external bigstring_get32u : bigstring -> int -> int32 = "%caml_bigstring_get32u"
external string_get32u : string -> int -> int32 = "%caml_string_get32u"
external swap32 : int32 -> int32 = "%bswap_int32"
external big_endian : unit -> bool = "%big_endian"

(* [tables.(k * 256 + n)] is the register after byte [n] followed by [k]
   zero bytes: table 0 is the classic one-byte table and table k is
   table k-1 advanced by one zero byte, so one step folds the eight
   bytes of two 32-bit words through eight independent lookups. *)
let tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then 0xedb88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xff)
    done
  done;
  t

(* running CRCs are carried pre-inverted (the usual ~crc register form);
   [start] and [finish] do the inversions once per checksum *)
let start = 0xffffffff
let finish crc = crc lxor 0xffffffff

let[@inline] byte crc b =
  Array.unsafe_get tables ((crc lxor b) land 0xff) lxor (crc lsr 8)

(* a little-endian 32-bit load as a non-negative int *)
let[@inline] le32 w =
  Int32.to_int (if big_endian () then swap32 w else w) land 0xffff_ffff

(* the eight bytes [lo] (first four) and [hi] (next four) *)
let[@inline] step crc lo hi =
  let t = tables in
  let lo = crc lxor lo in
  Array.unsafe_get t ((7 * 256) + (lo land 0xff))
  lxor Array.unsafe_get t ((6 * 256) + ((lo lsr 8) land 0xff))
  lxor Array.unsafe_get t ((5 * 256) + ((lo lsr 16) land 0xff))
  lxor Array.unsafe_get t ((4 * 256) + (lo lsr 24))
  lxor Array.unsafe_get t ((3 * 256) + (hi land 0xff))
  lxor Array.unsafe_get t ((2 * 256) + ((hi lsr 8) land 0xff))
  lxor Array.unsafe_get t (256 + ((hi lsr 16) land 0xff))
  lxor Array.unsafe_get t (hi lsr 24)

let check_range what dim pos len =
  if pos < 0 || len < 0 || pos > dim - len then
    invalid_arg (Printf.sprintf "Crc32.%s: range out of bounds" what)

let string_sub crc s pos len =
  check_range "string_sub" (String.length s) pos len;
  let c = ref crc and i = ref pos in
  let stop8 = pos + (len land lnot 7) in
  while !i < stop8 do
    c :=
      step !c (le32 (string_get32u s !i)) (le32 (string_get32u s (!i + 4)));
    i := !i + 8
  done;
  for j = stop8 to pos + len - 1 do
    c := byte !c (Char.code (String.unsafe_get s j))
  done;
  !c

let bigstring_sub crc (b : bigstring) pos len =
  check_range "bigstring_sub" (Bigarray.Array1.dim b) pos len;
  let c = ref crc and i = ref pos in
  let stop8 = pos + (len land lnot 7) in
  while !i < stop8 do
    c :=
      step !c
        (le32 (bigstring_get32u b !i))
        (le32 (bigstring_get32u b (!i + 4)));
    i := !i + 8
  done;
  for j = stop8 to pos + len - 1 do
    c := byte !c (Char.code (Bigarray.Array1.unsafe_get b j))
  done;
  !c

let of_string s = finish (string_sub start s 0 (String.length s))

let of_bigstring_sub b pos len = finish (bigstring_sub start b pos len)
