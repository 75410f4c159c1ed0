type t = { buffer : bytes; off : int; len : int }

exception Bounds of string

let bounds_error fmt = Format.kasprintf (fun s -> raise (Bounds s)) fmt

let create n =
  if n < 0 then bounds_error "View.create: negative length %d" n;
  { buffer = Bytes.make n '\000'; off = 0; len = n }

let of_string s = { buffer = Bytes.of_string s; off = 0; len = String.length s }
let of_bytes b = { buffer = b; off = 0; len = Bytes.length b }
let length t = t.len

let sub t off len =
  if off < 0 || len < 0 || off + len > t.len then
    bounds_error "View.sub: window (%d,%d) exceeds view of length %d" off len t.len;
  { buffer = t.buffer; off = t.off + off; len }

let shift t n = sub t n (t.len - n)

let check t i width op =
  if i < 0 || i + width > t.len then
    bounds_error "View.%s: offset %d (width %d) exceeds view of length %d" op i width t.len

let get_uint8 t i =
  check t i 1 "get_uint8";
  Char.code (Bytes.get t.buffer (t.off + i))

let set_uint8 t i v =
  check t i 1 "set_uint8";
  Bytes.set t.buffer (t.off + i) (Char.chr (v land 0xff))

let get_uint16 t i =
  check t i 2 "get_uint16";
  Bytes.get_uint16_be t.buffer (t.off + i)

let set_uint16 t i v =
  check t i 2 "set_uint16";
  Bytes.set_uint16_be t.buffer (t.off + i) (v land 0xffff)

let get_uint32 t i =
  check t i 4 "get_uint32";
  Bytes.get_int32_be t.buffer (t.off + i)

let set_uint32 t i v =
  check t i 4 "set_uint32";
  Bytes.set_int32_be t.buffer (t.off + i) v

let blit src soff dst doff len =
  check src soff len "blit(src)";
  check dst doff len "blit(dst)";
  Bytes.blit src.buffer (src.off + soff) dst.buffer (dst.off + doff) len

(* One's-complement partial sum of [len] bytes at [off]: big-endian
   32-bit words, four bytes per iteration, then 0-3 trailing bytes.
   Since 2^16 = 1 (mod 0xffff) a 32-bit word adds the same as its two
   16-bit halves once carries are folded, and the sum is zero only when
   every byte is, so the folded result equals the 16-bit word sum the
   checksum is defined by.  The sum is un-complemented and unfolded; an
   odd trailing byte counts as the high byte of a final zero-padded
   16-bit word. *)
let sum16 t off len =
  check t off len "sum16";
  let b = t.buffer and base = t.off + off in
  let acc = ref 0 in
  let words = len / 4 in
  for i = 0 to words - 1 do
    acc := !acc + (Int32.to_int (Bytes.get_int32_be b (base + (4 * i))) land 0xffffffff)
  done;
  let pos = base + (4 * words) in
  (match len land 3 with
  | 0 -> ()
  | 1 -> acc := !acc + (Char.code (Bytes.get b pos) lsl 8)
  | 2 -> acc := !acc + Bytes.get_uint16_be b pos
  | _ -> acc := !acc + Bytes.get_uint16_be b pos + (Char.code (Bytes.get b (pos + 2)) lsl 8));
  !acc

let blit_sum src soff dst doff len =
  blit src soff dst doff len;
  sum16 dst doff len

let blit_from_string s soff dst doff len =
  if soff < 0 || soff + len > String.length s then
    bounds_error "View.blit_from_string: source window (%d,%d)" soff len;
  check dst doff len "blit_from_string(dst)";
  Bytes.blit_string s soff dst.buffer (dst.off + doff) len

let fill t c = Bytes.fill t.buffer t.off t.len c
let to_string t = Bytes.sub_string t.buffer t.off t.len
let copy t = of_bytes (Bytes.sub t.buffer t.off t.len)

let concat vs =
  let total = List.fold_left (fun acc v -> acc + v.len) 0 vs in
  let out = create total in
  let pos = ref 0 in
  let copy_one v =
    blit v 0 out !pos v.len;
    pos := !pos + v.len
  in
  List.iter copy_one vs;
  out

let equal a b = a.len = b.len && to_string a = to_string b

let pp ppf t =
  let max_bytes = 48 in
  let n = Stdlib.min t.len max_bytes in
  Format.fprintf ppf "[%d]" t.len;
  for i = 0 to n - 1 do
    if i mod 16 = 0 then Format.fprintf ppf "@ ";
    Format.fprintf ppf "%02x" (get_uint8 t i)
  done;
  if t.len > max_bytes then Format.fprintf ppf "..."
