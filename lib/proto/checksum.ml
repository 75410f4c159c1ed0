module View = Uln_buf.View
module Mbuf = Uln_buf.Mbuf
module Ip = Uln_addr.Ip

(* Reference implementation: one byte per iteration.  Kept as the
   differential-test oracle for the word-at-a-time and fused paths. *)
let partial_bytes acc odd v =
  let len = View.length v in
  let acc = ref acc in
  let odd = ref odd in
  for i = 0 to len - 1 do
    let b = View.get_uint8 v i in
    (* Even positions are the high byte of a 16-bit word. *)
    if !odd then acc := !acc + b else acc := !acc + (b lsl 8);
    odd := not !odd
  done;
  (!acc, !odd)

(* Word-at-a-time: four bytes per iteration via [View.sum16].  When the
   running parity is odd the first byte completes the previous word (it
   is a low byte); the rest starts word-aligned. *)
let partial acc odd v =
  let len = View.length v in
  if len = 0 then (acc, odd)
  else begin
    let acc, skip = if odd then (acc + View.get_uint8 v 0, 1) else (acc, 0) in
    let acc = acc + View.sum16 v skip (len - skip) in
    (acc, odd <> (len land 1 = 1))
  end

let finish acc =
  let acc = ref acc in
  while !acc lsr 16 <> 0 do
    acc := (!acc land 0xffff) + (!acc lsr 16)
  done;
  lnot !acc land 0xffff

let of_view ?(init = 0) v =
  let acc, _ = partial init false v in
  finish acc

let of_mbuf ?(init = 0) m =
  let acc, _ =
    Mbuf.fold_segments (fun (acc, odd) seg -> partial acc odd seg) (init, false) m
  in
  finish acc

let reference_of_view ?(init = 0) v =
  let acc, _ = partial_bytes init false v in
  finish acc

let reference_of_mbuf ?(init = 0) m =
  let acc, _ =
    Mbuf.fold_segments (fun (acc, odd) seg -> partial_bytes acc odd seg) (init, false) m
  in
  finish acc

let pseudo_header ~src ~dst ~proto ~len =
  let ip32 a =
    let v = Int32.to_int (Ip.to_int32 a) land 0xffffffff in
    ((v lsr 16) land 0xffff) + (v land 0xffff)
  in
  ip32 src + ip32 dst + proto + len

let valid ?(init = 0) m = of_mbuf ~init m = 0
