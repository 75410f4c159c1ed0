(* Minimal IPv4/TCP header reading over captured frames: enough to key
   flows, spot handshakes and retransmissions on the link tap, and feed
   the replay benches.  Assumes the 20-byte IP header the stacks send. *)

module Mbuf = Uln_buf.Mbuf
module Frame = Uln_net.Frame
module Ip = Uln_addr.Ip

type tcp = {
  src_ip : Ip.t;
  dst_ip : Ip.t;
  sport : int;
  dport : int;
  seq : int;
  syn : bool;
  ack : bool;
  data_len : int;
  segment : Mbuf.t;  (** the TCP header and payload, as checksummed *)
}

let ip_header = 20

let u8 m i = Mbuf.get_uint8 m i
let u16 m i = (u8 m i lsl 8) lor u8 m (i + 1)
let u32 m i = (u16 m i lsl 16) lor u16 m (i + 2)
let ip_at m i = Ip.of_int32 (Int32.of_int (u32 m i))

let tcp (f : Frame.t) =
  let m = f.Frame.payload in
  if f.Frame.ethertype <> Frame.ethertype_ip || Mbuf.length m < ip_header + 20 || u8 m 9 <> 6
  then None
  else begin
    let total = Stdlib.min (u16 m 2) (Mbuf.length m) in
    let seg = Mbuf.take (Mbuf.drop m ip_header) (total - ip_header) in
    let off = (u8 seg 12 lsr 4) * 4 in
    let flags = u8 seg 13 in
    Some
      { src_ip = ip_at m 12;
        dst_ip = ip_at m 16;
        sport = u16 seg 0;
        dport = u16 seg 2;
        seq = u32 seg 4;
        syn = flags land 0x02 <> 0;
        ack = flags land 0x10 <> 0;
        data_len = Stdlib.max 0 (Mbuf.length seg - off);
        segment = seg }
  end

(* Data segments that re-send sequence space already seen on their
   flow: what the sender's retransmission counter would report. *)
type retx = { highest : (Ip.t * int * Ip.t * int, int) Hashtbl.t; mutable count : int }

let retx () = { highest = Hashtbl.create 16; count = 0 }

let seq_lt a b = (a - b) land 0xffff_ffff > 0x7fff_ffff

let note_retx r t =
  if t.data_len > 0 then begin
    let key = (t.src_ip, t.sport, t.dst_ip, t.dport) in
    let stop = (t.seq + t.data_len) land 0xffff_ffff in
    match Hashtbl.find_opt r.highest key with
    | Some hi when seq_lt t.seq hi ->
        r.count <- r.count + 1;
        if seq_lt hi stop then Hashtbl.replace r.highest key stop
    | Some _ | None -> Hashtbl.replace r.highest key stop
  end
