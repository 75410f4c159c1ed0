module Mac = Uln_addr.Mac
module View = Uln_buf.View
module Mbuf = Uln_buf.Mbuf

type t = {
  src : Mac.t;
  dst : Mac.t;
  ethertype : int;
  bqi : int;
  bqi_hint : int;
  gso_size : int;
  payload : Mbuf.t;
}

let make ~src ~dst ~ethertype ?(bqi = 0) ?(bqi_hint = 0) ?(gso_size = 0) payload =
  { src; dst; ethertype; bqi; bqi_hint; gso_size; payload }

let payload_length t = Mbuf.length t.payload

let header_size = 14

let header_bytes t =
  let v = View.create header_size in
  let put_mac off mac =
    let m = Mac.to_int mac in
    View.set_uint16 v off (m lsr 32);
    View.set_uint16 v (off + 2) (m lsr 16);
    View.set_uint16 v (off + 4) m
  in
  put_mac 0 t.dst;
  put_mac 6 t.src;
  View.set_uint16 v 12 t.ethertype;
  v

let to_wire t = View.concat (header_bytes t :: Mbuf.segments t.payload)

let ethertype_ip = 0x0800
let ethertype_arp = 0x0806

let pp ppf t =
  Format.fprintf ppf "%a -> %a type=0x%04x bqi=%d len=%d" Mac.pp t.src Mac.pp t.dst t.ethertype
    t.bqi (payload_length t)
