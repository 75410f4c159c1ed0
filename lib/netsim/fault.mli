(** Link fault injection.

    A fault model decides, per frame, whether to deliver, drop,
    duplicate, corrupt (invert one payload byte) or delay-reorder.
    Deterministic given the generator's seed.

    The link models no frame check sequence, so a corrupted frame is
    always delivered and only the receiving protocol can notice.  In
    an IP frame the IPv4 header checksum and the TCP, UDP, ICMP and RRP
    checksums, all verified on input, detect any one inverted byte of
    what they cover, and the datagram is dropped.  (One exception
    loses no data: a UDP checksum field the flip turns into zero reads
    as "no checksum", and the datagram is accepted intact.)  Nothing
    catches an inverted byte in an ARP packet, which carries no
    checksum: the corrupted request or reply is processed as genuine,
    and its sender addresses are learned. *)

type t

val none : t
(** Perfect link. *)

val create :
  rng:Uln_engine.Rng.t ->
  ?drop:float ->
  ?duplicate:float ->
  ?corrupt:float ->
  ?reorder:float ->
  unit ->
  t
(** Probabilities in [0,1]; unspecified ones default to 0. *)

type verdict =
  | Deliver
  | Drop
  | Duplicate  (** deliver twice *)
  | Corrupt  (** deliver with one payload byte flipped *)
  | Reorder  (** hold this frame; release it after the next one *)

val judge : t -> verdict
(** Decide the fate of the next frame. *)

val corrupt_frame : t -> Frame.t -> Frame.t
(** A copy of the frame with one payload byte (chosen by the fault
    model's generator) inverted; identity for empty payloads. *)

val dropped : t -> int
(** Frames dropped so far. *)
