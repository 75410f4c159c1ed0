(** The Internet checksum (RFC 1071): 16-bit one's-complement sum.

    Works across mbuf segment boundaries, including odd-length segments
    (byte parity is threaded through the fold). *)

val of_view : ?init:int -> Uln_buf.View.t -> int
(** One's-complement sum of the view's bytes, folded to 16 bits and
    complemented.  [init] seeds the accumulator (pass a partial sum). *)

val of_mbuf : ?init:int -> Uln_buf.Mbuf.t -> int

val partial : int -> bool -> Uln_buf.View.t -> int * bool
(** [partial acc odd v] extends a running (un-complemented) sum; [odd]
    says whether an odd number of bytes has been consumed so far.
    Finish with {!finish}.  Word-at-a-time (four bytes per iteration via
    {!Uln_buf.View.sum16}). *)

val partial_bytes : int -> bool -> Uln_buf.View.t -> int * bool
(** The byte-at-a-time reference implementation of {!partial} — the
    oracle the word-at-a-time and fused paths are property-tested
    against. *)

val reference_of_view : ?init:int -> Uln_buf.View.t -> int
(** {!of_view} computed with {!partial_bytes}. *)

val reference_of_mbuf : ?init:int -> Uln_buf.Mbuf.t -> int
(** {!of_mbuf} computed with {!partial_bytes}. *)

val finish : int -> int
(** Fold carries and complement. *)

val pseudo_header :
  src:Uln_addr.Ip.t -> dst:Uln_addr.Ip.t -> proto:int -> len:int -> int
(** The TCP/UDP pseudo-header partial sum (un-complemented), to pass as
    [init] via {!finish}-free accumulation: feed it to [of_mbuf ~init]. *)

val valid : ?init:int -> Uln_buf.Mbuf.t -> bool
(** A packet whose checksum field is in place sums to zero. *)
