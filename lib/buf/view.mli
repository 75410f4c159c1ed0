(** Byte-range views.

    A view is a window [off, off+len) onto a backing [bytes].  Views are
    the currency of the packet path: sub-views share the backing store,
    so stripping or adding headers never copies payload bytes.  Network
    byte order (big-endian) accessors are provided for header fields. *)

type t = { buffer : bytes; off : int; len : int }

exception Bounds of string
(** Raised on any out-of-range access, with a description. *)

val create : int -> t
(** [create n] is a zero-filled view of [n] fresh bytes. *)

val of_string : string -> t
(** A view over a copy of the string. *)

val of_bytes : bytes -> t
(** A view over the given bytes (no copy; aliasing is visible). *)

val length : t -> int

val sub : t -> int -> int -> t
(** [sub v off len] is the sub-window; shares storage.
    @raise Bounds if the window exceeds [v]. *)

val shift : t -> int -> t
(** [shift v n] drops the first [n] bytes ([sub v n (length v - n)]). *)

val get_uint8 : t -> int -> int
val set_uint8 : t -> int -> int -> unit

val get_uint16 : t -> int -> int
(** Big-endian 16-bit read. *)

val set_uint16 : t -> int -> int -> unit
(** Big-endian 16-bit write (low 16 bits of the argument). *)

val get_uint32 : t -> int -> int32
val set_uint32 : t -> int -> int32 -> unit

val blit : t -> int -> t -> int -> int -> unit
(** [blit src soff dst doff len] copies bytes between views. *)

val sum16 : t -> int -> int -> int
(** [sum16 v off len] is the un-complemented Internet-checksum partial
    sum of bytes [off, off+len): big-endian 16-bit words, an odd
    trailing byte padded as the high byte of a final word.  The bytes
    are read four at a time, so the unfolded value may differ from the
    plain 16-bit word sum, but it is congruent to it modulo 0xffff and
    zero exactly when it is: once carries are folded (finish with
    {!Uln_proto.Checksum}-style folding) the two are equal. *)

val blit_sum : t -> int -> t -> int -> int -> int
(** [blit_sum src soff dst doff len] is {!blit} followed by {!sum16} on
    the copied bytes: the combined copy-and-checksum primitive of the
    data path. *)

val blit_from_string : string -> int -> t -> int -> int -> unit
val fill : t -> char -> unit

val to_string : t -> string
(** Copy out the viewed bytes. *)

val copy : t -> t
(** A view over a fresh copy of the bytes. *)

val concat : t list -> t
(** A fresh view holding the concatenation. *)

val equal : t -> t -> bool
(** Byte-wise equality of the viewed contents. *)

val pp : Format.formatter -> t -> unit
(** Hex dump (truncated for long views). *)
