(** Fixed-size buffer pools.

    Models the pinned, shared packet-buffer memory the registry server
    and network I/O module create at connection setup: a bounded set of
    equally sized buffers, allocated and returned without copying.
    Exhaustion is visible to the caller (as it is to a NIC ring).

    Buffers are provisioned on first use: [create] allocates none, and
    each slot gets its buffer, zero-filled, the first time [alloc]
    hands it out.  Slots go out in index order and a freed buffer queues
    behind every never-used slot, so allocation order, contents and the
    counters below are those of a pool whose buffers all existed from
    [create] on; only the host memory of never-used slots is saved. *)

type t

val create : count:int -> size:int -> t
(** [create ~count ~size] builds a pool of [count] buffers of [size]
    bytes each; none is allocated until its first {!alloc}. *)

val size : t -> int
(** Buffer size in bytes. *)

val capacity : t -> int
(** Total buffer count, provisioned or not. *)

val available : t -> int
(** Buffers currently free, counting never-provisioned slots. *)

val in_use : t -> int

val exhausted : t -> int
(** How many [alloc] calls found the pool empty (and returned [None]).
    A rising counter is the ring-overrun signal a driver would read off
    its NIC statistics. *)

val alloc : t -> View.t option
(** Take a buffer; [None] when the pool is exhausted.  The returned view
    covers the full buffer.  A buffer's first [alloc] provisions it
    zero-filled; after a {!free} it comes back (physically the same
    buffer) with whatever its last user left in it. *)

val free : t -> View.t -> unit
(** Return a buffer to the pool.
    @raise Invalid_argument if the view does not belong to this pool or
    is already free (double free). *)

val owns : t -> View.t -> bool
(** Whether the view's backing store belongs to this pool (only
    provisioned buffers are compared). *)
