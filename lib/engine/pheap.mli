(** Binary min-heap with integer keys and FIFO tie-breaking.

    Used as the simulator's event queue: O(log n) insert and delete-min
    over flat arrays, allocating no per-entry node.  Entries are ordered
    by [(key, seq)], so entries with equal keys pop in insertion order
    (by the caller-supplied sequence number), which keeps simulations
    deterministic.  A popped value is not kept reachable by the heap. *)

type 'a t

val create : unit -> 'a t
(** A fresh empty heap. *)

val size : 'a t -> int
(** Number of entries currently in the heap. *)

val is_empty : 'a t -> bool
(** [is_empty t] is [size t = 0]. *)

val insert : 'a t -> key:int -> seq:int -> 'a -> unit
(** [insert t ~key ~seq v] adds [v] with priority [key].  [seq] must be
    strictly increasing across insertions to guarantee FIFO order among
    equal keys. *)

val min_key : 'a t -> int option
(** Smallest key present, if any, without removing it. *)

val pop : 'a t -> (int * 'a) option
(** Remove and return the minimum entry. *)
