(** Counting semaphores for simulated threads.

    This is the "lightweight semaphore" of the paper's protocol library:
    the network I/O module signals it on packet arrival and a library
    thread waits on it.  Signals accumulate in a counter, so notification
    batching (several packets per signal) falls out naturally.

    Semaphores also carry contention accounting: every {!wait} is an
    acquisition, a wait that blocks is a contended acquisition, and when
    the semaphore knows its scheduler the time spent blocked is tallied
    (total, max, and a per-lock distribution in microseconds).  Named
    semaphores of a scheduler appear in that scheduler's registry so
    tools can rank the most contended locks of a run. *)

type t

type stats = {
  s_name : string;
  s_kind : string;  (** ["semaphore"], or ["mutex"] when wrapped by {!Mutex}. *)
  s_acquisitions : int;
  s_contended : int;  (** Acquisitions that had to block. *)
  s_total_wait_ns : int;
  s_max_wait_ns : int;
  s_wait_us : Stats.Dist.t;  (** Per-blocked-wait histogram, microseconds. *)
}

val create : ?name:string -> ?sched:Sched.t -> ?kind:string -> ?initial:int -> unit -> t
(** A semaphore with the given initial count (default 0).  Passing
    [~sched] enables wait-time accounting (reading the clock only — no
    effect on the simulation); passing [~name] as well registers it for
    {!registered}. *)

val count : t -> int
(** Current count (signals not yet consumed). *)

val waiters : t -> int
(** Number of threads currently blocked in {!wait}. *)

val signal : t -> unit
(** Increment the count, waking one waiter if any. *)

val wait : t -> unit
(** Decrement the count, blocking the calling thread while it is zero. *)

val try_wait : t -> bool
(** Non-blocking wait: [true] and decrements if the count was positive. *)

val stats : t -> stats
(** Contention counters so far.  Wait-time fields stay 0 unless the
    semaphore was created with [~sched]. *)

val registered : sched:Sched.t -> unit -> stats list
(** Stats for every named semaphore (and mutex) of [sched], in creation
    order.  The registry holds its scheduler weakly: once a world is
    dropped, its locks are collectable. *)
