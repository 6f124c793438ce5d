(** Dynamic data-race detection for the parallel CEGIS/SAT stack.

    A FastTrack-style happens-before detector (Flanagan & Freund, PLDI
    2009): every logical thread carries a vector clock; every tracked
    location carries an epoch-compressed shadow word (last write as a
    single [(clock, thread)] epoch, last reads as an epoch or — once reads
    race ahead concurrently — a full read vector clock).  An access that is
    not ordered after the conflicting shadow entry is a race.  As a
    fallback discipline check, each access also records the set of locks
    held: a happens-before race whose accesses share a common lock is
    downgraded to a [Warning] ("lock-discipline": the program is probably
    safe, but the synchronization is invisible to the detector and should
    be routed through {!with_lock}).

    The detector is {e off} by default.  Every entry point starts with a
    single [Atomic.get] on the enable flag and returns immediately when
    disabled, so instrumented hot paths (pool cursors, CEGIS logs,
    harness caches) pay one predictable branch — see the
    [ablation/sanitize-off-cegis-domains-2] bench.  When enabled, all shadow
    bookkeeping runs under one global mutex: sanitizing serializes the
    program, which is fine because races are found by {e logical}
    interleavings (vector clocks + schedule replay in
    {!Pmi_parallel.Pool}), not by physical timing.

    Threads here are {e logical} threads, not domains: the pool forks one
    per task even when replay mode runs them serially on a single domain,
    which is exactly what lets a deterministic schedule expose a race. *)

(* ------------------------------------------------------------------ *)
(** {1 Switching the detector on and off} *)

val enabled : unit -> bool

val enable : unit -> unit
(** Reset all detector state (threads, shadow words, reports) and start
    tracking.  The calling thread becomes logical thread 0 ("main"). *)

val disable : unit -> unit
(** Stop tracking.  Reports accumulated so far remain readable. *)

(* ------------------------------------------------------------------ *)
(** {1 Logical threads and happens-before edges} *)

type thread
(** A logical-thread handle, created by {!fork} and consumed by {!join}. *)

val fork : ?name:string -> unit -> thread
(** A fork edge: the new thread's clock starts after everything the
    current thread has done.  Returns a dummy handle when disabled. *)

val join : thread -> unit
(** A join edge: the current thread's clock absorbs everything the joined
    thread did.  No-op when disabled or on a stale/dummy handle. *)

val with_thread : thread -> (unit -> 'a) -> 'a
(** Run [f] with the current domain acting as the given logical thread
    (saved and restored on exit).  Used by the pool to run tasks under
    their own thread identity — including serially in replay mode. *)

val fence : unit -> unit
(** A global sequentially-consistent barrier: orders this call after every
    earlier {!fence} and before every later one (fence-to-fence edges
    only — it does not order plain accesses that skip the fence). *)

(* ------------------------------------------------------------------ *)
(** {1 Locks} *)

type lock

val create_lock : string -> lock
(** A real (non-reentrant) mutex whose acquire/release also carry
    happens-before edges when the detector is on. *)

val with_lock : lock -> (unit -> 'a) -> 'a
(** Acquire, run, release (exception-safe).  The mutex is taken even when
    the detector is off: instrumented components rely on it for actual
    thread safety (e.g. the harness cache), not only for bookkeeping. *)

val holding : lock -> (unit -> 'a) -> 'a
(** The discipline-checker escape hatch: declare that [f] runs while the
    given lock is held by synchronization outside the detector's view (an
    external mutex, a coarser protocol).  Unlike {!with_lock}, no mutex is
    taken and no happens-before edge is recorded — only the lockset — so a
    conflicting access pair that shares a declared lock is downgraded from
    a [data-race] Error to a [lock-discipline] Warning instead of
    vanishing. *)

(* ------------------------------------------------------------------ *)
(** {1 Tracked locations} *)

type location
(** A shadow word for one logical memory location (or one coarse region,
    e.g. "this hash table" or "this solver's clause arena"). *)

val location : string -> location

val touch_read : location -> unit
(** Record a read of the location by the current logical thread. *)

val touch_write : location -> unit
(** Record a write.  Checks against the previous write {e and} all
    unordered previous reads. *)

(** {2 Tracked cells} *)

type 'a tracked_ref

val tracked_ref : name:string -> 'a -> 'a tracked_ref
val read : 'a tracked_ref -> 'a
val write : 'a tracked_ref -> 'a -> unit

(** {2 Tracked atomics}

    Backed by a real [Atomic.t].  When the detector is on, each operation
    additionally carries release/acquire happens-before edges through the
    atomic's own vector clock: [aget] acquires, [aset] / successful [acas]
    / [afetch_add] release (and RMWs also acquire) — the same edges the
    memory model gives SC atomics. *)

type 'a tracked_atomic

val tracked_atomic : name:string -> 'a -> 'a tracked_atomic
val aget : 'a tracked_atomic -> 'a
val aset : 'a tracked_atomic -> 'a -> unit
val acas : 'a tracked_atomic -> 'a -> 'a -> bool
val afetch_add : int tracked_atomic -> int -> int

(** {2 Tracked hash tables}

    A polymorphic [Hashtbl] whose every operation touches one shadow
    location (the table is tracked as a single coarse region: any
    unordered lookup/insert pair is a race).  Mirrors the handful of
    operations the experiment caches actually use. *)

type ('k, 'v) tracked_table

val tracked_table : name:string -> int -> ('k, 'v) tracked_table
val tbl_find_opt : ('k, 'v) tracked_table -> 'k -> 'v option
val tbl_mem : ('k, 'v) tracked_table -> 'k -> bool
val tbl_replace : ('k, 'v) tracked_table -> 'k -> 'v -> unit
val tbl_remove : ('k, 'v) tracked_table -> 'k -> unit
val tbl_length : ('k, 'v) tracked_table -> int
val tbl_reset : ('k, 'v) tracked_table -> unit
val tbl_fold : ('k -> 'v -> 'acc -> 'acc) -> ('k, 'v) tracked_table -> 'acc -> 'acc

(* ------------------------------------------------------------------ *)
(** {1 Reports} *)

type kind =
  | Write_write
  | Read_write   (** earlier read, unordered later write *)
  | Write_read   (** earlier write, unordered later read *)

type report = {
  location_name : string;
  kind : kind;
  first : string;           (** logical thread of the earlier access *)
  second : string;          (** logical thread of the later access *)
  lockset_saved : bool;
    (** The two accesses held a common lock the detector could not see as
        a happens-before edge: downgraded to a discipline warning. *)
}

val kind_to_string : kind -> string

val reports : unit -> report list
(** All distinct races found since {!enable}, in discovery order.
    De-duplicated per (location, kind): a racy counter bumped a thousand
    times reports once. *)

val clear_reports : unit -> unit

val to_diags : report list -> Diag.t list
(** Races as [data-race] errors; lockset-saved ones as [lock-discipline]
    warnings. *)
