(** A small chunked work pool over OCaml 5 domains, with a deterministic
    schedule-replay mode for the concurrency sanitizer.

    Work is claimed in contiguous index chunks off one atomic cursor; the
    calling domain participates as a worker, so requesting one domain runs
    sequentially with zero spawns.

    The work function is the caller's responsibility to make thread-safe:
    it must only read shared state, write to disjoint slots (as the
    combinators here do), or synchronize explicitly.  In this codebase
    that means preparing {!Pmi_portmap.Oracle} tables before fanning out;
    the {!Pmi_measure.Harness} cache is internally locked and safe to
    share.  [pmi_repro sanitize] checks these assumptions dynamically: the
    pool's spawn/join/claim operations carry {!Pmi_diag.Race}
    happens-before edges, so any unsynchronized access to a tracked
    location in a work item is reported as a race.

    {2 Schedules}

    In the default {!Os} mode, tasks run truly in parallel and the OS
    scheduler picks the interleaving.  In [Replay seed] mode every
    combinator runs {e serially} on the calling domain, but each work item
    still executes under its own logical {!Pmi_diag.Race} thread, in the
    order given by the [seed]-th permutation of the items.  Because the
    vector clocks see only the fork/join edges — not the accidental serial
    order — a race that {e some} interleaving could expose is reported even
    though the execution was sequential, and re-running with seeds
    [0 .. n!-1] shakes every order of a small task set deterministically. *)

type schedule =
  | Os                (** real domains, OS-chosen interleaving (default) *)
  | Replay of int     (** serialized execution in seeded permutation order *)

val set_schedule : schedule -> unit
(** Set the global schedule mode for subsequent pool calls.  Replay mode
    is a sanitizer tool: it changes scheduling only, never results. *)

val current_schedule : unit -> schedule

val permutation : seed:int -> int -> int array
(** The [seed]-th permutation of [0 .. n-1].  For [n <= 20] this is the
    Lehmer decode of [seed mod n!] — seeds [0 .. n!-1] enumerate every
    permutation exactly once.  For larger [n] it is a seeded shuffle. *)

val permutations : int -> int
(** Number of distinct schedules of [n] tasks: [n!] for [n <= 20],
    [max_int] (effectively unbounded) above. *)

val default_domains : unit -> int
(** [PMI_DOMAINS] if set (clamped to ≥ 1), otherwise
    [Domain.recommended_domain_count] capped at 8. *)

val parallel_for : ?domains:int -> n:int -> (int -> unit) -> unit
(** Run [f i] for [0 <= i < n] across the pool.  [domains] defaults to
    {!default_domains}; it is clamped to [n].  If a work item raises, the
    workers are still joined and the first exception observed is re-raised
    in the caller (other items may have run).  In replay mode the items
    run serially in permutation order, each under its own logical
    thread. *)

val map_array : ?domains:int -> ('a -> 'b) -> 'a array -> 'b array
(** Order-preserving parallel map. *)

val map_list : ?domains:int -> ('a -> 'b) -> 'a list -> 'b list

val find_first_index : ?domains:int -> ('a -> bool) -> 'a array -> int option
(** The {e minimal} index satisfying the predicate (deterministic even
    though evaluation order is not).  Indices at or beyond the best hit so
    far are skipped, so the predicate is not evaluated on every element. *)
