(** nanoBench-style measurement harness (§4).

    Every experiment is run [reps] times on the simulated machine; the
    harness reports the median inverse throughput (quantised to the
    harness's precision, as a real measurement report would be), the
    observed CPI spread across repetitions, and the retired-ops counter.
    Results are memoised: repeated queries for the same experiment do not
    re-run the benchmark, mirroring the experiment cache of the paper's
    artifact.

    A harness is safe to share across domains: the probe/measure/insert
    sequence runs under a harness-wide lock (a {!Pmi_diag.Race.with_lock}
    mutex, so the concurrency sanitizer sees the edge) and the hit/miss
    counters are atomics.

    With [?store], the memory cache gains a durable tier
    ({!Pmi_store.Store}): a memory miss probes the store before running
    the benchmark, and fresh measurements are written through, keyed by
    the machine's {!Pmi_machine.Machine.fingerprint} plus the experiment
    key — so measurements survive the process and a later run warm-starts
    from them.  Both tiers run under the same lock.  Telemetry splits the
    tiers: [harness.cache.mem.{hit,miss}] and
    [harness.cache.store.{hit,miss}]. *)

type sample = {
  cycles : Pmi_numeric.Rat.t;   (** median inverse throughput, quantised *)
  spread_cpi : float;           (** (max - min) / |e| across repetitions *)
  retired_ops : int;            (** macro-op counter reading *)
}

type t

val create :
  ?reps:int -> ?precision:int -> ?store:Pmi_store.Store.t ->
  Pmi_machine.Machine.t -> t
(** [reps] defaults to 11 (the paper's median-of-11); [precision] is the
    denominator of the quantisation grid, default 1000 (millicycles).
    [store] attaches the durable measurement tier (off by default). *)

val machine : t -> Pmi_machine.Machine.t
val store : t -> Pmi_store.Store.t option
val run : t -> Pmi_portmap.Experiment.t -> sample
val cycles : t -> Pmi_portmap.Experiment.t -> Pmi_numeric.Rat.t

val cpi : t -> Pmi_portmap.Experiment.t -> Pmi_numeric.Rat.t
(** Median cycles divided by experiment length.
    @raise Invalid_argument on an empty experiment. *)

val retired_ops : t -> Pmi_portmap.Experiment.t -> int
val benchmarks_run : t -> int
(** Distinct experiments measured so far. *)

val cache_hits : t -> int
(** Queries answered from the in-memory experiment cache. *)

val cache_misses : t -> int
(** Queries that missed the in-memory cache ([= benchmarks_run]; a store
    hit still counts here, since the memory tier was consulted first). *)

val store_hits : t -> int
(** Memory misses answered from the durable tier (0 without a store). *)

val store_misses : t -> int
(** Memory misses that also missed the durable tier and had to run the
    benchmark (0 without a store). *)

val stored_observations : t -> (Pmi_portmap.Experiment.t * Pmi_numeric.Rat.t) list
(** Every measurement stored for {e this} machine (matching fingerprint),
    decoded against the live catalog — the warm-start feed for
    {!Pmi_core.Cegis.infer}.  Records from other machines or with unknown
    scheme ids are skipped.  [[]] without a store. *)

(** ε-tolerant throughput comparisons (§3.3.4, §4). *)
module Compare : sig
  val default_epsilon : Pmi_numeric.Rat.t
  (** 0.02 cycles per instruction, the paper's choice for Zen+. *)

  val cpi_equal :
    ?epsilon:Pmi_numeric.Rat.t -> length:int ->
    Pmi_numeric.Rat.t -> Pmi_numeric.Rat.t -> bool
  (** [cpi_equal ~length t1 t2]: are two inverse-throughput values of an
      experiment with [length] instructions equal up to [ε·length]? *)

  val well_separated :
    ?epsilon:Pmi_numeric.Rat.t -> length:int ->
    Pmi_numeric.Rat.t -> Pmi_numeric.Rat.t -> bool
  (** The 2ε separation required of distinguishing experiments: no observed
      value can be ε-equal to both [t1] and [t2]. *)
end
