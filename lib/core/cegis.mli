(** Counter-example-guided port-mapping inference (§3.3, Algorithm 2).

    The loop maintains a set of measured experiments.  [find_mapping]
    searches a port mapping consistent with every measurement (SAT modulo
    the port-mapping theory: candidate mappings decoded from SAT models are
    checked against the observations with the exact throughput oracle under
    the §3.4 frontend bound; every violated observation yields a footprint
    lemma).  [find_other_mapping] searches a second consistent mapping
    together with a distinguishing experiment, trying small experiments
    first (the stratified search of §3.3.4) and requiring the 2ε separation
    that makes one measurement able to refute one of the two mappings.

    Termination mirrors the paper's argument: every candidate mapping a
    [find_other_mapping] call produces is either returned with a
    distinguishing experiment (and one of the two mappings dies with the
    next measurement) or permanently blocked within the call. *)

type config = {
  num_ports : int;
  r_max : int;
  epsilon : Pmi_numeric.Rat.t;
  max_experiment_size : int;   (** stratified distinguishing-experiment bound *)
  max_other_candidates : int;  (** consistent-mapping candidates examined per
                                   [find_other_mapping] call before declaring
                                   convergence *)
  max_iterations : int;        (** Algorithm-2 iteration budget *)
  symmetry_breaking : bool;
  domains : int;               (** > 1 fans the stratified
                                   distinguishing-experiment search and the
                                   convergence validation sweep out over
                                   that many OCaml domains; every SAT
                                   episode stays one sequential solve, so
                                   the inferred mapping does not depend on
                                   it.  The validation sweep calls
                                   [measure] concurrently, so only raise
                                   this with a thread-safe measure function
                                   (default [1]) *)
  dump_cnf : string option;    (** [Some prefix] writes the final CNF of
                                   each persistent solver in DIMACS format
                                   to [prefix ^ "-findmapping.cnf"] etc.,
                                   for offline triage (default [None]) *)
  certify : bool;              (** trust-but-verify: log DRAT proof traces
                                   in every solver and have the independent
                                   checker ({!Pmi_analysis.Drat}) accept a
                                   certificate for {e each} verdict the loop
                                   consumes — UNSAT answers (with or
                                   without assumptions) must re-derive as
                                   RUP, SAT models must satisfy every input
                                   clause and their decoded mapping must
                                   explain every observation under the naive
                                   exact-rational oracle.  A failure raises
                                   {!Certification_failure} (default
                                   [false]) *)
  enclint : bool;              (** run the solver-off static analyzer
                                   ({!Pmi_analysis.Enclint.analyze}) over
                                   each encoding once per solver episode —
                                   before every [findMapping] /
                                   [findOtherMapping] solve and every
                                   culprit query.  The view-layer checks
                                   (guards, cardinality cones, lemmas)
                                   re-run each episode; the clause-database
                                   passes run once per solver instance,
                                   and a clean cardinality cone is
                                   enumerated once per network shape.  Any
                                   [Error]-severity finding raises
                                   {!Enclint_failure}; findings are also
                                   logged and tallied under the
                                   [cegis.enclint.*] counters (default
                                   [false]) *)
  store : Pmi_store.Store.t option;
                               (** durable store for checker-accepted
                                   certificates: with [certify] on, an
                                   UNSAT verdict whose exact proof (keyed
                                   by {!Pmi_analysis.Drat.goal_digest},
                                   valued by
                                   {!Pmi_analysis.Drat.proof_digest}) was
                                   accepted by a previous run skips the
                                   DRAT re-check ([cegis.certificates_cached]
                                   counts the skips); freshly accepted
                                   certificates are written through.  The
                                   {e measurement} store rides on the
                                   harness ({!Pmi_measure.Harness.create}),
                                   not on this field (default [None]) *)
}

exception Certification_failure of string
(** An answer the solver produced could not be independently verified:
    either a DRAT certificate was rejected, or a SAT model failed the
    CNF/theory replay.  This indicates a solver or encoding bug — the
    result must not be trusted. *)

exception Enclint_failure of string
(** The static analyzer found an [Error]-severity defect in an encoding
    (wrong cardinality bound, missing guard literal, unguarded row in a
    guarded encoding, …) before the solver ran on it.  Solver verdicts on such an
    encoding cannot be trusted, so the episode is aborted.  Only raised
    with [config.enclint] on. *)

val default_config : config

type observation = {
  experiment : Pmi_portmap.Experiment.t;
  cycles : Pmi_numeric.Rat.t;
}

type stats = {
  iterations : int;
  observations : observation list;  (** every measured experiment, in order *)
  candidates_tried : int;           (** mappings examined by
                                        [find_other_mapping] overall *)
  theory_lemmas : int;
  sat_episodes : int;               (** solver episodes this run paid for —
                                        every [findMapping] /
                                        [findOtherMapping] solve, certified
                                        or not (culprit queries are counted
                                        process-wide, under
                                        [cegis.sat_episodes]) *)
  sat : Pmi_smt.Sat.stats;          (** aggregated solver counters across
                                        the [findMapping] and
                                        [findOtherMapping] encodings *)
}

type outcome =
  | Converged of Pmi_portmap.Mapping.t * stats
  | No_consistent_mapping of stats
  | Iteration_limit of stats

val modeled_inverse :
  config -> Pmi_portmap.Mapping.t -> Pmi_portmap.Experiment.t ->
  Pmi_numeric.Rat.t
(** Throughput of the port-mapping model combined with the [r_max] frontend
    bound of §3.4. *)

val consistent :
  config -> Pmi_portmap.Mapping.t -> observation -> bool
(** Does the mapping explain the observation within ε·|e|? *)

val infer :
  ?config:config ->
  ?warm_start:observation list ->
  measure:(Pmi_portmap.Experiment.t -> Pmi_numeric.Rat.t) ->
  specs:(Pmi_isa.Scheme.t * Encoding.instr_spec) list ->
  unit ->
  outcome
(** Run Algorithm 2.  [measure] performs one steady-state benchmark; the
    initial experiment set is the singleton benchmark of every scheme.

    [warm_start] (default [[]]) replays previously measured observations
    — typically {!Pmi_measure.Harness.stored_observations} from a
    durable store — before the initial singleton round: they join the
    observation log exactly as fresh measurements would, singleton
    measurements they already cover are skipped, and the convergence-time validation sweep skips every
    experiment they answer.  Observations mentioning schemes outside
    [specs] are ignored ([cegis.warm_observations] counts the replayed
    ones).  Warm starting is sound: replayed values are real
    measurements of the same machine, so they constrain the search
    exactly as they did in the run that produced them. *)

(** {1 The §4.3 culprit search} *)

(** One solver session per culprit search.

    The session holds one guarded encoding ({!Encoding.create}
    [~guarded:true]) over all of the search's specs.  Each {!explains}
    query is one solve under assumptions: the activation literals of its
    rows (positive for the query's specs, negative for the others) and the
    guard literals of its observations.  Every distinct observation gets
    one guard literal, which prefixes all of its theory lemmas.  So the
    lemmas, the learnt clauses and the per-observation verdict memo serve
    every later query.

    The session's lemmas are generalised: a µop slot is left out of a
    violated footprint while a sound bracket of tp⁻¹ over all port sets
    of the freed µops still excludes the observation (see {!refute}).
    The search consumes only yes/no verdicts, and those equal a fresh
    [findMapping] over the query's specs and observations.  Under
    [config.enclint] every query is gated, and under [config.certify]
    every verdict is certified against its assumption goal. *)
module Culprit : sig
  type t

  val create :
    ?config:config ->
    specs:(Pmi_isa.Scheme.t * Encoding.instr_spec) list ->
    unit ->
    t

  val explains :
    t ->
    specs:(Pmi_isa.Scheme.t * Encoding.instr_spec) list ->
    observations:observation list ->
    bool
  (** Is some mapping over [specs] consistent with [observations]?
      [specs] must be a subset of the session's, and the observations may
      name only their schemes.
      @raise Invalid_argument if a scheme has no row in the session. *)

  val dump_cnf : t -> unit
  (** With [config.dump_cnf = Some prefix], write the session's CNF to
      [prefix-culprit-<n>.cnf], where [n] numbers the sessions created in
      this process from 1. *)

  val refute :
    config -> Encoding.t -> bool array -> observation -> Pmi_smt.Lit.t list
  (** The generalised footprint lemma for an observation that the model's
      decoded mapping violates (without an observation guard).  Slots are
      freed greedily in {!Encoding.footprint} order.  A set of freed µops
      stays freed while a bracket excludes the observed cycles: from tp⁻¹
      with the freed µops on all ports, up to the largest tp⁻¹ with all of
      them on one port (both under the §3.4 frontend bound).  tp⁻¹ is
      antitone in each µop's port set, so every completion lies in the
      bracket, and every assignment the lemma blocks violates the
      observation. *)
end
