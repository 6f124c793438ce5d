(** A CDCL SAT solver in the MiniSat/Glucose lineage.

    Engine features: flat int-array watcher lists with blocking literals
    (propagation is allocation-free), dedicated binary-clause implication
    lists, an indexed binary max-heap for VSIDS decisions, first-UIP conflict
    analysis with recursive clause minimization, phase saving, geometric
    restarts, and LBD-scored learnt clauses with periodic clause-database
    reduction.

    The solver is incremental: clauses may be added between [solve] calls
    (at decision level 0 — every call returns there), and [solve
    ~assumptions] decides under a temporary assumption prefix without
    polluting the persistent state.  Clause-database reduction only ever
    discards learnt clauses; problem clauses — including the
    activation-literal clauses of the incremental CEGIS encoding — are
    permanent. *)

type t

type result =
  | Sat of bool array  (** model: polarity per variable *)
  | Unsat

(** Cumulative search counters.  [deleted] counts learnt clauses discarded
    by clause-database reduction; [max_lbd] is the largest glue score of any
    clause learnt so far. *)
type stats = {
  decisions : int;
  propagations : int;
  conflicts : int;
  restarts : int;
  learned : int;
  deleted : int;
  max_lbd : int;
}

val zero_stats : stats
val add_stats : stats -> stats -> stats

val create : unit -> t

val fresh_var : t -> int
(** Allocate a new variable.  Variables are numbered consecutively from 0. *)

val num_vars : t -> int

val add_clause : t -> Lit.t list -> unit
(** Add a disjunction of literals.  Must be called at decision level 0
    (which holds between [solve] calls).  Adding the empty clause (or a
    clause that simplifies to it) makes the solver permanently
    unsatisfiable. *)

val solve : ?assumptions:Lit.t list -> t -> result
(** Solve under the given assumptions.  The model of a [Sat] answer assigns
    every allocated variable.  [Unsat] under assumptions means
    unsatisfiable *under those assumptions*; the solver stays usable.
    Learnt clauses persist across calls. *)

val okay : t -> bool
(** [false] once the clause database is unsatisfiable at level 0. *)

val num_conflicts : t -> int
(** Total conflicts encountered so far (statistics). *)

val stats : t -> stats

val set_reduce_enabled : t -> bool -> unit
(** Enable/disable clause-database reduction (default enabled).  Only
    tests turn it off, to get an unreduced reference run. *)

(** {1 Encoding introspection (static analysis support)}

    Read-only views of the problem-clause database, consumed by the
    EncLint static analyzer ([Pmi_analysis.Enclint]).  All of these must
    be called at decision level 0 (between [solve] calls). *)

val id : t -> int
(** A process-unique instance id, so analysis passes can key per-solver
    side tables without retaining the solver. *)

val root_value : t -> int -> int
(** Root-level (decision level 0) assignment of a variable: [1] true,
    [-1] false, [0] unassigned. *)

val iter_long_problem_clauses : t -> (int -> Lit.t list -> unit) -> unit
(** Iterate [f cref lits] over every live long (>= 3 literal) problem
    clause.  Crefs remain valid until the next arena compaction (a solve
    with clause-DB reduction). *)

val binary_problem_clauses : t -> (Lit.t * Lit.t) list
(** Every binary problem clause, in assertion order. *)

val root_units : t -> Lit.t list
(** The decision-level-0 trail: unit-implied and asserted literals. *)

val mark_guard : t -> int -> unit
(** Declare a variable to be a guard/activation literal (guarded-encoding
    rows, culprit observation guards, per-call blocking activations).
    {!to_dimacs} annotates it. *)

val is_guard : t -> int -> bool

(** {1 Certification} *)

(** One step of a DRAT-style proof trace, logged when proof logging is on.
    [Input] clauses are axioms asserted via {!add_clause} (problem clauses,
    cardinality chains, theory lemmas).  [Derive] clauses are additions that
    must have the reverse-unit-propagation (RUP) property with respect to
    every step logged before them: first-UIP learnt clauses.  [Delete] records a clause discarded
    by clause-database reduction.  Literals appear exactly as produced; the
    independent checker ([Pmi_analysis.Drat]) canonicalizes. *)
type proof_step =
  | Input of Lit.t list
  | Derive of Lit.t list
  | Delete of Lit.t list

val set_proof_logging : t -> bool -> unit
(** Enable/disable proof logging (default off).  Enable it {e before} adding
    clauses, otherwise the trace is missing axioms and no derivation will
    check.  Logging survives across [solve] calls, so one trace certifies a
    whole incremental session. *)

val proof_logging : t -> bool

val proof : t -> proof_step list
(** The trace so far, oldest step first. *)

val proof_length : t -> int

exception Invariant_violation of string

val set_sanitize : t -> bool -> unit
(** Debug flag (default off): when on, {!Invariants.check} runs at every
    decision-level-0 boundary inside [solve] — entry, each restart/DB
    reduction, and exit — and a failure raises {!Invariant_violation}. *)

(** Structural well-formedness checks over the live solver state: literal
    slot consistency, trail/level segment agreement, reason clauses
    well-formed and never deleted, watcher completeness over the flat arena
    (every live clause watched by exactly its first two literals, blockers
    inside the clause), VSIDS heap/index integrity, and binary-list
    bounds. *)
module Invariants : sig
  val check : t -> (unit, string) Stdlib.result
  (** [Ok ()] or [Error message] naming the first violated invariant.  Call
      at decision level 0 (between [solve] calls, or via {!set_sanitize}
      inside them). *)
end

(** {1 Export} *)

val name_var : t -> int -> string -> unit
(** Attach a human-readable name to a variable; {!to_dimacs} emits it as a
    [c var <dimacs-id> <name>] comment so CNF dumps and DRAT traces can be
    cross-referenced against the encoding.  Variables declared via
    {!mark_guard} additionally carry a [(guard)] tag in that comment, and
    anonymous guards still get a line. *)

val var_name : t -> int -> string option

val to_dimacs : ?learned:bool -> t -> Buffer.t -> unit
(** Append the clause set in DIMACS CNF format ([p cnf] header, 1-based
    variables, level-0 unit clauses included).  [~learned:true] also
    exports the live learnt clauses. *)

val dimacs : ?learned:bool -> t -> string
