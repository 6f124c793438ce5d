(** EncLint: solver-free static analysis of a constructed CEGIS encoding.

    The encoding layer ([Pmi_core.Encoding]) describes itself through a
    {!view} — rows, activation literals, recorded cardinality networks,
    theory lemmas, frozen assumptions — and
    {!analyze} cross-checks that description against the solver's
    problem-clause database without ever calling [solve]:

    {b Structural} — [dead-var] (allocated but unconstrained variables),
    [duplicate-clause], [tautology], [missing-guard] (a guarded row's
    network clause without its [¬act] literal), [unguarded-row] (a row
    with no activation in a guarded encoding), [frozen-unused].

    {b Semantic} — [card-bound]/[card-guard]/[bound-mismatch]: every
    recorded [Card] network with at most [max_cone] inputs is verified
    against its declared bound by exhaustive enumeration of the input
    cone (a complete mini-DPLL decides each assignment over the recorded
    clauses, both with the guard active and, for vacuity, satisfied);
    [lemma-conflict] (a theory lemma that rules out the accepted
    assignment with every guard active) and [lemma-subsumed].

    Diagnostics use the shared {!Pmi_diag.Diag} schema: [Error] means the
    encoding is wrong (a solver verdict on it cannot be trusted),
    [Warning] means waste. *)

type severity = Pmi_diag.Diag.severity =
  | Error
  | Warning

type row = {
  subject : string;            (** e.g. the scheme name *)
  act : int;                   (** activation variable, [-1] if unguarded *)
  networks : (int * Pmi_smt.Card.network) list;
      (** recorded cardinality networks with the bound the encoding
          declared when it built each *)
}

type view = {
  rows : row list;
  lemmas : Pmi_smt.Lit.t list list;    (** theory lemmas asserted so far *)
  frozen : Pmi_smt.Lit.t list;         (** frozen assumption literals *)
  accepted : (int * bool) list;        (** accepted (pinned) assignment *)
}

val empty_view : view
(** No rows, lemmas, frozen literals or accepted assignment —
    [analyze] then runs the pure CNF-level checks only. *)

val analyze :
  ?max_cone:int ->
  ?cone_memo:(string, unit) Hashtbl.t ->
  ?db:bool ->
  Pmi_smt.Sat.t ->
  view ->
  Pmi_diag.Diag.t list
(** Run every check; the solver is only read (problem clauses, root
    assignment, names, guard marks).  Networks with more than [max_cone]
    inputs (default [12], covering every port-set row) skip the
    exhaustive semantic check but keep the structural ones.

    [cone_memo], when supplied, caches clean exhaustive-enumeration
    verdicts keyed by network {e shape} (kind, bounds, input count,
    guardedness) across calls: the [Card] builder is deterministic, so
    shape-equal networks are identical up to variable renaming and one
    enumeration vets them all.  Networks that produced findings are never
    cached.  Pass a fresh table per logical session (e.g. one per CEGIS
    run).

    [db] (default [true]) controls the clause-database passes (dead
    variables, duplicate clauses, frozen-unused).  With [~db:false] only
    the view-layer checks run — guards, cardinality cones, lemmas — which is what the CEGIS gate uses on repeat episodes of a
    solver whose database it has already vetted.  Must be called at
    decision level 0. *)
