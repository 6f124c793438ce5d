(** Lazy SMT: SAT modulo a theory given as a refutation callback.

    This is the counter-example-guided core of the paper's inference in
    solver form: the boolean skeleton describes candidate port mappings,
    and the theory check evaluates the port-mapping model (the
    [relateThroughput] constraints of §3.3.2) with exact arithmetic,
    returning lemmas for every violated observation. *)

type result =
  | Sat of bool array
  | Unsat

val solve :
  ?assumptions:Lit.t list ->
  ?max_rounds:int ->
  check:(bool array -> Lit.t list list) ->
  Sat.t ->
  result
(** [solve ~check sat] is one {!Sat.solve} search with [check] as its
    theory hook.  A model for which [check] returns [[]] is
    theory-consistent and returned.  Otherwise the lemma clauses are
    attached to the live trail and the same search continues (see
    {!Sat.solve} for the backjump rule); at least one lemma must be
    falsified by the rejected model (enforced by assertion) so that every
    round makes progress, and a lemma over a variable allocated during
    [check] does not count.  [check] runs inside the search, so it may
    allocate variables but must not call {!Sat.add_clause}.  The solver is
    at decision level 0 whenever [solve] returns or raises.

    In a trace, the CDCL work before each check is one [sat.solve] span
    and the check itself one [theory.check] span.

    @raise Failure if [check] rejects [max_rounds] (default 100,000)
    models, which indicates a diverging theory encoding. *)
