(** Cardinality constraints over literals, via the sequential-counter
    (Sinz 2005) encoding.  Auxiliary variables are allocated from the given
    solver.  The port-mapping encoding uses these to pin each µop's number
    of admissible ports to the value measured from its throughput.

    With [?guard] every emitted clause is prepended with the guard literal,
    making the constraint conditional: pass the negation of an activation
    variable and the chain only binds while that variable is assumed true.
    Guarded encodings ({!Pmi_core.Encoding}) use this to switch a row's
    cardinality constraints on or off per solve, through assumptions.

    Each constructor returns a {!network} record describing exactly what
    was emitted, so static analysis ({!Pmi_analysis.Enclint}) can re-verify
    the declared bound exhaustively without running the solver.  Callers
    that only want the side effect can [ignore] the result. *)

type kind =
  | At_most
  | At_least
  | Exactly

type network = {
  kind : kind;                 (** declared constraint species *)
  bound : int;                 (** declared bound [k] *)
  inputs : Lit.t list;         (** the constrained literals, in order *)
  guard : Lit.t option;        (** guard literal prepended to every clause *)
  aux : int list;              (** register variables, allocation order *)
  clauses : Lit.t list list;   (** emitted clauses, guard included *)
}

val kind_to_string : kind -> string

val at_most : ?guard:Lit.t -> Sat.t -> Lit.t list -> int -> network
(** [at_most s lits k] asserts that at most [k] of [lits] are true. *)

val at_least : ?guard:Lit.t -> Sat.t -> Lit.t list -> int -> network
(** [at_least s lits k] asserts that at least [k] of [lits] are true. *)

val exactly : ?guard:Lit.t -> Sat.t -> Lit.t list -> int -> network
(** [exactly s lits k] asserts that exactly [k] of [lits] are true. *)
