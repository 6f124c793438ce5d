(** Boolean encoding of candidate port mappings (§3.3.1-§3.3.2, §4.3).

    Every blocking instruction carries a single µop, so the mapping is a
    boolean matrix [m\[u⁽ⁱ⁾,k\]]: µop of instruction [i] may execute on
    port [k].  Cardinality constraints pin each µop's port count to the
    value measured from its throughput (§3.3.1, "we add constraints so that
    each µop's number of ports fits the previous throughput measurements").

    Improper blocking instructions — the §4.3 store blockers — carry two
    µops: one of their own, and one constrained to equal the µop of {e some}
    other blocking instruction (proper, or the own µop of another improper
    one — store blockers share the store µop among themselves on layouts
    where no proper class covers it), selected by auxiliary choice
    variables.

    Since ports are interchangeable a priori, the encoding optionally adds
    lexicographic column-ordering constraints: the matrix columns (ports),
    read along the proper µop rows, must be non-increasing.  Every mapping
    has such a representative, so no behaviour is lost, while the SAT search
    stops enumerating port renamings of the same mapping.

    {b Guarded encodings.}  Built with [~guarded:true], every row carries
    an activation variable: its cardinality networks are conditional on
    it, and every lemma built by {!block_footprint} that mentions the row
    carries the negated activation literal.  {!activate} chooses the rows
    in force for the next solve.  An active improper row may select
    only an active partner ([¬act_i ∨ ¬select(i,j) ∨ act_j]), so one
    encoding answers queries over any subset of its rows exactly as a
    fresh encoding over that subset would.  This is the encoding half of
    the §4.3 culprit session ({!Pmi_core.Cegis.Culprit}). *)

type instr_spec =
  | Proper of int               (** single µop with the given port count *)
  | Improper of { own_ports : int }
  (** own µop with [own_ports] ports, plus one µop shared with a proper
      blocking instruction *)

type t

val create :
  num_ports:int ->
  ?symmetry_breaking:bool ->
  ?certify:bool ->
  ?guarded:bool ->
  (Pmi_isa.Scheme.t * instr_spec) list ->
  t
(** [~guarded:true] (default [false]) gives every row an activation
    variable [act(<scheme>)] that guards its cardinality networks (see
    {!activate}).  [~certify:true] turns on the solver's DRAT proof logging {e before} any
    clause is added, so every later verdict carries a complete certificate
    ([Pmi_smt.Sat.proof]).  The µop variables are always named
    ([own(<scheme>,p<k>)], [shared(…)], [select(<improper>,<partner>)]) for
    DIMACS/DRAT cross-referencing.
    @raise Invalid_argument if a port count is out of range or an improper
    instruction is given without any proper one. *)

val sat : t -> Pmi_smt.Sat.t
val num_ports : t -> int

val activate : t -> Pmi_isa.Scheme.t list -> Pmi_smt.Lit.t list
(** Put exactly the rows of the given schemes in force: later views
    ({!decode}, {!encode_mapping}, lemma construction) range over them
    only.  Returns the assumptions for the next solve: the positive
    activation literal of every active row, the negative one of every
    other row.
    @raise Invalid_argument on a scheme without a row, or on an encoding
    with unguarded rows. *)

val decode : t -> bool array -> Pmi_portmap.Mapping.t
(** Read a port mapping out of a SAT model. *)

val encode_mapping : t -> Pmi_portmap.Mapping.t -> Pmi_smt.Lit.t list
(** Literals asserting that the µop variables take exactly the port sets of
    the given mapping (the accepted assignment of {!enclint_view}).
    @raise Invalid_argument if the mapping lacks one of the schemes or has
    an incompatible µop structure. *)

val block_footprint :
  t -> bool array -> Pmi_isa.Scheme.t list -> Pmi_smt.Lit.t list
(** A lemma clause refuting every assignment that agrees with [model] on
    all µop variables of the given schemes — the CEGAR learning step: a
    violated experiment refutes exactly the port sets of the schemes it
    contains.  Guarded rows contribute their negated activation literal,
    scoping the lemma to the queries that activate every mentioned row. *)

val block_model : t -> bool array -> Pmi_smt.Lit.t list
(** [block_footprint] over all schemes. *)

(** {1 µop slots}

    A footprint lemma is built from µop {e slots}: the own µop of each
    row and the shared µop of each improper one.  Leaving a slot out of
    the lemma frees that µop: the clause then refutes every port set it
    may take. *)

type slot

val footprint : t -> Pmi_isa.Scheme.t list -> slot list
(** The slots of the given schemes' rows, in row order, own before
    shared. *)

val slot_scheme : slot -> Pmi_isa.Scheme.t
val slot_ports : bool array -> slot -> Pmi_portmap.Portset.t
(** The port set a model assigns to the slot's µop. *)

val block_slots : bool array -> slot list -> Pmi_smt.Lit.t list
(** A lemma refuting every assignment that agrees with [model] on the
    given slots, which must be in {!footprint} order.  A guarded row
    contributes its negated activation literal once.
    [block_footprint t model schemes] is
    [block_slots model (footprint t schemes)]. *)

(** {1 Static analysis support} *)

val enclint_view :
  ?lemmas:Pmi_smt.Lit.t list list ->
  ?frozen:Pmi_smt.Lit.t list ->
  ?accepted:Pmi_portmap.Mapping.t ->
  t ->
  Pmi_analysis.Enclint.view
(** Describe the encoding to the static analyzer: every row with its
    activation literal and recorded cardinality networks.  [?lemmas] are
    the theory lemmas asserted so far, [?frozen] the standing assumption
    literals (the ones {!activate} returned), [?accepted] a mapping whose
    pinned assignment ({!encode_mapping}) lemmas are vetted against. *)
