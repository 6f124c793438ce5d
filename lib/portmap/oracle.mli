(** Memoized subset-sum throughput oracle.

    Computes exactly the same value as {!Throughput.inverse} — the
    bottleneck-set optimum [max over ∅≠Q⊆P of mass(Q)/|Q|] — but against
    dense per-scheme mass tables over the 2^P bitmask lattice.  Each
    scheme's cumulative table ([tbl.(q)] = µop mass of one instance confined
    to port set [q]) is built once with a zeta/subset-sum transform and
    cached for the lifetime of the oracle, so a query is a pointwise table
    combination plus one O(2^P) scan instead of a hashtable rebuild and a
    submask enumeration per query.

    All results are exact rationals and agree with {!Throughput} up to
    {!Pmi_numeric.Rat.equal} (property-tested in [test/test_oracle.ml]).

    Thread safety: the per-scheme table cache is filled lazily.  Call
    {!prepare} with every scheme that will be queried before sharing one
    oracle across domains.  {!Acc} values only read their mapping, so
    accumulators owned by distinct domains may share one. *)

type t

val create : Mapping.t -> t
(** Build an oracle for the mapping.  The mapping is captured by reference
    and must not be mutated afterwards.  @raise Invalid_argument for more
    than 20 ports (the dense tables would not fit). *)

val mapping : t -> Mapping.t
val num_ports : t -> int

val prepare : t -> Pmi_isa.Scheme.t list -> unit
(** Eagerly build the cumulative tables of the given schemes.
    @raise Throughput.Unsupported if the mapping does not map one of them. *)

val inverse : t -> Experiment.t -> Pmi_numeric.Rat.t
(** [tp⁻¹(e)], exactly as {!Throughput.inverse}.
    @raise Throughput.Unsupported *)

val inverse_bounded : r_max:int -> t -> Experiment.t -> Pmi_numeric.Rat.t
(** As {!Throughput.inverse_bounded}: the oracle value capped below by the
    §3.4 frontend bound [|e| / r_max].  @raise Throughput.Unsupported *)

val bottleneck_set : t -> Experiment.t -> Portset.t
(** A port set attaining the optimum; empty for an empty experiment. *)

(** Incremental experiment accumulator over point masses: each distinct
    µop port set of the working experiment with its total mass, updated by
    ±one scheme at a time.  This is the inner loop of the stratified
    distinguishing-experiment search and the theory check.  A query
    maximises [mass(Q)/|Q|] over the union closure of the standing port
    sets, which always contains an optimal [Q], so it returns exactly
    {!Throughput.inverse}.  It needs no dense table, so unlike {!create}
    it has no port-count limit. *)
module Acc : sig
  type t

  val create : Mapping.t -> t
  (** An empty accumulator (the empty experiment) for the mapping, which is
      captured by reference and must not be mutated afterwards. *)

  val add : t -> Pmi_isa.Scheme.t -> int -> unit
  (** Add [count] copies of the scheme.  @raise Throughput.Unsupported *)

  val remove : t -> Pmi_isa.Scheme.t -> int -> unit
  (** Remove [count] copies previously added. *)

  val move : t -> from:Portset.t -> to_:Portset.t -> int -> unit
  (** Move [n] standing µops from port set [from] (which must hold at
      least [n]) to [to_], keeping the instruction count: the experiment
      as if those µops took another port set. *)

  val length : t -> int
  (** Instruction count of the current experiment. *)

  val reset : t -> unit

  val inverse : t -> Pmi_numeric.Rat.t
  val inverse_bounded : r_max:int -> t -> Pmi_numeric.Rat.t
end

(** Interval oracle over {e partial} mappings.

    A partial mapping assigns each scheme a non-empty set of {e candidate}
    usages — the shape of a live CEGIS search, where a row is only known up
    to the cardinality constraint and the refutations learned so far.  For
    each scheme the pointwise min and max of the per-candidate cumulative
    (zeta) mass tables are cached; a query combines them like the concrete
    oracle and scans each bound once, yielding an interval [lo, hi] that is
    {b sound}: for every completion (one candidate per scheme), the exact
    {!inverse} lies inside it.  When every queried scheme has exactly one
    candidate, the interval is the point equal to the concrete oracle value
    (property-tested in [test/test_mapcheck.ml]). *)
module Bounds : sig
  type interval = { lo : Pmi_numeric.Rat.t; hi : Pmi_numeric.Rat.t }

  val is_point : interval -> bool
  (** [lo = hi]: the value is statically determined over all completions. *)

  type t

  val create : num_ports:int -> t
  (** An empty partial mapping.  @raise Invalid_argument as {!create}. *)

  val num_ports : t -> int

  val set_candidates : t -> Pmi_isa.Scheme.t -> Mapping.usage list -> unit
  (** Define (or replace) the scheme's candidate usages.
      @raise Invalid_argument on an empty candidate list, an empty port set,
      an out-of-range port or a non-positive multiplicity. *)

  val candidates : t -> Pmi_isa.Scheme.t -> Mapping.usage list option

  val of_mapping : Mapping.t -> t
  (** The fully-determined partial mapping: one candidate per scheme. *)

  val pin : t -> Pmi_isa.Scheme.t -> Mapping.usage -> t
  (** A copy with the scheme fixed to a single candidate.  Cached tables of
      the other schemes are shared, so pinning is cheap; [t] is unchanged. *)

  val inverse : t -> Experiment.t -> interval
  (** Sound bracket of [tp⁻¹(e)] over all completions.
      @raise Throughput.Unsupported for a scheme without candidates. *)

  val inverse_bounded : r_max:int -> t -> Experiment.t -> interval
  (** As {!inverse} with the §3.4 frontend bound [|e|/r_max] lifted onto
      both ends.  @raise Throughput.Unsupported *)
end
