(** MapCheck: abstract interpretation over (partial) port mappings, plus a
    semantic artifact auditor.

    Where {!Lint} checks the {e shape} of mappings, profiles and catalogs,
    MapCheck reasons about their {e semantics} through the bottleneck
    throughput formula [tp⁻¹(e) = max_Q mass(Q)/|Q|].  The abstract domain
    is the partial mapping of {!Pmi_portmap.Oracle.Bounds}: every scheme
    ranges over a non-empty set of candidate usages, and each experiment
    evaluates to a sound throughput {e interval} covering all completions.

    Two layers build on the domain:

    - {b Auditor} ({!audit_mapping}, {!audit_profile}, {!builtin}) — emits
      {!Pmi_diag.Diag} findings: counter-consistency replays of recorded
      observations against a mapping (CounterPoint-style, [Error] when an
      observation falls outside the interval ± ε·|e|), exact-rational
      cross-checks of the interval machinery against {!Pmi_portmap.Throughput}
      and {!Pmi_portmap.Lp_model}, dominance analysis (interchangeable and
      dominated ports), and well-formedness checks Lint cannot express
      (frontend-masked schemes that can never bottleneck, profile/mapping
      arity drift, empty candidate rows).

    - {b Dominance analysis} ({!interchangeable_ports},
      {!dominated_ports}) — port pairs whose swap leaves a mapping
      invariant, and ports whose every port set is covered by another;
      the auditor reports both as warnings. *)

type severity = Pmi_diag.Diag.severity =
  | Error
  | Warning

type diag = Pmi_diag.Diag.t = {
  rule : string;
  severity : severity;
  subject : string;
  message : string;
}

val errors : diag list -> diag list

(** {1 The abstract domain} *)

type interval = Pmi_portmap.Oracle.Bounds.interval = {
  lo : Pmi_numeric.Rat.t;
  hi : Pmi_numeric.Rat.t;
}

val default_epsilon : Pmi_numeric.Rat.t
(** The harness comparison tolerance,
    [Pmi_measure.Harness.Compare.default_epsilon] ([1/50]). *)

val excludes :
  epsilon:Pmi_numeric.Rat.t -> length:int -> interval -> Pmi_numeric.Rat.t ->
  bool
(** [excludes ~epsilon ~length iv v]: [v] lies outside
    [[lo - ε·length, hi + ε·length]] — the interval-level analogue of the
    harness' [cpi_equal] tolerance, so no value the CEGIS loop would accept
    as consistent is ever flagged. *)

(** {1 Dominance analysis} *)

val interchangeable_ports : Pmi_portmap.Mapping.t -> (int * int) list
(** Pairs [p < q] whose swap maps every usage of the mapping onto itself.
    Such ports are observationally indistinguishable: any completion
    remains consistent under the swap. *)

val dominated_ports : Pmi_portmap.Mapping.t -> (int * int) list
(** Pairs [(p, q)] with [p ≠ q] where every port set containing [p] also
    contains [q] but not conversely — uops.info-style dominance: [q] can
    execute everything confined to [p].  Only used ports are reported. *)

(** {1 Auditor} *)

val audit_rows :
  subject:string ->
  (Pmi_isa.Scheme.t * Pmi_portmap.Mapping.usage list) list ->
  diag list
(** Well-formedness of a partial-mapping row set: [empty-candidates]
    (Error) for schemes with no candidate rows. *)

val audit_mapping :
  ?epsilon:Pmi_numeric.Rat.t ->
  ?samples:int ->
  ?lp_samples:int ->
  ?against:(Pmi_portmap.Experiment.t * Pmi_numeric.Rat.t) list ->
  r_max:int ->
  subject:string ->
  Pmi_portmap.Mapping.t ->
  diag list
(** Semantic audit of a concrete mapping:

    - [counter-inconsistent] (Error): a recorded observation in [against]
      falls outside the mapping's throughput interval ± ε·|e|;
      [observation-unmapped-scheme] (Error) when the mapping cannot
      evaluate it at all.
    - [interval-mismatch] (Error): the interval machinery disagrees with
      the exact oracles ({!Pmi_portmap.Throughput}/{!Pmi_portmap.Oracle})
      on sampled experiments, or produces [lo > hi].
    - [lp-mismatch]/[lp-infeasible] (Error): the bottleneck-formula value
      differs from the §2.2 linear program ({!Pmi_portmap.Lp_model}) on
      [lp_samples] sampled experiments.
    - [frontend-masked] (Warning): a scheme whose usage can never
      bottleneck — pure experiments of it are always frontend-bound, so
      its row is under-determined by throughput measurements.
    - [interchangeable-ports]/[dominated-port] (Warning): dominance
      analysis results, one finding per mapping. *)

val audit_profile :
  ?catalog:Pmi_isa.Catalog.t -> Pmi_machine.Profile.t -> diag list
(** Pair the profile with its ground-truth mapping: [arity-drift] (Error)
    on num_ports disagreement, then {!audit_mapping} under the profile's
    [r_max]. *)

val builtin : ?catalog:Pmi_isa.Catalog.t -> unit -> diag list
(** Audit everything the repo ships: every {!Pmi_machine.Profile.t} with
    its ground-truth mapping over the (default full Zen+) catalog.  Zero
    [Error]s expected — enforced by [test/test_mapcheck.ml] and the
    [pmi_repro mapcheck]/[pmi_repro lint] CLI gates. *)
