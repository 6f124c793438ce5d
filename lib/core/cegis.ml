module Rat = Pmi_numeric.Rat
module Scheme = Pmi_isa.Scheme
module Experiment = Pmi_portmap.Experiment
module Mapping = Pmi_portmap.Mapping
module Throughput = Pmi_portmap.Throughput
module Oracle = Pmi_portmap.Oracle
module Pool = Pmi_parallel.Pool
module Solver = Pmi_smt.Solver
module Race = Pmi_diag.Race
module Obs = Pmi_obs.Obs

(* Telemetry counters: the CEGIS-level tallies a [--metrics] run reports
   next to the per-iteration spans.  All process-wide; [stats] keeps the
   per-run numbers. *)
let c_lemmas = Obs.counter "cegis.theory_lemmas"
let c_certificates = Obs.counter "cegis.certificates_checked"
let c_candidates = Obs.counter "cegis.candidates_tried"
let c_observations = Obs.counter "cegis.observations"
let c_enclint_findings = Obs.counter "cegis.enclint.findings"
let c_sat_episodes = Obs.counter "cegis.sat_episodes"
let c_cert_cached = Obs.counter "cegis.certificates_cached"
let c_warm_obs = Obs.counter "cegis.warm_observations"
let c_theory_evals = Obs.counter "cegis.theory_evaluations"
let c_memo_hits = Obs.counter "cegis.theory_memo_hits"
let c_slots_freed = Obs.counter "cegis.lemma_slots_freed"
let c_culprit_queries = Obs.counter "culprit.queries"

module IntSet = Set.Make (Int)

(* Process-wide episode tally; per-run numbers are snapshots around one
   inference (the repo never runs two inferences concurrently). *)
let episode_count = Atomic.make 0

(* Sanitizer shadow locations for the two Vecs every CEGIS phase shares:
   the observation log (read by parallel validation sweeps, written only
   between fan-outs) and the theory-lemma pool (caller-thread only).  One
   location per role is enough — the sanitizer runs one inference at a
   time. *)
let obs_loc = Race.location "cegis.observations"
let lemma_loc = Race.location "cegis.lemma-pool"

let log = Logs.Src.create "pmi.cegis" ~doc:"counter-example-guided inference"

module Log = (val Logs.src_log log : Logs.LOG)

type config = {
  num_ports : int;
  r_max : int;
  epsilon : Rat.t;
  max_experiment_size : int;
  max_other_candidates : int;
  max_iterations : int;
  symmetry_breaking : bool;
  domains : int;
  dump_cnf : string option;
  certify : bool;
  enclint : bool;
  store : Pmi_store.Store.t option;
}

exception Certification_failure of string
exception Enclint_failure of string

let default_config =
  { num_ports = 10;
    r_max = 5;
    epsilon = Pmi_measure.Harness.Compare.default_epsilon;
    max_experiment_size = 5;
    max_other_candidates = 400;
    max_iterations = 400;
    symmetry_breaking = true;
    domains = 1;
    dump_cnf = None;
    certify = false;
    enclint = false;
    store = None }

type observation = {
  experiment : Experiment.t;
  cycles : Rat.t;
}

type stats = {
  iterations : int;
  observations : observation list;
  candidates_tried : int;
  theory_lemmas : int;
  sat_episodes : int;
  sat : Pmi_smt.Sat.stats;
}

type outcome =
  | Converged of Mapping.t * stats
  | No_consistent_mapping of stats
  | Iteration_limit of stats

let modeled_inverse config mapping experiment =
  Throughput.inverse_bounded ~r_max:config.r_max mapping experiment

(* The memoized oracle is a drop-in replacement for the naive throughput
   computation (same exact rationals); it only declines when the port count
   exceeds its dense-table bound, in which case we keep the naive path. *)
let oracle_inverse config mapping =
  match Oracle.create mapping with
  | oracle ->
    ((fun e -> Oracle.inverse_bounded ~r_max:config.r_max oracle e),
     Some oracle)
  | exception Invalid_argument _ -> (modeled_inverse config mapping, None)

let consistent config mapping obs =
  let modeled = modeled_inverse config mapping obs.experiment in
  Pmi_measure.Harness.Compare.cpi_equal ~epsilon:config.epsilon
    ~length:(Experiment.length obs.experiment) modeled obs.cycles

(* Theory-check verdict memo.  Whether a mapping explains an observation
   depends only on the observation and the decoded rows of its own
   schemes, and the SAT models of one inference repeat most rows, so each
   verdict is stored per observation under those rows (port-set masks and
   multiplicities, each scheme closed by a 0).  [infer] keeps one table
   per position of its growing observation log; a culprit session keeps
   one per distinct observation for the whole search. *)
module Rows = Hashtbl.Make (struct
    type t = int list
    let equal = List.equal Int.equal
    let hash = List.fold_left (fun h x -> (h * 65599) + x) 0
  end)

let rows_key mapping experiment =
  List.fold_right
    (fun s key ->
       match Mapping.find_opt mapping s with
       | None -> raise (Throughput.Unsupported s)
       | Some usage ->
         List.fold_right
           (fun (ports, n) key -> Pmi_portmap.Portset.to_mask ports :: n :: key)
           usage (0 :: key))
    (Experiment.schemes experiment) []

(* Does [mapping] (which [acc] was created from) explain [obs]?  Answered
   from the observation's memo table, or by evaluating it on the
   point-mass accumulator ([evaluations] counts those). *)
let memo_verdict config acc verdicts mapping obs evaluations =
  let key = rows_key mapping obs.experiment in
  match Rows.find_opt verdicts key with
  | Some explained -> explained
  | None ->
    incr evaluations;
    Oracle.Acc.reset acc;
    List.iter
      (fun (s, count) -> Oracle.Acc.add acc s count)
      (Experiment.to_counts obs.experiment);
    let explained =
      Pmi_measure.Harness.Compare.cpi_equal ~epsilon:config.epsilon
        ~length:(Experiment.length obs.experiment)
        (Oracle.Acc.inverse_bounded ~r_max:config.r_max acc)
        obs.cycles
    in
    Rows.add verdicts key explained;
    explained

let count_evaluations ~checked evaluations =
  Obs.add c_theory_evals evaluations;
  Obs.add c_memo_hits (checked - evaluations)

let record_lemmas pool lemmas =
  if lemmas <> [] then begin
    Race.touch_write lemma_loc;
    Obs.add c_lemmas (List.length lemmas)
  end;
  List.iter (Vec.push pool) lemmas

(* Theory check: decode the SAT model, decide every observation through
   the memo, and learn a footprint lemma for each violated one.  Lemmas are
   collected in [pool] so that later encodings (deterministic variable
   numbering) can be seeded with everything already learned. *)
let theory_check config memo encoding observations pool model =
  let mapping = Encoding.decode encoding model in
  let acc = Oracle.Acc.create mapping in
  let lemmas = ref [] and evaluations = ref 0 in
  Race.touch_read obs_loc;
  for i = 0 to Vec.length observations - 1 do
    let obs = Vec.get observations i in
    if i = Vec.length memo then Vec.push memo (Rows.create 16);
    if not (memo_verdict config acc (Vec.get memo i) mapping obs evaluations)
    then
      lemmas :=
        Encoding.block_footprint encoding model
          (Experiment.schemes obs.experiment)
        :: !lemmas
  done;
  count_evaluations ~checked:(Vec.length observations) !evaluations;
  let lemmas = List.rev !lemmas in
  record_lemmas pool lemmas;
  lemmas

let fresh_encoding config specs pool =
  let encoding =
    Encoding.create ~num_ports:config.num_ports
      ~symmetry_breaking:config.symmetry_breaking ~certify:config.certify
      specs
  in
  Race.touch_read lemma_loc;
  Vec.iter (Pmi_smt.Sat.add_clause (Encoding.sat encoding)) pool;
  encoding

(* Static gate on a constructed encoding (behind [config.enclint]): run
   the EncLint analysis once per solver episode, before the episode's
   first solve.  Two caches keep the gate sub-linear over a CEGIS run:

   - [enclint_cone_memo] is handed to the analyzer, which memoizes clean
     exhaustive cardinality-cone enumerations by network shape (the
     [Card] builder is deterministic), so shapes verified once are not
     re-enumerated — neither on later episodes of the same solver nor
     when a fresh same-spec encoding rebuilds them, as every [infer]
     round of the §4.3 culprit removal does.
   - [enclint_db_seen] holds the [Sat.id] of every solver whose
     clause-database passes (dead vars, duplicates, frozen-unused) have
     run.  Those passes run once per solver; its later episodes run the
     view-layer checks only. *)
let enclint_cone_memo : (string, unit) Hashtbl.t = Hashtbl.create 64
let enclint_db_seen : (int, unit) Hashtbl.t = Hashtbl.create 16

(* [lemmas] is a thunk so the (possibly large) pool-to-list conversion
   is only paid when the gate is actually on. *)
let enclint_gate config ?lemmas ?frozen encoding =
  if config.enclint then
    Obs.span "cegis.enclint" @@ fun () ->
    let sat = Encoding.sat encoding in
    let lemmas = Option.map (fun f -> f ()) lemmas in
    let view = Encoding.enclint_view ?lemmas ?frozen encoding in
    let db = not (Hashtbl.mem enclint_db_seen (Pmi_smt.Sat.id sat)) in
    if db then Hashtbl.replace enclint_db_seen (Pmi_smt.Sat.id sat) ();
    let diags =
      Obs.span "cegis.enclint.analyze" (fun () ->
          Pmi_analysis.Enclint.analyze ~cone_memo:enclint_cone_memo ~db sat
            view)
    in
    Obs.add c_enclint_findings (List.length diags);
    List.iter
      (fun d -> Log.debug (fun m -> m "%s" (Pmi_diag.Diag.to_string d)))
      diags;
    match Pmi_diag.Diag.errors diags with
    | [] -> ()
    | errs ->
      raise
        (Enclint_failure
           (Printf.sprintf "encoding rejected by enclint (%d error(s)): %s"
              (List.length errs)
              (String.concat "; "
                 (List.map Pmi_diag.Diag.to_string errs))))

(* ------------------------------------------------------------------ *)
(* Trust-but-verify layer                                              *)
(* ------------------------------------------------------------------ *)

(* An UNSAT verdict under assumptions [a1; …; an] is certified by checking
   the DRAT trace against the goal clause [¬a1 ∨ … ∨ ¬an] (the empty clause
   when there are no assumptions): the independent checker replays every
   derivation and finally requires the goal itself to be RUP. *)
let certify_unsat config ?(assumptions = []) sat =
  if config.certify then begin
    Obs.incr c_certificates;
    if not (Pmi_smt.Sat.proof_logging sat) then
      raise
        (Certification_failure
           "certify is on but the solver carries no proof trace");
    let goal = List.map Pmi_smt.Lit.negate assumptions in
    let proof = Pmi_smt.Sat.proof sat in
    let run_checker () =
      match Pmi_analysis.Drat.check ~goal proof with
      | Ok () ->
        Log.debug (fun m ->
            m "UNSAT certificate accepted (%d proof steps)"
              (Pmi_smt.Sat.proof_length sat))
      | Error e ->
        raise
          (Certification_failure
             (Format.asprintf "UNSAT certificate rejected: %a"
                Pmi_analysis.Drat.pp_error e))
    in
    (* The durable certificate store short-circuits the checker only when
       this exact proof of this exact goal (same axioms) was accepted by a
       previous run: the key is the claim's digest, the stored value the
       full proof's.  A different proof of a known goal is re-checked and
       the record refreshed. *)
    match config.store with
    | None -> run_checker ()
    | Some store ->
      let key = "unsat:" ^ Pmi_analysis.Drat.goal_digest ~goal proof in
      let digest = Pmi_analysis.Drat.proof_digest ~goal proof in
      (match Pmi_store.Store.get store Pmi_store.Store.Certificate ~key with
       | Some stored when String.equal stored digest ->
         Obs.incr c_cert_cached;
         Log.debug (fun m ->
             m "UNSAT certificate found in store; re-check skipped")
       | _ ->
         run_checker ();
         Pmi_store.Store.put store Pmi_store.Store.Certificate ~key digest)
  end

(* A SAT verdict is certified against the axioms, not the solver: the model
   must satisfy every input clause of the trace (problem CNF, cardinality
   chains, theory lemmas), and the decoded mapping must explain every
   observation under the naive exact-rational oracle — deliberately not the
   memoized fast path the search itself uses. *)
let certify_sat config encoding observations model =
  if config.certify then begin
    Obs.incr c_certificates;
    let sat = Encoding.sat encoding in
    (match Pmi_analysis.Drat.validate_model ~model (Pmi_smt.Sat.proof sat) with
     | Ok () -> ()
     | Error e ->
       raise
         (Certification_failure
            (Format.asprintf "SAT model rejected: %a"
               Pmi_analysis.Drat.pp_error e)));
    let mapping = Encoding.decode encoding model in
    Vec.iter
      (fun obs ->
         let modeled = modeled_inverse config mapping obs.experiment in
         if
           not
             (Pmi_measure.Harness.Compare.cpi_equal ~epsilon:config.epsilon
                ~length:(Experiment.length obs.experiment) modeled obs.cycles)
         then
           raise
             (Certification_failure
                (Printf.sprintf
                   "SAT model rejected: decoded mapping does not explain %s \
                    (modeled %s, observed %s)"
                   (Experiment.to_string obs.experiment)
                   (Rat.to_string modeled)
                   (Rat.to_string obs.cycles))))
      observations
  end

(* Every solver verdict the CEGIS loop consumes flows through here, so the
   findMapping, findOtherMapping and culprit queries are all certified when
   the knob is on. *)
let certified_solve config encoding observations ?assumptions ~check () =
  let sat = Encoding.sat encoding in
  Atomic.incr episode_count;
  Obs.incr c_sat_episodes;
  let verdict = Solver.solve ?assumptions ~check sat in
  (match verdict with
   | Solver.Unsat -> certify_unsat config ?assumptions sat
   | Solver.Sat model -> certify_sat config encoding observations model);
  verdict

let find_mapping config memo encoding observations pool =
  Obs.span "cegis.find_mapping" (fun () ->
      enclint_gate config ~lemmas:(fun () -> Vec.to_list pool) encoding;
      let check = theory_check config memo encoding observations pool in
      match certified_solve config encoding observations ~check () with
      | Solver.Sat model -> Some (Encoding.decode encoding model)
      | Solver.Unsat -> None)

exception Found_counts of (Scheme.t * int) list

(* One size stratum of the stratified distinguishing-experiment search
   (§3.3.4): the multisets of [schemes] of exactly [size] instructions, in
   a fixed enumeration order, walked with one point-mass accumulator per
   mapping so that entering or leaving a recursion level is a ±one-scheme
   delta.  An experiment whose schemes all have equal rows in the two
   mappings has equal tp⁻¹ under both, so subtrees that cannot contain a
   scheme with [differs] set are skipped; the order of the remaining
   leaves is unchanged, so the first hit is the same.  [abort] is polled
   at every node (used by the parallel search to stop a stratum once a
   smaller one has found a hit). *)
let search_stratum config m1 m2 schemes ~differs ~size ~abort =
  let sep = Pmi_measure.Harness.Compare.well_separated ~epsilon:config.epsilon in
  let a1 = Oracle.Acc.create m1 and a2 = Oracle.Acc.create m2 in
  let n = Array.length schemes in
  let rec last_diff i = if i < 0 || differs.(i) then i else last_diff (i - 1) in
  let last_diff = last_diff (n - 1) in
  (* [diff]: the standing multiset holds a differing scheme.  Until it
     does, only schemes up to the last differing one are tried, and each
     leaves room for one more instruction, so every leaf has one. *)
  let rec fill size start acc diff =
    if abort () then raise_notrace Exit;
    if size = 0 then begin
      let length = Oracle.Acc.length a1 in
      let t1 = Oracle.Acc.inverse_bounded ~r_max:config.r_max a1 in
      let t2 = Oracle.Acc.inverse_bounded ~r_max:config.r_max a2 in
      if sep ~length t1 t2 then raise_notrace (Found_counts acc)
    end
    else
      for i = start to (if diff then n - 1 else last_diff) do
        let s = schemes.(i) in
        let diff = diff || differs.(i) in
        let top = if diff then size else size - 1 in
        let rec with_count c =
          if c <= top then begin
            Oracle.Acc.add a1 s 1;
            Oracle.Acc.add a2 s 1;
            fill (size - c) (i + 1) ((s, c) :: acc) diff;
            with_count (c + 1)
          end
          else begin
            (* All [c - 1] copies of scheme i are standing; retract them. *)
            Oracle.Acc.remove a1 s (c - 1);
            Oracle.Acc.remove a2 s (c - 1)
          end
        in
        with_count 1
      done
  in
  match fill size 0 [] false with
  | () -> None
  | exception Found_counts acc -> Some (Experiment.of_counts acc)
  | exception Exit -> None

let distinguishing_experiment config m1 m2 schemes =
  Obs.span "cegis.distinguish" @@ fun () ->
  let schemes = Array.of_list schemes in
  let differs =
    Array.map
      (fun s ->
         match (Mapping.find_opt m1 s, Mapping.find_opt m2 s) with
         | Some a, Some b -> not (Mapping.equal_usage a b)
         | (None | Some _), _ -> true)
      schemes
  in
  let stratum ~abort size =
    search_stratum config m1 m2 schemes ~differs ~size ~abort
  in
  if config.domains > 1 && config.max_experiment_size > 1 then begin
    (* One domain per size stratum; every stratum reports its first hit in
       enumeration order and the smallest stratum wins, so the result is
       the same experiment the sequential search returns. *)
    let strata = config.max_experiment_size in
    let hits = Array.make (strata + 1) None in
    let best = Race.tracked_atomic ~name:"cegis.distinguishing.best" max_int in
    let rec shrink size =
      let b = Race.aget best in
      if size < b && not (Race.acas best b size) then shrink size
    in
    Pool.parallel_for ~domains:config.domains ~n:strata (fun idx ->
        let size = idx + 1 in
        let abort () = Race.aget best < size in
        if not (abort ()) then
          match stratum ~abort size with
          | Some e ->
            hits.(size) <- Some e;
            shrink size
          | None -> ());
    let rec first size =
      if size > strata then None
      else match hits.(size) with Some e -> Some e | None -> first (size + 1)
    in
    first 1
  end
  else begin
    let rec go size =
      if size > config.max_experiment_size then None
      else
        match stratum ~abort:(fun () -> false) size with
        | Some e -> Some e
        | None -> go (size + 1)
    in
    go 1
  end

let same_mapping specs m1 m2 =
  List.for_all
    (fun (scheme, _) ->
       match (Mapping.find_opt m1 scheme, Mapping.find_opt m2 scheme) with
       | Some a, Some b -> Mapping.equal_usage a b
       | (None | Some _), _ -> false)
    specs

(* State of the persistent findOtherMapping solver: one encoding per specs
   set, kept across CEGIS iterations so learned clauses, variable
   activities and theory lemmas survive.  [synced] counts the pool lemmas
   already present in the solver (both encodings number their variables
   deterministically, so lemmas learned on one transfer verbatim). *)
type other_state = {
  o_encoding : Encoding.t;
  mutable o_synced : int;
}

let sync_lemmas state pool =
  Race.touch_read lemma_loc;
  let sat = Encoding.sat state.o_encoding in
  Vec.iter_from state.o_synced (Pmi_smt.Sat.add_clause sat) pool;
  state.o_synced <- Vec.length pool

(* findOtherMapping on the persistent encoding: block_model clauses are
   only valid for the duration of one call (a candidate that cannot be
   distinguished under the current experiment bound must be reconsidered
   once new observations arrive), so each call guards them behind a fresh
   activation literal that is assumed during the call and retired with a
   unit clause afterwards. *)
let find_other_mapping config memo state specs observations pool m1
    tried_counter =
  Obs.span "cegis.find_other_mapping" @@ fun () ->
  sync_lemmas state pool;
  let encoding = state.o_encoding in
  (* Gate before the per-call activation variable exists: it would read as
     an allocated-but-unconstrained (dead) variable until first assumed. *)
  enclint_gate config ~lemmas:(fun () -> Vec.to_list pool) encoding;
  let sat = Encoding.sat encoding in
  let act = Pmi_smt.Sat.fresh_var sat in
  let assumptions = [ Pmi_smt.Lit.pos act ] in
  let retract = Pmi_smt.Lit.neg_of_var act in
  let check = theory_check config memo encoding observations pool in
  let schemes = List.map fst specs in
  let rec search budget =
    if budget = 0 then begin
      Log.warn (fun m ->
          m "findOtherMapping: candidate budget exhausted; treating as converged");
      None
    end
    else begin
      match certified_solve config encoding observations ~assumptions ~check () with
      | Solver.Unsat -> None
      | Solver.Sat model ->
        incr tried_counter;
        Obs.incr c_candidates;
        let m2 = Encoding.decode encoding model in
        if same_mapping specs m1 m2 then begin
          Pmi_smt.Sat.add_clause sat
            (retract :: Encoding.block_model encoding model);
          search (budget - 1)
        end
        else begin
          match distinguishing_experiment config m1 m2 schemes with
          | Some e -> Some (m2, e)
          | None ->
            (* Indistinguishable within the experiment bound: block this
               candidate for the remainder of the call (§3.3.4). *)
            Pmi_smt.Sat.add_clause sat
              (retract :: Encoding.block_model encoding model);
            search (budget - 1)
        end
    end
  in
  let result = search config.max_other_candidates in
  (* Retire this call's blocking clauses. *)
  Pmi_smt.Sat.add_clause sat [ retract ];
  (* Lemmas the solver added for us during [check] are already in, so
     fast-forward the sync mark. *)
  state.o_synced <- Vec.length pool;
  result

(* Canonical flooding experiments used to validate a converged mapping:
   [c×j, i] and [2c×j, i] for every c-port blocking instruction j and every
   instruction i.  The distinguishing-experiment search only measures what
   separates two {e consistent} mappings, so measurements that refute the
   whole model class (the §4.3 anomalies) can stay unobserved; sweeping the
   canonical experiments before declaring convergence closes that gap. *)
let validation_experiments specs =
  let proper =
    List.filter_map
      (fun (s, spec) ->
         match spec with
         | Encoding.Proper c -> Some (s, c)
         | Encoding.Improper _ -> None)
      specs
  in
  let all = List.map fst specs in
  List.concat_map
    (fun (j, c) ->
       List.concat_map
         (fun i ->
            [ Experiment.add i (Experiment.replicate c j);
              Experiment.add i (Experiment.replicate (2 * c) j) ])
         all)
    proper
  |> List.sort_uniq Experiment.compare

(* Write the current clause set of an encoding's solver to [file] in DIMACS
   format, for offline triage of hard instances. *)
let dump_cnf_file sat file =
  try
    let oc = open_out file in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
         let buf = Buffer.create 65536 in
         Pmi_smt.Sat.to_dimacs sat buf;
         Buffer.output_buffer oc buf);
    Log.info (fun m -> m "wrote CNF to %s" file)
  with Sys_error msg ->
    Log.warn (fun m -> m "could not dump CNF: %s" msg)

(* ------------------------------------------------------------------ *)
(* The §4.3 culprit session                                            *)
(* ------------------------------------------------------------------ *)

module Culprit = struct
  (* Lemma generalisation.  tp⁻¹ is antitone in each µop's port set
     (widening a set never raises any mass(Q)/|Q|), and so is
     max(tp⁻¹, |e|/r_max).  With some µop slots of a violated footprint
     freed, every completion therefore lies in [lo, hi]: lo puts the freed
     µops on all ports; hi is the largest value with all of them on one
     port {p}, because moving them onto a port of a completion's
     bottleneck set Q only adds to mass(Q).  While that bracket excludes
     the observed cycles, the slots stay freed and the lemma refutes every
     completion.  Slots are tried greedily, in footprint order. *)
  let refute config encoding model obs =
    let acc = Oracle.Acc.create (Encoding.decode encoding model) in
    List.iter
      (fun (s, count) -> Oracle.Acc.add acc s count)
      (Experiment.to_counts obs.experiment);
    let tolerance =
      Rat.mul config.epsilon (Rat.of_int (Experiment.length obs.experiment))
    in
    let above = Rat.add obs.cycles tolerance
    and below = Rat.sub obs.cycles tolerance in
    let value_with freed target =
      let move ~back =
        List.iter
          (fun (ports, n) ->
             if back then Oracle.Acc.move acc ~from:target ~to_:ports n
             else Oracle.Acc.move acc ~from:ports ~to_:target n)
          freed
      in
      move ~back:false;
      let value = Oracle.Acc.inverse_bounded ~r_max:config.r_max acc in
      move ~back:true;
      value
    in
    let module Portset = Pmi_portmap.Portset in
    let excluded freed =
      Rat.compare (value_with freed (Portset.full config.num_ports)) above > 0
      || List.for_all
           (fun p ->
              Rat.compare (value_with freed (Portset.singleton p)) below < 0)
           (List.init config.num_ports Fun.id)
    in
    let kept, freed =
      List.fold_left
        (fun (kept, freed) slot ->
           let uops =
             ( Encoding.slot_ports model slot,
               Experiment.count obs.experiment (Encoding.slot_scheme slot) )
           in
           if excluded (uops :: freed) then (kept, uops :: freed)
           else (slot :: kept, freed))
        ([], [])
        (Encoding.footprint encoding (Experiment.schemes obs.experiment))
    in
    Obs.add c_slots_freed (List.length freed);
    Encoding.block_slots model (List.rev kept)

  (* A distinct observation of the search: its guard literal prefixes all
     of its lemmas, so they bind only in queries that assume it. *)
  type entry = {
    obs : observation;
    guard : int;
    verdicts : bool Rows.t;
  }

  type t = {
    config : config;
    search : int;
    encoding : Encoding.t;
    entries : entry list Experiment.Tbl.t;
    lemmas : Pmi_smt.Lit.t list Vec.t;
  }

  (* Searches are numbered per process, to name their CNF dumps. *)
  let searches = Atomic.make 0

  let create ?(config = default_config) ~specs () =
    { config;
      search = 1 + Atomic.fetch_and_add searches 1;
      encoding =
        Encoding.create ~num_ports:config.num_ports
          ~symmetry_breaking:config.symmetry_breaking ~certify:config.certify
          ~guarded:true specs;
      entries = Experiment.Tbl.create 64;
      lemmas = Vec.create () }

  let intern t obs =
    let key = Experiment.key obs.experiment in
    let known = Option.value ~default:[] (Experiment.Tbl.find_opt t.entries key) in
    match List.find_opt (fun e -> Rat.equal e.obs.cycles obs.cycles) known with
    | Some entry -> entry
    | None ->
      let sat = Encoding.sat t.encoding in
      let guard = Pmi_smt.Sat.fresh_var sat in
      Pmi_smt.Sat.name_var sat guard
        (Printf.sprintf "obs(%s=%s)"
           (Experiment.to_string obs.experiment) (Rat.to_string obs.cycles));
      Pmi_smt.Sat.mark_guard sat guard;
      let entry = { obs; guard; verdicts = Rows.create 16 } in
      Experiment.Tbl.replace t.entries key (entry :: known);
      entry

  let check t entries model =
    let mapping = Encoding.decode t.encoding model in
    let acc = Oracle.Acc.create mapping in
    let evaluations = ref 0 in
    let lemmas =
      List.filter_map
        (fun e ->
           if memo_verdict t.config acc e.verdicts mapping e.obs evaluations
           then None
           else
             Some
               (Pmi_smt.Lit.neg_of_var e.guard
                :: refute t.config t.encoding model e.obs))
        entries
    in
    count_evaluations ~checked:(List.length entries) !evaluations;
    record_lemmas t.lemmas lemmas;
    lemmas

  let explains t ~specs ~observations =
    Obs.span "cegis.explain" @@ fun () ->
    Obs.incr c_culprit_queries;
    let rows = Encoding.activate t.encoding (List.map fst specs) in
    (* Gate before interning: a new observation's guard occurs in no
       clause until its first lemma, so it would read as a dead variable. *)
    enclint_gate t.config
      ~lemmas:(fun () -> Vec.to_list t.lemmas)
      ~frozen:rows t.encoding;
    let entries = List.map (intern t) observations in
    let assumptions =
      rows @ List.map (fun e -> Pmi_smt.Lit.pos e.guard) entries
    in
    let obs = Vec.create () in
    List.iter (Vec.push obs) observations;
    match
      certified_solve t.config t.encoding obs ~assumptions
        ~check:(check t entries) ()
    with
    | Solver.Sat _ -> true
    | Solver.Unsat -> false

  let dump_cnf t =
    match t.config.dump_cnf with
    | Some prefix ->
      dump_cnf_file (Encoding.sat t.encoding)
        (Printf.sprintf "%s-culprit-%d.cnf" prefix t.search)
    | None -> ()
end

(* Convergence-time validation: the first sweep experiment the converged
   mapping fails to explain; [None] means the convergence is confirmed.
   Only one refutation is reported per round so that an UNSAT can be
   traced to a single observation (the §4.3 culprit search depends on
   that).  Experiments already in [observations] are skipped. *)
let validate config ~measure ~schemes observations sweep m1 =
  Obs.span ~args:[ ("sweep", Obs.Int (Array.length sweep)) ] "cegis.validate"
  @@ fun () ->
  let inv, oracle = oracle_inverse config m1 in
  let failing e =
    Race.touch_read obs_loc;
    if Vec.exists (fun o -> Experiment.equal o.experiment e) observations
    then false
    else begin
      let cycles = measure e in
      not
        (Pmi_measure.Harness.Compare.cpi_equal ~epsilon:config.epsilon
           ~length:(Experiment.length e) (inv e) cycles)
    end
  in
  if config.domains > 1 then begin
    (* Warm the oracle tables before fanning out: the sweep only reads
       shared state afterwards.  [measure] must be thread-safe here. *)
    (match oracle with Some o -> Oracle.prepare o schemes | None -> ());
    match Pool.find_first_index ~domains:config.domains failing sweep with
    | Some i -> Some sweep.(i)
    | None -> None
  end
  else Array.find_opt failing sweep

let infer ?(config = default_config) ?(warm_start = []) ~measure ~specs () =
  Obs.span "cegis.infer" @@ fun () ->
  let pool = Vec.create () in
  let observations = Vec.create () in
  let memo = Vec.create () in
  let episodes_before = Atomic.get episode_count in
  let record obs =
    Race.touch_write obs_loc;
    Vec.push observations obs;
    obs
  in
  let observe experiment =
    let cycles =
      Obs.span "cegis.observe" (fun () -> measure experiment)
    in
    Obs.incr c_observations;
    record { experiment; cycles }
  in
  let already_observed e =
    Vec.exists (fun o -> Experiment.equal o.experiment e) observations
  in
  (* Warm start: replay durable observations from a previous run as if
     they had just been measured — they enter the observation log before
     any encoding exists.  Observations naming schemes outside [specs]
     (another stage's floods, a retry after a culprit removal) are
     skipped. *)
  (match warm_start with
   | [] -> ()
   | warm ->
     let spec_ids =
       List.fold_left
         (fun acc (s, _) -> IntSet.add (Scheme.id s) acc)
         IntSet.empty specs
     in
     let in_specs e =
       List.for_all
         (fun s -> IntSet.mem (Scheme.id s) spec_ids)
         (Experiment.schemes e)
     in
     let replayed = ref 0 in
     List.iter
       (fun obs ->
          if in_specs obs.experiment && not (already_observed obs.experiment)
          then begin
            incr replayed;
            Obs.incr c_warm_obs;
            ignore (record obs)
          end)
       warm;
     if !replayed > 0 then
       Log.info (fun m ->
           m "warm start: replayed %d stored observation(s)" !replayed));
  List.iter
    (fun (s, _) ->
       let e = Experiment.singleton s in
       if already_observed e then
         (* Warm-started: the durable store already answered this one. *)
         Log.debug (fun m ->
             m "warm start: %s already observed; measurement skipped"
               (Experiment.to_string e))
       else ignore (observe e))
    specs;
  let fm_encoding = fresh_encoding config specs pool in
  let other_state =
    { o_encoding =
        Encoding.create ~num_ports:config.num_ports
          ~symmetry_breaking:config.symmetry_breaking
          ~certify:config.certify specs;
      o_synced = 0 }
  in
  let tried = ref 0 in
  let finish mk =
    let sat =
      Pmi_smt.Sat.add_stats
        (Pmi_smt.Sat.stats (Encoding.sat fm_encoding))
        (Pmi_smt.Sat.stats (Encoding.sat other_state.o_encoding))
    in
    Log.info (fun m ->
        m "solver: %d decisions, %d propagations, %d conflicts, %d restarts, \
           %d learned (max glue %d), %d deleted by reduction"
          sat.Pmi_smt.Sat.decisions sat.Pmi_smt.Sat.propagations
          sat.Pmi_smt.Sat.conflicts sat.Pmi_smt.Sat.restarts
          sat.Pmi_smt.Sat.learned sat.Pmi_smt.Sat.max_lbd
          sat.Pmi_smt.Sat.deleted);
    (match config.dump_cnf with
     | Some prefix ->
       dump_cnf_file (Encoding.sat fm_encoding) (prefix ^ "-findmapping.cnf");
       dump_cnf_file
         (Encoding.sat other_state.o_encoding)
         (prefix ^ "-findothermapping.cnf")
     | None -> ());
    mk
      { iterations = 0;
        observations = Vec.to_list observations;
        candidates_tried = !tried;
        theory_lemmas = Vec.length pool;
        sat_episodes = Atomic.get episode_count - episodes_before;
        sat }
  in
  let sweep = Array.of_list (validation_experiments specs) in
  let schemes = List.map fst specs in
  (* One CEGIS iteration under its own span; [None] means "not settled,
     go around again".  Keeping the iteration body out of the recursion
     makes the spans siblings in the trace — iteration 57 is a peer of
     iteration 1, not buried 56 frames deep. *)
  let step iteration =
    Obs.span
      ~args:[ ("iteration", Obs.Int iteration) ]
      "cegis.iteration"
      (fun () ->
         match find_mapping config memo fm_encoding observations pool with
         | None ->
           Some
             (finish (fun s ->
                  No_consistent_mapping { s with iterations = iteration }))
         | Some m1 ->
           (match
              find_other_mapping config memo other_state specs observations
                pool m1 tried
            with
            | None ->
              (match
                 validate config ~measure ~schemes observations sweep m1
               with
               | None ->
                 Some
                   (finish (fun s ->
                        Converged (m1, { s with iterations = iteration })))
               | Some failure ->
                 Log.info (fun m ->
                     m "iteration %d: validation experiment %s refutes the \
                        converged mapping" iteration
                       (Experiment.to_string failure));
                 ignore (observe failure);
                 None)
            | Some (_, new_exp) ->
              let obs = observe new_exp in
              Log.info (fun m ->
                  m "iteration %d: new experiment %s measured at %s cycles"
                    iteration
                    (Experiment.to_string new_exp)
                    (Rat.to_string obs.cycles));
              None))
  in
  let rec loop iteration =
    if iteration > config.max_iterations then
      finish (fun s -> Iteration_limit { s with iterations = iteration - 1 })
    else
      match step iteration with
      | Some outcome -> outcome
      | None -> loop (iteration + 1)
  in
  loop 1
