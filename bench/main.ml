(* Benchmark harness: one bechamel test per reproduced table/figure (on
   reduced catalogs so a run stays in the minutes) plus the ablation
   micro-benchmarks called out in DESIGN.md.

   Flags:
     --smoke        run every benchmark body exactly once (no bechamel)
     --only SUBSTR  keep only benchmarks whose name contains SUBSTR
                    (also skips the SAT-stat records in --json output)
     --skip SUBSTR  drop benchmarks whose name contains SUBSTR (repeatable;
                    applied after --only)
     --json FILE    write the measured results as a schema-versioned JSON
                    object: {schema_version; results; obs_counters} where
                    results holds {name, ns_per_run} timing records and
                    {name, count} SAT-solver statistics of one toy CEGIS
                    inference, and obs_counters the telemetry counters of
                    the same inference run traced
     --store DIR    archive the same JSON record as a bench-history entry
                    of the durable store at DIR (content-digest key)
     --check-regression HISTORY
                    compare this run's timing records against the newest
                    entry of the HISTORY file (BENCH_sat.json layout) and
                    exit 1 if any bench regressed by more than 25%, 2 if
                    the records are incomparable (schema_version mismatch)
     --against FILE with --check-regression: gate the bench --json record
                    in FILE instead of running any benchmarks

   With PMI_BENCH_WARM_AB set in the environment, only the warm-start
   A/B count records run (cold vs warm durable-store inference, with the
   zero-measurement and identical-mapping assertions) — the cheap
   assertion pass the CI crash-recovery job uses. *)

open Bechamel
open Toolkit
open Pmi_isa
open Pmi_portmap
open Pmi_core
module Rat = Pmi_numeric.Rat
module Machine = Pmi_machine.Machine
module Harness = Pmi_measure.Harness
module Pool = Pmi_parallel.Pool

(* ------------------------------------------------------------------ *)
(* Shared fixtures (built once, outside the timed region)              *)
(* ------------------------------------------------------------------ *)

let toy_catalog =
  Catalog.of_list
    [ ("add", [ Operand.gpr 64; Operand.gpr ~access:Operand.Read 64 ],
       Iclass.plain (Iclass.Single Iclass.Alu));
      ("mul", [ Operand.gpr 64; Operand.gpr ~access:Operand.Read 64 ],
       Iclass.plain (Iclass.Single Iclass.Alu));
      ("fma", [ Operand.gpr 64; Operand.gpr ~access:Operand.Read 64 ],
       Iclass.plain (Iclass.Single Iclass.Alu)) ]

let toy_add = Catalog.find toy_catalog 0
let toy_mul = Catalog.find toy_catalog 1
let toy_fma = Catalog.find toy_catalog 2

let toy_mapping =
  let both = Portset.of_list [ 0; 1 ] in
  let p2 = Portset.singleton 1 in
  let m = Mapping.create ~num_ports:2 in
  Mapping.set m toy_add [ (both, 1) ];
  Mapping.set m toy_mul [ (p2, 1) ];
  Mapping.set m toy_fma [ (both, 2); (p2, 1) ];
  m

let toy_experiment = Experiment.of_counts [ (toy_mul, 2); (toy_fma, 1) ]

let zen = Catalog.zen_plus ()
let zen_machine = Machine.create zen
let zen_harness = Harness.create zen_machine
let zen_block =
  Experiment.of_list
    (List.filteri (fun i _ -> i < 5)
       (List.map (fun b -> List.hd (Catalog.bucket zen b))
          [ "blocking/alu"; "blocking/vec-logic"; "blocking/fp-add";
            "blocking/shuffle"; "blocking/load" ]))

(* A pipeline-sized fixture: reduced catalog with fresh harness per run so
   caching does not hide the work. *)
let reduced_harness () =
  Harness.create (Machine.create (Catalog.reduced ~per_bucket:2 ()))

let cegis_toy ?(domains = 1) ?(certify = false) ?(enclint = false)
    ~symmetry_breaking ~max_size () =
  let truth = Mapping.create ~num_ports:3 in
  Mapping.set truth toy_add [ (Portset.of_list [ 0; 1 ], 1) ];
  Mapping.set truth toy_mul [ (Portset.of_list [ 1; 2 ], 1) ];
  Mapping.set truth toy_fma [ (Portset.singleton 2, 1) ];
  let config =
    { Cegis.default_config with
      Cegis.num_ports = 3; r_max = 4; max_experiment_size = max_size;
      symmetry_breaking; domains; certify; enclint }
  in
  let measure e = Cegis.modeled_inverse config truth e in
  let specs =
    [ (toy_add, Encoding.Proper 2); (toy_mul, Encoding.Proper 2);
      (toy_fma, Encoding.Proper 1) ]
  in
  match Cegis.infer ~config ~measure ~specs () with
  | Cegis.Converged (_, stats) -> stats
  | Cegis.No_consistent_mapping _ | Cegis.Iteration_limit _ ->
    failwith "bench: toy CEGIS failed"

(* Durable-store fixture (the warm-start ablation): a harness-backed CEGIS
   inference over quirk-free single-µop schemes of the reduced catalog on
   the 7-port a64fx profile (a small solver side), with the measurement
   tier made expensive (median-of-3001 per benchmark, standing in for the
   steady-state runs on real hardware) so the cost a warm start avoids
   dominates the run.  Cold infers against an empty store and persists
   every observation; warm replays what the store holds and must converge
   without touching the machine at all. *)
module Store = Pmi_store.Store

let temp_store_dir () =
  let path = Filename.temp_file "pmi-bench-store" "" in
  Sys.remove path;
  Sys.mkdir path 0o700;
  path

let remove_store_dir dir =
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir

let warm_start_machine () =
  Machine.create ~config:Machine.quiet_config
    ~profile:Pmi_machine.Profile.a64fx
    (Catalog.reduced ~per_bucket:1 ())

(* Specs are confined to the machine's vector-port cluster {0,1,2}: its
   singleton, pair and triple port sets overlap enough that every row is
   pinned by experiments within the size bound, so cold and warm runs
   converge to permutation-identical mappings.  (A scheme on a port no
   other spec touches — a64fx's add on {4,5,6} — stays legitimately
   under-determined at this bound, which would make the A/B's
   mapping-equality assertion vacuous.) *)
let warm_start_specs machine =
  let truth = Machine.ground_truth machine in
  let quirk_free s = (Scheme.klass s).Iclass.quirk = None in
  Array.to_list (Catalog.schemes (Machine.catalog machine))
  |> List.filter_map (fun s ->
      match Mapping.find_opt truth s with
      | Some [ (ports, 1) ]
        when quirk_free s
          && List.for_all (fun p -> p <= 2) (Portset.to_list ports) ->
        Some (s, Encoding.Proper (Portset.cardinal ports))
      | Some _ | None -> None)

(* Returns the inferred mapping, machine measurements paid, and store
   misses — the warm run must report zero for both counters. *)
let warm_start_infer ?(warm = false) store_dir =
  let machine = warm_start_machine () in
  let store = Store.open_ store_dir in
  Fun.protect
    ~finally:(fun () -> Store.close store)
    (fun () ->
       let harness = Harness.create ~reps:3001 ~store machine in
       let config =
         { Cegis.default_config with
           Cegis.num_ports = Machine.num_ports machine;
           r_max = Machine.r_max machine; max_experiment_size = 4;
           symmetry_breaking = true }
       in
       let warm_start =
         if warm then
           List.map
             (fun (experiment, cycles) -> { Cegis.experiment; cycles })
             (Harness.stored_observations harness)
         else []
       in
       match
         Cegis.infer ~config ~warm_start
           ~measure:(Harness.cycles harness)
           ~specs:(warm_start_specs machine) ()
       with
       | Cegis.Converged (m, _) ->
         (m, Machine.measurement_count machine, Harness.store_misses harness)
       | Cegis.No_consistent_mapping _ | Cegis.Iteration_limit _ ->
         failwith "bench: warm-start inference failed")

(* The warm bench replays one pre-populated store, built outside the
   timed region by a single cold run. *)
let warm_start_store =
  lazy
    (let dir = temp_store_dir () in
     at_exit (fun () -> try remove_store_dir dir with Sys_error _ -> ());
     ignore (warm_start_infer dir);
     dir)

let pigeonhole_cnf ~proof ~pigeons ~holes =
  let open Pmi_smt in
  let s = Sat.create () in
  if proof then Sat.set_proof_logging s true;
  let v =
    Array.init pigeons (fun _ -> Array.init holes (fun _ -> Sat.fresh_var s))
  in
  for p = 0 to pigeons - 1 do
    Sat.add_clause s (Array.to_list (Array.map Lit.pos v.(p)))
  done;
  for h = 0 to holes - 1 do
    for p1 = 0 to pigeons - 1 do
      for p2 = p1 + 1 to pigeons - 1 do
        Sat.add_clause s [ Lit.neg_of_var v.(p1).(h); Lit.neg_of_var v.(p2).(h) ]
      done
    done
  done;
  s

let solve_pigeonhole_sub ~proof ~pigeons ~holes =
  let open Pmi_smt in
  let s = pigeonhole_cnf ~proof ~pigeons ~holes in
  match Sat.solve s with
  | Sat.Unsat -> s
  | Sat.Sat _ -> failwith "bench: pigeonhole must be unsat"

let solve_pigeonhole ~pigeons ~holes =
  ignore (solve_pigeonhole_sub ~proof:false ~pigeons ~holes)

let certify_pigeonhole ~pigeons ~holes =
  let s = solve_pigeonhole_sub ~proof:true ~pigeons ~holes in
  match Pmi_analysis.Drat.check (Pmi_smt.Sat.proof s) with
  | Ok () -> ()
  | Error _ -> failwith "bench: pigeonhole certificate rejected"

(* A fixed random 3-SAT instance near the phase transition (120 vars,
   510 clauses), generated by a deterministic LCG so every run and every
   engine version solves the same formula. *)
let random_3sat_clauses =
  let state = ref 0x12345 in
  let next bound =
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    !state mod bound
  in
  let n = 120 in
  List.init 510 (fun _ ->
      let rec pick acc =
        if List.length acc = 3 then acc
        else
          let v = next n in
          if List.exists (fun l -> Pmi_smt.Lit.var l = v) acc then pick acc
          else pick (Pmi_smt.Lit.make v (next 2 = 0) :: acc)
      in
      pick [])

(* The expected verdict, established once at fixture time; the benchmark
   body asserts against it, so a verdict flip in a future engine shows up
   as a bench failure rather than a silent timing change. *)
let random_3sat_expected =
  let open Pmi_smt in
  let s = Sat.create () in
  for _ = 1 to 120 do
    ignore (Sat.fresh_var s)
  done;
  List.iter (Sat.add_clause s) random_3sat_clauses;
  match Sat.solve s with Sat.Sat _ -> true | Sat.Unsat -> false

let solve_random_3sat () =
  let open Pmi_smt in
  let s = Sat.create () in
  for _ = 1 to 120 do
    ignore (Sat.fresh_var s)
  done;
  List.iter (Sat.add_clause s) random_3sat_clauses;
  match Sat.solve s with
  | Sat.Sat model ->
    if not random_3sat_expected then failwith "bench: 3-SAT verdict flipped";
    if
      not
        (List.for_all
           (List.exists (fun l ->
                if Lit.is_pos l then model.(Lit.var l)
                else not model.(Lit.var l)))
           random_3sat_clauses)
    then failwith "bench: 3-SAT model violates a clause"
  | Sat.Unsat ->
    if random_3sat_expected then failwith "bench: 3-SAT verdict flipped"

let eval_schemes =
  Pmi_eval.Blocks.spec_subset ~size:40
    (List.concat_map (Catalog.bucket zen)
       [ "blocking/alu"; "blocking/vec-logic"; "blocking/vec-int";
         "blocking/fp-mul-cmp"; "blocking/shuffle"; "blocking/fp-add" ])

let eval_blocks =
  Pmi_eval.Blocks.generate ~count:50 ~block_size:5 eval_schemes

(* A larger sweep for the domain-pool benchmarks, so the per-item work
   amortises the domain spawns. *)
let sweep_blocks =
  Pmi_eval.Blocks.generate ~seed:7 ~count:800 ~block_size:5 eval_schemes

let ground_truth = Machine.ground_truth zen_machine

let zen_oracle =
  let o = Oracle.create ground_truth in
  Oracle.prepare o (Experiment.schemes zen_block);
  Oracle.prepare o eval_schemes;
  o

(* Standing accumulator holding [zen_block]; the incremental benchmark
   perturbs it by one scheme, queries, and restores it. *)
let zen_acc =
  let acc = Oracle.Acc.create ground_truth in
  List.iter
    (fun (s, n) -> Oracle.Acc.add acc s n)
    (Experiment.to_counts zen_block);
  acc

let acc_delta = List.hd (Experiment.schemes zen_block)

let predict_sweep domains =
  ignore
    (Pool.map_list ~domains
       (fun e -> Oracle.inverse_bounded ~r_max:5 zen_oracle e)
       sweep_blocks)

(* ------------------------------------------------------------------ *)
(* Tests: (name, body) pairs, shared by bechamel and the smoke mode    *)
(* ------------------------------------------------------------------ *)

let micro_tests =
  [ (* Ablation: the bottleneck-set formula vs the explicit simplex LP. *)
    ("oracle/bottleneck-formula", fun () ->
        ignore (Throughput.inverse toy_mapping toy_experiment));
    ("oracle/simplex-lp", fun () ->
        ignore (Lp_model.inverse toy_mapping toy_experiment));
    (* Naive baseline vs the memoized oracle on the same Zen block. *)
    ("oracle/zen-block", fun () ->
        ignore (Throughput.inverse_bounded ~r_max:5 ground_truth zen_block));
    ("oracle/memoized-full", fun () ->
        ignore (Oracle.inverse_bounded ~r_max:5 zen_oracle zen_block));
    ("oracle/memoized", fun () ->
        (* ±one scheme on a standing accumulator + query: the inner step of
           the stratified CEGIS search. *)
        Oracle.Acc.add zen_acc acc_delta 1;
        ignore (Oracle.Acc.inverse_bounded ~r_max:5 zen_acc);
        Oracle.Acc.remove zen_acc acc_delta 1);
    (* Machine and harness costs per measurement. *)
    ("machine/measure-cycles", fun () ->
        ignore (Machine.measure_cycles zen_machine ~rep:0 zen_block));
    ("harness/median-of-11", fun () ->
        ignore (Harness.cycles (Harness.create zen_machine) zen_block));
    (* SAT solver on classic instances. *)
    ("sat/pigeonhole-7-6", fun () -> solve_pigeonhole ~pigeons:7 ~holes:6);
    ("sat/pigeonhole-8-7", fun () -> solve_pigeonhole ~pigeons:8 ~holes:7);
    ("sat/pigeonhole-9-8", fun () -> solve_pigeonhole ~pigeons:9 ~holes:8);
    ("sat/random-3sat", fun () -> solve_random_3sat ()) ]

let characterize_fixture =
  let blockers_ports =
    [ ("blocking/alu", [ 6; 7; 8; 9 ]); ("blocking/vec-logic", [ 0; 1; 2; 3 ]);
      ("blocking/load", [ 4; 5 ]); ("blocking/vec-shift", [ 2 ]) ]
  in
  let counter_free =
    List.map
      (fun (bucket, ports) ->
         { Port_usage.scheme = List.hd (Catalog.bucket zen bucket);
           ports = Portset.of_list ports })
      blockers_ports
  in
  let with_counters =
    List.map
      (fun (bucket, ports) ->
         (List.hd (Catalog.bucket zen bucket), Portset.of_list ports))
      blockers_ports
  in
  let target = List.hd (Catalog.bucket zen "regular/scalar-load") in
  (counter_free, with_counters, target)

let ablation_tests =
  [ (* The paper's headline trade: Algorithm 1 with per-port counters vs
       the counter-free throughput-difference replacement. *)
    ("ablation/characterize-counter-free", fun () ->
        let counter_free, _, target = characterize_fixture in
        match Port_usage.characterize zen_harness ~blockers:counter_free target with
        | Port_usage.Usage _ -> ()
        | Port_usage.Failed _ -> failwith "bench: characterisation failed");
    ("ablation/characterize-uops-info", fun () ->
        let _, with_counters, target = characterize_fixture in
        ignore (Uops_info.characterize zen_machine ~blockers:with_counters target));
    (* Symmetry breaking: CEGIS convergence cost with and without.
       [cegis-with-symmetry] is the default toy inference, the baseline
       every other cegis_toy ablation below compares against. *)
    ("ablation/cegis-with-symmetry", fun () ->
        ignore (cegis_toy ~symmetry_breaking:true ~max_size:4 ()));
    ("ablation/cegis-no-symmetry", fun () ->
        ignore (cegis_toy ~symmetry_breaking:false ~max_size:4 ()));
    (* Stratification bound of the distinguishing-experiment search. *)
    ("ablation/cegis-bound-3", fun () ->
        ignore (cegis_toy ~symmetry_breaking:true ~max_size:3 ()));
    ("ablation/cegis-bound-6", fun () ->
        ignore (cegis_toy ~symmetry_breaking:true ~max_size:6 ()));
    (* Durable store warm start: the identical harness-backed inference
       against an empty store (every observation measured at reps:3001
       and persisted) vs a store already holding the history (CEGIS
       replays it; zero machine measurements).  The warm run must be well
       over 5× faster — the measurement tier dominates, as on real
       hardware. *)
    ("ablation/cegis-warm-start-cold", fun () ->
        let dir = temp_store_dir () in
        Fun.protect
          ~finally:(fun () -> remove_store_dir dir)
          (fun () -> ignore (warm_start_infer dir)));
    ("ablation/cegis-warm-start-warm", fun () ->
        ignore (warm_start_infer ~warm:true (Lazy.force warm_start_store)));
    (* Proof logging (trust-but-verify): the trace-recording overhead on an
       UNSAT workhorse, the independent checker on top of it, and a fully
       certified CEGIS run (its baseline is ablation/cegis-with-symmetry
       above).  Compare proof-off vs proof-log for the logging tax, and
       proof-log vs proof-check for the checker's own cost. *)
    ("ablation/proof-off-pigeonhole-7-6", fun () ->
        solve_pigeonhole ~pigeons:7 ~holes:6);
    ("ablation/proof-log-pigeonhole-7-6", fun () ->
        ignore (solve_pigeonhole_sub ~proof:true ~pigeons:7 ~holes:6));
    ("ablation/proof-check-pigeonhole-7-6", fun () ->
        certify_pigeonhole ~pigeons:7 ~holes:6);
    ("ablation/cegis-certified", fun () ->
        ignore (cegis_toy ~certify:true ~symmetry_breaking:true ~max_size:4 ()));
    (* EncLint: the solver-off static analyzer gating every solver episode
       (structural checks per episode, exhaustive cardinality-cone
       verification once per network shape).  The analysis tax over the
       ungated ablation/cegis-with-symmetry must stay small — the gate is
       a debugging aid, not a solver pass. *)
    ("ablation/enclint-on-cegis", fun () ->
        ignore (cegis_toy ~enclint:true ~symmetry_breaking:true ~max_size:4 ()));
    (* Concurrency sanitizer: the toy inference with its distinguishing
       search and validation sweep fanned out over 2 domains, with the race
       detector off (the shipping default — one predicted branch per
       instrumentation point) and on (all shadow bookkeeping under the
       global detector mutex). *)
    ("ablation/sanitize-off-cegis-domains-2", fun () ->
        ignore (cegis_toy ~domains:2 ~symmetry_breaking:true ~max_size:4 ()));
    ("ablation/sanitize-on-cegis-domains-2", fun () ->
        Pmi_diag.Race.enable ();
        Fun.protect
          ~finally:Pmi_diag.Race.disable
          (fun () ->
             ignore
               (cegis_toy ~domains:2 ~symmetry_breaking:true ~max_size:4 ())));
    (* Telemetry: the toy inference with tracing on (spans into the
       per-domain rings, counters on atomics); tracing off is
       ablation/cegis-with-symmetry, which must stay within noise of the
       pre-telemetry numbers. *)
    ("ablation/obs-on-cegis", fun () ->
        Pmi_obs.Obs.enable ();
        Fun.protect
          ~finally:Pmi_obs.Obs.disable
          (fun () ->
             ignore (cegis_toy ~symmetry_breaking:true ~max_size:4 ()))) ]

let parallel_tests =
  [ (* The validation/prediction sweep, sequential vs the domain pool. *)
    ("parallel/predict-seq", fun () -> predict_sweep 1);
    ("parallel/predict-domains", fun () ->
        predict_sweep (Pool.default_domains ())) ]

let table_figure_tests =
  [ (* Table 1: stage-1 classification + candidate filtering. *)
    ("table1/blocking-classes", fun () ->
        let harness = reduced_harness () in
        let catalog = Machine.catalog (Harness.machine harness) in
        let candidates =
          Array.to_list (Catalog.schemes catalog)
          |> List.filter_map (fun s ->
              match Blocking.classify_individual harness s with
              | Blocking.Candidate n -> Some (s, n)
              | Blocking.Hardwired | Blocking.Unreliable | Blocking.Zero_uop
              | Blocking.Outside_model | Blocking.Multi_uop _ -> None)
        in
        let result = Blocking.filter_candidates harness candidates in
        assert (List.length result.Blocking.classes = 13));
    (* Table 2 + funnel: the whole pipeline on the reduced catalog. *)
    ("table2+funnel/pipeline", fun () ->
        let harness = reduced_harness () in
        let result = Pipeline.run harness in
        assert (result.Pipeline.funnel.Pipeline.blocking_classes = 13));
    (* Figure 5: per-model prediction cost over 50 blocks. *)
    ("figure5/ours-predictions", fun () ->
        List.iter
          (fun e -> ignore (Oracle.inverse_bounded ~r_max:5 zen_oracle e))
          eval_blocks);
    ("figure5/pmevo-inference", fun () ->
        let config =
          { Pmi_baselines.Pmevo.default_config with
            Pmi_baselines.Pmevo.population = 12; generations = 5 }
        in
        let training =
          Pmi_baselines.Pmevo.training_set ~pairs:40 ~blocks:20 zen_harness
            eval_schemes
        in
        ignore (Pmi_baselines.Pmevo.infer ~config training eval_schemes));
    ("figure5/palmed-inference", fun () ->
        let config =
          { Pmi_baselines.Palmed.default_config with
            Pmi_baselines.Palmed.throughput_classes = 16 }
        in
        ignore (Pmi_baselines.Palmed.infer ~config zen_harness eval_schemes)) ]

let sections =
  [ ("micro-benchmarks", micro_tests);
    ("ablations (DESIGN.md)", ablation_tests);
    ("parallel sweeps", parallel_tests);
    ("table/figure regeneration", table_figure_tests) ]

(* ------------------------------------------------------------------ *)
(* Drivers                                                             *)
(* ------------------------------------------------------------------ *)

let benchmark tests =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:40 ~quota:(Time.second 1.0) ~kde:(Some 10) ()
  in
  List.concat_map
    (fun (name, fn) ->
       let t = Test.make ~name (Staged.stage fn) in
       let raw = Benchmark.all cfg instances t in
       List.concat_map
         (fun instance ->
            let results = Analyze.all ols instance raw in
            Hashtbl.fold
              (fun name ols_result acc ->
                 match Analyze.OLS.estimates ols_result with
                 | Some [ per_run ] ->
                   Format.printf "%-36s %12.1f ns/run@." name per_run;
                   (name, per_run) :: acc
                 | Some _ | None ->
                   Format.printf "%-36s (no estimate)@." name;
                   acc)
              results [])
         instances)
    tests

let smoke tests =
  List.map
    (fun (name, fn) ->
       let t0 = Sys.time () in
       fn ();
       let ns = (Sys.time () -. t0) *. 1e9 in
       Format.printf "smoke %-36s ok@." name;
       (name, ns))
    tests

(* Aggregated SAT counters of one toy CEGIS inference: a cheap canary for
   solver-behaviour drift (a policy change moves these long before it moves
   wall-clock noise). *)
let solver_stat_records () =
  let stats = cegis_toy ~symmetry_breaking:true ~max_size:4 () in
  let s = stats.Cegis.sat in
  let open Pmi_smt in
  [ ("cegis-toy/sat-decisions", s.Sat.decisions);
    ("cegis-toy/sat-propagations", s.Sat.propagations);
    ("cegis-toy/sat-conflicts", s.Sat.conflicts);
    ("cegis-toy/sat-restarts", s.Sat.restarts);
    ("cegis-toy/sat-learned", s.Sat.learned);
    ("cegis-toy/sat-deleted", s.Sat.deleted);
    ("cegis-toy/sat-max-lbd", s.Sat.max_lbd) ]

(* The warm-start A/B in the units that matter: machine measurements paid
   by the identical harness-backed inference against an empty store and
   against the history it persisted.  The acceptance bar — zero warm
   measurements, zero warm store misses, and a Relabel-aligned agreement
   ratio of 1.0 between the two inferred mappings — is asserted here so
   the bench run itself is the witness. *)
let warm_start_records () =
  let dir = temp_store_dir () in
  Fun.protect ~finally:(fun () -> remove_store_dir dir) @@ fun () ->
  let m_cold, cold_measured, _ = warm_start_infer dir in
  let m_warm, warm_measured, warm_misses = warm_start_infer ~warm:true dir in
  assert (cold_measured > 0);
  assert (warm_measured = 0);
  assert (warm_misses = 0);
  let docs =
    List.filter_map
      (fun (s, _) -> Option.map (fun u -> (s, u)) (Mapping.find_opt m_cold s))
      (warm_start_specs (warm_start_machine ()))
  in
  let agreement =
    match Relabel.align ~docs m_warm with
    | Some a ->
      let renamed = Relabel.apply a.Relabel.permutation m_warm in
      let diff = Diff.compute ~left:m_cold ~right:renamed in
      let ratio = Diff.agreement_ratio diff in
      if ratio < 1.0 then
        Format.printf "warm-start diff (dropped %d):@.%a@."
          (List.length a.Relabel.dropped) (Diff.pp ()) diff;
      ratio
    | None -> 0.0
  in
  assert (agreement = 1.0);
  Format.printf
    "warm-start A/B: %d -> %d machine measurements, %d warm store misses \
     (aligned agreement %.2f)@."
    cold_measured warm_measured warm_misses agreement;
  [ ("warm-start/measurements-cold", cold_measured);
    ("warm-start/measurements-warm", warm_measured);
    ("warm-start/store-misses-warm", warm_misses) ]

(* Telemetry counters of the same toy inference run with tracing on: the
   obs_counters section of the JSON record, a second canary family
   (question-asking volume rather than solver policy). *)
let obs_counter_records () =
  Pmi_obs.Obs.enable ();
  Fun.protect
    ~finally:Pmi_obs.Obs.disable
    (fun () -> ignore (cegis_toy ~symmetry_breaking:true ~max_size:4 ()));
  Pmi_obs.Obs.counters ()

module Gj = Pmi_obs.Json

(* The schema-versioned bench record (see Pmi_obs.Gate): bumping the layout
   means bumping [Gate.schema_version], which makes old and new records
   incomparable rather than silently misread. *)
let bench_record ?(with_stats = true) results =
  let stats =
    if with_stats then
      solver_stat_records () @ warm_start_records ()
    else []
  in
  let obs = if with_stats then obs_counter_records () else [] in
  let timing (name, ns) =
    Gj.Obj [ ("name", Gj.Str name); ("ns_per_run", Gj.Num ns) ]
  in
  let count (name, c) =
    Gj.Obj [ ("name", Gj.Str name); ("count", Gj.Num (float_of_int c)) ]
  in
  Gj.to_string
    (Gj.Obj
       [ ("schema_version", Gj.Num (float_of_int Pmi_obs.Gate.schema_version));
         ("results", Gj.List (List.map timing results @ List.map count stats));
         ("obs_counters", Gj.List (List.map count obs)) ])

let emit_json record path =
  let oc = open_out path in
  output_string oc record;
  output_string oc "\n";
  close_out oc

(* Persist the run record as a [Bench_history] entry of the durable store
   (the --store flag): keyed by content digest, so re-archiving the same
   record is a no-op and distinct runs accumulate for later mining. *)
let archive_record dir record =
  let store = Store.open_ dir in
  Fun.protect
    ~finally:(fun () -> Store.close store)
    (fun () ->
       Store.put store Store.Bench_history
         ~key:(Digest.to_hex (Digest.string record))
         record)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* The regression gate: this run (or [--against FILE]) vs the newest entry
   of a BENCH_sat.json-style history file.  Exit codes: 0 clean, 1
   regressed, 2 incomparable or unreadable. *)
let check_regression ~history ~against results =
  let module Gate = Pmi_obs.Gate in
  let baseline =
    try Gate.latest_history_entry (read_file history)
    with Sys_error msg -> Error msg
  in
  let current =
    match against with
    | Some file ->
      (try Gate.parse_run (read_file file) with Sys_error msg -> Error msg)
    | None ->
      Ok
        { Gate.version = Some Gate.schema_version;
          records =
            List.map
              (fun (name, ns) ->
                 { Gate.name; ns_per_run = Some ns; count = None })
              results }
  in
  match (baseline, current) with
  | Error msg, _ ->
    Printf.eprintf "check-regression: cannot read baseline %s: %s\n" history
      msg;
    exit 2
  | _, Error msg ->
    Printf.eprintf "check-regression: cannot read current run: %s\n" msg;
    exit 2
  | Ok baseline, Ok current ->
    (match Gate.compare_runs ~baseline ~current () with
     | Error msg ->
       Printf.eprintf "check-regression: %s\n" msg;
       exit 2
     | Ok verdicts ->
       print_string (Gate.report verdicts);
       if Gate.regressions verdicts <> [] then exit 1)

let () =
  (* The warm-start A/B alone (cheap, assertion-bearing): the CI
     crash-recovery job runs this without paying for the full suite. *)
  if Sys.getenv_opt "PMI_BENCH_WARM_AB" <> None then begin
    ignore (warm_start_records ());
    exit 0
  end;
  let smoke_mode = ref false in
  let json = ref None in
  let store = ref None in
  let only = ref None in
  let skips = ref [] in
  let regression = ref None in
  let against = ref None in
  let rec parse = function
    | [] -> ()
    | "--smoke" :: rest -> smoke_mode := true; parse rest
    | "--json" :: file :: rest -> json := Some file; parse rest
    | "--store" :: dir :: rest -> store := Some dir; parse rest
    | "--only" :: substr :: rest -> only := Some substr; parse rest
    | "--skip" :: substr :: rest -> skips := substr :: !skips; parse rest
    | "--check-regression" :: file :: rest -> regression := Some file; parse rest
    | "--against" :: file :: rest -> against := Some file; parse rest
    | arg :: _ ->
      Printf.eprintf
        "usage: %s [--smoke] [--only SUBSTR] [--skip SUBSTR]... [--json FILE] \
         [--store DIR] [--check-regression HISTORY [--against FILE]]\n\
         unknown argument %s\n"
        Sys.argv.(0) arg;
      exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  match (!regression, !against) with
  | Some history, (Some _ as against) ->
    (* Pure gate mode: both sides come from files, nothing runs. *)
    check_regression ~history ~against []
  | regression, _ ->
    let driver = if !smoke_mode then smoke else benchmark in
    let contains hay needle =
      let nh = String.length hay and nn = String.length needle in
      let rec at i =
        i + nn <= nh && (String.sub hay i nn = needle || at (i + 1))
      in
      at 0
    in
    let keep name =
      (match !only with None -> true | Some s -> contains name s)
      && not (List.exists (contains name) !skips)
    in
    let results =
      List.concat_map
        (fun (title, tests) ->
           match List.filter (fun (name, _) -> keep name) tests with
           | [] -> []
           | tests ->
             Format.printf "== %s ==@." title;
             let rs = driver tests in
             Format.printf "@.";
             rs)
        sections
    in
    (match (!json, !store) with
     | None, None -> ()
     | json, store ->
       let record =
         bench_record ~with_stats:(!only = None && !skips = []) results
       in
       Option.iter (emit_json record) json;
       Option.iter (fun dir -> archive_record dir record) store);
    (match regression with
     | None -> Format.printf "done.@."
     | Some history ->
       Format.printf "done.@.";
       check_regression ~history ~against:None results)
