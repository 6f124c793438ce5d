open Pmi_isa
open Pmi_portmap
open Pmi_core
module Rat = Pmi_numeric.Rat

let rat = Alcotest.testable Rat.pp Rat.equal

(* ------------------------------------------------------------------ *)
(* Uop_count (§3.1, §4.1.1)                                            *)
(* ------------------------------------------------------------------ *)

let zen = Catalog.zen_plus ()
let machine = Pmi_machine.Machine.create ~config:Pmi_machine.Machine.quiet_config zen
let harness = Pmi_measure.Harness.create machine

let first bucket = List.hd (Catalog.bucket zen bucket)

let test_memory_adjustment () =
  let check bucket expected =
    Alcotest.(check int) bucket expected
      (Uop_count.memory_uop_adjustment (first bucket))
  in
  check "blocking/alu" 0;
  check "regular/scalar-load" 1;   (* one ≤128-bit memory read *)
  check "regular/rmw" 1;           (* one read-written operand *)
  check "regular/ymm-load" 2;      (* 256-bit memory operand *)
  check "store/scalar" 1;          (* the paper's storing-mov correction *)
  check "blocking/load" 0;         (* loading movs excluded *)
  Alcotest.(check int) "lea excluded" 0
    (Uop_count.memory_uop_adjustment
       (List.find (fun s -> Scheme.is_lea s) (Catalog.bucket zen "blocking/alu")))

let test_postulated_uops () =
  let check bucket expected =
    Alcotest.(check int) bucket expected
      (Uop_count.postulated_uops harness (first bucket))
  in
  check "blocking/alu" 1;
  check "regular/scalar-load" 2;
  check "regular/ymm" 2;
  check "regular/ymm-load" 4;
  check "store/vec" 2

let test_uops_on_blocked_ports () =
  (* The §3.1 example: fma's u2 cannot evade the flooded port; with the
     Figure 2 mapping, 3 blocking muls measure 3 cycles alone and 4 with
     the fma. *)
  let vpslld = first "blocking/vec-shift" in
  let add = first "blocking/alu" in
  let imul = first "blocking/scalar-mul" in
  (* imul's µop lives on an ALU port: flooding all four ALU ports with adds
     must reveal one µop (the anomaly's phantom pressure adds another). *)
  let blocked = Experiment.replicate 16 add in
  let with_i = Experiment.add imul blocked in
  let uops =
    Uop_count.uops_on_blocked_ports harness ~blocked ~with_i ~port_set_size:4
  in
  Alcotest.(check bool) "imul leaves µops on the ALU cluster" true
    (Rat.compare uops Rat.one >= 0);
  (* A vector shift evades the ALU ports entirely. *)
  let with_shift = Experiment.add vpslld blocked in
  Alcotest.check rat "vpslld evades" Rat.zero
    (Uop_count.uops_on_blocked_ports harness ~blocked ~with_i:with_shift
       ~port_set_size:4)

let test_round_uops () =
  Alcotest.(check (option int)) "exact" (Some 2)
    (Uop_count.round_uops ~tolerance:0.1 (Rat.of_int 2));
  Alcotest.(check (option int)) "near" (Some 2)
    (Uop_count.round_uops ~tolerance:0.1 (Rat.of_ints 195 100));
  Alcotest.(check (option int)) "too far" None
    (Uop_count.round_uops ~tolerance:0.1 (Rat.of_ints 15 10));
  Alcotest.(check (option int)) "negative noise is zero" (Some 0)
    (Uop_count.round_uops ~tolerance:0.1 (Rat.of_ints (-2) 100))

(* ------------------------------------------------------------------ *)
(* Blocking: stage-1 classification (§4.1)                             *)
(* ------------------------------------------------------------------ *)

let noisy_machine = Pmi_machine.Machine.create zen
let noisy_harness = Pmi_measure.Harness.create noisy_machine

let test_classify_individual () =
  let classify bucket =
    Blocking.classify_individual noisy_harness (first bucket)
  in
  let check bucket expected = Alcotest.(check bool) bucket true (classify bucket = expected) in
  check "blocking/alu" (Blocking.Candidate 4);
  check "blocking/vec-int" (Blocking.Candidate 3);
  check "blocking/fp-add" (Blocking.Candidate 2);
  check "blocking/vec-shift" (Blocking.Candidate 1);
  check "blocking/scalar-mul" (Blocking.Candidate 1);
  check "blocking/vec-mul-hard" (Blocking.Candidate 1);
  check "excluded/zero-uop" Blocking.Zero_uop;
  check "regular/ymm" (Blocking.Multi_uop 2);
  check "microcoded" (Blocking.Multi_uop 8);
  (match classify "excluded/fp-slow" with
   | Blocking.Outside_model -> ()
   | Blocking.Hardwired | Blocking.Unreliable | Blocking.Zero_uop
   | Blocking.Candidate _ | Blocking.Multi_uop _ ->
     Alcotest.fail "divider should be outside the model");
  (match classify "excluded/mov64-imm" with
   | Blocking.Unreliable -> ()
   | Blocking.Hardwired | Blocking.Zero_uop | Blocking.Outside_model
   | Blocking.Candidate _ | Blocking.Multi_uop _ ->
     Alcotest.fail "mov64-imm should be unreliable");
  (match classify "excluded/high-byte" with
   | Blocking.Hardwired -> ()
   | Blocking.Unreliable | Blocking.Zero_uop | Blocking.Outside_model
   | Blocking.Candidate _ | Blocking.Multi_uop _ ->
     Alcotest.fail "high-byte operands cannot be measured dependency-free")

let test_additivity () =
  let vpslld = first "blocking/vec-shift" in
  let vroundps = first "blocking/fp-round" in
  let imul = first "blocking/scalar-mul" in
  let imul2 = List.nth (Catalog.bucket zen "blocking/scalar-mul") 1 in
  Alcotest.(check bool) "same class additive" true
    (Blocking.additive noisy_harness imul imul2);
  Alcotest.(check bool) "disjoint 1-port classes not additive" false
    (Blocking.additive noisy_harness vpslld vroundps);
  Alcotest.(check bool) "imul vs vpslld not additive" false
    (Blocking.additive noisy_harness imul vpslld)

let test_filter_candidates_small () =
  (* A reduced catalog keeps the pairing stage fast while retaining the
     class structure, the unstable cmovs and the contradictory fmas. *)
  let small = Catalog.reduced ~per_bucket:4 () in
  let m = Pmi_machine.Machine.create small in
  let h = Pmi_measure.Harness.create m in
  let candidates =
    Array.to_list (Catalog.schemes small)
    |> List.filter_map (fun s ->
        match Blocking.classify_individual h s with
        | Blocking.Candidate n -> Some (s, n)
        | Blocking.Hardwired | Blocking.Unreliable | Blocking.Zero_uop
        | Blocking.Outside_model | Blocking.Multi_uop _ -> None)
  in
  let result = Blocking.filter_candidates h candidates in
  (* 13 classes as in Table 1. *)
  Alcotest.(check int) "13 classes" 13 (List.length result.Blocking.classes);
  (* cmov and friends are dropped as unstable, fma as contradictory. *)
  Alcotest.(check bool) "cmov dropped" true
    (List.exists (fun s -> Scheme.quirk s = Some Iclass.Pair_unstable)
       result.Blocking.unstable);
  Alcotest.(check bool) "fma dropped as contradictory" true
    (result.Blocking.contradictory <> []
     && List.for_all (fun s -> Scheme.quirk s = Some Iclass.Fma_lines)
          result.Blocking.contradictory);
  (* Port counts per class follow Table 1's column. *)
  let counts =
    List.map (fun c -> c.Blocking.port_count) result.Blocking.classes
    |> List.sort compare
  in
  Alcotest.(check (list int)) "port counts"
    [ 1; 1; 1; 1; 1; 2; 2; 2; 2; 2; 3; 4; 4 ] counts;
  (* Every class must be quirk-homogeneous enough that its members share
     ground-truth structure. *)
  List.iter
    (fun c ->
       let repr_usage =
         Pmi_machine.Ground_truth.usage_of_structure
           (Scheme.klass c.Blocking.representative).Iclass.structure
       in
       List.iter
         (fun s ->
            let u =
              Pmi_machine.Ground_truth.usage_of_structure
                (Scheme.klass s).Iclass.structure
            in
            Alcotest.(check bool)
              (Printf.sprintf "class of %s is homogeneous"
                 (Scheme.name c.Blocking.representative))
              true
              (Mapping.equal_usage u repr_usage))
         c.Blocking.members)
    result.Blocking.classes

let test_table1_full_catalog () =
  (* Table 1 of EXPERIMENTS.md on the full Zen+ catalog: stage 1 and
     stage 2 exactly as [Pipeline.run] calls them, on the default noisy
     machine (seed 42). *)
  let m = Pmi_machine.Machine.create zen in
  let h = Pmi_measure.Harness.create m in
  let r_max = Pmi_machine.Machine.r_max m in
  let config =
    { Blocking.default_config with Blocking.r_max; max_ports = r_max - 1 }
  in
  let candidates =
    Array.to_list (Catalog.schemes zen)
    |> List.filter_map (fun s ->
        match Blocking.classify_individual ~config h s with
        | Blocking.Candidate n -> Some (s, n)
        | Blocking.Hardwired | Blocking.Unreliable | Blocking.Zero_uop
        | Blocking.Outside_model | Blocking.Multi_uop _ -> None)
  in
  let result = Blocking.filter_candidates ~config h candidates in
  Alcotest.(check (list string)) "Table 1 rows"
    [ "4 add <GPR[32]>, <GPR[32]> 234";
      "4 vpor <XMM>, <XMM>, <XMM> 21";
      "3 vpaddd <XMM>, <XMM>, <XMM> 30";
      "2 vminps <XMM>, <XMM>, <XMM> 143";
      "2 vbroadcastss <XMM>, <XMM> 50";
      "2 vpaddsw <XMM>, <XMM>, <XMM> 17";
      "2 vaddps <XMM>, <XMM>, <XMM> 10";
      "2 mov <GPR[32]>, <MEM[32]> 6";
      "1 vpslld <XMM>, <XMM>, <XMM> 27";
      "1 vpmuldq <XMM>, <XMM>, <XMM> 10";
      "1 imul <GPR[32]>, <GPR[32]> 9";
      "1 vroundps <XMM>, <XMM>, <IMM[8]> 4";
      "1 vmovd <XMM>, <GPR[32]> 2" ]
    (List.map
       (fun c ->
          Printf.sprintf "%d %s %d" c.Blocking.port_count
            (Scheme.name c.Blocking.representative)
            (List.length c.Blocking.members))
       result.Blocking.classes);
  Alcotest.(check int) "unstable" 80 (List.length result.Blocking.unstable);
  Alcotest.(check int) "contradictory" 48
    (List.length result.Blocking.contradictory)

(* ------------------------------------------------------------------ *)
(* CEGIS on toy architectures (§3.3, Figure 4)                         *)
(* ------------------------------------------------------------------ *)

let toy_catalog n =
  Catalog.of_list
    (List.init n (fun i ->
         (Printf.sprintf "i%c" (Char.chr (Char.code 'A' + i)),
          [ Operand.gpr 32 ], Iclass.plain (Iclass.Single Iclass.Alu))))

let cegis_config num_ports =
  { Cegis.default_config with
    Cegis.num_ports;
    r_max = num_ports + 1;
    max_experiment_size = 4 }

(* Infer with perfect measurements from a hidden mapping and check the
   result is throughput-equivalent to the truth on all small experiments. *)
let run_cegis ?(num_ports = 2) ?(domains = 1) truth_usage =
  let catalog = toy_catalog (List.length truth_usage) in
  let truth = Mapping.create ~num_ports in
  List.iteri
    (fun i usage -> Mapping.set truth (Catalog.find catalog i) usage)
    truth_usage;
  let config = { (cegis_config num_ports) with Cegis.domains } in
  let measure e = Cegis.modeled_inverse config truth e in
  let specs =
    List.mapi
      (fun i usage ->
         let ports =
           List.fold_left (fun acc (p, _) -> acc + Portset.cardinal p) 0 usage
         in
         (Catalog.find catalog i, Encoding.Proper ports))
      truth_usage
  in
  (truth, config, Cegis.infer ~config ~measure ~specs ())

let check_equivalent config truth inferred schemes =
  let exception Different of Experiment.t in
  let scheme_list = schemes in
  match
    List.iter
      (fun size ->
         let rec enum acc remaining size =
           match (remaining, size) with
           | _, 0 ->
             let e = Experiment.of_counts acc in
             if not (Experiment.is_empty e) then begin
               let t1 = Cegis.modeled_inverse config truth e in
               let t2 = Cegis.modeled_inverse config inferred e in
               if not (Rat.equal t1 t2) then raise (Different e)
             end
           | [], _ -> ()
           | s :: rest, _ ->
             for c = 0 to size do
               enum (if c = 0 then acc else (s, c) :: acc) rest (size - c)
             done
         in
         ignore (enum [] scheme_list size))
      [ 1; 2; 3; 4 ]
  with
  | () -> ()
  | exception Different e ->
    Alcotest.failf "inferred mapping differs from truth on %s"
      (Experiment.to_string e)

(* Two 1-port instructions sharing a port: Figure 4(b). *)
let figure4b_usage =
  let p0 = Portset.singleton 0 in
  [ [ (p0, 1) ]; [ (p0, 1) ] ]

(* A 3-port universe with overlapping sets. *)
let three_port_usage =
  [ [ (Portset.of_list [ 0; 1 ], 1) ];
    [ (Portset.of_list [ 1; 2 ], 1) ];
    [ (Portset.singleton 2, 1) ] ]

let test_cegis_figure4 () =
  (* The paper's distinguishing experiment for the competing hypothesis
     (disjoint ports, Figure 4(a)) is [iA, iB]. *)
  let truth, config, outcome = run_cegis figure4b_usage in
  match outcome with
  | Cegis.Converged (m, stats) ->
    check_equivalent config truth m
      (List.map fst (Mapping.schemes m |> List.map (fun s -> (s, ()))));
    Alcotest.(check bool) "needed a distinguishing experiment" true
      (List.length stats.Cegis.observations > 2)
  | Cegis.No_consistent_mapping _ -> Alcotest.fail "unexpected UNSAT"
  | Cegis.Iteration_limit _ -> Alcotest.fail "iteration limit"

let test_cegis_disjoint () =
  let p0 = Portset.singleton 0 and p1 = Portset.singleton 1 in
  let truth, config, outcome = run_cegis [ [ (p0, 1) ]; [ (p1, 1) ] ] in
  match outcome with
  | Cegis.Converged (m, _) ->
    check_equivalent config truth m (Mapping.schemes m)
  | Cegis.No_consistent_mapping _ -> Alcotest.fail "unexpected UNSAT"
  | Cegis.Iteration_limit _ -> Alcotest.fail "iteration limit"

let test_cegis_three_instructions () =
  let truth, config, outcome = run_cegis ~num_ports:3 three_port_usage in
  match outcome with
  | Cegis.Converged (m, _) -> check_equivalent config truth m (Mapping.schemes m)
  | Cegis.No_consistent_mapping _ -> Alcotest.fail "unexpected UNSAT"
  | Cegis.Iteration_limit _ -> Alcotest.fail "iteration limit"

(* The default search path, pinned: the exact mapping, loop counters and
   solver counters [Cegis.infer] reaches with the default config on the
   Figure 4(b) and 3-port fixtures.  A change to the default search (SAT
   engine, encoding, oracle, distinguishing order) must show up as a
   deliberate edit of these numbers. *)
type pinned = {
  rows : string list;  (* inferred usage per scheme, catalog order *)
  iterations : int;
  candidates_tried : int;
  theory_lemmas : int;
  sat_episodes : int;
  conflicts : int;
  propagations : int;
}

let pinned_of_outcome = function
  | Cegis.Converged (m, stats) ->
    { rows =
        List.map
          (fun s -> Mapping.usage_to_string (Mapping.usage m s))
          (Mapping.schemes m);
      iterations = stats.Cegis.iterations;
      candidates_tried = stats.Cegis.candidates_tried;
      theory_lemmas = stats.Cegis.theory_lemmas;
      sat_episodes = stats.Cegis.sat_episodes;
      conflicts = stats.Cegis.sat.Pmi_smt.Sat.conflicts;
      propagations = stats.Cegis.sat.Pmi_smt.Sat.propagations }
  | Cegis.No_consistent_mapping _ -> Alcotest.fail "unexpected UNSAT"
  | Cegis.Iteration_limit _ -> Alcotest.fail "iteration limit"

let check_pinned expected actual =
  Alcotest.(check (list string)) "mapping" expected.rows actual.rows;
  Alcotest.(check int) "iterations" expected.iterations actual.iterations;
  Alcotest.(check int) "candidates_tried" expected.candidates_tried
    actual.candidates_tried;
  Alcotest.(check int) "theory_lemmas" expected.theory_lemmas
    actual.theory_lemmas;
  Alcotest.(check int) "sat_episodes" expected.sat_episodes
    actual.sat_episodes;
  Alcotest.(check int) "sat.conflicts" expected.conflicts actual.conflicts;
  Alcotest.(check int) "sat.propagations" expected.propagations
    actual.propagations

let test_cegis_pinned_figure4b () =
  let _, _, outcome = run_cegis figure4b_usage in
  check_pinned
    { rows = [ "[0]"; "[0]" ];
      iterations = 2; candidates_tried = 2; theory_lemmas = 1;
      sat_episodes = 5; conflicts = 3; propagations = 36 }
    (pinned_of_outcome outcome)

let test_cegis_pinned_three_ports () =
  (* [iB] lands on [0,2], not the truth's [1,2]: this is the truth with
     ports 0 and 1 swapped, the column order symmetry breaking keeps. *)
  let _, _, outcome = run_cegis ~num_ports:3 three_port_usage in
  check_pinned
    { rows = [ "[0,1]"; "[0,2]"; "[2]" ];
      iterations = 3; candidates_tried = 5; theory_lemmas = 3;
      sat_episodes = 9; conflicts = 13; propagations = 218 }
    (pinned_of_outcome outcome)

(* Ten specs on five ports: enough schemes and observations that SAT
   models repeat the rows of most observed schemes (the theory-check memo
   hits) and candidate pairs differ on only a few rows (the distinguishing
   search prunes). *)
let ten_spec_usage =
  let ps = Portset.of_list in
  [ [ (ps [ 0; 1 ], 1) ]; [ (ps [ 1; 2 ], 1) ]; [ (ps [ 2 ], 1) ];
    [ (ps [ 0; 2 ], 1) ]; [ (ps [ 3; 4 ], 1) ]; [ (ps [ 4 ], 1) ];
    [ (ps [ 0; 1; 2 ], 1) ]; [ (ps [ 3 ], 1) ]; [ (ps [ 1; 3 ], 1) ];
    [ (ps [ 2; 4 ], 1) ] ]

let test_cegis_pinned_ten_specs () =
  let _, _, outcome = run_cegis ~num_ports:5 ten_spec_usage in
  check_pinned
    { rows =
        [ "[0,1]"; "[0,2]"; "[2]"; "[1,2]"; "[3,4]"; "[3]"; "[0,1,2]"; "[4]";
          "[0,4]"; "[2,3]" ];
      iterations = 25; candidates_tried = 32; theory_lemmas = 113;
      sat_episodes = 58; conflicts = 186; propagations = 19537 }
    (pinned_of_outcome outcome)

(* 22 ports: past the dense oracle's 20-port table bound, so only the
   point-mass accumulator can evaluate candidates and experiments. *)
let test_cegis_many_ports () =
  let ps = Portset.of_list in
  let usage = [ [ (ps [ 0 ], 1) ]; [ (ps [ 0 ], 1) ]; [ (ps [ 0; 1 ], 1) ] ] in
  let truth, config, outcome = run_cegis ~num_ports:22 usage in
  match outcome with
  | Cegis.Converged (m, _) ->
    check_equivalent config truth m (Mapping.schemes m);
    Alcotest.(check (list string)) "mapping" [ "[0]"; "[0]"; "[0,1]" ]
      (List.map
         (fun s -> Mapping.usage_to_string (Mapping.usage m s))
         (Mapping.schemes m))
  | Cegis.No_consistent_mapping _ -> Alcotest.fail "unexpected UNSAT"
  | Cegis.Iteration_limit _ -> Alcotest.fail "iteration limit"

let test_cegis_parallel_matches_sequential () =
  (* [domains > 1] fans out only the distinguishing-experiment search and
     the validation sweep, both of which return the first hit in the
     sequential order; the SAT episodes stay sequential.  So the parallel
     run must retrace the sequential one exactly: same mapping, same
     counters. *)
  let _, _, sequential = run_cegis ~num_ports:3 three_port_usage in
  let _, _, parallel = run_cegis ~num_ports:3 ~domains:3 three_port_usage in
  check_pinned (pinned_of_outcome sequential) (pinned_of_outcome parallel)

let test_cegis_unsat_on_anomaly () =
  (* Measurements that violate the port-mapping model (the §4.3 imul
     anomaly: 4 four-port adds plus a one-port imul at 1.5 cycles) must
     drive findMapping to UNSAT. *)
  let catalog = toy_catalog 2 in
  let i_add = Catalog.find catalog 0 in
  let i_mul = Catalog.find catalog 1 in
  (* Five ports keep "imul disjoint from add's ports" as a live hypothesis,
     so the CEGIS loop generates the 4-add-plus-imul experiment (size 5)
     that exposes the anomaly. *)
  let config =
    { (cegis_config 5) with Cegis.r_max = 6; max_experiment_size = 5 }
  in
  let measure e =
    let n_add = Experiment.count e i_add in
    let n_mul = Experiment.count e i_mul in
    if n_add = 4 && n_mul = 1 then Rat.of_ints 3 2
    else
      (* Otherwise behave like add on 4 ports, imul on 1 of them. *)
      Rat.max
        (Rat.of_ints (Experiment.length e) config.Cegis.r_max)
        (Rat.max (Rat.of_int n_mul) (Rat.of_ints (n_add + n_mul) 4))
  in
  let specs = [ (i_add, Encoding.Proper 4); (i_mul, Encoding.Proper 1) ] in
  match Cegis.infer ~config ~measure ~specs () with
  | Cegis.No_consistent_mapping _ -> ()
  | Cegis.Converged (m, _) ->
    (* Acceptable only if the anomalous experiment was never generated;
       in that case the mapping must at least explain everything else.
       We treat this as failure to keep the reproduction honest. *)
    Alcotest.failf "expected UNSAT, converged to:\n%s"
      (Format.asprintf "%a" Mapping.pp m)
  | Cegis.Iteration_limit _ -> Alcotest.fail "iteration limit"

(* Soundness property: for random hidden mappings with perfect
   measurements, the inferred mapping is throughput-equivalent to the truth
   on every experiment up to the stratification bound. *)
let prop_cegis_sound =
  let gen =
    let open QCheck2.Gen in
    let num_ports = 3 in
    let portset =
      map
        (fun bits ->
           Portset.of_list
             (List.filter (fun p -> bits land (1 lsl p) <> 0)
                (List.init num_ports Fun.id)))
        (int_range 1 ((1 lsl num_ports) - 1))
    in
    list_size (int_range 2 4) portset
  in
  QCheck2.Test.make ~name:"CEGIS equivalent to hidden truth" ~count:15 gen
    (fun portsets ->
       let truth, config, outcome =
         run_cegis ~num_ports:3 (List.map (fun p -> [ (p, 1) ]) portsets)
       in
       match outcome with
       | Cegis.Converged (m, _) ->
         (try
            check_equivalent config truth m (Mapping.schemes m);
            true
          with Failure _ -> false)
       | Cegis.No_consistent_mapping _ | Cegis.Iteration_limit _ -> false)

(* ------------------------------------------------------------------ *)
(* The §4.3 culprit session                                            *)
(* ------------------------------------------------------------------ *)

(* Every port set of [c] ports out of [num_ports]. *)
let port_sets num_ports c =
  List.init (1 lsl num_ports) Fun.id
  |> List.filter_map (fun m ->
      let ports = Portset.of_mask m in
      if Portset.cardinal ports = c then Some ports else None)

(* Independent reference for one culprit query: enumerate every row
   assignment the encoding admits (each own µop on [c] ports, each shared
   µop equal to another row's own µop) and ask the naive oracle whether
   one explains every observation. *)
let brute_force_explains config specs observations =
  let rows = Array.of_list specs in
  let n = Array.length rows in
  let own = Array.make n Portset.empty and shared = Array.make n Portset.empty in
  let exception Found in
  let consistent_now () =
    let m = Mapping.create ~num_ports:config.Cegis.num_ports in
    Array.iteri
      (fun i (s, spec) ->
         Mapping.set m s
           (match spec with
            | Encoding.Proper _ -> [ (own.(i), 1) ]
            | Encoding.Improper _ -> [ (own.(i), 1); (shared.(i), 1) ]))
      rows;
    if List.for_all (Cegis.consistent config m) observations then raise Found
  in
  let rec share i =
    if i = n then consistent_now ()
    else
      match snd rows.(i) with
      | Encoding.Proper _ -> share (i + 1)
      | Encoding.Improper _ ->
        for j = 0 to n - 1 do
          if j <> i then begin
            shared.(i) <- own.(j);
            share (i + 1)
          end
        done
  in
  let rec assign i =
    if i = n then share 0
    else
      let c =
        match snd rows.(i) with
        | Encoding.Proper c -> c
        | Encoding.Improper { own_ports } -> own_ports
      in
      List.iter
        (fun ports ->
           own.(i) <- ports;
           assign (i + 1))
        (port_sets config.Cegis.num_ports c)
  in
  match assign 0 with () -> false | exception Found -> true

(* A random toy culprit search: up to four specs on up to four ports
   (at least one proper, sometimes an improper store-blocker-like row),
   observations measured on a hidden mapping that honours the specs, some
   of them planted anomalies, and a sequence of queries over random spec
   and observation subsets, as [Pipeline.find_culprit] issues them. *)
let random_culprit_search rng =
  let num_ports = 2 + Random.State.int rng 3 in
  let config =
    { (cegis_config num_ports) with
      Cegis.certify = Random.State.int rng 3 = 0 }
  in
  let n = 2 + Random.State.int rng 3 in
  let catalog = toy_catalog n in
  let pick_set c =
    let sets = port_sets num_ports c in
    List.nth sets (Random.State.int rng (List.length sets))
  in
  let specs =
    List.init n (fun i ->
        let s = Catalog.find catalog i in
        let c = 1 + Random.State.int rng num_ports in
        if i > 0 && Random.State.int rng 3 = 0 then
          (s, Encoding.Improper { own_ports = c })
        else (s, Encoding.Proper c))
  in
  let truth = Mapping.create ~num_ports in
  let owns =
    List.map
      (fun (_, spec) ->
         pick_set
           (match spec with
            | Encoding.Proper c -> c
            | Encoding.Improper { own_ports } -> own_ports))
      specs
    |> Array.of_list
  in
  List.iteri
    (fun i (s, spec) ->
       match spec with
       | Encoding.Proper _ -> Mapping.set truth s [ (owns.(i), 1) ]
       | Encoding.Improper _ ->
         let j = (i + 1 + Random.State.int rng (n - 1)) mod n in
         Mapping.set truth s [ (owns.(i), 1); (owns.(j), 1) ])
    specs;
  let schemes = List.map fst specs in
  let observe e =
    let cycles = Cegis.modeled_inverse config truth e in
    let cycles =
      (* Planted anomaly: a measurement off by half a cycle or more. *)
      if Random.State.int rng 6 = 0 then
        Rat.add cycles (Rat.of_ints (1 + Random.State.int rng 4) 2)
      else cycles
    in
    { Cegis.experiment = e; cycles }
  in
  let observations =
    List.map (fun s -> observe (Experiment.singleton s)) schemes
    @ List.init (2 + Random.State.int rng 5) (fun _ ->
        observe
          (Experiment.of_counts
             (List.filter_map
                (fun s ->
                   if Random.State.int rng 2 = 0 then None
                   else Some (s, 1 + Random.State.int rng 3))
                schemes)))
    |> List.filter (fun o -> not (Experiment.is_empty o.Cegis.experiment))
  in
  let query () =
    let specs' =
      List.filter (fun _ -> Random.State.int rng 4 > 0) specs
    in
    let specs' =
      if List.exists
          (fun (_, spec) ->
             match spec with Encoding.Proper _ -> true | Encoding.Improper _ -> false)
          specs'
      then specs'
      else List.hd specs :: specs'
    in
    let inside o =
      List.for_all
        (fun s -> List.exists (fun (s', _) -> Scheme.equal s s') specs')
        (Experiment.schemes o.Cegis.experiment)
    in
    let observations' =
      List.filter (fun o -> inside o && Random.State.int rng 5 > 0) observations
    in
    (specs', observations')
  in
  (config, specs, List.init (3 + Random.State.int rng 6) (fun _ -> query ()))

let prop_culprit_session_differential =
  QCheck2.Test.make ~name:"session verdicts = fresh verdicts" ~count:60
    QCheck2.Gen.int
    (fun seed ->
       let rng = Random.State.make [| seed |] in
       let config, specs, queries = random_culprit_search rng in
       let session = Cegis.Culprit.create ~config ~specs () in
       List.for_all
         (fun (specs', observations) ->
            let fresh =
              Cegis.Culprit.explains
                (Cegis.Culprit.create ~config ~specs:specs' ())
                ~specs:specs' ~observations
            in
            let shared =
              Cegis.Culprit.explains session ~specs:specs' ~observations
            in
            let reference = brute_force_explains config specs' observations in
            if shared <> fresh || fresh <> reference then
              QCheck2.Test.fail_reportf
                "session %b, fresh %b, brute force %b on %d specs, %d \
                 observations"
                shared fresh reference (List.length specs')
                (List.length observations)
            else true)
         queries)

(* Every row assignment a generalised lemma blocks must violate the
   observation it was learnt from, under the naive exact oracle.  The
   encoding's models are enumerated exhaustively (≤ 4 ports, ≤ 3 rows). *)
let test_generalised_lemmas_sound () =
  let rng = Random.State.make [| 4242 |] in
  let shorter = ref 0 and lemmas = ref 0 in
  for _ = 1 to 40 do
    let num_ports = 2 + Random.State.int rng 3 in
    let config = cegis_config num_ports in
    let n = 1 + Random.State.int rng 3 in
    let catalog = toy_catalog n in
    let specs =
      List.init n (fun i ->
          let c = 1 + Random.State.int rng num_ports in
          ( Catalog.find catalog i,
            if i > 0 && Random.State.int rng 2 = 0 then
              Encoding.Improper { own_ports = c }
            else Encoding.Proper c ))
    in
    let enc = Encoding.create ~num_ports ~symmetry_breaking:false specs in
    let sat = Encoding.sat enc in
    let rec models acc =
      match Pmi_smt.Sat.solve sat with
      | Pmi_smt.Sat.Unsat -> acc
      | Pmi_smt.Sat.Sat model ->
        Pmi_smt.Sat.add_clause sat (Encoding.block_model enc model);
        models (model :: acc)
    in
    let models = models [] in
    let falsified model lemma =
      List.for_all
        (fun l ->
           let v = Pmi_smt.Lit.var l in
           model.(v) <> Pmi_smt.Lit.is_pos l)
        lemma
    in
    let experiment =
      Experiment.of_counts
        (List.map (fun (s, _) -> (s, 1 + Random.State.int rng 3)) specs)
    in
    let cycles =
      Rat.of_ints (1 + Random.State.int rng (4 * Experiment.length experiment)) 4
    in
    let obs = { Cegis.experiment; cycles } in
    List.iter
      (fun model ->
         if not (Cegis.consistent config (Encoding.decode enc model) obs) then begin
           let lemma = Cegis.Culprit.refute config enc model obs in
           incr lemmas;
           if
             List.length lemma
             < List.length
                 (Encoding.block_footprint enc model
                    (Experiment.schemes experiment))
           then incr shorter;
           Alcotest.(check bool) "lemma refutes its own model" true
             (falsified model lemma);
           List.iter
             (fun other ->
                if falsified other lemma then
                  if Cegis.consistent config (Encoding.decode enc other) obs then
                    Alcotest.failf
                      "lemma blocks %s, which explains %s at %s cycles"
                      (Format.asprintf "%a" Mapping.pp (Encoding.decode enc other))
                      (Experiment.to_string experiment) (Rat.to_string cycles))
             models
         end)
      models
  done;
  Alcotest.(check bool) "some lemmas were checked" true (!lemmas > 0);
  Alcotest.(check bool) "some lemmas were generalised" true (!shorter > 0)

(* The gates stay on the culprit path: with EncLint and certification on,
   a toy §4.3 search (the imul saturation anomaly next to an innocent
   class) runs without an EncLint error, certifies one verdict per SAT
   episode, and names the same culprit as the ungated search. *)
let test_culprit_search_gated () =
  let catalog = toy_catalog 3 in
  let i_add = Catalog.find catalog 0 in
  let i_mul = Catalog.find catalog 1 in
  let i_vec = Catalog.find catalog 2 in
  let config =
    { (cegis_config 5) with Cegis.r_max = 6; max_experiment_size = 5 }
  in
  let measure e =
    let n_add = Experiment.count e i_add in
    let n_mul = Experiment.count e i_mul in
    let n_vec = Experiment.count e i_vec in
    if n_add = 4 && n_mul = 1 && n_vec = 0 then Rat.of_ints 3 2
    else
      (* add on ports 0-3, imul on port 0, the vector class on port 4. *)
      List.fold_left Rat.max
        (Rat.of_ints (Experiment.length e) config.Cegis.r_max)
        [ Rat.of_int n_mul; Rat.of_ints (n_add + n_mul) 4; Rat.of_int n_vec ]
  in
  let specs =
    [ (i_add, Encoding.Proper 4); (i_mul, Encoding.Proper 1);
      (i_vec, Encoding.Proper 1) ]
  in
  let observations =
    match Cegis.infer ~config ~measure ~specs () with
    | Cegis.No_consistent_mapping stats -> stats.Cegis.observations
    | Cegis.Converged _ | Cegis.Iteration_limit _ ->
      Alcotest.fail "expected the anomaly to make the inference UNSAT"
  in
  let ungated = Pipeline.find_culprit config ~measure specs observations in
  let module Obs = Pmi_obs.Obs in
  Obs.enable ();
  let gated =
    Fun.protect ~finally:Obs.disable (fun () ->
        Pipeline.find_culprit
          { config with Cegis.enclint = true; certify = true }
          ~measure specs observations)
  in
  let counter name = Obs.value (Obs.counter name) in
  let names = Option.map (List.map Scheme.name) in
  Alcotest.(check (option (list string))) "same culprit" (names ungated)
    (names gated);
  Alcotest.(check bool) "a culprit was found" true (gated <> None);
  Alcotest.(check bool) "queries ran" true (counter "culprit.queries" > 0);
  Alcotest.(check int) "every SAT episode certified"
    (counter "cegis.sat_episodes")
    (counter "cegis.certificates_checked")

(* ------------------------------------------------------------------ *)
(* Relabel                                                             *)
(* ------------------------------------------------------------------ *)

let test_relabel_perfect () =
  let catalog = toy_catalog 3 in
  let s0 = Catalog.find catalog 0 in
  let s1 = Catalog.find catalog 1 in
  let s2 = Catalog.find catalog 2 in
  (* Truth uses ports {0},{0,1},{2}; inferred is the same up to the
     permutation 0->2, 1->0, 2->1. *)
  let docs =
    [ (s0, [ (Portset.singleton 0, 1) ]);
      (s1, [ (Portset.of_list [ 0; 1 ], 1) ]);
      (s2, [ (Portset.singleton 2, 1) ]) ]
  in
  let inferred = Mapping.create ~num_ports:3 in
  Mapping.set inferred s0 [ (Portset.singleton 2, 1) ];
  Mapping.set inferred s1 [ (Portset.of_list [ 2; 0 ], 1) ];
  Mapping.set inferred s2 [ (Portset.singleton 1, 1) ];
  match Relabel.align ~docs inferred with
  | None -> Alcotest.fail "alignment must exist"
  | Some a ->
    Alcotest.(check int) "nothing dropped" 0 (List.length a.Relabel.dropped);
    let renamed = Relabel.apply a.Relabel.permutation inferred in
    List.iter
      (fun (s, doc) ->
         Alcotest.(check bool) "matches docs" true
           (Mapping.equal_usage (Mapping.usage renamed s) doc))
      docs

let test_relabel_drops_ambiguous () =
  let catalog = toy_catalog 2 in
  let s0 = Catalog.find catalog 0 in
  let s1 = Catalog.find catalog 1 in
  (* The documented usage of s1 is impossible for the inferred structure
     (different cardinality), so it must be dropped while s0 aligns. *)
  let docs =
    [ (s0, [ (Portset.singleton 0, 1) ]);
      (s1, [ (Portset.of_list [ 0; 1 ], 1) ]) ]
  in
  let inferred = Mapping.create ~num_ports:2 in
  Mapping.set inferred s0 [ (Portset.singleton 1, 1) ];
  Mapping.set inferred s1 [ (Portset.singleton 1, 1) ];
  match Relabel.align ~docs inferred with
  | None -> Alcotest.fail "partial alignment must exist"
  | Some a ->
    Alcotest.(check int) "one dropped" 1 (List.length a.Relabel.dropped);
    Alcotest.(check bool) "s1 dropped" true
      (List.exists (Scheme.equal s1) a.Relabel.dropped);
    let renamed = Relabel.apply a.Relabel.permutation inferred in
    Alcotest.(check bool) "s0 aligned" true
      (Mapping.equal_usage (Mapping.usage renamed s0) [ (Portset.singleton 0, 1) ])

let test_relabel_improper_pairing () =
  (* Two-µop usages pair µops by cardinality, trying both orientations. *)
  let catalog = toy_catalog 1 in
  let s0 = Catalog.find catalog 0 in
  let docs =
    [ (s0, [ (Portset.singleton 0, 1); (Portset.of_list [ 1; 2 ], 1) ]) ]
  in
  let inferred = Mapping.create ~num_ports:3 in
  Mapping.set inferred s0
    [ (Portset.singleton 2, 1); (Portset.of_list [ 0; 1 ], 1) ];
  match Relabel.align ~docs inferred with
  | None -> Alcotest.fail "alignment must exist"
  | Some a ->
    let renamed = Relabel.apply a.Relabel.permutation inferred in
    Alcotest.(check bool) "two-µop usage aligned" true
      (Mapping.equal_usage (Mapping.usage renamed s0) (List.assoc s0 docs))

(* ------------------------------------------------------------------ *)
(* Port_usage (Algorithm 1 adapted)                                    *)
(* ------------------------------------------------------------------ *)

let test_blocking_count_formula () =
  (* k = min(100, max(10, |pu|·µops, 2·|pu|·max(1, ⌊tp⁻¹⌋))). *)
  let add = first "blocking/alu" in
  Alcotest.(check int) "1-µop scheme, small sets" 10
    (Port_usage.blocking_count harness ~port_set_size:1 add);
  let bsf = first "microcoded" in
  (* bsf: 8 postulated µops, tp⁻¹ = 4: max(10, 4*8, 2*4*4) = 32. *)
  Alcotest.(check int) "microcoded scheme" 32
    (Port_usage.blocking_count harness ~port_set_size:4 bsf)

let test_characterize_regular () =
  let add_load = first "regular/scalar-load" in
  let blockers =
    List.map
      (fun (bucket, ports) ->
         { Port_usage.scheme = first bucket; ports = Portset.of_list ports })
      [ ("blocking/alu", [ 6; 7; 8; 9 ]); ("blocking/load", [ 4; 5 ]);
        ("blocking/vec-shift", [ 2 ]) ]
  in
  match Port_usage.characterize harness ~blockers add_load with
  | Port_usage.Usage { usage; spurious; postulated; witnesses } ->
    Alcotest.(check bool) "one witness per blocker" true
      (List.length witnesses = 3);
    Alcotest.(check bool) "witness evidence renders" true
      (String.length
         (Format.asprintf "%a" Port_usage.pp_witnesses (add_load, witnesses))
       > 0);
    Alcotest.(check bool) "not spurious" false spurious;
    Alcotest.(check int) "postulate" 2 postulated;
    Alcotest.(check bool) "ALU + load µop" true
      (Mapping.equal_usage usage
         [ (Portset.of_list [ 6; 7; 8; 9 ], 1); (Portset.of_list [ 4; 5 ], 1) ])
  | Port_usage.Failed _ -> Alcotest.fail "characterisation failed"

(* ------------------------------------------------------------------ *)
(* Bottleneck (§3.4)                                                   *)
(* ------------------------------------------------------------------ *)

let test_bottleneck_gap () =
  Alcotest.(check bool) "Zen+ gap holds" true
    (Bottleneck.gap_ok ~r_max:5 ~max_port_set:4);
  Alcotest.(check bool) "no gap" false (Bottleneck.gap_ok ~r_max:4 ~max_port_set:4);
  Alcotest.check_raises "check raises"
    (Invalid_argument
       "Bottleneck.check: frontend rate 4 does not exceed the widest µop \
        port set 4; blocking-based counting would be unsound (§3.4)")
    (fun () -> Bottleneck.check ~r_max:4 ~max_port_set:4)

(* ------------------------------------------------------------------ *)
(* Encoding details                                                    *)
(* ------------------------------------------------------------------ *)

let test_encoding_cardinality () =
  let catalog = toy_catalog 2 in
  let specs =
    [ (Catalog.find catalog 0, Encoding.Proper 2);
      (Catalog.find catalog 1, Encoding.Proper 1) ]
  in
  let enc = Encoding.create ~num_ports:3 specs in
  match Pmi_smt.Sat.solve (Encoding.sat enc) with
  | Pmi_smt.Sat.Sat model ->
    let m = Encoding.decode enc model in
    Alcotest.(check int) "2 ports" 2
      (Portset.cardinal (fst (List.hd (Mapping.usage m (Catalog.find catalog 0)))));
    Alcotest.(check int) "1 port" 1
      (Portset.cardinal (fst (List.hd (Mapping.usage m (Catalog.find catalog 1)))))
  | Pmi_smt.Sat.Unsat -> Alcotest.fail "encoding should be satisfiable"

let test_encoding_improper () =
  let catalog = toy_catalog 2 in
  let proper = Catalog.find catalog 0 in
  let improper = Catalog.find catalog 1 in
  let specs =
    [ (proper, Encoding.Proper 2);
      (improper, Encoding.Improper { own_ports = 1 }) ]
  in
  let enc = Encoding.create ~num_ports:3 specs in
  match Pmi_smt.Sat.solve (Encoding.sat enc) with
  | Pmi_smt.Sat.Sat model ->
    let m = Encoding.decode enc model in
    let proper_ports = fst (List.hd (Mapping.usage m proper)) in
    let usage = Mapping.usage m improper in
    Alcotest.(check int) "two µops" 2 (Mapping.uop_count m improper);
    (* One of the improper µops equals the proper instruction's µop. *)
    Alcotest.(check bool) "shares the proper µop" true
      (List.exists (fun (p, _) -> Portset.equal p proper_ports) usage)
  | Pmi_smt.Sat.Unsat -> Alcotest.fail "improper encoding should be satisfiable"

let test_block_footprint_progress () =
  let catalog = toy_catalog 1 in
  let scheme = Catalog.find catalog 0 in
  let enc = Encoding.create ~num_ports:2 ~symmetry_breaking:false
      [ (scheme, Encoding.Proper 1) ] in
  let sat = Encoding.sat enc in
  (* Two models exist ({0} and {1}); blocking each in turn exhausts them. *)
  let rec count n =
    match Pmi_smt.Sat.solve sat with
    | Pmi_smt.Sat.Sat model ->
      Pmi_smt.Sat.add_clause sat (Encoding.block_model enc model);
      count (n + 1)
    | Pmi_smt.Sat.Unsat -> n
  in
  Alcotest.(check int) "exactly two 1-port mappings" 2 (count 0)

let test_symmetry_breaking_reduces_models () =
  let catalog = toy_catalog 1 in
  let scheme = Catalog.find catalog 0 in
  let count_models symmetry_breaking =
    let enc =
      Encoding.create ~num_ports:4 ~symmetry_breaking
        [ (scheme, Encoding.Proper 2) ]
    in
    let sat = Encoding.sat enc in
    let seen = Hashtbl.create 8 in
    let rec go () =
      match Pmi_smt.Sat.solve sat with
      | Pmi_smt.Sat.Sat model ->
        let m = Encoding.decode enc model in
        let key = Mapping.usage_to_string (Mapping.usage m scheme) in
        Hashtbl.replace seen key ();
        Pmi_smt.Sat.add_clause sat (Encoding.block_model enc model);
        go ()
      | Pmi_smt.Sat.Unsat -> Hashtbl.length seen
    in
    go ()
  in
  Alcotest.(check int) "without symmetry breaking: C(4,2)" 6 (count_models false);
  Alcotest.(check int) "with symmetry breaking: canonical only" 1
    (count_models true)

let () =
  Alcotest.run "core"
    [ ("uop-count",
       [ Alcotest.test_case "memory adjustment (§4.1.1)" `Quick test_memory_adjustment;
         Alcotest.test_case "postulated µops" `Quick test_postulated_uops;
         Alcotest.test_case "µops on blocked ports (§3.1)" `Quick
           test_uops_on_blocked_ports;
         Alcotest.test_case "rounding" `Quick test_round_uops ]);
      ("blocking",
       [ Alcotest.test_case "individual classification (§4.1)" `Quick
           test_classify_individual;
         Alcotest.test_case "additivity (§3.2)" `Quick test_additivity;
         Alcotest.test_case "Table 1 on the full catalog" `Quick
           test_table1_full_catalog;
         Alcotest.test_case "candidate filtering (§4.2)" `Slow
           test_filter_candidates_small ]);
      ("encoding",
       [ Alcotest.test_case "cardinality" `Quick test_encoding_cardinality;
         Alcotest.test_case "improper blockers (§4.3)" `Quick test_encoding_improper;
         Alcotest.test_case "model blocking" `Quick test_block_footprint_progress;
         Alcotest.test_case "symmetry breaking" `Quick
           test_symmetry_breaking_reduces_models ]);
      ("cegis",
       [ Alcotest.test_case "Figure 4 example" `Quick test_cegis_figure4;
         Alcotest.test_case "disjoint ports" `Quick test_cegis_disjoint;
         Alcotest.test_case "three instructions" `Quick test_cegis_three_instructions;
         Alcotest.test_case "default path pinned on Figure 4(b)" `Quick
           test_cegis_pinned_figure4b;
         Alcotest.test_case "default path pinned on three ports" `Quick
           test_cegis_pinned_three_ports;
         Alcotest.test_case "default path pinned on ten specs" `Quick
           test_cegis_pinned_ten_specs;
         Alcotest.test_case "22 ports converge" `Quick test_cegis_many_ports;
         Alcotest.test_case "parallel search matches sequential" `Slow
           test_cegis_parallel_matches_sequential;
         Alcotest.test_case "UNSAT on the imul anomaly (§4.3)" `Quick
           test_cegis_unsat_on_anomaly;
         QCheck_alcotest.to_alcotest prop_cegis_sound ]);
      ("culprit",
       [ QCheck_alcotest.to_alcotest prop_culprit_session_differential;
         Alcotest.test_case "generalised lemmas are sound" `Quick
           test_generalised_lemmas_sound;
         Alcotest.test_case "search keeps the EncLint and certify gates" `Quick
           test_culprit_search_gated ]);
      ("relabel",
       [ Alcotest.test_case "perfect alignment" `Quick test_relabel_perfect;
         Alcotest.test_case "drops ambiguous schemes" `Quick
           test_relabel_drops_ambiguous;
         Alcotest.test_case "two-µop pairing" `Quick test_relabel_improper_pairing ]);
      ("port-usage",
       [ Alcotest.test_case "k heuristic" `Quick test_blocking_count_formula;
         Alcotest.test_case "regular characterisation" `Quick
           test_characterize_regular ]);
      ("bottleneck",
       [ Alcotest.test_case "§3.4 gap requirement" `Quick test_bottleneck_gap ]) ]
