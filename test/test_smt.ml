open Pmi_smt

(* ------------------------------------------------------------------ *)
(* Literals                                                            *)
(* ------------------------------------------------------------------ *)

let test_lit_encoding () =
  let l = Lit.pos 5 in
  Alcotest.(check int) "var" 5 (Lit.var l);
  Alcotest.(check bool) "pos" true (Lit.is_pos l);
  let n = Lit.negate l in
  Alcotest.(check int) "neg var" 5 (Lit.var n);
  Alcotest.(check bool) "neg polarity" false (Lit.is_pos n);
  Alcotest.(check int) "double negate" l (Lit.negate n);
  Alcotest.(check int) "make" (Lit.neg_of_var 3) (Lit.make 3 false)

(* ------------------------------------------------------------------ *)
(* SAT solver unit tests                                               *)
(* ------------------------------------------------------------------ *)

let is_sat = function Sat.Sat _ -> true | Sat.Unsat -> false

let test_sat_trivial () =
  let s = Sat.create () in
  let a = Sat.fresh_var s in
  Sat.add_clause s [ Lit.pos a ];
  (match Sat.solve s with
   | Sat.Sat model -> Alcotest.(check bool) "a true" true model.(a)
   | Sat.Unsat -> Alcotest.fail "unexpected unsat")

let test_sat_contradiction () =
  let s = Sat.create () in
  let a = Sat.fresh_var s in
  Sat.add_clause s [ Lit.pos a ];
  Sat.add_clause s [ Lit.neg_of_var a ];
  Alcotest.(check bool) "unsat" false (is_sat (Sat.solve s));
  Alcotest.(check bool) "not okay" false (Sat.okay s)

let test_sat_implication_chain () =
  (* a & (a -> b) & (b -> c) & (c -> d): all forced true. *)
  let s = Sat.create () in
  let vars = Array.init 4 (fun _ -> Sat.fresh_var s) in
  Sat.add_clause s [ Lit.pos vars.(0) ];
  for i = 0 to 2 do
    Sat.add_clause s [ Lit.neg_of_var vars.(i); Lit.pos vars.(i + 1) ]
  done;
  match Sat.solve s with
  | Sat.Sat model ->
    Array.iter (fun v -> Alcotest.(check bool) "forced" true model.(v)) vars
  | Sat.Unsat -> Alcotest.fail "unexpected unsat"

let test_sat_pigeonhole_3_2 () =
  (* 3 pigeons, 2 holes: classic small UNSAT instance. *)
  let s = Sat.create () in
  let v = Array.init 3 (fun _ -> Array.init 2 (fun _ -> Sat.fresh_var s)) in
  for p = 0 to 2 do
    Sat.add_clause s [ Lit.pos v.(p).(0); Lit.pos v.(p).(1) ]
  done;
  for h = 0 to 1 do
    for p1 = 0 to 2 do
      for p2 = p1 + 1 to 2 do
        Sat.add_clause s [ Lit.neg_of_var v.(p1).(h); Lit.neg_of_var v.(p2).(h) ]
      done
    done
  done;
  Alcotest.(check bool) "unsat" false (is_sat (Sat.solve s))

let test_sat_assumptions () =
  let s = Sat.create () in
  let a = Sat.fresh_var s in
  let b = Sat.fresh_var s in
  Sat.add_clause s [ Lit.neg_of_var a; Lit.pos b ];
  (match Sat.solve ~assumptions:[ Lit.pos a; Lit.neg_of_var b ] s with
   | Sat.Unsat -> ()
   | Sat.Sat _ -> Alcotest.fail "assumptions should conflict");
  (* The solver must remain usable and satisfiable without assumptions. *)
  Alcotest.(check bool) "still sat" true (is_sat (Sat.solve s));
  match Sat.solve ~assumptions:[ Lit.pos a ] s with
  | Sat.Sat model -> Alcotest.(check bool) "b forced" true model.(b)
  | Sat.Unsat -> Alcotest.fail "should be sat under a"

let test_sat_incremental () =
  let s = Sat.create () in
  let a = Sat.fresh_var s in
  let b = Sat.fresh_var s in
  Sat.add_clause s [ Lit.pos a; Lit.pos b ];
  Alcotest.(check bool) "sat" true (is_sat (Sat.solve s));
  Sat.add_clause s [ Lit.neg_of_var a ];
  (match Sat.solve s with
   | Sat.Sat model -> Alcotest.(check bool) "b" true model.(b)
   | Sat.Unsat -> Alcotest.fail "unexpected unsat");
  Sat.add_clause s [ Lit.neg_of_var b ];
  Alcotest.(check bool) "unsat after both" false (is_sat (Sat.solve s))

(* Property: agreement with brute force on random small CNFs. *)

let brute_force_sat num_vars clauses =
  let rec go assignment v =
    if v = num_vars then
      List.for_all
        (fun clause ->
           List.exists
             (fun l ->
                let value = assignment.(Lit.var l) in
                if Lit.is_pos l then value else not value)
             clause)
        clauses
    else begin
      assignment.(v) <- true;
      go assignment (v + 1)
      ||
      (assignment.(v) <- false;
       go assignment (v + 1))
    end
  in
  go (Array.make num_vars false) 0

let cnf_gen =
  let open QCheck2.Gen in
  let num_vars = int_range 1 8 in
  num_vars >>= fun n ->
  let lit = map2 (fun v pos -> Lit.make v pos) (int_range 0 (n - 1)) bool in
  let clause = list_size (int_range 1 4) lit in
  map (fun clauses -> (n, clauses)) (list_size (int_range 1 25) clause)

let prop_sat_matches_brute_force =
  QCheck2.Test.make ~name:"CDCL matches brute force" ~count:300 cnf_gen
    (fun (n, clauses) ->
       let s = Sat.create () in
       for _ = 1 to n do
         ignore (Sat.fresh_var s)
       done;
       List.iter (Sat.add_clause s) clauses;
       let expected = brute_force_sat n clauses in
       match Sat.solve s with
       | Sat.Sat model ->
         (* The model must actually satisfy all clauses. *)
         expected
         && List.for_all
              (List.exists (fun l ->
                   if Lit.is_pos l then model.(Lit.var l)
                   else not model.(Lit.var l)))
              clauses
       | Sat.Unsat -> not expected)

(* Stress: random 3-SAT near the phase transition.  Whatever the verdict,
   a returned model must satisfy every clause, and the solver must finish
   (no watched-literal corruption, no lost clauses across restarts). *)
let prop_sat_3sat_stress =
  let gen =
    let open QCheck2.Gen in
    let n = 40 in
    let lit = map2 (fun v pos -> Lit.make v pos) (int_range 0 (n - 1)) bool in
    let clause =
      map (fun (a, b, c) -> [ a; b; c ]) (triple lit lit lit)
    in
    map (fun clauses -> (n, clauses)) (list_repeat 170 clause)
  in
  QCheck2.Test.make ~name:"3-SAT stress: models verify" ~count:50 gen
    (fun (n, clauses) ->
       let s = Sat.create () in
       for _ = 1 to n do
         ignore (Sat.fresh_var s)
       done;
       List.iter (Sat.add_clause s) clauses;
       match Sat.solve s with
       | Sat.Sat model ->
         List.for_all
           (List.exists (fun l ->
                if Lit.is_pos l then model.(Lit.var l) else not model.(Lit.var l)))
           clauses
       | Sat.Unsat -> true)

let pigeonhole s ~pigeons ~holes =
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
  done

let test_sat_pigeonhole_6_5 () =
  (* A harder UNSAT instance exercising clause learning and restarts. *)
  let s = Sat.create () in
  pigeonhole s ~pigeons:6 ~holes:5;
  Alcotest.(check bool) "unsat" false (is_sat (Sat.solve s));
  Alcotest.(check bool) "learned something" true (Sat.num_conflicts s > 0)

let test_sat_pigeonhole_family () =
  (* n+1 pigeons never fit n holes; n pigeons always do.  The UNSAT side
     scales exponentially for resolution, so this walks the engine through
     progressively heavier clause learning. *)
  for holes = 2 to 6 do
    let u = Sat.create () in
    pigeonhole u ~pigeons:(holes + 1) ~holes;
    Alcotest.(check bool)
      (Printf.sprintf "php %d/%d unsat" (holes + 1) holes)
      false (is_sat (Sat.solve u));
    let f = Sat.create () in
    pigeonhole f ~pigeons:holes ~holes;
    Alcotest.(check bool)
      (Printf.sprintf "php %d/%d sat" holes holes)
      true (is_sat (Sat.solve f))
  done

let test_sat_reduction_parity_pigeonhole () =
  (* php 8/7 crosses the first clause-database-reduction budget, so learnt
     clauses really are deleted; the verdict must not change. *)
  let run reduce =
    let s = Sat.create () in
    Sat.set_reduce_enabled s reduce;
    pigeonhole s ~pigeons:8 ~holes:7;
    let verdict = is_sat (Sat.solve s) in
    (verdict, Sat.stats s)
  in
  let verdict_on, stats_on = run true in
  let verdict_off, stats_off = run false in
  Alcotest.(check bool) "unsat with reduction" false verdict_on;
  Alcotest.(check bool) "unsat without reduction" false verdict_off;
  Alcotest.(check bool) "reduction fired" true (stats_on.Sat.deleted > 0);
  Alcotest.(check int) "no deletions when disabled" 0 stats_off.Sat.deleted

let test_sat_stats () =
  let s = Sat.create () in
  pigeonhole s ~pigeons:5 ~holes:4;
  ignore (Sat.solve s);
  let st = Sat.stats s in
  Alcotest.(check bool) "decisions" true (st.Sat.decisions > 0);
  Alcotest.(check bool) "propagations" true (st.Sat.propagations > 0);
  Alcotest.(check bool) "conflicts" true (st.Sat.conflicts > 0);
  Alcotest.(check bool) "learned" true (st.Sat.learned > 0);
  Alcotest.(check bool) "glue recorded" true (st.Sat.max_lbd > 0);
  Alcotest.(check int) "num_conflicts agrees" st.Sat.conflicts
    (Sat.num_conflicts s);
  Alcotest.(check bool) "zero is neutral" true
    (Sat.add_stats Sat.zero_stats st = st);
  let doubled = Sat.add_stats st st in
  Alcotest.(check int) "sums conflicts" (2 * st.Sat.conflicts)
    doubled.Sat.conflicts;
  Alcotest.(check int) "maxes glue" st.Sat.max_lbd doubled.Sat.max_lbd

(* Reference DPLL (unit propagation + splitting) for differential fuzzing
   on instances too large to enumerate. *)

let dpll_assign l clauses =
  let neg = Lit.negate l in
  List.filter_map
    (fun c ->
       if List.mem l c then None
       else Some (List.filter (fun l' -> l' <> neg) c))
    clauses

let rec dpll clauses =
  if List.exists (( = ) []) clauses then false
  else
    match List.find_opt (fun c -> List.compare_length_with c 1 = 0) clauses with
    | Some [ l ] -> dpll (dpll_assign l clauses)
    | Some _ -> assert false
    | None ->
      (match clauses with
       | [] -> true
       | (l :: _) :: _ ->
         dpll (dpll_assign l clauses) || dpll (dpll_assign (Lit.negate l) clauses)
       | [] :: _ -> assert false)

let prop_sat_matches_dpll =
  let gen =
    let open QCheck2.Gen in
    let n = 20 in
    let lit = map2 (fun v pos -> Lit.make v pos) (int_range 0 (n - 1)) bool in
    let clause = map (fun (a, b, c) -> [ a; b; c ]) (triple lit lit lit) in
    (* ~4.3 clauses per variable sits at the random-3-SAT phase transition,
       where both verdicts occur and the search is hardest. *)
    map (fun clauses -> (n, clauses)) (list_repeat 86 clause)
  in
  QCheck2.Test.make ~name:"CDCL matches reference DPLL on random 3-SAT"
    ~count:40 gen
    (fun (n, clauses) ->
       let s = Sat.create () in
       for _ = 1 to n do
         ignore (Sat.fresh_var s)
       done;
       List.iter (Sat.add_clause s) clauses;
       let expected = dpll clauses in
       match Sat.solve s with
       | Sat.Sat model ->
         expected
         && List.for_all
              (List.exists (fun l ->
                   if Lit.is_pos l then model.(Lit.var l)
                   else not model.(Lit.var l)))
              clauses
       | Sat.Unsat -> not expected)

(* Property: incremental sequences of add_clause / solve ~assumptions give
   the same verdicts whether clause-database reduction is on or off, and
   every model of the reducing solver satisfies every clause added so
   far. *)

let script_gen =
  let open QCheck2.Gen in
  int_range 6 12 >>= fun n ->
  let lit = map2 (fun v pos -> Lit.make v pos) (int_range 0 (n - 1)) bool in
  let clause = list_size (int_range 1 3) lit in
  let step =
    pair (list_size (int_range 0 6) clause) (list_size (int_range 0 2) lit)
  in
  map (fun steps -> (n, steps)) (list_size (int_range 2 5) step)

let prop_reduction_parity =
  QCheck2.Test.make
    ~name:"reduction keeps incremental verdicts" ~count:40
    script_gen
    (fun (n, steps) ->
       let mk reduce =
         let s = Sat.create () in
         Sat.set_reduce_enabled s reduce;
         for _ = 1 to n do
           ignore (Sat.fresh_var s)
         done;
         s
       in
       let with_reduction = mk true in
       let without_reduction = mk false in
       let all_clauses = ref [] in
       List.for_all
         (fun (clauses, assumptions) ->
            List.iter
              (fun c ->
                 all_clauses := c :: !all_clauses;
                 Sat.add_clause with_reduction c;
                 Sat.add_clause without_reduction c)
              clauses;
            let va =
              match Sat.solve ~assumptions with_reduction with
              | Sat.Sat model ->
                (* The model must satisfy every clause added so far
                   (assumptions aside, which only constrain further). *)
                List.for_all
                  (List.exists (fun l ->
                       if Lit.is_pos l then model.(Lit.var l)
                       else not model.(Lit.var l)))
                  !all_clauses
                || QCheck2.Test.fail_report "model violates a clause"
              | Sat.Unsat -> false
            in
            let vb = is_sat (Sat.solve ~assumptions without_reduction) in
            va = vb)
         steps)

(* ------------------------------------------------------------------ *)
(* DIMACS export                                                       *)
(* ------------------------------------------------------------------ *)

let parse_dimacs text =
  let header = ref None in
  let clauses = ref [] in
  List.iter
    (fun line ->
       let line = String.trim line in
       if line = "" || line.[0] = 'c' then ()
       else if line.[0] = 'p' then
         match List.filter (( <> ) "") (String.split_on_char ' ' line) with
         | [ "p"; "cnf"; v; c ] ->
           header := Some (int_of_string v, int_of_string c)
         | _ -> Alcotest.failf "bad DIMACS header: %s" line
       else
         let ints =
           List.map int_of_string
             (List.filter (( <> ) "") (String.split_on_char ' ' line))
         in
         match List.rev ints with
         | 0 :: rev_lits -> clauses := List.rev rev_lits :: !clauses
         | _ -> Alcotest.failf "clause not 0-terminated: %s" line)
    (String.split_on_char '\n' text);
  match !header with
  | None -> Alcotest.fail "no DIMACS header"
  | Some (v, c) -> (v, c, List.rev !clauses)

let test_dimacs_export () =
  let s = Sat.create () in
  let a = Sat.fresh_var s in
  let b = Sat.fresh_var s in
  let c = Sat.fresh_var s in
  let d = Sat.fresh_var s in
  Sat.add_clause s [ Lit.pos a; Lit.neg_of_var b ];
  Sat.add_clause s [ Lit.pos b; Lit.pos c; Lit.neg_of_var d ];
  Sat.add_clause s [ Lit.neg_of_var a ];
  let num_vars, num_clauses, clauses = parse_dimacs (Sat.dimacs s) in
  Alcotest.(check int) "header vars" (Sat.num_vars s) num_vars;
  Alcotest.(check int) "header clause count" (List.length clauses) num_clauses;
  List.iter
    (List.iter (fun l ->
         Alcotest.(check bool) "lit in range" true
           (l <> 0 && abs l <= num_vars)))
    clauses;
  (* The export is equisatisfiable with the live solver: check via the
     reference DPLL on the re-parsed clauses. *)
  let as_lits = List.map (List.map (fun l -> Lit.make (abs l - 1) (l > 0))) in
  Alcotest.(check bool) "same verdict" (is_sat (Sat.solve s))
    (dpll (as_lits clauses))

let test_dimacs_unsat_export () =
  let s = Sat.create () in
  let a = Sat.fresh_var s in
  Sat.add_clause s [ Lit.pos a ];
  Sat.add_clause s [ Lit.neg_of_var a ];
  Alcotest.(check bool) "unsat" false (is_sat (Sat.solve s));
  let _, num_clauses, clauses = parse_dimacs (Sat.dimacs s) in
  Alcotest.(check int) "header count" (List.length clauses) num_clauses;
  (* A dead solver's export must be trivially refutable. *)
  Alcotest.(check bool) "contains the empty clause" true
    (List.mem [] clauses)

let test_dimacs_var_names () =
  (* Named variables come back out of the export as [c var <id> <name>]
     comment lines, DIMACS ids being 1-based. *)
  let s = Sat.create () in
  let a = Sat.fresh_var s in
  let b = Sat.fresh_var s in
  let c = Sat.fresh_var s in
  Sat.name_var s a "own(iA,p0)";
  Sat.name_var s c "select(iB,iA)";
  Sat.add_clause s [ Lit.pos a; Lit.pos b; Lit.pos c ];
  Alcotest.(check (option string)) "var_name set" (Some "own(iA,p0)")
    (Sat.var_name s a);
  Alcotest.(check (option string)) "var_name unset" None (Sat.var_name s b);
  let parsed = ref [] in
  List.iter
    (fun line ->
       match String.split_on_char ' ' (String.trim line) with
       | "c" :: "var" :: id :: rest ->
         parsed := (int_of_string id - 1, String.concat " " rest) :: !parsed
       | _ -> ())
    (String.split_on_char '\n' (Sat.dimacs s));
  let names = List.sort compare !parsed in
  Alcotest.(check (list (pair int string)))
    "names round-trip"
    [ (a, "own(iA,p0)"); (c, "select(iB,iA)") ]
    names;
  (* The comment lines must not confuse the DIMACS parser. *)
  let num_vars, _, clauses = parse_dimacs (Sat.dimacs s) in
  Alcotest.(check int) "vars" 3 num_vars;
  Alcotest.(check int) "clauses" 1 (List.length clauses)

(* ------------------------------------------------------------------ *)
(* CDCL invariant sanitizer                                            *)
(* ------------------------------------------------------------------ *)

let test_sanitize_pigeonhole () =
  (* Walk the engine through learning, restarts and clause-database
     reduction with the internal invariant checks enabled: any watcher,
     trail, reason or heap corruption raises [Invariant_violation]. *)
  let s = Sat.create () in
  Sat.set_sanitize s true;
  pigeonhole s ~pigeons:6 ~holes:5;
  Alcotest.(check bool) "unsat" false (is_sat (Sat.solve s));
  match Sat.Invariants.check s with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "invariant violated after solve: %s" msg

let prop_sanitize_random =
  QCheck2.Test.make ~name:"sanitizer accepts random solving" ~count:120
    cnf_gen
    (fun (n, clauses) ->
       let s = Sat.create () in
       Sat.set_sanitize s true;
       for _ = 1 to n do
         ignore (Sat.fresh_var s)
       done;
       List.iter (Sat.add_clause s) clauses;
       let verdict = is_sat (Sat.solve s) in
       (match Sat.Invariants.check s with
        | Ok () -> ()
        | Error msg -> QCheck2.Test.fail_reportf "invariant: %s" msg);
       verdict = brute_force_sat n clauses)

(* ------------------------------------------------------------------ *)
(* Cardinality constraints                                             *)
(* ------------------------------------------------------------------ *)

let count_true model vars =
  List.length (List.filter (fun v -> model.(v)) vars)

let solve_card build =
  let s = Sat.create () in
  let vars = List.init 6 (fun _ -> Sat.fresh_var s) in
  build s (List.map Lit.pos vars);
  (s, vars)

let test_card_at_most () =
  let s, vars = solve_card (fun s lits -> ignore (Card.at_most s lits 2)) in
  (* Force three variables true: must be unsat. *)
  (match
     Sat.solve
       ~assumptions:(List.map Lit.pos [ List.nth vars 0; List.nth vars 1; List.nth vars 2 ])
       s
   with
   | Sat.Unsat -> ()
   | Sat.Sat _ -> Alcotest.fail "3 > 2 should conflict");
  match Sat.solve ~assumptions:(List.map Lit.pos [ List.nth vars 0; List.nth vars 4 ]) s with
  | Sat.Sat model ->
    Alcotest.(check bool) "≤ 2 true" true (count_true model vars <= 2)
  | Sat.Unsat -> Alcotest.fail "2 ≤ 2 should be sat"

let test_card_at_least () =
  let s, vars = solve_card (fun s lits -> ignore (Card.at_least s lits 4)) in
  match Sat.solve s with
  | Sat.Sat model ->
    Alcotest.(check bool) "≥ 4 true" true (count_true model vars >= 4)
  | Sat.Unsat -> Alcotest.fail "at_least 4 of 6 is satisfiable"

let test_card_exactly () =
  let s, vars = solve_card (fun s lits -> ignore (Card.exactly s lits 3)) in
  match Sat.solve s with
  | Sat.Sat model -> Alcotest.(check int) "exactly 3" 3 (count_true model vars)
  | Sat.Unsat -> Alcotest.fail "exactly 3 of 6 is satisfiable"

let test_card_edge_cases () =
  (* k = 0 forbids everything. *)
  let s = Sat.create () in
  let a = Sat.fresh_var s in
  ignore (Card.at_most s [ Lit.pos a ] 0);
  (match Sat.solve s with
   | Sat.Sat model -> Alcotest.(check bool) "a false" false model.(a)
   | Sat.Unsat -> Alcotest.fail "sat expected");
  (* k = n is vacuous. *)
  let s2 = Sat.create () in
  let b = Sat.fresh_var s2 in
  ignore (Card.at_most s2 [ Lit.pos b ] 1);
  Alcotest.(check bool) "vacuous" true
    (match Sat.solve s2 with Sat.Sat _ -> true | Sat.Unsat -> false);
  (* at_least more than available is unsat. *)
  let s3 = Sat.create () in
  let c = Sat.fresh_var s3 in
  ignore (Card.at_least s3 [ Lit.pos c ] 2);
  Alcotest.(check bool) "impossible at_least" false
    (match Sat.solve s3 with Sat.Sat _ -> true | Sat.Unsat -> false)

let test_card_exactly_shares_registers () =
  (* [exactly] builds one shared Sinz counter chain: (n-1)·k auxiliary
     registers, not a separate chain per bound. *)
  let s = Sat.create () in
  let vars = List.init 6 (fun _ -> Sat.fresh_var s) in
  ignore (Card.exactly s (List.map Lit.pos vars) 2);
  Alcotest.(check int) "aux registers" (6 + (5 * 2)) (Sat.num_vars s)

let popcount mask =
  let rec go acc m = if m = 0 then acc else go (acc + (m land 1)) (m lsr 1) in
  go 0 mask

let test_card_exactly_exhaustive () =
  (* Soundness and completeness in one sweep: under every full assignment
     of the base variables (forced via assumptions), the encoding is
     satisfiable iff exactly k of them are true. *)
  for n = 1 to 5 do
    for k = 0 to n do
      let s = Sat.create () in
      let vars = List.init n (fun _ -> Sat.fresh_var s) in
      ignore (Card.exactly s (List.map Lit.pos vars) k);
      for mask = 0 to (1 lsl n) - 1 do
        let assumptions =
          List.mapi (fun i v -> Lit.make v (mask land (1 lsl i) <> 0)) vars
        in
        Alcotest.(check bool)
          (Printf.sprintf "n=%d k=%d mask=%d" n k mask)
          (popcount mask = k)
          (is_sat (Sat.solve ~assumptions s))
      done
    done
  done

let prop_card_exactly_counts =
  QCheck2.Test.make ~name:"exactly-k models have k true vars" ~count:100
    QCheck2.Gen.(pair (int_range 1 7) (int_range 0 7))
    (fun (n, k) ->
       QCheck2.assume (k <= n);
       let s = Sat.create () in
       let vars = List.init n (fun _ -> Sat.fresh_var s) in
       ignore (Card.exactly s (List.map Lit.pos vars) k);
       match Sat.solve s with
       | Sat.Sat model -> count_true model vars = k
       | Sat.Unsat -> false)

(* Guarded networks (the row contract of a guarded [Encoding]):
   the guard literal is prepended to every emitted clause, so a true
   guard satisfies the whole network vacuously — any input count goes —
   while a false guard leaves exactly the unguarded constraint. *)
let guarded_card_case s ~which ~guard lits k =
  match which with
  | 0 -> Card.at_most ~guard s lits k
  | 1 -> Card.at_least ~guard s lits k
  | _ -> Card.exactly ~guard s lits k

let guarded_card_meets ~which count k =
  match which with 0 -> count <= k | 1 -> count >= k | _ -> count = k

let prop_card_guard_vacuous =
  QCheck2.Test.make
    ~name:"guard true satisfies the network under any input count"
    ~count:100
    QCheck2.Gen.(triple (int_range 1 5) (int_range 0 5) (int_range 0 2))
    (fun (n, k, which) ->
       QCheck2.assume (k <= n);
       let s = Sat.create () in
       let g = Sat.fresh_var s in
       let vars = List.init n (fun _ -> Sat.fresh_var s) in
       ignore
         (guarded_card_case s ~which ~guard:(Lit.pos g)
            (List.map Lit.pos vars) k);
       List.for_all
         (fun mask ->
            let assumptions =
              Lit.pos g
              :: List.mapi
                   (fun i v -> Lit.make v (mask land (1 lsl i) <> 0))
                   vars
            in
            is_sat (Sat.solve ~assumptions s))
         (List.init (1 lsl n) (fun m -> m)))

let prop_card_guard_enforces =
  QCheck2.Test.make
    ~name:"guard false enforces exactly the declared bound"
    ~count:100
    QCheck2.Gen.(triple (int_range 1 5) (int_range 0 5) (int_range 0 2))
    (fun (n, k, which) ->
       QCheck2.assume (k <= n);
       let s = Sat.create () in
       let g = Sat.fresh_var s in
       let vars = List.init n (fun _ -> Sat.fresh_var s) in
       ignore
         (guarded_card_case s ~which ~guard:(Lit.pos g)
            (List.map Lit.pos vars) k);
       List.for_all
         (fun mask ->
            let assumptions =
              Lit.neg_of_var g
              :: List.mapi
                   (fun i v -> Lit.make v (mask land (1 lsl i) <> 0))
                   vars
            in
            is_sat (Sat.solve ~assumptions s)
            = guarded_card_meets ~which (popcount mask) k)
         (List.init (1 lsl n) (fun m -> m)))

let test_card_network_metadata () =
  (* The recorder hands back what it built: inputs in call order, the
     guard, the declared kind/bound, fresh auxiliaries, and every clause
     carrying the guard literal. *)
  let s = Sat.create () in
  let g = Sat.fresh_var s in
  let vars = List.init 4 (fun _ -> Sat.fresh_var s) in
  let lits = List.map Lit.pos vars in
  let net = Card.exactly ~guard:(Lit.pos g) s lits 2 in
  Alcotest.(check bool) "kind" true (net.Card.kind = Card.Exactly);
  Alcotest.(check int) "bound" 2 net.Card.bound;
  Alcotest.(check bool) "inputs" true (net.Card.inputs = lits);
  Alcotest.(check bool) "guard" true (net.Card.guard = Some (Lit.pos g));
  Alcotest.(check bool) "aux allocated" true (net.Card.aux <> []);
  Alcotest.(check bool) "guard on every clause" true
    (List.for_all (fun c -> List.mem (Lit.pos g) c) net.Card.clauses);
  Alcotest.(check bool) "guard var marked" true (Sat.is_guard s g)

(* ------------------------------------------------------------------ *)
(* Expr: formulas and Tseitin transformation                           *)
(* ------------------------------------------------------------------ *)

let test_expr_smart_constructors () =
  let x = Expr.var 0 and y = Expr.var 1 in
  Alcotest.(check bool) "neg neg" true (Expr.neg (Expr.neg x) = x);
  Alcotest.(check bool) "conj true unit" true (Expr.conj [ Expr.tt; x ] = x);
  Alcotest.(check bool) "conj false" true
    (Expr.conj [ x; Expr.ff; y ] = Expr.ff);
  Alcotest.(check bool) "disj false unit" true (Expr.disj [ Expr.ff; y ] = y);
  Alcotest.(check bool) "imp from false" true (Expr.imp Expr.ff x = Expr.tt);
  Alcotest.(check bool) "iff with true" true (Expr.iff Expr.tt x = x);
  Alcotest.(check (list int)) "vars" [ 0; 1 ]
    (Expr.vars (Expr.conj [ x; Expr.neg y; x ]))

let expr_gen =
  let open QCheck2.Gen in
  let num_vars = 5 in
  sized_size (int_range 0 4) @@ fix (fun self n ->
      if n = 0 then
        oneof
          [ map Expr.var (int_range 0 (num_vars - 1));
            return Expr.tt; return Expr.ff ]
      else
        oneof
          [ map Expr.var (int_range 0 (num_vars - 1));
            map Expr.neg (self (n - 1));
            map2 (fun a b -> Expr.conj [ a; b ]) (self (n / 2)) (self (n / 2));
            map2 (fun a b -> Expr.disj [ a; b ]) (self (n / 2)) (self (n / 2));
            map2 Expr.imp (self (n / 2)) (self (n / 2));
            map2 Expr.iff (self (n / 2)) (self (n / 2)) ])

let brute_force_expr e =
  let rec go env = function
    | [] -> Expr.eval (fun v -> List.assoc v env) e
    | v :: rest -> go ((v, true) :: env) rest || go ((v, false) :: env) rest
  in
  go [] (List.init 5 Fun.id)

let prop_tseitin_equisatisfiable =
  QCheck2.Test.make ~name:"Tseitin preserves satisfiability" ~count:300 expr_gen
    (fun e ->
       let s = Sat.create () in
       for _ = 1 to 5 do
         ignore (Sat.fresh_var s)
       done;
       Expr.assert_in s e;
       match Sat.solve s with
       | Sat.Sat model -> Expr.eval (fun v -> model.(v)) e
       | Sat.Unsat -> not (brute_force_expr e))

let prop_expr_eval_neg =
  QCheck2.Test.make ~name:"eval of negation flips" ~count:200 expr_gen
    (fun e ->
       let env v = v mod 2 = 0 in
       Expr.eval env (Expr.neg e) = not (Expr.eval env e))

(* ------------------------------------------------------------------ *)
(* Theory (CEGAR) driver                                               *)
(* ------------------------------------------------------------------ *)

let test_theory_loop () =
  (* Boolean skeleton: any subset of 4 vars.  Theory: "exactly the set
     {1,3} is allowed", communicated only through refutation lemmas. *)
  let s = Sat.create () in
  let vars = Array.init 4 (fun _ -> Sat.fresh_var s) in
  let target = [ false; true; false; true ] in
  let check model =
    let lemmas = ref [] in
    List.iteri
      (fun i want ->
         if model.(vars.(i)) <> want then
           lemmas := [ Lit.make vars.(i) want ] :: !lemmas)
      target;
    !lemmas
  in
  match Solver.solve ~check s with
  | Solver.Sat model ->
    List.iteri
      (fun i want -> Alcotest.(check bool) "theory model" want model.(vars.(i)))
      target
  | Solver.Unsat -> Alcotest.fail "theory-consistent model exists"

let test_theory_unsat () =
  (* The theory rejects every model of a 1-variable skeleton. *)
  let s = Sat.create () in
  let v = Sat.fresh_var s in
  let check model =
    [ [ Lit.make v (not model.(v)) ] ]
  in
  match Solver.solve ~check s with
  | Solver.Unsat -> ()
  | Solver.Sat _ -> Alcotest.fail "theory rejects everything"

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "smt"
    [ ("lit", [ Alcotest.test_case "encoding" `Quick test_lit_encoding ]);
      ("sat",
       [ Alcotest.test_case "trivial" `Quick test_sat_trivial;
         Alcotest.test_case "contradiction" `Quick test_sat_contradiction;
         Alcotest.test_case "implication chain" `Quick test_sat_implication_chain;
         Alcotest.test_case "pigeonhole 3/2" `Quick test_sat_pigeonhole_3_2;
         Alcotest.test_case "assumptions" `Quick test_sat_assumptions;
         Alcotest.test_case "incremental" `Quick test_sat_incremental;
         Alcotest.test_case "pigeonhole 6/5" `Slow test_sat_pigeonhole_6_5;
         Alcotest.test_case "pigeonhole family" `Slow test_sat_pigeonhole_family;
         Alcotest.test_case "reduction parity on pigeonhole 8/7" `Slow
           test_sat_reduction_parity_pigeonhole;
         Alcotest.test_case "solver statistics" `Quick test_sat_stats;
         Alcotest.test_case "sanitizer on pigeonhole 6/5" `Slow
           test_sanitize_pigeonhole ]
       @ qsuite
           [ prop_sat_matches_brute_force; prop_sat_3sat_stress;
             prop_sat_matches_dpll; prop_reduction_parity;
             prop_sanitize_random ]);
      ("dimacs",
       [ Alcotest.test_case "export round-trips" `Quick test_dimacs_export;
         Alcotest.test_case "unsat export" `Quick test_dimacs_unsat_export;
         Alcotest.test_case "variable names" `Quick test_dimacs_var_names ]);
      ("card",
       [ Alcotest.test_case "at_most" `Quick test_card_at_most;
         Alcotest.test_case "at_least" `Quick test_card_at_least;
         Alcotest.test_case "exactly" `Quick test_card_exactly;
         Alcotest.test_case "edge cases" `Quick test_card_edge_cases;
         Alcotest.test_case "shared registers" `Quick
           test_card_exactly_shares_registers;
         Alcotest.test_case "exactly is exact (exhaustive)" `Slow
           test_card_exactly_exhaustive;
         Alcotest.test_case "network metadata" `Quick
           test_card_network_metadata ]
       @ qsuite
           [ prop_card_exactly_counts; prop_card_guard_vacuous;
             prop_card_guard_enforces ]);
      ("expr",
       [ Alcotest.test_case "smart constructors" `Quick test_expr_smart_constructors ]
       @ qsuite [ prop_tseitin_equisatisfiable; prop_expr_eval_neg ]);
      ("theory",
       [ Alcotest.test_case "cegar loop" `Quick test_theory_loop;
         Alcotest.test_case "theory unsat" `Quick test_theory_unsat ]) ]
