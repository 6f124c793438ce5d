(* EncLint: the solver-off static analyzer over CEGIS encodings.

   Three families of tests:
   - clean built-in encodings (creation-time, store-blocker, guarded with
     a subset of rows activated) must produce zero findings — no false
     positives;
   - seeded mutations (dropped guard, wrong cardinality bound, unguarded
     row in a guarded encoding, duplicate clause, unused frozen literal)
     must each be flagged with the right rule;
   - a full certified CEGIS run with the analyzer gating every solver
     episode must converge. *)

open Pmi_smt
module Enclint = Pmi_analysis.Enclint
module Diag = Pmi_diag.Diag
module Cegis = Pmi_core.Cegis
module Encoding = Pmi_core.Encoding
module Catalog = Pmi_isa.Catalog
module Operand = Pmi_isa.Operand
module Iclass = Pmi_isa.Iclass
module Portset = Pmi_portmap.Portset
module Mapping = Pmi_portmap.Mapping

let has_rule rule diags = List.exists (fun d -> d.Diag.rule = rule) diags

let show diags = String.concat "; " (List.map Diag.to_string diags)

let check_clean label diags =
  if diags <> [] then
    Alcotest.failf "%s: expected no findings, got %s" label (show diags)

let expect_error rule diags =
  if not (List.exists (fun d -> d.Diag.rule = rule) (Diag.errors diags)) then
    Alcotest.failf "expected an %s error, got %s" rule (show diags)

let toy_catalog n =
  Catalog.of_list
    (List.init n (fun i ->
         (Printf.sprintf "i%c" (Char.chr (Char.code 'A' + i)),
          [ Operand.gpr 32 ], Iclass.plain (Iclass.Single Iclass.Alu))))

(* ------------------------------------------------------------------ *)
(* Clean encodings: no false positives                                 *)
(* ------------------------------------------------------------------ *)

let test_clean_creation () =
  let catalog = toy_catalog 3 in
  let encoding =
    Encoding.create ~num_ports:3 ~symmetry_breaking:true
      [ (Catalog.find catalog 0, Encoding.Proper 2);
        (Catalog.find catalog 1, Encoding.Proper 2);
        (Catalog.find catalog 2, Encoding.Proper 1) ]
  in
  check_clean "creation"
    (Enclint.analyze (Encoding.sat encoding) (Encoding.enclint_view encoding))

let test_clean_improper () =
  (* Store-blocker machinery: shared µops and selector networks. *)
  let catalog = toy_catalog 3 in
  let encoding =
    Encoding.create ~num_ports:3 ~symmetry_breaking:true
      [ (Catalog.find catalog 0, Encoding.Proper 2);
        (Catalog.find catalog 1, Encoding.Proper 1);
        (Catalog.find catalog 2, Encoding.Improper { own_ports = 1 }) ]
  in
  check_clean "improper"
    (Enclint.analyze (Encoding.sat encoding) (Encoding.enclint_view encoding))

let test_clean_guarded_subset () =
  (* The culprit session's shape: every row guarded, Proper and Improper
     rows mixed, a strict subset activated, and the assumptions that
     [activate] returns frozen for the next solve. *)
  let catalog = toy_catalog 4 in
  let scheme = Catalog.find catalog in
  let encoding =
    Encoding.create ~num_ports:3 ~guarded:true
      [ (scheme 0, Encoding.Proper 2);
        (scheme 1, Encoding.Proper 1);
        (scheme 2, Encoding.Improper { own_ports = 1 });
        (scheme 3, Encoding.Proper 3) ]
  in
  let frozen = Encoding.activate encoding [ scheme 0; scheme 2 ] in
  check_clean "guarded subset"
    (Enclint.analyze (Encoding.sat encoding)
       (Encoding.enclint_view ~frozen encoding))

(* ------------------------------------------------------------------ *)
(* Seeded mutations                                                    *)
(* ------------------------------------------------------------------ *)

let row ?(subject = "row mut") ?(act = -1) networks =
  { Enclint.subject; act; networks }

let view ?(rows = []) () = { Enclint.empty_view with Enclint.rows }

let test_flags_dropped_guard () =
  (* The row claims activation variable [act], but its network was built
     without the guard: both the metadata check and the per-clause ¬act
     scan must fire. *)
  let s = Sat.create () in
  let act = Sat.fresh_var s in
  Sat.mark_guard s act;
  let vars = List.init 3 (fun _ -> Sat.fresh_var s) in
  let net = Card.exactly s (List.map Lit.pos vars) 1 in
  let diags =
    Enclint.analyze s (view ~rows:[ row ~act [ (1, net) ] ] ())
  in
  expect_error "missing-guard" diags

let test_flags_dropped_guard_semantic () =
  (* The subtler bug: the network records a guard, but some clause lost
     the literal — with the guard satisfied the network must be vacuously
     satisfiable, and a stripped clause can still bind.  Caught by the
     exhaustive vacuity sweep, not by metadata. *)
  let s = Sat.create () in
  let act = Sat.fresh_var s in
  Sat.mark_guard s act;
  let g = Lit.neg_of_var act in
  let vars = List.init 3 (fun _ -> Sat.fresh_var s) in
  let net = Card.exactly ~guard:g s (List.map Lit.pos vars) 1 in
  let forged =
    { net with
      Card.clauses = List.map (List.filter (fun l -> l <> g)) net.Card.clauses }
  in
  let diags =
    Enclint.analyze s (view ~rows:[ row ~act [ (1, forged) ] ] ())
  in
  expect_error "card-guard" diags

let test_flags_wrong_bound () =
  (* Declared bound 2, encoded bound 1: the record disagrees with what the
     encoding asked for (bound-mismatch), and forging the record to agree
     still trips the exhaustive enumeration (card-bound). *)
  let s = Sat.create () in
  let vars = List.init 4 (fun _ -> Sat.fresh_var s) in
  let net = Card.exactly s (List.map Lit.pos vars) 1 in
  expect_error "bound-mismatch"
    (Enclint.analyze s (view ~rows:[ row [ (2, net) ] ] ()));
  let forged = { net with Card.bound = 2 } in
  expect_error "card-bound"
    (Enclint.analyze s (view ~rows:[ row [ (2, forged) ] ] ()))

let test_flags_unguarded_row () =
  (* A row without an activation literal in an encoding where other rows
     are guarded can never be switched off. *)
  let s = Sat.create () in
  let act = Sat.fresh_var s in
  Sat.mark_guard s act;
  let g = Lit.neg_of_var act in
  let vars1 = List.init 2 (fun _ -> Sat.fresh_var s) in
  let net1 = Card.exactly ~guard:g s (List.map Lit.pos vars1) 1 in
  let vars2 = List.init 2 (fun _ -> Sat.fresh_var s) in
  let net2 = Card.exactly s (List.map Lit.pos vars2) 1 in
  let diags =
    Enclint.analyze s
      (view
         ~rows:
           [ row ~subject:"guarded" ~act [ (1, net1) ];
             row ~subject:"unguarded" [ (1, net2) ] ]
         ())
  in
  expect_error "unguarded-row" diags

let test_flags_duplicate_clause () =
  let s = Sat.create () in
  let vars = List.init 3 (fun _ -> Sat.fresh_var s) in
  let c = List.map Lit.pos vars in
  Sat.add_clause s c;
  Sat.add_clause s c;
  let diags = Enclint.analyze s Enclint.empty_view in
  Alcotest.(check bool) "duplicate flagged" true
    (has_rule "duplicate-clause" diags)

let test_flags_frozen_unused () =
  let s = Sat.create () in
  let a = Sat.fresh_var s in
  let b = Sat.fresh_var s in
  Sat.add_clause s [ Lit.pos a; Lit.pos b ];
  let diags =
    Enclint.analyze s
      { Enclint.empty_view with Enclint.frozen = [ Lit.pos b ] }
  in
  (* [b] occurs in a live clause, so the freeze is meaningful. *)
  Alcotest.(check bool) "b occurs" false (has_rule "frozen-unused" diags);
  let s2 = Sat.create () in
  let c = Sat.fresh_var s2 in
  let diags2 =
    Enclint.analyze s2
      { Enclint.empty_view with Enclint.frozen = [ Lit.pos c ] }
  in
  Alcotest.(check bool) "unused flagged" true (has_rule "frozen-unused" diags2)

(* ------------------------------------------------------------------ *)
(* The CEGIS gate                                                      *)
(* ------------------------------------------------------------------ *)

let gated_config num_ports =
  { Cegis.default_config with
    Cegis.num_ports;
    r_max = num_ports + 1;
    max_experiment_size = 4;
    certify = true;
    enclint = true }

let test_cegis_gated_certified () =
  (* The acceptance bar: a --certify run with the analyzer gating every
     episode converges — no false positive aborts the run, and every
     certificate was checker-accepted. *)
  let catalog = toy_catalog 2 in
  let num_ports = 2 in
  let truth = Mapping.create ~num_ports in
  let p0 = Portset.singleton 0 in
  Mapping.set truth (Catalog.find catalog 0) [ (p0, 1) ];
  Mapping.set truth (Catalog.find catalog 1) [ (p0, 1) ];
  let config = gated_config num_ports in
  let measure e = Cegis.modeled_inverse config truth e in
  let specs =
    [ (Catalog.find catalog 0, Encoding.Proper 1);
      (Catalog.find catalog 1, Encoding.Proper 1) ]
  in
  match Cegis.infer ~config ~measure ~specs () with
  | Cegis.Converged _ -> ()
  | Cegis.No_consistent_mapping _ -> Alcotest.fail "unexpected UNSAT"
  | Cegis.Iteration_limit _ -> Alcotest.fail "iteration limit"

let () =
  Alcotest.run "enclint"
    [ ("clean",
       [ Alcotest.test_case "creation-time encoding" `Quick
           test_clean_creation;
         Alcotest.test_case "improper (store-blocker) encoding" `Quick
           test_clean_improper;
         Alcotest.test_case "guarded subset activation" `Quick
           test_clean_guarded_subset ]);
      ("mutations",
       [ Alcotest.test_case "dropped guard (metadata)" `Quick
           test_flags_dropped_guard;
         Alcotest.test_case "dropped guard (semantic)" `Quick
           test_flags_dropped_guard_semantic;
         Alcotest.test_case "wrong cardinality bound" `Quick
           test_flags_wrong_bound;
         Alcotest.test_case "unguarded row in a guarded encoding" `Quick
           test_flags_unguarded_row;
         Alcotest.test_case "duplicate clause" `Quick
           test_flags_duplicate_clause;
         Alcotest.test_case "frozen literal unused" `Quick
           test_flags_frozen_unused ]);
      ("cegis-gate",
       [ Alcotest.test_case "certified run with gate" `Quick
           test_cegis_gated_certified ]) ]
