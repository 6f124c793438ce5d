(* Tests of the benchmark's own code: span self-time aggregation on a
   synthetic event list, and the output checks against corrupted funnels. *)

open Perfbench
module Obs = Pmi_obs.Obs
module Pipeline = Pmi_core.Pipeline

let span ?(tid = 0) name ~ts ~dur ~depth =
  { Obs.kind = Obs.Span; name; path = name; tid; ts_ns = ts; dur_ns = dur;
    depth; args = [] }

(* Events in ring order: a span is recorded when it closes. *)
let events =
  [ span "c" ~ts:15 ~dur:10 ~depth:2;
    span "b" ~ts:10 ~dur:30 ~depth:1;
    span "b" ~ts:50 ~dur:20 ~depth:1;
    span "a" ~ts:0 ~dur:100 ~depth:0;
    span ~tid:1 "e" ~ts:10 ~dur:10 ~depth:1;
    span ~tid:1 "a" ~ts:5 ~dur:50 ~depth:0;
    { (span "mark" ~ts:60 ~dur:0 ~depth:1) with Obs.kind = Obs.Instant };
    span "d" ~ts:200 ~dur:30 ~depth:0;
    (* a child that starts on the same tick as its parent *)
    span "g" ~ts:300 ~dur:5 ~depth:1;
    span "f" ~ts:300 ~dur:10 ~depth:0 ]

let test_self_time () =
  let t = Spans.of_events events in
  let check name calls total self =
    let a = Spans.find t name in
    Alcotest.(check (list int)) name [ calls; total; self ]
      [ a.Spans.calls; a.Spans.total_ns; a.Spans.self_ns ]
  in
  (* a: 100 - (30 + 20) on domain 0, 50 - 10 on domain 1 *)
  check "a" 2 150 90;
  check "b" 2 50 40;
  check "c" 1 10 10;
  check "d" 1 30 30;
  check "e" 1 10 10;
  check "f" 1 10 5;
  check "g" 1 5 5;
  check "mark" 0 0 0;
  Alcotest.(check int) "top level" (100 + 50 + 30 + 10) t.Spans.top_level_ns;
  Alcotest.(check int) "a instances with a b child" 1
    (Spans.count_instances t "a" (List.mem "b"));
  Alcotest.(check int) "a instances without a b child" 1
    (Spans.count_instances t "a" (fun kids -> not (List.mem "b" kids)))

let test_sum_arg () =
  let with_args ev args = { ev with Obs.args } in
  let evs =
    [ with_args (span "theory.check" ~ts:0 ~dur:1 ~depth:0) [ ("lemmas", Obs.Int 3) ];
      with_args (span "theory.check" ~ts:2 ~dur:1 ~depth:0) [ ("lemmas", Obs.Int 4) ];
      with_args (span "other" ~ts:4 ~dur:1 ~depth:0) [ ("lemmas", Obs.Int 100) ] ]
  in
  Alcotest.(check int) "lemmas" 7 (Spans.sum_arg evs ~name:"theory.check" ~arg:"lemmas")

(* The Zen+ result the benchmark expects, field by field. *)
let zen_funnel =
  { Pipeline.total = 2980; excluded_individual = 657; after_stage1 = 2323;
    candidates_initial = 691; excluded_pairing = 436; after_stage2 = 1887;
    candidates_final = 563; blocking_classes = 13; excluded_mnemonic = 68;
    considered = 1819; regular_pattern = 1242; spurious_ms = 146;
    unstable = 119; inferred = 1700 }

let zen_summary =
  { Checks.funnel = zen_funnel; table2 = Checks.zen_table2;
    culprits = [ "imul"; "vmovd"; "vpmuldq" ] }

let corruptions =
  let f = zen_funnel in
  [ ("total", { f with Pipeline.total = 2979 });
    ("excluded_individual", { f with Pipeline.excluded_individual = 658 });
    ("after_stage1", { f with Pipeline.after_stage1 = 2322 });
    ("candidates_initial", { f with Pipeline.candidates_initial = 690 });
    ("excluded_pairing", { f with Pipeline.excluded_pairing = 437 });
    ("after_stage2", { f with Pipeline.after_stage2 = 1886 });
    ("candidates_final", { f with Pipeline.candidates_final = 562 });
    ("blocking_classes", { f with Pipeline.blocking_classes = 12 });
    ("excluded_mnemonic", { f with Pipeline.excluded_mnemonic = 69 });
    ("considered", { f with Pipeline.considered = 1818 });
    ("inferred", { f with Pipeline.inferred = 1701 }) ]

let rejected what expected summary =
  Alcotest.(check bool) (what ^ " rejected") true (Checks.check expected summary <> [])

let test_zen_checks () =
  Alcotest.(check (list string)) "correct run accepted" []
    (Checks.check Checks.zen_plus zen_summary);
  List.iter
    (fun (what, funnel) -> rejected what Checks.zen_plus { zen_summary with funnel })
    corruptions;
  let table2 = zen_summary.Checks.table2 in
  rejected "Table 2 usage" Checks.zen_plus
    { zen_summary with
      table2 =
        List.map
          (fun (scheme, usage) ->
             if scheme = "vpslld <XMM>, <XMM>, <XMM>" then (scheme, "[3]")
             else (scheme, usage))
          table2 };
  rejected "Table 2 missing row" Checks.zen_plus
    { zen_summary with table2 = List.tl table2 };
  rejected "Table 2 extra row" Checks.zen_plus
    { zen_summary with table2 = ("vmovd <XMM>, <GPR[32]>", "[2]") :: table2 };
  rejected "culprit swapped" Checks.zen_plus
    { zen_summary with culprits = [ "imul"; "vmovd"; "vpslld" ] };
  rejected "culprit missing" Checks.zen_plus
    { zen_summary with culprits = [ "imul"; "vmovd" ] }

let test_a64fx_checks () =
  let funnel =
    { zen_funnel with
      Pipeline.blocking_classes = 11; excluded_mnemonic = 33; inferred = 1735 }
  in
  let ok = { Checks.funnel; table2 = []; culprits = [ "imul"; "vmovd" ] } in
  Alcotest.(check (list string)) "correct run accepted" [] (Checks.check Checks.a64fx ok);
  List.iter
    (fun (what, funnel) -> rejected what Checks.a64fx { ok with funnel })
    [ ("blocking_classes", { funnel with Pipeline.blocking_classes = 13 });
      ("excluded_mnemonic", { funnel with Pipeline.excluded_mnemonic = 68 });
      ("inferred", { funnel with Pipeline.inferred = 1700 });
      ("after_stage2", { funnel with Pipeline.after_stage2 = 1888 }) ];
  rejected "culprits" Checks.a64fx { ok with culprits = [ "imul"; "vmovd"; "vpmuldq" ] }

let test_certificates () =
  Alcotest.(check int) "plain run unchecked" 0
    (List.length (Checks.certificate_errors ~certify:false ~checked:0 ~episodes:477));
  Alcotest.(check int) "all certified" 0
    (List.length (Checks.certificate_errors ~certify:true ~checked:477 ~episodes:477));
  Alcotest.(check int) "one uncertified" 1
    (List.length (Checks.certificate_errors ~certify:true ~checked:476 ~episodes:477))

let () =
  Alcotest.run "perfbench"
    [ ("spans",
       [ Alcotest.test_case "self time" `Quick test_self_time;
         Alcotest.test_case "argument sums" `Quick test_sum_arg ]);
      ("checks",
       [ Alcotest.test_case "zen-full" `Quick test_zen_checks;
         Alcotest.test_case "a64fx" `Quick test_a64fx_checks;
         Alcotest.test_case "certificates" `Quick test_certificates ]) ]
