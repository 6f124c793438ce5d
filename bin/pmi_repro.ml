(* Reproduction driver: regenerates the paper's tables and figures on the
   simulated Zen+ machine.  See EXPERIMENTS.md for the index. *)

open Pmi_isa
module Mapping = Pmi_portmap.Mapping
module Machine = Pmi_machine.Machine
module Harness = Pmi_measure.Harness
module Pipeline = Pmi_core.Pipeline
module Blocking = Pmi_core.Blocking

module Store = Pmi_store.Store

let setup_logs level =
  Fmt_tty.setup_std_outputs ();
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level level

(* [--store DIR]: the durable measurement/certificate store.  Opened
   lazily on first use — `store verify` must be able to inspect the
   directory read-only before recovery truncates anything — and closed at
   exit.  One handle per process, shared by the harness tier and the
   CEGIS certificate cache. *)
let store_dir = ref None
let store_handle = ref None

let get_store () =
  match !store_dir with
  | None -> None
  | Some dir ->
    (match !store_handle with
     | Some s -> Some s
     | None ->
       let s = Store.open_ dir in
       store_handle := Some s;
       at_exit (fun () -> Store.close s);
       Some s)

let make_machine ~reduced ~seed =
  let catalog =
    if reduced > 0 then Catalog.reduced ~per_bucket:reduced ()
    else Catalog.zen_plus ()
  in
  let config = { Machine.default_config with Machine.seed } in
  Machine.create ~config catalog

let make_harness ~reduced ~seed =
  Harness.create ?store:(get_store ()) (make_machine ~reduced ~seed)

module Obs = Pmi_obs.Obs

(* [--trace FILE] / [--metrics]: switch the telemetry layer on before the
   command body runs and flush the exporters at exit.  The flush is an
   [at_exit] hook because several subcommands (lint, sanitize) leave via
   [exit] rather than by returning. *)
let setup_obs ~trace ~metrics =
  if trace <> None || metrics then begin
    Obs.enable ();
    at_exit (fun () ->
        Obs.disable ();
        (match trace with
         | Some file ->
           Obs.write_chrome_trace file;
           Format.eprintf "pmi_repro: wrote %d trace events to %s@."
             (List.length (Obs.events ()))
             file
         | None -> ());
        if metrics then prerr_string (Obs.summary ()))
  end

(* Set once from the command line (see [with_logs]) before any pipeline
   run; [None] leaves the CEGIS solvers silent. *)
let cnf_prefix = ref None

(* [--certify]: have every CEGIS verdict carry an independently checked
   certificate (DRAT proof for UNSAT, CNF + theory replay for SAT). *)
let certify = ref false

(* [--enclint]: gate every CEGIS solver episode behind the static
   encoding analyzer. *)
let enclint_on = ref false

let make_cegis_config () =
  { Pipeline.default_config.Pipeline.cegis with
    Pmi_core.Cegis.dump_cnf = !cnf_prefix;
    Pmi_core.Cegis.certify = !certify;
    Pmi_core.Cegis.enclint = !enclint_on;
    Pmi_core.Cegis.store = get_store () }

let run_pipeline ~reduced ~seed =
  let harness = make_harness ~reduced ~seed in
  let config =
    { Pipeline.default_config with Pipeline.cegis = make_cegis_config () }
  in
  let t0 = Unix.gettimeofday () in
  let result = Pipeline.run ~config harness in
  let dt = Unix.gettimeofday () -. t0 in
  Format.printf "pipeline finished in %.1f s (%d benchmarks)@." dt
    (Harness.benchmarks_run harness);
  (harness, result)

(* ------------------------------------------------------------------ *)
(* Funnel (§4.1-§4.4 numbers)                                          *)
(* ------------------------------------------------------------------ *)

let print_funnel (_, result) =
  Format.printf "@.== Case-study funnel ==@.%a" Pipeline.pp_funnel
    result.Pipeline.funnel

let funnel reduced seed = print_funnel (run_pipeline ~reduced ~seed)

(* ------------------------------------------------------------------ *)
(* Table 1: blocking-instruction classes                               *)
(* ------------------------------------------------------------------ *)

let paper_table1 =
  [ ("add", 4, 242); ("vpor", 4, 21); ("vpaddd", 3, 30); ("vminps", 2, 143);
    ("vbroadcastss", 2, 50); ("vpaddsw", 2, 17); ("vaddps", 2, 10);
    ("mov", 2, 6); ("vpslld", 1, 27); ("vpmuldq", 1, 10); ("imul", 1, 9);
    ("vroundps", 1, 4); ("vmovd", 1, 2) ]

let print_table1 (_, result) =
  Format.printf "@.== Table 1: blocking instruction classes ==@.";
  Format.printf "%-8s %-44s %8s %10s@." "# Ports" "Representative" "# Equiv."
    "(paper)";
  List.iter
    (fun k ->
       let mnemonic = Scheme.mnemonic k.Blocking.representative in
       let paper =
         match
           List.find_opt
             (fun (m, p, _) -> m = mnemonic && p = k.Blocking.port_count)
             paper_table1
         with
         | Some (_, _, n) -> string_of_int n
         | None -> "-"
       in
       Format.printf "%-8d %-44s %8d %10s@." k.Blocking.port_count
         (Scheme.name k.Blocking.representative)
         (List.length k.Blocking.members)
         paper)
    result.Pipeline.filtering.Blocking.classes;
  Format.printf "@.dropped as unstable: %d, as contradictory: %d@."
    (List.length result.Pipeline.filtering.Blocking.unstable)
    (List.length result.Pipeline.filtering.Blocking.contradictory)

let table1 reduced seed = print_table1 (run_pipeline ~reduced ~seed)

(* ------------------------------------------------------------------ *)
(* Table 2: inferred port usage of the blocking instructions           *)
(* ------------------------------------------------------------------ *)

let print_table2 (harness, result) =
  let machine = Harness.machine harness in
  let docs = Machine.ground_truth machine in
  Format.printf "@.== Table 2: documented vs inferred port usage ==@.";
  Format.printf "%-44s %-24s %s@." "Instruction scheme" "Doc. ports"
    "Inferred ports";
  let show scheme =
    let doc =
      match Mapping.find_opt docs scheme with
      | Some usage -> Mapping.usage_to_string usage
      | None -> "-"
    in
    let inferred =
      match Mapping.find_opt result.Pipeline.blocker_mapping scheme with
      | Some usage -> Mapping.usage_to_string usage
      | None -> "-"
    in
    Format.printf "%-44s %-24s %s@." (Scheme.name scheme) doc inferred
  in
  List.iter
    (fun k -> show k.Blocking.representative)
    (List.filter
       (fun k ->
          not
            (List.exists
               (fun r ->
                  Scheme.equal r.Blocking.representative k.Blocking.representative)
               result.Pipeline.removed_classes))
       result.Pipeline.filtering.Blocking.classes);
  List.iter show result.Pipeline.improper;
  (match result.Pipeline.alignment with
   | Some a ->
     Format.printf "@.port renaming matched %d schemes%s@."
       (List.length a.Pmi_core.Relabel.matched)
       (match a.Pmi_core.Relabel.dropped with
        | [] -> ""
        | dropped ->
          Printf.sprintf " (ambiguous, as in the paper: %s)"
            (String.concat ", " (List.map Scheme.name dropped)))
   | None -> Format.printf "@.no port renaming found@.");
  List.iter
    (fun k ->
       Format.printf "excluded during inference (§4.3): %s@."
         (Scheme.name k.Blocking.representative))
    result.Pipeline.removed_classes;
  (match result.Pipeline.cegis_stats with
   | Some stats ->
     Format.printf
       "@.CEGIS: %d iterations, %d experiments, %d candidate mappings, %d lemmas@."
       stats.Pmi_core.Cegis.iterations
       (List.length stats.Pmi_core.Cegis.observations)
       stats.Pmi_core.Cegis.candidates_tried
       stats.Pmi_core.Cegis.theory_lemmas;
     let s = stats.Pmi_core.Cegis.sat in
     Format.printf
       "SAT:   %d decisions, %d propagations, %d conflicts, %d restarts, \
        %d learned (max glue %d), %d deleted by reduction@."
       s.Pmi_smt.Sat.decisions s.Pmi_smt.Sat.propagations
       s.Pmi_smt.Sat.conflicts s.Pmi_smt.Sat.restarts
       s.Pmi_smt.Sat.learned s.Pmi_smt.Sat.max_lbd
       s.Pmi_smt.Sat.deleted
   | None -> ())

let table2 reduced seed = print_table2 (run_pipeline ~reduced ~seed)

(* ------------------------------------------------------------------ *)
(* Figure 5: prediction accuracy vs PMEvo and Palmed                   *)
(* ------------------------------------------------------------------ *)

let print_figure5 reduced (harness, result) =
  let options =
    if reduced > 0 then Pmi_eval.Figure5.quick_options
    else Pmi_eval.Figure5.default_options
  in
  let t0 = Unix.gettimeofday () in
  let fig =
    Pmi_eval.Figure5.run ~options harness ~mapping:result.Pipeline.mapping
  in
  Format.printf "evaluation finished in %.1f s@.@."
    (Unix.gettimeofday () -. t0);
  Format.printf "%a@." Pmi_eval.Figure5.pp fig

let figure5 reduced seed = print_figure5 reduced (run_pipeline ~reduced ~seed)

(* ------------------------------------------------------------------ *)
(* Infer: the CEGIS loop itself, front and center                      *)
(* ------------------------------------------------------------------ *)

(* The subcommand exists mostly for telemetry: [pmi_repro infer --trace
   out.json] yields a Perfetto-loadable timeline whose cegis.iteration
   spans show the findMapping / findOtherMapping / distinguish / observe
   cadence of the whole dialogue.  The textual output is the CEGIS digest
   the other reproduction commands only print in passing. *)
let infer reduced seed =
  let _, result = run_pipeline ~reduced ~seed in
  Format.printf "@.== CEGIS inference ==@.";
  Format.printf "inferred port usage for %d schemes@."
    (Mapping.size result.Pipeline.mapping);
  (match result.Pipeline.cegis_stats with
   | None -> Format.printf "no CEGIS statistics recorded@."
   | Some stats ->
     Format.printf
       "CEGIS: %d iterations, %d experiments, %d candidate mappings, %d \
        lemmas@."
       stats.Pmi_core.Cegis.iterations
       (List.length stats.Pmi_core.Cegis.observations)
       stats.Pmi_core.Cegis.candidates_tried
       stats.Pmi_core.Cegis.theory_lemmas;
     let s = stats.Pmi_core.Cegis.sat in
     Format.printf
       "SAT:   %d decisions, %d propagations, %d conflicts, %d restarts, \
        %d learned (max glue %d), %d deleted by reduction@."
       s.Pmi_smt.Sat.decisions s.Pmi_smt.Sat.propagations
       s.Pmi_smt.Sat.conflicts s.Pmi_smt.Sat.restarts
       s.Pmi_smt.Sat.learned s.Pmi_smt.Sat.max_lbd s.Pmi_smt.Sat.deleted);
  if Obs.enabled () then
    Format.printf
      "telemetry: %d events recorded so far (%d dropped); see --trace / \
       --metrics@."
      (List.length (Obs.events ()))
      (Obs.dropped ())

(* ------------------------------------------------------------------ *)
(* Export / analyze: the downstream-tool workflow                      *)
(* ------------------------------------------------------------------ *)

let export_path = "zenplus_portmap.txt"

let export reduced seed =
  let _, result = run_pipeline ~reduced ~seed in
  let oc = open_out export_path in
  Pmi_portmap.Mapping_io.write oc result.Pipeline.mapping;
  close_out oc;
  Format.printf "wrote %d scheme mappings to %s@."
    (Mapping.size result.Pipeline.mapping) export_path

let resolve_fuzzy catalog text =
  let exact = Pmi_portmap.Mapping_io.resolver catalog in
  match exact text with
  | Some s -> Some s
  | None ->
    (* Fall back to the first scheme whose rendering starts with the
       given prefix, e.g. "vpaddd" or "add <GPR[32]". *)
    Array.find_opt
      (fun s ->
         let name = Scheme.name s in
         String.length name >= String.length text
         && String.sub name 0 (String.length text) = text)
      (Catalog.schemes catalog)

let analyze_block insns reduced seed =
  let harness = make_harness ~reduced ~seed in
  let machine = Harness.machine harness in
  let catalog = Machine.catalog machine in
  let mapping =
    if Sys.file_exists export_path then begin
      let ic = open_in export_path in
      let result =
        Pmi_portmap.Mapping_io.read
          ~resolve:(Pmi_portmap.Mapping_io.resolver catalog) ic
      in
      close_in ic;
      match result with
      | Ok m ->
        Format.printf "using the inferred mapping from %s@." export_path;
        m
      | Error e ->
        Format.eprintf "%s:%d: %s; falling back to documented mapping@."
          export_path e.Pmi_portmap.Mapping_io.line
          e.Pmi_portmap.Mapping_io.message;
        Machine.ground_truth machine
    end
    else begin
      Format.printf
        "no %s (run `pmi_repro export` first); using the documented mapping@."
        export_path;
      Machine.ground_truth machine
    end
  in
  let insns =
    if insns <> [] then insns
    else [ "add <GPR[32]>, <GPR[32]>"; "add <GPR[32]>, <GPR[32]>";
           "vpaddd"; "vminps"; "mov <GPR[32]>, <MEM[32]>" ]
  in
  let schemes =
    List.map
      (fun text ->
         match resolve_fuzzy catalog text with
         | Some s -> s
         | None ->
           Format.eprintf "unknown instruction scheme: %s@." text;
           exit 2)
      insns
  in
  let block = Pmi_portmap.Experiment.of_list schemes in
  match Pmi_portmap.Analysis.analyze ~r_max:(Machine.r_max machine) mapping block with
  | report -> Format.printf "@.%a@." Pmi_portmap.Analysis.pp report
  | exception Pmi_portmap.Throughput.Unsupported s ->
    Format.eprintf "the mapping does not cover %s@." (Scheme.name s);
    exit 2

(* ------------------------------------------------------------------ *)
(* Report: a markdown summary of the whole study                        *)
(* ------------------------------------------------------------------ *)

let report reduced seed =
  let harness, result = run_pipeline ~reduced ~seed in
  let options =
    if reduced > 0 then Pmi_eval.Figure5.quick_options
    else Pmi_eval.Figure5.default_options
  in
  let fig =
    Pmi_eval.Figure5.run ~options harness ~mapping:result.Pipeline.mapping
  in
  let path = "REPORT.md" in
  Pmi_eval.Report.write ~figure5:fig ~harness ~path result;
  Format.printf "wrote %s@." path

(* ------------------------------------------------------------------ *)
(* Diff: inferred mapping vs the documented ground truth               *)
(* ------------------------------------------------------------------ *)

let diff reduced seed =
  let harness, result = run_pipeline ~reduced ~seed in
  let docs = Machine.ground_truth (Harness.machine harness) in
  let d = Pmi_portmap.Diff.compute ~left:result.Pipeline.mapping ~right:docs in
  Format.printf "@.== Inferred mapping vs documented ground truth ==@.";
  Format.printf "%a" (Pmi_portmap.Diff.pp ~max_rows:25 ()) d;
  Format.printf
    "@.(schemes only in the documentation are those the algorithm excluded \
     or found unstable)@."

(* ------------------------------------------------------------------ *)
(* Explain: the witness chain behind one scheme's inferred usage        *)
(* ------------------------------------------------------------------ *)

let explain_scheme insns reduced seed =
  let harness, result = run_pipeline ~reduced ~seed in
  let catalog = Machine.catalog (Harness.machine harness) in
  let blockers = result.Pipeline.blockers in
  let insns = if insns <> [] then insns else [ "add <GPR[32]>, <MEM[32]>" ] in
  List.iter
    (fun text ->
       match resolve_fuzzy catalog text with
       | None -> Format.eprintf "unknown instruction scheme: %s@." text
       | Some scheme ->
         (match Pmi_core.Port_usage.characterize harness ~blockers scheme with
          | Pmi_core.Port_usage.Usage { usage; witnesses; postulated; spurious } ->
            Format.printf "@.%a" Pmi_core.Port_usage.pp_witnesses
              (scheme, witnesses);
            Format.printf
              "conclusion: %s  (counter postulates %d µop%s)%s@."
              (Mapping.usage_to_string usage) postulated
              (if postulated = 1 then "" else "s")
              (if spurious then
                 "  [microcode-sequencer artefact: counts exceed the counter]"
               else "")
          | Pmi_core.Port_usage.Failed f ->
            Format.printf "%s: outside the port-mapping model (%s)@."
              (Scheme.name scheme)
              (match f with
               | Pmi_core.Port_usage.Unstable e -> "unstable: " ^ e
               | Pmi_core.Port_usage.Non_integral (p, v) ->
                 Printf.sprintf "non-integral µop count %.2f on %s" v
                   (Pmi_portmap.Portset.to_string p))))
    insns

(* ------------------------------------------------------------------ *)
(* Lint: the static sanity pass over everything the repo ships          *)
(* ------------------------------------------------------------------ *)

module Lint = Pmi_analysis.Lint
module Diag = Pmi_diag.Diag

let lint_files files json reduced _seed =
  let catalog =
    if reduced > 0 then Catalog.reduced ~per_bucket:reduced ()
    else Catalog.zen_plus ()
  in
  let lint_file path =
    if not (Sys.file_exists path) then
      [ { Lint.rule = "mapping-file-missing"; severity = Lint.Error;
          subject = path; message = "no such file" } ]
    else begin
      let ic = open_in path in
      let result =
        Pmi_portmap.Mapping_io.read
          ~resolve:(Pmi_portmap.Mapping_io.resolver catalog) ic
      in
      close_in ic;
      match result with
      | Ok m -> Lint.lint_mapping ~subject:("mapping " ^ path) m
      | Error e ->
        [ { Lint.rule = "mapping-parse-error"; severity = Lint.Error;
            subject = path;
            message =
              Printf.sprintf "line %d: %s" e.Pmi_portmap.Mapping_io.line
                e.Pmi_portmap.Mapping_io.message } ]
    end
  in
  let diags =
    Lint.builtin ~catalog ()
    @ Pmi_analysis.Mapcheck.builtin ~catalog ()
    @ List.concat_map lint_file files
  in
  Diag.print_all ~json diags;
  prerr_endline (Diag.summary ~pass:"lint" diags);
  if Diag.errors diags <> [] then exit 1

(* ------------------------------------------------------------------ *)
(* MapCheck: the semantic analysis pass over port mappings              *)
(* ------------------------------------------------------------------ *)

module Mapcheck = Pmi_analysis.Mapcheck

(* [pmi_repro mapcheck] audits the built-in ground-truth mappings through
   the abstract interpreter — interval soundness against the exact
   rational oracle and the LP model, counter-consistency replay,
   dominance/symmetry structure — plus every mapping file given on the
   command line. *)
let mapcheck_run files json reduced _seed =
  let catalog =
    if reduced > 0 then Catalog.reduced ~per_bucket:reduced ()
    else Catalog.zen_plus ()
  in
  let r_max = Pmi_machine.Profile.zen_plus.Pmi_machine.Profile.r_max in
  let from_file path =
    if not (Sys.file_exists path) then
      [ Diag.make "mapping-file-missing" Diag.Error path "no such file" ]
    else begin
      let ic = open_in path in
      let result =
        Pmi_portmap.Mapping_io.read
          ~resolve:(Pmi_portmap.Mapping_io.resolver catalog) ic
      in
      close_in ic;
      match result with
      | Error e ->
        [ Diag.make "mapping-parse-error" Diag.Error path "line %d: %s"
            e.Pmi_portmap.Mapping_io.line e.Pmi_portmap.Mapping_io.message ]
      | Ok m ->
        Mapcheck.audit_mapping ~r_max ~subject:("mapping " ^ path) m
    end
  in
  let diags = Mapcheck.builtin ~catalog () @ List.concat_map from_file files in
  Diag.print_all ~json diags;
  prerr_endline (Diag.summary ~pass:"mapcheck" diags);
  if Diag.errors diags <> [] then exit 1

(* ------------------------------------------------------------------ *)
(* EncLint: the static analysis pass over the CEGIS encodings           *)
(* ------------------------------------------------------------------ *)

module Enclint = Pmi_analysis.Enclint

(* [pmi_repro enclint] analyzes the built-in encoding shapes — a
   creation-time encoding with symmetry breaking, and a guarded encoding
   (the §4.3 culprit session's shape) with a strict subset of its rows
   activated — plus one encoding rebuilt from each mapping file given on
   the command line. *)
let enclint_run files json reduced _seed =
  let module Encoding = Pmi_core.Encoding in
  let catalog =
    if reduced > 0 then Catalog.reduced ~per_bucket:reduced ()
    else Catalog.zen_plus ()
  in
  let analyze_encoding ?frozen ?accepted encoding =
    Enclint.analyze (Encoding.sat encoding)
      (Encoding.enclint_view ?frozen ?accepted encoding)
  in
  let toy_schemes () =
    let toy =
      Catalog.of_list
        [ ("add", [ Operand.gpr 64; Operand.gpr ~access:Operand.Read 64 ],
           Iclass.plain (Iclass.Single Iclass.Alu));
          ("mul", [ Operand.gpr 64; Operand.gpr ~access:Operand.Read 64 ],
           Iclass.plain (Iclass.Single Iclass.Alu));
          ("fma", [ Operand.gpr 64; Operand.gpr ~access:Operand.Read 64 ],
           Iclass.plain (Iclass.Single Iclass.Alu)) ]
    in
    (Catalog.find toy 0, Catalog.find toy 1, Catalog.find toy 2)
  in
  let creation () =
    let add, mul, fma = toy_schemes () in
    let encoding =
      Encoding.create ~num_ports:3 ~symmetry_breaking:true
        [ (add, Encoding.Proper 2); (mul, Encoding.Proper 2);
          (fma, Encoding.Proper 1) ]
    in
    analyze_encoding encoding
  in
  let guarded () =
    let add, mul, fma = toy_schemes () in
    let encoding =
      Encoding.create ~num_ports:3 ~guarded:true
        [ (add, Encoding.Proper 2); (mul, Encoding.Proper 1);
          (fma, Encoding.Improper { own_ports = 1 }) ]
    in
    let frozen = Encoding.activate encoding [ add; fma ] in
    analyze_encoding ~frozen encoding
  in
  let from_file path =
    if not (Sys.file_exists path) then
      [ Diag.make "mapping-file-missing" Diag.Error path "no such file" ]
    else begin
      let ic = open_in path in
      let result =
        Pmi_portmap.Mapping_io.read
          ~resolve:(Pmi_portmap.Mapping_io.resolver catalog) ic
      in
      close_in ic;
      match result with
      | Error e ->
        [ Diag.make "mapping-parse-error" Diag.Error path "line %d: %s"
            e.Pmi_portmap.Mapping_io.line e.Pmi_portmap.Mapping_io.message ]
      | Ok m ->
        (* Rebuild the encoding the mapping's proper rows imply: each
           single-µop scheme contributes a [Proper] row with the port
           count the mapping declares.  Multi-µop rows need the selector
           machinery and are skipped in a file-driven rebuild. *)
        let specs =
          List.filter_map
            (fun s ->
               match Mapping.usage m s with
               | [ (ports, 1) ] ->
                 Some
                   ( s,
                     Encoding.Proper
                       (List.length (Pmi_portmap.Portset.to_list ports)) )
               | _ -> None)
            (Mapping.schemes m)
        in
        if specs = [] then
          [ Diag.make "enclint-no-proper-rows" Diag.Warning path
              "no single-µop rows; nothing to encode" ]
        else
          let encoding =
            Encoding.create ~num_ports:(Mapping.num_ports m)
              ~symmetry_breaking:false specs
          in
          analyze_encoding ~accepted:m encoding
    end
  in
  let diags = creation () @ guarded () @ List.concat_map from_file files in
  Diag.print_all ~json diags;
  prerr_endline (Diag.summary ~pass:"enclint" diags);
  if Diag.errors diags <> [] then exit 1

(* ------------------------------------------------------------------ *)
(* Sanitize: the dynamic concurrency pass over the parallel stack       *)
(* ------------------------------------------------------------------ *)

module Race = Pmi_diag.Race
module Pool = Pmi_parallel.Pool

(* Each workload runs once under the OS scheduler (real domains) and then
   under [--schedules N] deterministic replay interleavings; the detector
   accumulates reports across all of them.  A workload whose *result*
   changes between schedules is itself a bug, so results are asserted. *)

exception Sanitize_broken of string

let check_invariant cond fmt =
  Printf.ksprintf (fun msg -> if not cond then raise (Sanitize_broken msg)) fmt

let replay_seeds schedules n_tasks =
  (* Exhaustive when the permutation space is small, capped otherwise. *)
  let distinct = Pool.permutations n_tasks in
  List.init (min schedules distinct) (fun s -> s)

let sanitize_pool_primitives ~schedules =
  let run_once () =
    let counter = Race.tracked_atomic ~name:"sanitize.counter" 0 in
    Pool.parallel_for ~domains:3 ~n:12 (fun _ ->
        ignore (Race.afetch_add counter 1));
    check_invariant (Race.aget counter = 12) "parallel_for lost updates";
    let arr = Array.init 8 (fun i -> i) in
    (match Pool.find_first_index ~domains:3 (fun x -> x >= 5) arr with
     | Some 5 -> ()
     | _ -> raise (Sanitize_broken "find_first_index not minimal"))
  in
  Pool.set_schedule Pool.Os;
  run_once ();
  List.iter
    (fun seed ->
       Pool.set_schedule (Pool.Replay seed);
       run_once ())
    (replay_seeds schedules 3)

let sanitize_cegis ~schedules =
  let toy =
    Catalog.of_list
      [ ("add", [ Operand.gpr 64; Operand.gpr ~access:Operand.Read 64 ],
         Iclass.plain (Iclass.Single Iclass.Alu));
        ("mul", [ Operand.gpr 64; Operand.gpr ~access:Operand.Read 64 ],
         Iclass.plain (Iclass.Single Iclass.Alu));
        ("fma", [ Operand.gpr 64; Operand.gpr ~access:Operand.Read 64 ],
         Iclass.plain (Iclass.Single Iclass.Alu)) ]
  in
  let add = Catalog.find toy 0
  and mul = Catalog.find toy 1
  and fma = Catalog.find toy 2 in
  let truth = Mapping.create ~num_ports:3 in
  Mapping.set truth add [ (Pmi_portmap.Portset.of_list [ 0; 1 ], 1) ];
  Mapping.set truth mul [ (Pmi_portmap.Portset.of_list [ 1; 2 ], 1) ];
  Mapping.set truth fma [ (Pmi_portmap.Portset.singleton 2, 1) ];
  let config =
    { Pmi_core.Cegis.default_config with
      Pmi_core.Cegis.num_ports = 3; r_max = 4; max_experiment_size = 3;
      symmetry_breaking = true; domains = 2 }
  in
  let measure e = Pmi_core.Cegis.modeled_inverse config truth e in
  let specs =
    [ (add, Pmi_core.Encoding.Proper 2); (mul, Pmi_core.Encoding.Proper 2);
      (fma, Pmi_core.Encoding.Proper 1) ]
  in
  let infer () =
    match Pmi_core.Cegis.infer ~config ~measure ~specs () with
    | Pmi_core.Cegis.Converged _ -> ()
    | Pmi_core.Cegis.No_consistent_mapping _
    | Pmi_core.Cegis.Iteration_limit _ ->
      raise (Sanitize_broken "toy CEGIS failed to converge")
  in
  Pool.set_schedule Pool.Os;
  infer ();
  List.iter
    (fun seed ->
       Pool.set_schedule (Pool.Replay seed);
       infer ())
    (replay_seeds (min schedules 4) 2)

let sanitize_harness_sweep ~schedules ~reduced =
  let per_bucket = if reduced > 0 then reduced else 2 in
  let experiments catalog =
    let schemes = Catalog.schemes catalog in
    let n = min 12 (Array.length schemes) in
    (* Repeat every experiment so the sweep exercises cache hits too. *)
    List.init (2 * n) (fun i ->
        Pmi_portmap.Experiment.singleton schemes.(i mod n))
  in
  let sweep () =
    let harness = make_harness ~reduced:per_bucket ~seed:42 in
    let exps = experiments (Machine.catalog (Harness.machine harness)) in
    let cycles = Pool.map_list ~domains:4 (Harness.cycles harness) exps in
    check_invariant
      (Harness.cache_hits harness + Harness.cache_misses harness
       = List.length exps)
      "harness hit/miss counters lost updates";
    check_invariant
      (Harness.cache_misses harness = Harness.benchmarks_run harness)
      "harness misses disagree with distinct benchmarks";
    cycles
  in
  Pool.set_schedule Pool.Os;
  let reference = sweep () in
  List.iter
    (fun seed ->
       Pool.set_schedule (Pool.Replay seed);
       check_invariant (sweep () = reference)
         "harness sweep results changed under schedule %d" seed)
    (replay_seeds (min schedules 6) 4)

(* The soundness check: an intentionally unsynchronized write pair that
   every schedule must report ([--plant-race], used by the regression
   test to cover the exit-1 path). *)
let sanitize_planted () =
  Pool.set_schedule (Pool.Replay 0);
  let cell = Race.tracked_ref ~name:"sanitize.planted" 0 in
  Pool.parallel_for ~domains:2 ~n:2 (fun i -> Race.write cell i)

let sanitize schedules plant json reduced _seed =
  let schedules = max 1 schedules in
  Race.enable ();
  let outcome =
    try
      sanitize_pool_primitives ~schedules;
      sanitize_cegis ~schedules;
      sanitize_harness_sweep ~schedules ~reduced;
      if plant then sanitize_planted ();
      Ok ()
    with
    | Sanitize_broken msg -> Error msg
  in
  Pool.set_schedule Pool.Os;
  Race.disable ();
  let diags = Race.to_diags (Race.reports ()) in
  Diag.print_all ~json diags;
  prerr_endline (Diag.summary ~pass:"sanitize" diags);
  (match outcome with
   | Error msg ->
     Format.eprintf "sanitize: workload invariant broken: %s@." msg;
     exit 2
   | Ok () -> ());
  if Diag.errors diags <> [] then exit 1

(* ------------------------------------------------------------------ *)
(* Everything                                                          *)
(* ------------------------------------------------------------------ *)

let all reduced seed =
  (* One pipeline run shared by every table and figure. *)
  let run = run_pipeline ~reduced ~seed in
  print_funnel run;
  print_table1 run;
  print_table2 run;
  print_figure5 reduced run

(* ------------------------------------------------------------------ *)
(* Store maintenance (`pmi_repro store {stats,compact,verify,gc}`)     *)
(* ------------------------------------------------------------------ *)

module Json = Pmi_obs.Json

let store_required () =
  match !store_dir with
  | Some dir -> dir
  | None ->
    Format.eprintf "pmi_repro store: --store DIR is required@.";
    exit 2

let store_stats json =
  let dir = store_required () in
  let s = Option.get (get_store ()) in
  let st = Store.stats s in
  if json then begin
    let n i = Json.Num (float_of_int i) in
    print_endline
      (Json.to_string
         (Json.Obj
            [ ("dir", Json.Str dir);
              ("live",
               Json.Obj
                 [ ("measurements", n st.Store.live_measurements);
                   ("certificates", n st.Store.live_certificates);
                   ("bench_history", n st.Store.live_bench) ]);
              ("journal",
               Json.Obj
                 [ ("records", n st.Store.journal_records);
                   ("bytes", n st.Store.journal_bytes) ]);
              ("segment",
               Json.Obj
                 [ ("records", n st.Store.segment_records);
                   ("bytes", n st.Store.segment_bytes) ]);
              ("recovery",
               Json.Obj
                 [ ("replayed", n st.Store.replayed);
                   ("corrupt", n st.Store.corrupt);
                   ("truncated_bytes", n st.Store.truncated_bytes) ]);
              ("session",
               Json.Obj
                 [ ("appends", n st.Store.appends);
                   ("hits", n st.Store.hits);
                   ("misses", n st.Store.misses);
                   ("compactions", n st.Store.compactions) ]) ]))
  end
  else begin
    Format.printf "store: %s@." dir;
    Format.printf "live: %d measurement(s), %d certificate(s), %d bench \
                   record(s)@."
      st.Store.live_measurements st.Store.live_certificates st.Store.live_bench;
    Format.printf "journal: %d record(s), %d bytes; segment: %d record(s), \
                   %d bytes@."
      st.Store.journal_records st.Store.journal_bytes st.Store.segment_records
      st.Store.segment_bytes;
    Format.printf "recovery: %d replayed, %d corrupt, %d torn byte(s) \
                   truncated@."
      st.Store.replayed st.Store.corrupt st.Store.truncated_bytes
  end

let store_compact () =
  ignore (store_required ());
  let s = Option.get (get_store ()) in
  let before = Store.stats s in
  Store.compact s;
  let after = Store.stats s in
  Format.printf
    "compacted: %d journal record(s) folded into a %d-record segment (%d \
     bytes)@."
    before.Store.journal_records after.Store.segment_records
    after.Store.segment_bytes

let store_verify json =
  let dir = store_required () in
  let r = Store.verify dir in
  if json then
    print_endline
      (Json.to_string
         (Json.Obj
            [ ("dir", Json.Str dir);
              ("segment_records", Json.Num (float_of_int r.Store.r_segment_records));
              ("journal_records", Json.Num (float_of_int r.Store.r_journal_records));
              ("corrupt", Json.Num (float_of_int r.Store.r_corrupt));
              ("torn_bytes", Json.Num (float_of_int r.Store.r_torn_bytes)) ]))
  else
    Format.printf
      "verify %s: %d segment record(s), %d journal record(s), %d corrupt, \
       %d torn byte(s)@."
      dir r.Store.r_segment_records r.Store.r_journal_records r.Store.r_corrupt
      r.Store.r_torn_bytes;
  if r.Store.r_corrupt > 0 then exit 1

(* Drop measurements recorded under a machine fingerprint other than the
   one [--reduced]/[--seed] name (stale catalogs, old noise seeds).
   Certificates and bench history are never dropped — they are small and
   keyed by content. *)
let store_gc reduced seed =
  ignore (store_required ());
  let s = Option.get (get_store ()) in
  let prefix = Machine.fingerprint (make_machine ~reduced ~seed) ^ "|" in
  let plen = String.length prefix in
  let keep kind ~key _value =
    match kind with
    | Store.Measurement ->
      String.length key >= plen && String.equal (String.sub key 0 plen) prefix
    | Store.Certificate | Store.Bench_history -> true
  in
  let dropped = Store.gc s ~keep in
  let st = Store.stats s in
  Format.printf
    "gc: dropped %d foreign measurement(s); %d measurement(s), %d \
     certificate(s), %d bench record(s) live@."
    dropped st.Store.live_measurements st.Store.live_certificates
    st.Store.live_bench

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

open Cmdliner

let reduced =
  let doc = "Use a reduced catalog with at most $(docv) schemes per bucket \
             (0 = the full 2,980-scheme catalog)." in
  Arg.(value & opt int 0 & info [ "reduced" ] ~docv:"N" ~doc)

let seed =
  let doc = "Measurement-noise seed." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

let verbose =
  let doc = "Enable informational logging." in
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc)

let dump_cnf =
  let doc = "Write the final CNF of each CEGIS solver in DIMACS format to \
             $(docv)-findmapping.cnf and $(docv)-findothermapping.cnf, and \
             the session CNF of each culprit search to \
             $(docv)-culprit-N.cnf, for offline triage with an external SAT \
             solver." in
  Arg.(value & opt (some string) None & info [ "dump-cnf" ] ~docv:"PREFIX" ~doc)

let certify_flag =
  let doc = "Trust-but-verify: log DRAT proof traces in every CEGIS solver \
             and have an independent checker certify each UNSAT verdict and \
             re-validate each SAT model against the CNF and the exact \
             throughput oracle.  A certificate failure aborts the run." in
  Arg.(value & flag & info [ "certify" ] ~doc)

let enclint_global_flag =
  let doc = "Statically analyze every CEGIS encoding before each solver \
             episode and culprit query (guard structure, \
             cardinality-network bounds, theory lemmas); an error-severity \
             finding aborts the run." in
  Arg.(value & flag & info [ "enclint" ] ~doc)

let store_flag =
  let doc = "Durable crash-safe store directory.  Measurements are read \
             back before the harness re-benchmarks (warm-starting CEGIS \
             from stored observations) and written through as they are \
             taken; with $(b,--certify), checker-accepted UNSAT \
             certificates short-circuit re-checking.  The directory is \
             created on first use and recovers automatically from a \
             crashed writer." in
  Arg.(value & opt (some string) None & info [ "store" ] ~docv:"DIR" ~doc)

let trace_out =
  let doc = "Record a telemetry trace of the run (CEGIS iterations, solver \
             calls, oracle searches, harness measurements) and write it to \
             $(docv) in Chrome trace format, loadable in Perfetto or \
             chrome://tracing." in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let metrics =
  let doc = "Print a telemetry summary (span tree with call counts and \
             self times, counters, gauges) to stderr when the command \
             finishes." in
  Arg.(value & flag & info [ "metrics" ] ~doc)

(* The options every inference command shares, applied before the command
   body runs: [with_globals f] sets up logging, telemetry and the CEGIS
   knobs, then calls [f reduced seed]. *)
let with_globals =
  let setup reduced seed verbose dump_cnf certify_opt enclint_opt store_opt
      trace metrics f =
    setup_logs (if verbose then Some Logs.Info else Some Logs.Warning);
    setup_obs ~trace ~metrics;
    cnf_prefix := dump_cnf;
    certify := certify_opt;
    enclint_on := enclint_opt;
    store_dir := store_opt;
    f reduced seed
  in
  Term.(const setup $ reduced $ seed $ verbose $ dump_cnf $ certify_flag
        $ enclint_global_flag $ store_flag $ trace_out $ metrics)

let cmd name doc f =
  Cmd.v (Cmd.info name ~doc) Term.(const (fun run -> run f) $ with_globals)

let () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  let info = Cmd.info "pmi_repro" ~doc:"Port-mapping inference reproduction" in
  exit
    (Cmd.eval
       (Cmd.group ~default info
          [ cmd "funnel" "Reproduce the §4 case-study funnel" funnel;
            cmd "table1" "Reproduce Table 1 (blocking classes)" table1;
            cmd "table2" "Reproduce Table 2 (inferred port usage)" table2;
            cmd "figure5" "Reproduce Figure 5 (prediction accuracy)" figure5;
            cmd "all" "Reproduce every table and figure" all;
            cmd "infer"
              "Run the CEGIS inference and print its statistics (pair with \
               --trace/--metrics for a full telemetry timeline)"
              infer;
            cmd "export" "Infer the port mapping and write it to a file" export;
            cmd "diff" "Compare the inferred mapping with the documentation" diff;
            cmd "report" "Write a markdown report of the whole study" report;
            (let insns =
               let doc = "Instruction scheme (name or unique prefix); repeatable." in
               Arg.(value & opt_all string [] & info [ "i"; "insn" ] ~docv:"SCHEME" ~doc)
             in
             Cmd.v
               (Cmd.info "analyze"
                  ~doc:"Port-pressure analysis of a basic block (llvm-mca style)")
               Term.(const (fun insns run -> run (analyze_block insns))
                     $ insns $ with_globals));
            (let insns =
               let doc = "Instruction scheme (name or unique prefix); repeatable." in
               Arg.(value & opt_all string [] & info [ "i"; "insn" ] ~docv:"SCHEME" ~doc)
             in
             Cmd.v
               (Cmd.info "explain"
                  ~doc:"Show the explanatory microbenchmarks behind a scheme's \
                        inferred port usage")
               Term.(const (fun insns run -> run (explain_scheme insns))
                     $ insns $ with_globals));
            (let files =
               let doc = "Port-mapping file(s) in the export format, linted \
                          in addition to the built-in profiles, catalog and \
                          ground truth; repeatable." in
               Arg.(value & pos_all string [] & info [] ~docv:"FILE" ~doc)
             in
             let json =
               let doc = "Emit one JSON object per diagnostic instead of \
                          human-readable text." in
               Arg.(value & flag & info [ "json" ] ~doc)
             in
             Cmd.v
               (Cmd.info "lint"
                  ~doc:"Lint the built-in machine profiles, catalog and \
                        ground-truth mappings (plus optional mapping files); \
                        exits non-zero on any error-severity diagnostic")
               Term.(const (fun files json run ->
                   run (lint_files files json))
                     $ files $ json $ with_globals));
            (let files =
               let doc = "Port-mapping file(s) in the export format, audited \
                          in addition to the built-in ground-truth mappings; \
                          repeatable." in
               Arg.(value & pos_all string [] & info [] ~docv:"FILE" ~doc)
             in
             let json =
               let doc = "Emit one JSON object per diagnostic instead of \
                          human-readable text (same schema as `lint \
                          --json`)." in
               Arg.(value & flag & info [ "json" ] ~doc)
             in
             Cmd.v
               (Cmd.info "mapcheck"
                  ~doc:"Semantically audit port mappings through the \
                        abstract interpreter (throughput-interval soundness \
                        against the exact oracle and the LP model, \
                        counter-consistency replay, dominated and \
                        interchangeable ports); exits non-zero on any \
                        error-severity diagnostic")
               Term.(const (fun files json run ->
                   run (mapcheck_run files json))
                     $ files $ json $ with_globals));
            (let files =
               let doc = "Port-mapping file(s) whose implied encodings are \
                          analyzed in addition to the built-in shapes; \
                          repeatable." in
               Arg.(value & pos_all string [] & info [] ~docv:"FILE" ~doc)
             in
             let json =
               let doc = "Emit one JSON object per diagnostic instead of \
                          human-readable text (same schema as `lint \
                          --json`)." in
               Arg.(value & flag & info [ "json" ] ~doc)
             in
             Cmd.v
               (Cmd.info "enclint"
                  ~doc:"Statically analyze the CEGIS encodings (guard \
                        structure, cardinality-network bounds, theory \
                        lemmas) without running the solver; exits \
                        non-zero on any error-severity diagnostic")
               Term.(const (fun files json run ->
                   run (enclint_run files json))
                     $ files $ json $ with_globals));
            (let schedules =
               let doc = "Number of deterministic replay schedules to shake \
                          each parallel workload through (capped at the \
                          factorial of the task count, where coverage is \
                          exhaustive)." in
               Arg.(value & opt int 50 & info [ "schedules" ] ~docv:"N" ~doc)
             in
             let plant =
               let doc = "Plant a deliberately unsynchronized write pair \
                          (detector soundness check; forces exit code 1)." in
               Arg.(value & flag & info [ "plant-race" ] ~doc)
             in
             let json =
               let doc = "Emit one JSON object per diagnostic instead of \
                          human-readable text (same schema as `lint \
                          --json`)." in
               Arg.(value & flag & info [ "json" ] ~doc)
             in
             Cmd.v
               (Cmd.info "sanitize"
                  ~doc:"Run the parallel workloads (pool primitives, CEGIS \
                        distinguishing search and validation sweeps, \
                        harness cache) under the vector-clock race \
                        detector, across OS scheduling and deterministic \
                        schedule replay; exits non-zero on any data race")
               Term.(const (fun schedules plant json run ->
                   run (sanitize schedules plant json))
                     $ schedules $ plant $ json $ with_globals));
            (let json =
               let doc = "Emit a JSON object instead of human-readable text." in
               Arg.(value & flag & info [ "json" ] ~doc)
             in
             let run store f = setup_logs (Some Logs.Warning); store_dir := store; f () in
             Cmd.group
               (Cmd.info "store"
                  ~doc:"Maintain a durable measurement/certificate store \
                        directory (see --store)")
               [ Cmd.v
                   (Cmd.info "stats"
                      ~doc:"Open the store (running recovery) and report \
                            live records, file sizes and recovery counts")
                   Term.(const (fun store json ->
                       run store (fun () -> store_stats json))
                         $ store_flag $ json);
                 Cmd.v
                   (Cmd.info "compact"
                      ~doc:"Fold the journal into a fresh segment (atomic \
                            rename) and truncate the journal")
                   Term.(const (fun store -> run store store_compact)
                         $ store_flag);
                 Cmd.v
                   (Cmd.info "verify"
                      ~doc:"Read-only integrity scan: nothing is truncated \
                            or repaired; exits non-zero when any record \
                            fails its checksum")
                   Term.(const (fun store json ->
                       run store (fun () -> store_verify json))
                         $ store_flag $ json);
                 Cmd.v
                   (Cmd.info "gc"
                      ~doc:"Drop measurements whose machine fingerprint \
                            does not match --reduced/--seed, then compact")
                   Term.(const (fun store reduced seed ->
                       run store (fun () -> store_gc reduced seed))
                         $ store_flag $ reduced $ seed) ]) ]))
