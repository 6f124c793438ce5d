(* The end-to-end benchmark of the port-mapping pipeline.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   With [--trace 0] it repeats [Pipeline.run] on a fresh harness, telemetry
   off, until [S] seconds have been measured (at least once), checks every
   run's output and prints the end-to-end metrics.  With [--trace 1] it runs
   the pipeline once with telemetry on (an untraced reference run executes
   concurrently in a forked child), then times the stage layers from outside
   on a fresh harness, and prints the per-layer metrics.  The last line of
   standard output is one JSON object: correct, attempted, failed, metrics.
   [--workload all] runs every workload in turn, each in its own process. *)

open Perfbench
module Obs = Pmi_obs.Obs
module Catalog = Pmi_isa.Catalog
module Machine = Pmi_machine.Machine
module Profile = Pmi_machine.Profile
module Harness = Pmi_measure.Harness
module Pipeline = Pmi_core.Pipeline
module Blocking = Pmi_core.Blocking
module Port_usage = Pmi_core.Port_usage
module Cegis = Pmi_core.Cegis

type workload = {
  name : string;
  profile : Profile.t;
  certify : bool;
  expected : Checks.expected;
}

let workloads =
  [ { name = "a64fx-full"; profile = Profile.a64fx; certify = false;
      expected = Checks.a64fx };
    { name = "a64fx-certify"; profile = Profile.a64fx; certify = true;
      expected = Checks.a64fx };
    { name = "zen-full"; profile = Profile.zen_plus; certify = false;
      expected = Checks.zen_plus } ]

(* Events retained by the traced run; the full A64FX and Zen+ funnels
   record a few million. *)
let ring_capacity = 1 lsl 23

(* Extra set-ups timed after the operations; each operation's own set-up
   is timed too, and the median of all is reported. *)
let setup_samples = 20

let config w =
  let base = Pipeline.default_config in
  { base with
    Pipeline.cegis = { base.Pipeline.cegis with Cegis.certify = w.certify } }

let setup w ~seed =
  let catalog = Catalog.zen_plus () in
  let machine =
    Machine.create
      ~config:{ Machine.default_config with Machine.seed }
      ~profile:w.profile catalog
  in
  Harness.create machine

let now = Unix.gettimeofday

let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* ------------------------------------------------------------------ *)
(* Counts that must repeat exactly for the same code and seed          *)
(* ------------------------------------------------------------------ *)

(* Observable without telemetry: the harness and machine tallies, and the
   statistics of the final (converged) [Cegis.infer] call. *)
type counts = {
  benchmarks : int;
  measurements : int;
  iterations : int;
  theory_lemmas : int;
  sat_episodes : int;
  removed : int;
}

let counts_of harness (result : Pipeline.t) =
  let final f =
    match result.Pipeline.cegis_stats with Some s -> f s | None -> -1
  in
  { benchmarks = Harness.benchmarks_run harness;
    measurements = Machine.measurement_count (Harness.machine harness);
    iterations = final (fun s -> s.Cegis.iterations);
    theory_lemmas = final (fun s -> s.Cegis.theory_lemmas);
    sat_episodes = final (fun s -> s.Cegis.sat_episodes);
    removed = List.length result.Pipeline.removed_classes }

let count_fields c =
  [ ("harness.measure.calls", c.benchmarks);
    ("machine.measurements", c.measurements);
    ("final cegis.iterations", c.iterations);
    ("final theory.lemmas", c.theory_lemmas);
    ("final sat.episodes", c.sat_episodes);
    ("culprit.removed_classes", c.removed) ]

let counts_to_line c =
  String.concat " " (List.map (fun (_, v) -> string_of_int v) (count_fields c))

let counts_of_words = function
  | [ benchmarks; measurements; iterations; theory_lemmas; sat_episodes; removed ] ->
    Some { benchmarks; measurements; iterations; theory_lemmas; sat_episodes; removed }
  | _ -> None

let determinism_errors ~what a b =
  List.filter_map
    (fun ((name, x), (_, y)) ->
       if x = y then None
       else Some (Printf.sprintf "determinism: %s differs (%s): %d vs %d" name what x y))
    (List.combine (count_fields a) (count_fields b))

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

type metric = { m_name : string; value : float; unit_ : string }

let metric m_name unit_ value = { m_name; value; unit_ }

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "null"

let print_report title metrics =
  Printf.printf "== %s ==\n" title;
  List.iter
    (fun m -> Printf.printf "  %-34s %20s %s\n" m.m_name (json_number m.value) m.unit_)
    metrics

let print_result ~attempted ~failed metrics =
  let body =
    List.map
      (fun m ->
         Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}"
           (Pmi_obs.Json.to_string (Pmi_obs.Json.Str m.m_name))
           (json_number m.value)
           (Pmi_obs.Json.to_string (Pmi_obs.Json.Str m.unit_)))
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (failed = 0) attempted failed (String.concat ", " body)

let report_errors what errors =
  List.iter (fun e -> Printf.eprintf "perfbench: %s: %s\n%!" what e) errors

(* ------------------------------------------------------------------ *)
(* End-to-end run (telemetry off)                                      *)
(* ------------------------------------------------------------------ *)

type op = {
  wall_s : float;
  cpu_s : float;
  errors : string list;
  agreement : Checks.agreement option;
  counts : counts option;
}

(* One operation: one [Pipeline.run] on a fresh harness, checked. *)
let run_op w harness =
  let c0 = cpu () in
  let outcome, wall_s = timed (fun () ->
      match Pipeline.run ~config:(config w) harness with
      | r -> Ok r
      | exception e -> Error (Printexc.to_string e))
  in
  let cpu_s = cpu () -. c0 in
  match outcome with
  | Error e -> { wall_s; cpu_s; errors = [ "raised " ^ e ]; agreement = None; counts = None }
  | Ok result ->
    let agreement =
      Checks.truth_agreement result (Machine.ground_truth (Harness.machine harness))
    in
    { wall_s; cpu_s;
      errors = Checks.check w.expected (Checks.summarize result);
      agreement = Some agreement;
      counts = Some (counts_of harness result) }

let end_to_end w ~seed ~seconds =
  let setups = ref [] in
  let timed_setup () =
    let h, dt = timed (fun () -> setup w ~seed) in
    setups := dt :: !setups;
    h
  in
  let start = now () in
  (* The peak heap of the first operation, which runs in a fresh process:
     later ones start from the heap the earlier ones left behind. *)
  let heap_words = ref 0 in
  let rec loop ops =
    if ops <> [] && now () -. start >= seconds then List.rev ops
    else begin
      Gc.compact ();
      let op = run_op w (timed_setup ()) in
      if ops = [] then heap_words := (Gc.quick_stat ()).Gc.top_heap_words;
      loop (op :: ops)
    end
  in
  let ops = loop [] in
  for _ = 1 to setup_samples do ignore (timed_setup ()) done;
  let first_counts = List.find_map (fun op -> op.counts) ops in
  let ops =
    List.map
      (fun op ->
         match (first_counts, op.counts) with
         | Some a, Some b ->
           { op with errors = op.errors @ determinism_errors ~what:"between operations" a b }
         | _ -> op)
      ops
  in
  List.iter (fun op -> report_errors w.name op.errors) ops;
  let agreements = List.filter_map (fun op -> op.agreement) ops in
  (match agreements with
   | a :: _ ->
     Printf.eprintf "perfbench: %s: truth agreement %d/%d\n%!" w.name
       (a.Checks.compared - List.length a.Checks.disagreements) a.Checks.compared;
     List.iter
       (fun (s, got, want) ->
          Printf.eprintf "perfbench: %s: truth disagreement: %s inferred %s, truth %s\n%!"
            w.name s got want)
       a.Checks.disagreements
   | [] -> ());
  let failed = List.length (List.filter (fun op -> op.errors <> []) ops) in
  let attempted = List.length ops in
  let heap_mb = float_of_int (!heap_words * (Sys.word_size / 8)) /. 1e6 in
  let metrics =
    [ metric "wall_s" "s" (median (List.map (fun op -> op.wall_s) ops));
      metric "setup_s" "s" (median !setups);
      metric "cpu_s" "s" (median (List.map (fun op -> op.cpu_s) ops));
      metric "peak_heap_mb" "MB" heap_mb;
      metric "truth_agreement" "ratio"
        (match List.map Checks.agreement_share agreements with
         | [] -> 0.0
         | shares -> List.fold_left Float.min 1.0 shares) ]
  in
  let ops_failed =
    metric "ops_failed" "ratio" (float_of_int failed /. float_of_int attempted)
  in
  (metrics, ops_failed, attempted, failed)

(* ------------------------------------------------------------------ *)
(* Traced run (per-layer metrics)                                      *)
(* ------------------------------------------------------------------ *)

(* The untraced reference run, in a forked child so it runs alongside the
   traced one under the same machine load.  The child reports its wall time
   and counts on a pipe. *)
let start_reference w ~seed =
  flush_all ();
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close rd;
    let line =
      try
        let op = run_op w (setup w ~seed) in
        match (op.errors, op.counts) with
        | [], Some c -> Printf.sprintf "ok %.17g %s\n" op.wall_s (counts_to_line c)
        | errors, _ -> "error " ^ String.concat "; " errors ^ "\n"
      with e -> "error " ^ Printexc.to_string e ^ "\n"
    in
    let oc = Unix.out_channel_of_descr wr in
    output_string oc line;
    close_out oc;
    Unix._exit 0
  | pid ->
    Unix.close wr;
    (pid, rd)

let finish_reference (pid, rd) =
  let ic = Unix.in_channel_of_descr rd in
  let line = try input_line ic with End_of_file -> "error no reply" in
  close_in ic;
  ignore (Unix.waitpid [] pid);
  let malformed = Error ("reference run: " ^ line) in
  match String.split_on_char ' ' line with
  | "ok" :: wall :: words ->
    (match
       (float_of_string_opt wall,
        counts_of_words (List.filter_map int_of_string_opt words))
     with
     | Some wall, Some counts -> Ok (wall, counts)
     | _ -> malformed)
  | _ -> malformed

(* Stage layers have no spans of their own: time them from outside on a
   fresh machine and harness, replaying the pipeline's stage calls. *)
let stage_layers w ~seed (result : Pipeline.t) =
  let harness = setup w ~seed in
  let machine = Harness.machine harness in
  let cfg = config w in
  let r_max = Machine.r_max machine in
  let bconfig = { cfg.Pipeline.blocking with Blocking.r_max; max_ports = r_max - 1 } in
  let schemes = Catalog.schemes (Machine.catalog machine) in
  let characterized =
    List.filter
      (fun s ->
         match Pipeline.verdict result s with
         | Pipeline.Characterized _ | Pipeline.Unstable_result _ -> true
         | Pipeline.Excluded_individual _ | Pipeline.Excluded_pairing
         | Pipeline.Excluded_mnemonic | Pipeline.Blocking_class _ -> false)
      (Array.to_list schemes)
  in
  Obs.enable ();
  let stage1 =
    Obs.span "perfbench.stage1" (fun () ->
        Array.map (Blocking.classify_individual ~config:bconfig harness) schemes)
  in
  let candidates =
    List.filter_map
      (fun (s, v) ->
         match v with Blocking.Candidate p -> Some (s, p) | _ -> None)
      (List.combine (Array.to_list schemes) (Array.to_list stage1))
  in
  let before = Harness.benchmarks_run harness in
  let filtering =
    Obs.span "perfbench.stage2" (fun () ->
        Blocking.filter_candidates ~config:bconfig harness candidates)
  in
  let stage2_benchmarks = Harness.benchmarks_run harness - before in
  Obs.span "perfbench.characterize" (fun () ->
      List.iter
        (fun s ->
           ignore
             (Port_usage.characterize ~config:cfg.Pipeline.port_usage harness
                ~blockers:result.Pipeline.blockers s))
        characterized);
  Obs.disable ();
  let spans = Spans.of_events (Obs.events ()) in
  let errors =
    let f = result.Pipeline.funnel in
    List.filter_map Fun.id
      [ (if List.length candidates = f.Pipeline.candidates_initial then None
         else Some (Printf.sprintf "determinism: stage 1 found %d candidates, \
                                    the pipeline %d"
                      (List.length candidates) f.Pipeline.candidates_initial));
        (let classes = List.length filtering.Blocking.classes in
         if classes = List.length result.Pipeline.filtering.Blocking.classes then None
         else Some (Printf.sprintf "determinism: stage 2 found %d classes" classes)) ]
  in
  ( [ metric "stage1.busy_s" "s" (Spans.total_s spans "perfbench.stage1");
      metric "stage1.schemes" "count" (float_of_int (Array.length schemes));
      metric "stage2.busy_s" "s" (Spans.total_s spans "perfbench.stage2");
      metric "stage2.benchmarks" "count" (float_of_int stage2_benchmarks);
      metric "stage2.classes" "count"
        (float_of_int (List.length filtering.Blocking.classes));
      metric "characterize.busy_s" "s" (Spans.total_s spans "perfbench.characterize");
      metric "characterize.schemes" "count" (float_of_int (List.length characterized)) ],
    errors )

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

let traced w ~seed =
  let reference = start_reference w ~seed in
  let harness = setup w ~seed in
  Obs.set_ring_capacity ring_capacity;
  Obs.enable ();
  let outcome, wall_s =
    timed (fun () ->
        match Pipeline.run ~config:(config w) harness with
        | r -> Ok r
        | exception e -> Error (Printexc.to_string e))
  in
  Obs.disable ();
  let reference = finish_reference reference in
  match outcome with
  | Error e ->
    report_errors w.name [ "raised " ^ e ];
    ([], 1)
  | Ok result ->
    let events = Obs.events () in
    let dropped = Obs.dropped () in
    let counters = Obs.counters () in
    let counter name = Option.value ~default:0 (List.assoc_opt name counters) in
    let spans = Spans.of_events events in
    let stats_of name arg = Spans.sum_arg events ~name ~arg in
    let calls = Spans.calls spans in
    let explain_calls = calls "cegis.explain" in
    let removed = List.length result.Pipeline.removed_classes in
    let lemmas = stats_of "theory.check" "lemmas" in
    let episodes = counter "cegis.sat_episodes" in
    let certified = counter "cegis.certificates_checked" in
    let counts = counts_of harness result in
    (* A distinguishing experiment is measured in the iteration whose
       findOtherMapping found it; a validation failure is measured in an
       iteration that also ran the validation sweep. *)
    let distinguished =
      Spans.count_instances spans "cegis.iteration" (fun kids ->
          List.mem "cegis.observe" kids && not (List.mem "cegis.validate" kids))
    in
    let overhead, reference_errors =
      match reference with
      | Ok (ref_wall, ref_counts) ->
        (wall_s -. ref_wall,
         determinism_errors ~what:"untraced vs traced" ref_counts counts)
      | Error e -> (nan, [ e ])
    in
    let trace_errors =
      List.filter_map Fun.id
        [ (if dropped = 0 then None
           else Some (Printf.sprintf "trace.dropped = %d" dropped));
          (if calls "harness.measure" = counts.benchmarks then None
           else Some "harness.measure spans differ from Harness.benchmarks_run");
          (if counter "machine.measurements" = counts.measurements then None
           else Some "machine.measurements counter differs from the machine") ]
      @ Checks.certificate_errors ~certify:w.certify ~checked:certified ~episodes
    in
    let stage_metrics, stage_errors = stage_layers w ~seed result in
    let hits = Harness.cache_hits harness in
    let errors =
      Checks.check w.expected (Checks.summarize result)
      @ reference_errors @ trace_errors @ stage_errors
    in
    report_errors w.name errors;
    let count name v = metric name "count" (float_of_int v) in
    let seconds name v = metric name "s" v in
    let metrics =
      [ count "harness.measure.calls" (calls "harness.measure");
        seconds "harness.measure.self_s" (Spans.self_s spans "harness.measure");
        metric "harness.cache_hit_ratio" "ratio"
          (ratio hits (hits + Harness.cache_misses harness));
        count "machine.measurements" (counter "machine.measurements") ]
      @ stage_metrics
      @ [ count "cegis.infer.calls" (calls "cegis.infer");
          seconds "cegis.infer.busy_s" (Spans.total_s spans "cegis.infer");
          count "cegis.iterations" (calls "cegis.iteration");
          count "cegis.observations" (counter "cegis.observations");
          count "cegis.candidates_tried" (counter "cegis.candidates_tried");
          seconds "cegis.find_mapping.self_s" (Spans.self_s spans "cegis.find_mapping");
          seconds "cegis.find_other_mapping.self_s"
            (Spans.self_s spans "cegis.find_other_mapping");
          count "cegis.distinguish.calls" (calls "cegis.distinguish");
          seconds "cegis.distinguish.self_s" (Spans.self_s spans "cegis.distinguish");
          metric "cegis.distinguish.hit_ratio" "ratio"
            (ratio distinguished (calls "cegis.distinguish"));
          count "culprit.explain.calls" explain_calls;
          seconds "culprit.explain.busy_s" (Spans.total_s spans "cegis.explain");
          count "culprit.removed_classes" removed;
          metric "culprit.calls_per_removed" "ratio" (ratio explain_calls removed);
          count "theory.check.calls" (calls "theory.check");
          seconds "theory.check.self_s" (Spans.self_s spans "theory.check");
          count "theory.lemmas" lemmas;
          metric "theory.lemmas_per_check" "ratio" (ratio lemmas (calls "theory.check"));
          count "sat.solve.calls" (calls "sat.solve");
          seconds "sat.solve.self_s" (Spans.self_s spans "sat.solve");
          count "sat.episodes" episodes;
          count "sat.conflicts" (stats_of "sat.solve" "conflicts");
          count "sat.propagations" (stats_of "sat.solve" "propagations");
          count "certify.checked" certified;
          count "trace.dropped" dropped;
          seconds "trace.overhead_s" overhead;
          seconds "trace.unattributed_s" (wall_s -. Spans.top_level_s spans) ]
    in
    (metrics, if errors = [] then 0 else 1)

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let usage = "main.exe --workload NAME|all --seed N --seconds S --trace 0|1"

let () =
  let workload = ref "" and seed = ref 42 and seconds = ref 17.0 and trace = ref 0 in
  let spec =
    [ ("--workload", Arg.Set_string workload, " a64fx-full, a64fx-certify, zen-full or all");
      ("--seed", Arg.Set_int seed, " machine noise seed (default 42)");
      ("--seconds", Arg.Set_float seconds, " seconds to measure (default 17)");
      ("--trace", Arg.Set_int trace, " 1 = traced run for per-layer metrics") ]
  in
  let fail msg =
    prerr_endline ("perfbench: " ^ msg);
    prerr_endline usage;
    exit 2
  in
  (try Arg.parse_argv Sys.argv (Arg.align spec) (fun a -> fail ("unexpected " ^ a)) usage
   with Arg.Bad msg | Arg.Help msg -> fail msg);
  if !trace <> 0 && !trace <> 1 then fail "--trace must be 0 or 1";
  let find name =
    match List.find_opt (fun w -> w.name = name) workloads with
    | Some w -> w
    | None -> fail ("unknown workload " ^ name)
  in
  if !workload = "all" then
    (* One process per workload, so each reports its own peak heap. *)
    List.iter
      (fun w ->
         flush_all ();
         let args =
           [| Sys.executable_name; "--workload"; w.name; "--seed"; string_of_int !seed;
              "--seconds"; string_of_float !seconds; "--trace"; string_of_int !trace |]
         in
         let pid =
           Unix.create_process Sys.executable_name args Unix.stdin Unix.stdout Unix.stderr
         in
         ignore (Unix.waitpid [] pid))
      workloads
  else begin
    let w = find !workload in
    if !trace = 1 then begin
      let metrics, failed = traced w ~seed:!seed in
      print_report (w.name ^ " (traced)") metrics;
      print_result ~attempted:1 ~failed metrics
    end
    else begin
      let metrics, ops_failed, attempted, failed =
        end_to_end w ~seed:!seed ~seconds:!seconds
      in
      print_report w.name (metrics @ [ ops_failed ]);
      print_result ~attempted ~failed metrics
    end
  end
