module Obs = Pmi_obs.Obs

type result =
  | Sat of bool array
  | Unsat

(* Span args summarizing what a solver did between two [Sat.stats]
   snapshots — the "what did this call cost" payload on every sat.solve
   span in a trace. *)
let stats_args (before : Sat.stats) (after : Sat.stats) =
  [ ("decisions", Obs.Int (after.Sat.decisions - before.Sat.decisions));
    ("propagations",
     Obs.Int (after.Sat.propagations - before.Sat.propagations));
    ("conflicts", Obs.Int (after.Sat.conflicts - before.Sat.conflicts));
    ("restarts", Obs.Int (after.Sat.restarts - before.Sat.restarts));
    ("learned", Obs.Int (after.Sat.learned - before.Sat.learned)) ]

(* A span around one theory-check callback, closing with the number of
   lemmas the theory pushed back. *)
let theory_span check model =
  if not (Obs.enabled ()) then check model
  else begin
    let frame = Obs.enter "theory.check" in
    match check model with
    | lemmas ->
      Obs.leave ~args:[ ("lemmas", Obs.Int (List.length lemmas)) ] frame;
      lemmas
    | exception e ->
      Obs.leave ~args:[ ("exn", Obs.Str (Printexc.to_string e)) ] frame;
      raise e
  end

let falsified_by model lits =
  List.for_all
    (fun l ->
       let v = Lit.var l in
       v < Array.length model && (if Lit.is_pos l then not model.(v) else model.(v)))
    lits

let solve ?assumptions ?(max_rounds = 100_000) ~check sat =
  (* The CDCL work up to each theory check is one [sat.solve] span whose
     closing args carry the stats delta on [sat], a sibling of the
     [theory.check] span that follows it. *)
  let tracing = Obs.enabled () in
  let segment = ref None in
  let enter () =
    if tracing then segment := Some (Sat.stats sat, Obs.enter "sat.solve")
  in
  let leave args =
    match !segment with
    | None -> ()
    | Some (before, frame) ->
      segment := None;
      Obs.leave ~args:(args before) frame
  in
  let leave_stats () = leave (fun before -> stats_args before (Sat.stats sat)) in
  let rounds = ref 0 in
  let check model =
    leave_stats ();
    let lemmas = theory_span check model in
    if lemmas <> [] then begin
      incr rounds;
      if !rounds >= max_rounds then
        failwith "Smt.Solver.solve: theory loop diverges";
      (* Progress guard: the rejected model must violate some lemma.
         Lemmas may mention variables allocated after the model was
         produced (e.g. fresh cardinality registers); [falsified_by]
         treats those as unassigned, so such a lemma never counts. *)
      assert (List.exists (falsified_by model) lemmas);
      enter ()
    end;
    lemmas
  in
  enter ();
  match Sat.solve ?assumptions ~check sat with
  | Sat.Sat model ->
    leave_stats ();
    Sat model
  | Sat.Unsat ->
    leave_stats ();
    Unsat
  | exception e ->
    leave (fun _ -> [ ("exn", Obs.Str (Printexc.to_string e)) ]);
    raise e
