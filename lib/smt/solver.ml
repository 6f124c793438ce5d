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

(* [sat_span sat f]: a [sat.solve] span around one CDCL call whose closing
   args carry the stats delta on [sat].  One atomic-load branch when
   tracing is off. *)
let sat_span sat f =
  if not (Obs.enabled ()) then f ()
  else begin
    let before = Sat.stats sat in
    let frame = Obs.enter "sat.solve" in
    match f () with
    | r ->
      Obs.leave ~args:(stats_args before (Sat.stats sat)) frame;
      r
    | exception e ->
      Obs.leave ~args:[ ("exn", Obs.Str (Printexc.to_string e)) ] frame;
      raise e
  end

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

let solve ?(assumptions = []) ?(max_rounds = 100_000) ~check sat =
  let rec loop round =
    if round > max_rounds then failwith "Smt.Solver.solve: theory loop diverges"
    else begin
      match sat_span sat (fun () -> Sat.solve ~assumptions sat) with
      | Sat.Unsat -> Unsat
      | Sat.Sat model ->
        (match theory_span check model with
         | [] -> Sat model
         | lemmas ->
           (* Progress guard: the rejected model must violate some lemma.
              Lemmas may mention variables allocated after the model was
              produced (e.g. fresh cardinality registers), which
              [falsified_by] treats as unassigned-false. *)
           assert (List.exists (falsified_by model) lemmas);
           List.iter (Sat.add_clause sat) lemmas;
           loop (round + 1))
    end
  in
  loop 1
