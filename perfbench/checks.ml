(* Output checks: every pipeline run of the benchmark must reproduce the
   recorded funnel, Table 2 and §4.3 culprits of its workload.  A run that
   fails any check counts as a failed operation. *)

module Pipeline = Pmi_core.Pipeline

(* What a run produced, reduced to the values the checks look at. *)
type summary = {
  funnel : Pipeline.funnel;
  table2 : (string * string) list;
  (** surviving blocking representatives and store blockers, with their
      inferred usage as printed by [Mapping.usage_to_string] *)
  culprits : string list;  (** mnemonics of the removed classes, sorted *)
}

(* Expected values.  [table2_rows = None] leaves Table 2 unchecked. *)
type expected = {
  rows : (string * (Pipeline.funnel -> int) * int) list;
  table2_rows : (string * string) list option;
  culprit_mnemonics : string list;
}

let row name get want = (name, get, want)

(* EXPERIMENTS.md funnel rows through stage 2 (§4.1-§4.2).  The A64FX
   profile reproduces them as well. *)
let paper_stage_rows =
  [ row "instruction schemes" (fun f -> f.Pipeline.total) 2980;
    row "excluded when benchmarked alone" (fun f -> f.Pipeline.excluded_individual) 657;
    row "remaining after stage 1" (fun f -> f.Pipeline.after_stage1) 2323;
    row "single-uop candidates" (fun f -> f.Pipeline.candidates_initial) 691;
    row "excluded in pairing" (fun f -> f.Pipeline.excluded_pairing) 436;
    row "remaining after stage 2" (fun f -> f.Pipeline.after_stage2) 1887;
    row "blocking candidates" (fun f -> f.Pipeline.candidates_final) 563 ]

let classes = row "blocking classes" (fun f -> f.Pipeline.blocking_classes)
let culprit_exclusions =
  row "excluded with culprit mnemonics" (fun f -> f.Pipeline.excluded_mnemonic)
let inferred = row "inferred port mappings" (fun f -> f.Pipeline.inferred)

(* EXPERIMENTS.md Table 2, inferred column. *)
let zen_table2 =
  [ ("add <GPR[32]>, <GPR[32]>", "[6,7,8,9]");
    ("vpor <XMM>, <XMM>, <XMM>", "[0,1,2,3]");
    ("vpaddd <XMM>, <XMM>, <XMM>", "[0,1,3]");
    ("vminps <XMM>, <XMM>, <XMM>", "[0,1]");
    ("vbroadcastss <XMM>, <XMM>", "[1,2]");
    ("vpaddsw <XMM>, <XMM>, <XMM>", "[0,3]");
    ("vaddps <XMM>, <XMM>, <XMM>", "[2,3]");
    ("mov <GPR[32]>, <MEM[32]>", "[4,5]");
    ("vpslld <XMM>, <XMM>, <XMM>", "[2]");
    ("vroundps <XMM>, <XMM>, <IMM[8]>", "[3]");
    ("mov <MEM[32]>, <GPR[32]>", "[5] + [6,7,8,9]");
    ("vmovaps <MEM[128]>, <XMM>", "[2] + [5]") ]

(* The paper's Zen+ case study: every EXPERIMENTS.md funnel row. *)
let zen_plus =
  { rows =
      paper_stage_rows
      @ [ classes 13; culprit_exclusions 68;
          row "considered in the final stage" (fun f -> f.Pipeline.considered) 1819;
          inferred 1700 ];
    table2_rows = Some zen_table2;
    culprit_mnemonics = [ "imul"; "vmovd"; "vpmuldq" ] }

(* The A64FX profile on the same catalog.  Past stage 2 the values are the
   ones this pipeline produced when the benchmark was defined. *)
let a64fx =
  { rows = paper_stage_rows @ [ classes 11; culprit_exclusions 33; inferred 1735 ];
    table2_rows = None;
    culprit_mnemonics = [ "imul"; "vmovd" ] }

(* Every mismatch, as a readable message; [[]] means the run is correct. *)
let check expected summary =
  let row_errors =
    List.filter_map
      (fun (name, get, want) ->
         let got = get summary.funnel in
         if got = want then None
         else Some (Printf.sprintf "funnel row %S: got %d, expected %d" name got want))
      expected.rows
  in
  let table2_errors =
    match expected.table2_rows with
    | None -> []
    | Some rows ->
      let missing_or_wrong =
        List.filter_map
          (fun (scheme, want) ->
             match List.assoc_opt scheme summary.table2 with
             | Some got when got = want -> None
             | Some got ->
               Some (Printf.sprintf "Table 2 %s: got %s, expected %s" scheme got want)
             | None -> Some (Printf.sprintf "Table 2 %s: row missing" scheme))
          rows
      in
      let extra =
        List.filter_map
          (fun (scheme, _) ->
             if List.mem_assoc scheme rows then None
             else Some (Printf.sprintf "Table 2 %s: unexpected row" scheme))
          summary.table2
      in
      missing_or_wrong @ extra
  in
  let culprit_errors =
    if summary.culprits = expected.culprit_mnemonics then []
    else
      [ Printf.sprintf "culprits: got [%s], expected [%s]"
          (String.concat "; " summary.culprits)
          (String.concat "; " expected.culprit_mnemonics) ]
  in
  row_errors @ table2_errors @ culprit_errors

let summarize (result : Pipeline.t) =
  let removed = result.Pipeline.removed_classes in
  let is_removed k =
    List.exists
      (fun r ->
         Pmi_isa.Scheme.equal r.Pmi_core.Blocking.representative
           k.Pmi_core.Blocking.representative)
      removed
  in
  let surviving =
    List.filter (fun k -> not (is_removed k))
      result.Pipeline.filtering.Pmi_core.Blocking.classes
    |> List.map (fun k -> k.Pmi_core.Blocking.representative)
  in
  let row s =
    ( Pmi_isa.Scheme.name s,
      match Pmi_portmap.Mapping.find_opt result.Pipeline.blocker_mapping s with
      | Some u -> Pmi_portmap.Mapping.usage_to_string u
      | None -> "-" )
  in
  { funnel = result.Pipeline.funnel;
    table2 = List.map row (surviving @ result.Pipeline.improper);
    culprits =
      List.map
        (fun k -> Pmi_isa.Scheme.mnemonic k.Pmi_core.Blocking.representative)
        removed
      |> List.sort compare }

(* §4.4 result against the machine's hidden truth: every characterised,
   non-spurious scheme, with the ones whose usage differs. *)
type agreement = {
  compared : int;
  disagreements : (string * string * string) list;
  (** scheme, inferred usage, true usage *)
}

let truth_agreement (result : Pipeline.t) truth =
  let module M = Pmi_portmap.Mapping in
  let compared = ref 0 in
  let bad = ref [] in
  Array.iter
    (fun s ->
       match Pipeline.verdict result s with
       | Pipeline.Characterized { usage; spurious = false } ->
         incr compared;
         let want = Option.value ~default:[] (M.find_opt truth s) in
         if not (M.equal_usage usage want) then
           bad :=
             (Pmi_isa.Scheme.name s, M.usage_to_string usage, M.usage_to_string want)
             :: !bad
       | Pipeline.Characterized { spurious = true; _ }
       | Pipeline.Excluded_individual _ | Pipeline.Excluded_pairing
       | Pipeline.Excluded_mnemonic | Pipeline.Blocking_class _
       | Pipeline.Unstable_result _ -> ())
    (Pmi_isa.Catalog.schemes result.Pipeline.catalog);
  { compared = !compared; disagreements = List.rev !bad }

let agreement_share a =
  if a.compared = 0 then 0.0
  else float_of_int (a.compared - List.length a.disagreements) /. float_of_int a.compared

(* With [--certify], every solver episode must carry a checked certificate. *)
let certificate_errors ~certify ~checked ~episodes =
  if (not certify) || checked = episodes then []
  else
    [ Printf.sprintf "certify.checked = %d but sat.episodes = %d" checked episodes ]
