open Pmi_smt
module Scheme = Pmi_isa.Scheme
module Portset = Pmi_portmap.Portset
module Mapping = Pmi_portmap.Mapping

type instr_spec =
  | Proper of int
  | Improper of { own_ports : int }

type row = {
  scheme : Scheme.t;
  spec : instr_spec;
  own : int array;             (* own µop variables, one per port *)
  shared : int array;          (* improper only: shared µop variables *)
  selectors : int array;       (* improper only: one per proper instr *)
  act : int;                   (* activation variable; -1 = unguarded *)
  mutable active : bool;       (* in force for the next solve ({!activate}) *)
  mutable networks : (int * Card.network) list;
                               (* (declared bound, recorded network) of
                                  every cardinality constraint emitted for
                                  this row, for static re-verification *)
}

type t = {
  solver : Sat.t;
  num_ports : int;
  rows : row array;
}

let sat t = t.solver
let num_ports t = t.num_ports

(* Every observable view of the encoding ranges over the active rows only:
   a row left out of the current {!activate} set is assumed off for the
   next solve and takes no part in decode/lemma construction. *)
let active_rows t = Array.to_list t.rows |> List.filter (fun r -> r.active)

let check_count num_ports c =
  if c < 1 || c > num_ports then
    invalid_arg "Encoding: port count out of range"

let guard_of row =
  if row.act >= 0 then Some (Lit.neg_of_var row.act) else None

(* A row's activation variable [act(<scheme>)]. *)
let fresh_activation solver scheme =
  let act = Sat.fresh_var solver in
  Sat.name_var solver act (Printf.sprintf "act(%s)" (Scheme.name scheme));
  Sat.mark_guard solver act;
  act

let create ~num_ports ?(symmetry_breaking = true) ?(certify = false)
    ?(guarded = false) specs =
  if num_ports <= 0 then invalid_arg "Encoding.create: num_ports";
  let solver = Sat.create () in
  (* Proof logging must precede every clause, otherwise the trace lacks the
     axioms later derivations resolve against. *)
  if certify then Sat.set_proof_logging solver true;
  let fresh_row () = Array.init num_ports (fun _ -> Sat.fresh_var solver) in
  let name_row prefix scheme vars =
    Array.iteri
      (fun k v ->
         Sat.name_var solver v
           (Printf.sprintf "%s(%s,p%d)" prefix (Scheme.name scheme) k))
      vars
  in
  let proper_indices =
    List.filteri (fun _ (_, spec) -> match spec with Proper _ -> true | Improper _ -> false)
      specs
    |> List.length
  in
  if
    proper_indices = 0
    && List.exists (fun (_, s) -> match s with Improper _ -> true | Proper _ -> false) specs
  then invalid_arg "Encoding.create: improper instruction without proper ones";
  let rows =
    Array.of_list
      (List.map
         (fun (scheme, spec) ->
            (match spec with
             | Proper c -> check_count num_ports c
             | Improper { own_ports } -> check_count num_ports own_ports);
            let own = fresh_row () in
            name_row "own" scheme own;
            let act = if guarded then fresh_activation solver scheme else -1 in
            { scheme; spec; own; shared = [||]; selectors = [||];
              act; active = true; networks = [] })
         specs)
  in
  (* Cardinality of every own µop. *)
  Array.iter
    (fun row ->
       let count =
         match row.spec with Proper c -> c | Improper { own_ports } -> own_ports
       in
       let net =
         Card.exactly ?guard:(guard_of row) solver
           (Array.to_list (Array.map Lit.pos row.own)) count
       in
       row.networks <- (count, net) :: row.networks)
    rows;
  (* Shared µops of improper instructions.  The partner may be any proper
     blocking instruction's µop, or the own µop of another improper one:
     on layouts where the store µop is wider than one port, the store
     blockers share that µop among themselves rather than with a proper
     class. *)
  let rows =
    Array.map
      (fun row ->
         match row.spec with
         | Proper _ -> row
         | Improper _ ->
           let partners =
             Array.to_list rows
             |> List.filter (fun r -> not (Scheme.equal r.scheme row.scheme))
           in
           let shared = fresh_row () in
           name_row "shared" row.scheme shared;
           let selectors =
             Array.of_list (List.map (fun _ -> Sat.fresh_var solver) partners)
           in
           List.iteri
             (fun j partner ->
                Sat.name_var solver selectors.(j)
                  (Printf.sprintf "select(%s,%s)"
                     (Scheme.name row.scheme)
                     (Scheme.name partner.scheme)))
             partners;
           let selector_net =
             Card.exactly ?guard:(guard_of row) solver
               (Array.to_list (Array.map Lit.pos selectors))
               1
           in
           List.iteri
             (fun j partner ->
                (* Guarded: an active row selects only an active partner. *)
                if guarded then
                  Sat.add_clause solver
                    [ Lit.neg_of_var row.act; Lit.neg_of_var selectors.(j);
                      Lit.pos partner.act ];
                for k = 0 to num_ports - 1 do
                  (* selectors.(j) -> (shared.(k) <-> partner.own.(k)) *)
                  Sat.add_clause solver
                    [ Lit.neg_of_var selectors.(j);
                      Lit.neg_of_var shared.(k);
                      Lit.pos partner.own.(k) ];
                  Sat.add_clause solver
                    [ Lit.neg_of_var selectors.(j);
                      Lit.pos shared.(k);
                      Lit.neg_of_var partner.own.(k) ]
                done)
             partners;
           let row = { row with shared; selectors } in
           row.networks <- (1, selector_net) :: row.networks;
           row)
      rows
  in
  let t = { solver; num_ports; rows } in
  if symmetry_breaking then begin
    (* Columns (ports), read along the proper rows, are lexicographically
       non-increasing: col k >= col k+1. *)
    let proper_bits k =
      Array.to_list rows
      |> List.filter_map
           (fun r ->
              match r.spec with
              | Proper _ -> Some r.own.(k)
              | Improper _ -> None)
    in
    for k = 0 to num_ports - 2 do
      let xs = proper_bits k and ys = proper_bits (k + 1) in
      (* a_r: rows 0..r-1 of the two columns are equal.  a_0 is true. *)
      let rec go prefix_equal xs ys =
        match (xs, ys) with
        | [], [] -> ()
        | x :: xs', y :: ys' ->
          (* prefix equal -> x >= y *)
          (match prefix_equal with
           | None -> Sat.add_clause solver [ Lit.pos x; Lit.neg_of_var y ]
           | Some a ->
             Sat.add_clause solver
               [ Lit.neg_of_var a; Lit.pos x; Lit.neg_of_var y ]);
          if xs' <> [] then begin
            let a' = Sat.fresh_var solver in
            (* a' <-> prefix_equal /\ (x <-> y) *)
            let prefix_lits =
              match prefix_equal with
              | None -> []
              | Some a -> [ a ]
            in
            List.iter
              (fun a ->
                 Sat.add_clause solver [ Lit.neg_of_var a'; Lit.pos a ])
              prefix_lits;
            Sat.add_clause solver
              [ Lit.neg_of_var a'; Lit.neg_of_var x; Lit.pos y ];
            Sat.add_clause solver
              [ Lit.neg_of_var a'; Lit.pos x; Lit.neg_of_var y ];
            (* reverse: prefix_equal /\ (x <-> y) -> a'. *)
            let base = List.map Lit.neg_of_var prefix_lits in
            Sat.add_clause solver
              (Lit.pos a' :: Lit.pos x :: Lit.pos y :: base);
            Sat.add_clause solver
              (Lit.pos a' :: Lit.neg_of_var x :: Lit.neg_of_var y :: base);
            go (Some a') xs' ys'
          end
        | _, _ -> assert false
      in
      go None xs ys
    done
  end;
  t

let activate t schemes =
  List.iter
    (fun s ->
       if not (Array.exists (fun r -> Scheme.equal r.scheme s) t.rows)
       then invalid_arg "Encoding.activate: no row for scheme")
    schemes;
  Array.to_list t.rows
  |> List.map (fun r ->
      if r.act < 0 then invalid_arg "Encoding.activate: unguarded row";
      r.active <- List.exists (Scheme.equal r.scheme) schemes;
      if r.active then Lit.pos r.act else Lit.neg_of_var r.act)

let ports_of_row model vars =
  let ports = ref Portset.empty in
  Array.iteri (fun k v -> if model.(v) then ports := Portset.add k !ports) vars;
  !ports

let decode t model =
  let mapping = Mapping.create ~num_ports:t.num_ports in
  List.iter
    (fun row ->
       let own = ports_of_row model row.own in
       let usage =
         match row.spec with
         | Proper _ -> [ (own, 1) ]
         | Improper _ -> [ (own, 1); (ports_of_row model row.shared, 1) ]
       in
       Mapping.set mapping row.scheme usage)
    (active_rows t);
  mapping

let pin_row lits row usage =
  let assert_row vars ports =
    Array.iteri
      (fun k v ->
         lits := (if Portset.mem k ports then Lit.pos v else Lit.neg_of_var v) :: !lits)
      vars
  in
  match (row.spec, usage) with
  | Proper _, [ (ports, 1) ] -> assert_row row.own ports
  | Improper _, [ (a, 1); (b, 1) ] ->
    (* The improper usage is stored canonically (sorted by port set);
       try both orientations of (own, shared). *)
    let own_count =
      match row.spec with
      | Improper { own_ports } -> own_ports
      | Proper _ -> assert false
    in
    let own, shared =
      if Portset.cardinal a = own_count then (a, b) else (b, a)
    in
    assert_row row.own own;
    assert_row row.shared shared
  | (Proper _ | Improper _), _ ->
    invalid_arg "Encoding: µop structure mismatch"

let encode_mapping t mapping =
  let lits = ref [] in
  List.iter
    (fun row ->
       let usage =
         match Mapping.find_opt mapping row.scheme with
         | Some u -> u
         | None -> invalid_arg "Encoding.encode_mapping: scheme not mapped"
       in
       pin_row lits row usage)
    (active_rows t);
  !lits

(* A µop slot of a row: its own µop, or the shared µop of an improper
   row.  Footprint order is row order, own before shared. *)
type slot = { s_row : row; s_shared : bool }

let footprint t schemes =
  List.concat_map
    (fun row ->
       if not (List.exists (Scheme.equal row.scheme) schemes) then []
       else
         match row.spec with
         | Proper _ -> [ { s_row = row; s_shared = false } ]
         | Improper _ ->
           [ { s_row = row; s_shared = false }; { s_row = row; s_shared = true } ])
    (active_rows t)

let slot_scheme slot = slot.s_row.scheme

let slot_vars slot = if slot.s_shared then slot.s_row.shared else slot.s_row.own

let slot_ports model slot = ports_of_row model (slot_vars slot)

let block_slots model slots =
  let lits = ref [] in
  let flip vars =
    Array.iter
      (fun v ->
         lits := (if model.(v) then Lit.neg_of_var v else Lit.pos v) :: !lits)
      vars
  in
  ignore
    (List.fold_left
       (fun previous slot ->
          (* Guarded rows scope the lemma to the queries that activate
             them: with act assumed false the clause is satisfied, exactly
             like the cardinality chain it refutes. *)
          let same_row =
            match previous with Some row -> row == slot.s_row | None -> false
          in
          if (not same_row) && slot.s_row.act >= 0 then
            lits := Lit.neg_of_var slot.s_row.act :: !lits;
          flip (slot_vars slot);
          Some slot.s_row)
       None slots);
  !lits

let block_footprint t model schemes = block_slots model (footprint t schemes)

let block_model t model =
  block_footprint t model (List.map (fun r -> r.scheme) (active_rows t))

(* ------------------------------------------------------------------ *)
(* Static analysis support (EncLint)                                   *)
(* ------------------------------------------------------------------ *)

let enclint_view ?(lemmas = []) ?(frozen = []) ?accepted t =
  let module E = Pmi_analysis.Enclint in
  let rows =
    Array.to_list t.rows
    |> List.map (fun r ->
        { E.subject = Printf.sprintf "row %s" (Scheme.name r.scheme);
          act = r.act;
          networks = r.networks })
  in
  let accepted =
    match accepted with
    | None -> []
    | Some mapping ->
      List.map
        (fun l -> (Lit.var l, Lit.is_pos l))
        (encode_mapping t mapping)
  in
  { E.rows; lemmas; frozen; accepted }
