module Rat = Pmi_numeric.Rat
module Scheme = Pmi_isa.Scheme

(* Dense throughput oracle over the 2^P bitmask lattice.

   For a fixed mapping, each scheme contributes a *cumulative mass table*
   [tbl] with [tbl.(q) = Σ_{(ports, n) ∈ usage, ports ⊆ q} n]: the µop mass
   of one instance of the scheme that is confined to the port set [q].  The
   table is built once per scheme with a zeta (subset-sum) transform of the
   scheme's point masses and cached, so evaluating

     tp⁻¹(e) = max over ∅ ≠ q of mass_e(q) / |q|

   for an experiment [e] only needs a pointwise combination of the cached
   tables followed by a single O(2^P) scan — no hashtable rebuild, no
   submask enumeration.  [Acc] is the sparse counterpart for small
   experiments: it keeps point masses instead of tables, so the CEGIS
   searches move between neighbouring experiments with ±one-scheme
   deltas. *)

let max_ports = 20
(* 2^20 ints per scheme table; far above any simulated profile (≤ 13). *)

type t = {
  mapping : Mapping.t;
  num_ports : int;
  size : int;                          (* 2^num_ports *)
  card : int array;                    (* popcount per mask *)
  tables : (int, int array) Hashtbl.t; (* scheme id -> cumulative masses *)
}

let create mapping =
  let num_ports = Mapping.num_ports mapping in
  if num_ports < 1 || num_ports > max_ports then
    invalid_arg "Oracle.create: unsupported port count";
  let size = 1 lsl num_ports in
  let card = Array.make size 0 in
  for q = 1 to size - 1 do
    card.(q) <- card.(q lsr 1) + (q land 1)
  done;
  { mapping; num_ports; size; card; tables = Hashtbl.create 64 }

let mapping t = t.mapping
let num_ports t = t.num_ports

(* Zeta transform in place: tbl.(q) becomes Σ_{s ⊆ q} tbl.(s). *)
let zeta num_ports tbl =
  for k = 0 to num_ports - 1 do
    let bit = 1 lsl k in
    for q = 0 to Array.length tbl - 1 do
      if q land bit <> 0 then tbl.(q) <- tbl.(q) + tbl.(q lxor bit)
    done
  done

let table t scheme =
  let id = Scheme.id scheme in
  match Hashtbl.find_opt t.tables id with
  | Some tbl -> tbl
  | None ->
    let usage =
      match Mapping.find_opt t.mapping scheme with
      | Some usage -> usage
      | None -> raise (Throughput.Unsupported scheme)
    in
    let tbl = Array.make t.size 0 in
    List.iter
      (fun (ports, n) ->
         let q = Portset.to_mask ports in
         tbl.(q) <- tbl.(q) + n)
      usage;
    zeta t.num_ports tbl;
    Hashtbl.replace t.tables id tbl;
    tbl

let prepare t schemes = List.iter (fun s -> ignore (table t s)) schemes

(* Best non-empty bottleneck of a cumulative mass table, by exact
   cross-multiplied fraction comparison (masses and cardinalities are far
   from native-int overflow). *)
let best_scan ~size ~card cum =
  let best_q = ref 0 and best_num = ref 0 and best_den = ref 1 in
  for q = 1 to size - 1 do
    let mass = cum.(q) in
    if mass * !best_den > !best_num * card.(q) then begin
      best_q := q;
      best_num := mass;
      best_den := card.(q)
    end
  done;
  (!best_q, !best_num, !best_den)

let best_of t cum = best_scan ~size:t.size ~card:t.card cum

let accumulate t cum experiment =
  List.iter
    (fun (s, count) ->
       let tbl = table t s in
       for q = 0 to t.size - 1 do
         cum.(q) <- cum.(q) + (count * tbl.(q))
       done)
    (Experiment.to_counts experiment)

let inverse t experiment =
  let cum = Array.make t.size 0 in
  accumulate t cum experiment;
  let _, num, den = best_of t cum in
  Rat.of_ints num den

let bottleneck_set t experiment =
  let cum = Array.make t.size 0 in
  accumulate t cum experiment;
  let q, _, _ = best_of t cum in
  Portset.of_mask q

let bounded ~r_max len num den =
  if r_max <= 0 then invalid_arg "Oracle.inverse_bounded";
  (* max (num/den) (len/r_max) without building the loser. *)
  if num * r_max >= len * den then Rat.of_ints num den
  else Rat.of_ints len r_max

let inverse_bounded ~r_max t experiment =
  let cum = Array.make t.size 0 in
  accumulate t cum experiment;
  let _, num, den = best_of t cum in
  bounded ~r_max (Experiment.length experiment) num den

module Acc = struct
  (* The experiment is held as point masses: each distinct port set of the
     standing µops with its total mass.  For any Q, the union Q' of the
     point port sets contained in Q has the same mass and |Q'| <= |Q|, so
     max mass(Q)/|Q| is attained on the union closure of the point port
     sets.  A query enumerates that closure, usually a few dozen sets,
     instead of all 2^P masks; no dense table is needed, so any port count
     that fits a mask works. *)
  type nonrec t = {
    mapping : Mapping.t;
    mutable masks : int array;    (* distinct port sets, [0, points) *)
    mutable masses : int array;   (* their µop masses, all positive *)
    mutable points : int;
    mutable closure : int array;  (* query scratch *)
    mutable len : int;
  }

  let create mapping =
    { mapping; masks = Array.make 8 0; masses = Array.make 8 0; points = 0;
      closure = Array.make 32 0; len = 0 }

  let length acc = acc.len

  let grow a = Array.append a (Array.make (Array.length a) 0)

  (* Move [delta] µops onto port set [q]: a new point is appended, a point
     whose mass drops to zero is replaced by the last one. *)
  let shift acc q delta =
    let rec find i =
      if i = acc.points || acc.masks.(i) = q then i else find (i + 1)
    in
    let i = find 0 in
    if i = acc.points then begin
      if i = Array.length acc.masks then begin
        acc.masks <- grow acc.masks;
        acc.masses <- grow acc.masses
      end;
      acc.masks.(i) <- q;
      acc.masses.(i) <- 0;
      acc.points <- i + 1
    end;
    let mass = acc.masses.(i) + delta in
    if mass = 0 then begin
      let last = acc.points - 1 in
      acc.masks.(i) <- acc.masks.(last);
      acc.masses.(i) <- acc.masses.(last);
      acc.points <- last
    end
    else acc.masses.(i) <- mass

  let update acc scheme count =
    match Mapping.find_opt acc.mapping scheme with
    | None -> raise (Throughput.Unsupported scheme)
    | Some usage ->
      List.iter
        (fun (ports, n) -> shift acc (Portset.to_mask ports) (count * n))
        usage;
      acc.len <- acc.len + count

  let add acc scheme count =
    if count < 0 then invalid_arg "Oracle.Acc.add";
    if count > 0 then update acc scheme count

  let remove acc scheme count =
    if count < 0 then invalid_arg "Oracle.Acc.remove";
    if count > 0 then update acc scheme (-count)

  let move acc ~from ~to_ n =
    if n < 0 then invalid_arg "Oracle.Acc.move";
    if n > 0 && not (Portset.equal from to_) then begin
      shift acc (Portset.to_mask from) (-n);
      shift acc (Portset.to_mask to_) n
    end

  let reset acc =
    acc.points <- 0;
    acc.len <- 0

  let rec popcount acc q =
    if q = 0 then acc else popcount (acc + 1) (q land (q - 1))

  (* The closure is built by insertion: each point port set is added alone
     and OR-ed onto every set already present. *)
  let best acc =
    let size = ref 0 in
    let insert u =
      let rec mem j = j < !size && (acc.closure.(j) = u || mem (j + 1)) in
      if not (mem 0) then begin
        if !size = Array.length acc.closure then
          acc.closure <- grow acc.closure;
        acc.closure.(!size) <- u;
        incr size
      end
    in
    for i = 0 to acc.points - 1 do
      let p = acc.masks.(i) in
      let before = !size in
      insert p;
      for j = 0 to before - 1 do insert (acc.closure.(j) lor p) done
    done;
    let best_num = ref 0 and best_den = ref 1 in
    for j = 0 to !size - 1 do
      let u = acc.closure.(j) in
      let mass = ref 0 in
      for i = 0 to acc.points - 1 do
        let p = acc.masks.(i) in
        if p land u = p then mass := !mass + acc.masses.(i)
      done;
      let card = popcount 0 u in
      if !mass * !best_den > !best_num * card then begin
        best_num := !mass;
        best_den := card
      end
    done;
    (!best_num, !best_den)

  let inverse acc =
    let num, den = best acc in
    Rat.of_ints num den

  let inverse_bounded ~r_max acc =
    let num, den = best acc in
    bounded ~r_max acc.len num den
end

module Bounds = struct
  (* Abstract domain for *partial* mappings: each scheme's row ranges over a
     non-empty set of candidate usages (as during a live CEGIS search).  Per
     scheme we keep two cumulative mass tables — the pointwise min and max of
     the per-candidate zeta tables — so a query costs the same pointwise
     combination + O(2^P) scan as the concrete oracle, once per bound.

     Soundness: for any completion σ (one candidate per scheme) and any mask
     Q, Σ count·mass_{σ(s)}(Q) lies between the combined lo and hi tables at
     Q; taking max_Q mass/|Q| of each bound therefore brackets tp⁻¹_σ. *)

  type interval = { lo : Rat.t; hi : Rat.t }

  let is_point { lo; hi } = Rat.equal lo hi

  type nonrec t = {
    num_ports : int;
    size : int;
    card : int array;
    cands : (int, Mapping.usage list) Hashtbl.t;
    tables : (int, int array * int array) Hashtbl.t;
        (* scheme id -> (cumulative min-mass, cumulative max-mass) *)
  }

  let create ~num_ports =
    if num_ports < 1 || num_ports > max_ports then
      invalid_arg "Oracle.Bounds.create: unsupported port count";
    let size = 1 lsl num_ports in
    let card = Array.make size 0 in
    for q = 1 to size - 1 do
      card.(q) <- card.(q lsr 1) + (q land 1)
    done;
    { num_ports; size; card;
      cands = Hashtbl.create 16; tables = Hashtbl.create 16 }

  let num_ports t = t.num_ports

  let check_usage t usage =
    List.iter
      (fun (ports, n) ->
         if Portset.is_empty ports then
           invalid_arg "Oracle.Bounds: empty port set in candidate usage";
         if Portset.to_mask ports >= t.size then
           invalid_arg "Oracle.Bounds: candidate port out of range";
         if n <= 0 then
           invalid_arg "Oracle.Bounds: non-positive µop multiplicity")
      usage

  let set_candidates t scheme candidates =
    if candidates = [] then
      invalid_arg "Oracle.Bounds.set_candidates: no candidates";
    List.iter (check_usage t) candidates;
    let id = Scheme.id scheme in
    Hashtbl.replace t.cands id candidates;
    Hashtbl.remove t.tables id

  let candidates t scheme = Hashtbl.find_opt t.cands (Scheme.id scheme)

  let of_mapping mapping =
    let t = create ~num_ports:(Mapping.num_ports mapping) in
    List.iter
      (fun scheme ->
         match Mapping.find_opt mapping scheme with
         | Some usage -> set_candidates t scheme [ usage ]
         | None -> ())
      (Mapping.schemes mapping);
    t

  let pin t scheme usage =
    check_usage t usage;
    let cands = Hashtbl.copy t.cands in
    let tables = Hashtbl.copy t.tables in
    let id = Scheme.id scheme in
    Hashtbl.replace cands id [ usage ];
    Hashtbl.remove tables id;
    (* The copies are shallow: the other schemes' table arrays are shared
       with [t], so pinning one row is cheap. *)
    { t with cands; tables }

  let scheme_tables t scheme =
    let id = Scheme.id scheme in
    match Hashtbl.find_opt t.tables id with
    | Some pair -> pair
    | None ->
      let cands =
        match Hashtbl.find_opt t.cands id with
        | Some cs -> cs
        | None -> raise (Throughput.Unsupported scheme)
      in
      let lo = Array.make t.size max_int in
      let hi = Array.make t.size 0 in
      List.iter
        (fun usage ->
           let tbl = Array.make t.size 0 in
           List.iter
             (fun (ports, n) ->
                let q = Portset.to_mask ports in
                tbl.(q) <- tbl.(q) + n)
             usage;
           zeta t.num_ports tbl;
           for q = 0 to t.size - 1 do
             if tbl.(q) < lo.(q) then lo.(q) <- tbl.(q);
             if tbl.(q) > hi.(q) then hi.(q) <- tbl.(q)
           done)
        cands;
      let pair = (lo, hi) in
      Hashtbl.replace t.tables id pair;
      pair

  let accumulate t lcum ucum experiment =
    List.iter
      (fun (s, count) ->
         let lo, hi = scheme_tables t s in
         for q = 0 to t.size - 1 do
           lcum.(q) <- lcum.(q) + (count * lo.(q));
           ucum.(q) <- ucum.(q) + (count * hi.(q))
         done)
      (Experiment.to_counts experiment)

  let inverse t experiment =
    let lcum = Array.make t.size 0 in
    let ucum = Array.make t.size 0 in
    accumulate t lcum ucum experiment;
    let _, lnum, lden = best_scan ~size:t.size ~card:t.card lcum in
    let _, unum, uden = best_scan ~size:t.size ~card:t.card ucum in
    { lo = Rat.of_ints lnum lden; hi = Rat.of_ints unum uden }

  let inverse_bounded ~r_max t experiment =
    let lcum = Array.make t.size 0 in
    let ucum = Array.make t.size 0 in
    accumulate t lcum ucum experiment;
    let len = Experiment.length experiment in
    let _, lnum, lden = best_scan ~size:t.size ~card:t.card lcum in
    let _, unum, uden = best_scan ~size:t.size ~card:t.card ucum in
    (* The frontend bound |e|/r_max holds for every completion, so it lifts
       onto both ends of the interval. *)
    { lo = bounded ~r_max len lnum lden; hi = bounded ~r_max len unum uden }
end
