(* A MiniSat/Glucose-class CDCL engine.  See sat.mli for the feature list.

   Conventions:
   - [assigns] is per *literal*: 1 true, -1 false, 0 unassigned; the two
     slots of a variable are kept consistent by [enqueue]/[cancel_until].
   - Long clauses (>= 3 literals) live in a flat int-array arena as
     [len; info; lit0; ...; lit_{len-1}] at a clause reference (cref); [info]
     packs [(lbd lsl 2) lor (deleted lsl 1) lor learned].
   - Binary clauses never enter the arena: they live in per-literal
     implication lists keyed by the *asserted* literal, so propagating one
     reads a flat array and never touches clause memory.
   - Watch lists are flat int arrays of (cref, blocker) pairs; the blocker is
     some other literal of the clause whose truth lets propagation skip the
     clause without touching the arena.  Propagation allocates nothing.
   - Watch invariant: every arena clause is watched by its first two
     literals, and whenever a clause propagates, the propagated literal is at
     index 0 (conflict analysis relies on this to skip the asserting literal
     of reason clauses).
   - [reason] per variable is encoded: [-1] for decisions and assumptions,
     [cref lsl 1] for an arena clause, [(lit lsl 1) lor 1] for the other
     literal of a binary clause.  Conflicts returned by [propagate] use the
     same encoding, where odd means "binary conflict, both literals in
     [bin_confl]". *)

type stats = {
  decisions : int;
  propagations : int;
  conflicts : int;
  restarts : int;
  learned : int;
  deleted : int;
  max_lbd : int;
}

let zero_stats =
  { decisions = 0; propagations = 0; conflicts = 0; restarts = 0;
    learned = 0; deleted = 0; max_lbd = 0 }

let add_stats a b =
  { decisions = a.decisions + b.decisions;
    propagations = a.propagations + b.propagations;
    conflicts = a.conflicts + b.conflicts;
    restarts = a.restarts + b.restarts;
    learned = a.learned + b.learned;
    deleted = a.deleted + b.deleted;
    max_lbd = max a.max_lbd b.max_lbd }

(* DRAT-style proof trace.  [Input] clauses are axioms (problem clauses,
   cardinality chains, theory lemmas); [Derive] clauses must have the RUP
   property with respect to everything logged before them; [Delete] removes
   one instance of a clause from the checker's database.  Clauses are logged
   exactly as the caller/learner produced them — the independent checker
   (Pmi_analysis.Drat) canonicalizes on its side. *)
type proof_step =
  | Input of Lit.t list
  | Derive of Lit.t list
  | Delete of Lit.t list

type t = {
  id : int;                          (* unique per instance *)
  (* Clause arena (long clauses only). *)
  mutable arena : int array;
  mutable arena_top : int;
  mutable clauses : int array;       (* crefs of problem clauses *)
  mutable n_problem : int;
  mutable learnts : int array;       (* crefs of learned clauses *)
  mutable n_learnts : int;
  (* Binary clauses. *)
  mutable bins : int array array;    (* implied literals, keyed by asserted literal *)
  mutable bin_size : int array;
  mutable bin_pairs : int array;     (* problem binary clauses, flat pairs *)
  mutable n_bin_pairs : int;         (* ints used (2 per clause) *)
  (* Watches. *)
  mutable watch : int array array;   (* flat (cref, blocker) pairs per literal *)
  mutable watch_size : int array;
  (* Assignment. *)
  mutable assigns : int array;       (* per *literal*: 1 true, -1 false, 0 unset *)
  mutable level : int array;
  mutable reason : int array;        (* encoded, see above *)
  mutable activity : float array;
  mutable phase : bool array;
  mutable seen : bool array;
  mutable trail : int array;         (* literals, in assignment order *)
  mutable trail_size : int;
  mutable trail_lim : int array;
  mutable n_levels : int;
  mutable qhead : int;
  mutable nvars : int;
  mutable var_inc : float;
  mutable ok : bool;
  (* VSIDS decision heap (indexed binary max-heap over [activity]). *)
  mutable heap : int array;
  mutable heap_index : int array;    (* -1 when not in the heap *)
  mutable heap_size : int;
  (* Scratch buffers. *)
  bin_confl : int array;             (* the two literals of a binary conflict *)
  mutable learnt_buf : int array;
  mutable lbd_mark : int array;      (* keyed by decision level *)
  mutable lbd_stamp : int;
  mutable reduce_enabled : bool;
  mutable reduce_budget : int;       (* conflicts until the next reduction *)
  mutable reduce_step : int;
  (* DRAT proof trace (certification support).  Stored internally as one
     flat growable int buffer of [tag; len; lits...] records with tag
     0 = Input, 1 = Derive, 2 = Delete; logging a step on the learning hot
     path is a bounds check plus a blit, with no per-step allocation.
     [proof] converts to the public [proof_step] view. *)
  mutable proof_enabled : bool;
  mutable proof_buf : int array;
  mutable proof_pos : int;
  mutable proof_len : int;
  (* Optional variable names, for DIMACS/DRAT cross-referencing. *)
  names : (int, string) Hashtbl.t;
  (* Guard/activation variables, declared via [mark_guard]: annotated in
     DIMACS dumps and exempt from EncLint's dead-variable check. *)
  guards : (int, unit) Hashtbl.t;
  (* Invariant sanitizer (debug): checked at decision-level-0 boundaries. *)
  mutable sanitize : bool;
  (* Statistics. *)
  mutable st_decisions : int;
  mutable st_propagations : int;
  mutable st_conflicts : int;
  mutable st_restarts : int;
  mutable st_learned : int;
  mutable st_deleted : int;
  mutable st_max_lbd : int;
}

type result =
  | Sat of bool array
  | Unsat

(* Unique instance ids let analysis passes keep per-solver side tables
   without retaining the solver itself.  Atomic: solvers may be created on
   any domain. *)
let next_id = Atomic.make 0

let id s = s.id

let create () =
  { id = Atomic.fetch_and_add next_id 1;
    arena = Array.make 256 0;
    arena_top = 0;
    clauses = Array.make 64 0;
    n_problem = 0;
    learnts = Array.make 64 0;
    n_learnts = 0;
    bins = Array.make 16 [||];
    bin_size = Array.make 16 0;
    bin_pairs = Array.make 32 0;
    n_bin_pairs = 0;
    watch = Array.make 16 [||];
    watch_size = Array.make 16 0;
    assigns = Array.make 16 0;
    level = Array.make 8 0;
    reason = Array.make 8 (-1);
    activity = Array.make 8 0.0;
    phase = Array.make 8 false;
    seen = Array.make 8 false;
    trail = Array.make 8 0;
    trail_size = 0;
    trail_lim = Array.make 8 0;
    n_levels = 0;
    qhead = 0;
    nvars = 0;
    var_inc = 1.0;
    ok = true;
    heap = Array.make 8 0;
    heap_index = Array.make 8 (-1);
    heap_size = 0;
    bin_confl = Array.make 2 0;
    learnt_buf = Array.make 8 0;
    lbd_mark = Array.make 8 0;
    lbd_stamp = 0;
    reduce_enabled = true;
    reduce_budget = 2000;
    reduce_step = 2000;
    proof_enabled = false;
    proof_buf = [||];
    proof_pos = 0;
    proof_len = 0;
    names = Hashtbl.create 16;
    guards = Hashtbl.create 16;
    sanitize = false;
    st_decisions = 0;
    st_propagations = 0;
    st_conflicts = 0;
    st_restarts = 0;
    st_learned = 0;
    st_deleted = 0;
    st_max_lbd = 0 }

let grow_array arr len fill =
  if Array.length arr >= len then arr
  else begin
    let out = Array.make (max len (2 * Array.length arr)) fill in
    Array.blit arr 0 out 0 (Array.length arr);
    out
  end

let fresh_var s =
  let v = s.nvars in
  s.nvars <- v + 1;
  s.assigns <- grow_array s.assigns (2 * s.nvars) 0;
  s.level <- grow_array s.level s.nvars 0;
  s.reason <- grow_array s.reason s.nvars (-1);
  s.activity <- grow_array s.activity s.nvars 0.0;
  s.phase <- grow_array s.phase s.nvars false;
  s.seen <- grow_array s.seen s.nvars false;
  s.trail <- grow_array s.trail s.nvars 0;
  s.heap <- grow_array s.heap s.nvars 0;
  s.heap_index <- grow_array s.heap_index s.nvars (-1);
  s.lbd_mark <- grow_array s.lbd_mark (s.nvars + 2) 0;
  s.learnt_buf <- grow_array s.learnt_buf (s.nvars + 1) 0;
  s.watch <- grow_array s.watch (2 * s.nvars) [||];
  s.watch_size <- grow_array s.watch_size (2 * s.nvars) 0;
  s.bins <- grow_array s.bins (2 * s.nvars) [||];
  s.bin_size <- grow_array s.bin_size (2 * s.nvars) 0;
  s.assigns.(2 * v) <- 0;
  s.assigns.(2 * v + 1) <- 0;
  s.level.(v) <- 0;
  s.reason.(v) <- -1;
  s.activity.(v) <- 0.0;
  (* Branch false-first until phase saving takes over: the port-usage and
     cardinality encodings are mostly at-most-k, so sparse assignments
     satisfy far more clauses than dense ones. *)
  s.phase.(v) <- false;
  s.seen.(v) <- false;
  s.heap_index.(v) <- -1;
  s.watch.(2 * v) <- [||];
  s.watch.(2 * v + 1) <- [||];
  s.watch_size.(2 * v) <- 0;
  s.watch_size.(2 * v + 1) <- 0;
  s.bins.(2 * v) <- [||];
  s.bins.(2 * v + 1) <- [||];
  s.bin_size.(2 * v) <- 0;
  s.bin_size.(2 * v + 1) <- 0;
  (* New variables enter the decision heap. *)
  let i = s.heap_size in
  s.heap.(i) <- v;
  s.heap_index.(v) <- i;
  s.heap_size <- i + 1;
  v

let num_vars s = s.nvars
let okay s = s.ok
let num_conflicts s = s.st_conflicts

let stats s =
  { decisions = s.st_decisions;
    propagations = s.st_propagations;
    conflicts = s.st_conflicts;
    restarts = s.st_restarts;
    learned = s.st_learned;
    deleted = s.st_deleted;
    max_lbd = s.st_max_lbd }

(* ------------------------------------------------------------------ *)
(* Proof trace and variable names                                      *)
(* ------------------------------------------------------------------ *)

let proof_reserve s extra =
  let need = s.proof_pos + extra in
  if need > Array.length s.proof_buf then begin
    let cap = max 1024 (max need (2 * Array.length s.proof_buf)) in
    let fresh = Array.make cap 0 in
    Array.blit s.proof_buf 0 fresh 0 s.proof_pos;
    s.proof_buf <- fresh
  end

(* Append a [tag; n; lits...] record, blitting the literals out of [src]
   (the learnt scratch buffer or the clause arena). *)
let[@inline] proof_push_sub s tag src off n =
  if s.proof_enabled then begin
    proof_reserve s (n + 2);
    let b = s.proof_buf and p = s.proof_pos in
    b.(p) <- tag;
    b.(p + 1) <- n;
    Array.blit src off b (p + 2) n;
    s.proof_pos <- p + n + 2;
    s.proof_len <- s.proof_len + 1
  end

let proof_push_list s tag lits =
  if s.proof_enabled then begin
    let n = List.length lits in
    proof_reserve s (n + 2);
    let b = s.proof_buf and p = s.proof_pos in
    b.(p) <- tag;
    b.(p + 1) <- n;
    let i = ref (p + 2) in
    List.iter (fun l -> b.(!i) <- l; incr i) lits;
    s.proof_pos <- p + n + 2;
    s.proof_len <- s.proof_len + 1
  end

let set_proof_logging s b = s.proof_enabled <- b
let proof_logging s = s.proof_enabled

let proof s =
  let b = s.proof_buf in
  let rec steps p acc =
    if p >= s.proof_pos then List.rev acc
    else begin
      let tag = b.(p) and n = b.(p + 1) in
      let lits = ref [] in
      for j = p + 1 + n downto p + 2 do lits := b.(j) :: !lits done;
      let step =
        match tag with
        | 0 -> Input !lits
        | 1 -> Derive !lits
        | _ -> Delete !lits
      in
      steps (p + n + 2) (step :: acc)
    end
  in
  steps 0 []

let proof_length s = s.proof_len

let name_var s v name = Hashtbl.replace s.names v name
let var_name s v = Hashtbl.find_opt s.names v

let mark_guard s v = Hashtbl.replace s.guards v ()
let is_guard s v = Hashtbl.mem s.guards v

(* ------------------------------------------------------------------ *)
(* Policy knobs                                                        *)
(* ------------------------------------------------------------------ *)

let set_reduce_enabled s b = s.reduce_enabled <- b

(* ------------------------------------------------------------------ *)
(* Values, heap, trail                                                 *)
(* ------------------------------------------------------------------ *)

let[@inline] lit_value s l = s.assigns.(l)
let[@inline] var_value s v = s.assigns.(2 * v)

let heap_swap s i j =
  let u = s.heap.(i) and v = s.heap.(j) in
  s.heap.(i) <- v;
  s.heap.(j) <- u;
  s.heap_index.(v) <- i;
  s.heap_index.(u) <- j

let rec sift_up s i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if s.activity.(s.heap.(i)) > s.activity.(s.heap.(parent)) then begin
      heap_swap s i parent;
      sift_up s parent
    end
  end

let rec sift_down s i =
  let l = (2 * i) + 1 in
  if l < s.heap_size then begin
    let r = l + 1 in
    let best =
      if r < s.heap_size && s.activity.(s.heap.(r)) > s.activity.(s.heap.(l))
      then r
      else l
    in
    if s.activity.(s.heap.(best)) > s.activity.(s.heap.(i)) then begin
      heap_swap s i best;
      sift_down s best
    end
  end

let heap_insert s v =
  if s.heap_index.(v) < 0 then begin
    let i = s.heap_size in
    s.heap.(i) <- v;
    s.heap_index.(v) <- i;
    s.heap_size <- i + 1;
    sift_up s i
  end

let heap_pop s =
  let v = s.heap.(0) in
  s.heap_size <- s.heap_size - 1;
  let last = s.heap.(s.heap_size) in
  s.heap.(0) <- last;
  s.heap_index.(last) <- 0;
  s.heap_index.(v) <- -1;
  if s.heap_size > 1 then sift_down s 0;
  v

let rescale_activities s =
  for v = 0 to s.nvars - 1 do
    s.activity.(v) <- s.activity.(v) *. 1e-100
  done;
  s.var_inc <- s.var_inc *. 1e-100

let bump s v =
  s.activity.(v) <- s.activity.(v) +. s.var_inc;
  if s.activity.(v) > 1e100 then rescale_activities s;
  if s.heap_index.(v) >= 0 then sift_up s s.heap_index.(v)

(* A slow decay (0.99, vs MiniSat's 0.95) keeps activities closer to
   conflict *counts* than to recency.  On the symmetric instances this
   solver actually faces — cardinality registers, pigeonhole-style
   blocking — a recency-heavy order relitigates interchangeable variables
   after every restart; measured on pigeonhole 7/6 and 8/7 the slow decay
   roughly halves the conflicts. *)
let decay s = s.var_inc <- s.var_inc /. 0.99

let enqueue s lit reason =
  let v = Lit.var lit in
  s.assigns.(lit) <- 1;
  s.assigns.(lit lxor 1) <- -1;
  s.level.(v) <- s.n_levels;
  s.reason.(v) <- reason;
  s.trail.(s.trail_size) <- lit;
  s.trail_size <- s.trail_size + 1

let new_decision_level s =
  s.trail_lim <- grow_array s.trail_lim (s.n_levels + 1) 0;
  s.trail_lim.(s.n_levels) <- s.trail_size;
  s.n_levels <- s.n_levels + 1

let cancel_until s lvl =
  if s.n_levels > lvl then begin
    let bound = s.trail_lim.(lvl) in
    for i = s.trail_size - 1 downto bound do
      let lit = s.trail.(i) in
      let v = Lit.var lit in
      s.phase.(v) <- Lit.is_pos lit;
      s.assigns.(lit) <- 0;
      s.assigns.(lit lxor 1) <- 0;
      s.reason.(v) <- -1;
      heap_insert s v
    done;
    s.trail_size <- bound;
    s.qhead <- bound;
    s.n_levels <- lvl
  end

(* ------------------------------------------------------------------ *)
(* Clause arena                                                        *)
(* ------------------------------------------------------------------ *)

let c_len s cr = s.arena.(cr)
let c_lit s cr i = s.arena.(cr + 2 + i)
let c_learned s cr = s.arena.(cr + 1) land 1 = 1
let c_deleted s cr = s.arena.(cr + 1) land 2 <> 0
let c_delete s cr = s.arena.(cr + 1) <- s.arena.(cr + 1) lor 2
let c_lbd s cr = s.arena.(cr + 1) lsr 2

(* A problem clause (info 0: not learned, no glue); learnt clauses are
   written straight from the scratch buffer by [record_learnt]. *)
let alloc_clause s lits =
  let len = Array.length lits in
  let need = s.arena_top + len + 2 in
  if need > Array.length s.arena then begin
    let a = Array.make (max need (2 * Array.length s.arena)) 0 in
    Array.blit s.arena 0 a 0 s.arena_top;
    s.arena <- a
  end;
  let cr = s.arena_top in
  s.arena.(cr) <- len;
  s.arena.(cr + 1) <- 0;
  Array.blit lits 0 s.arena (cr + 2) len;
  s.arena_top <- need;
  cr

let push_watch s l cr blocker =
  let n = s.watch_size.(l) in
  let d = s.watch.(l) in
  let d =
    if n + 2 > Array.length d then begin
      let d' = Array.make (max 8 (2 * Array.length d)) 0 in
      Array.blit d 0 d' 0 n;
      s.watch.(l) <- d';
      d'
    end
    else d
  in
  d.(n) <- cr;
  d.(n + 1) <- blocker;
  s.watch_size.(l) <- n + 2

let push_bin s l implied =
  let n = s.bin_size.(l) in
  let d = s.bins.(l) in
  let d =
    if n >= Array.length d then begin
      let d' = Array.make (max 4 (2 * Array.length d)) 0 in
      Array.blit d 0 d' 0 n;
      s.bins.(l) <- d';
      d'
    end
    else d
  in
  d.(n) <- implied;
  s.bin_size.(l) <- n + 1

let attach_clause s cr =
  let l0 = c_lit s cr 0 and l1 = c_lit s cr 1 in
  push_watch s l0 cr l1;
  push_watch s l1 cr l0

(* Register a binary clause {a, b} in the implication lists. *)
let attach_binary s a b =
  push_bin s (Lit.negate a) b;
  push_bin s (Lit.negate b) a

let push_cref s ~learned cr =
  if learned then begin
    s.learnts <- grow_array s.learnts (s.n_learnts + 1) 0;
    s.learnts.(s.n_learnts) <- cr;
    s.n_learnts <- s.n_learnts + 1
  end
  else begin
    s.clauses <- grow_array s.clauses (s.n_problem + 1) 0;
    s.clauses.(s.n_problem) <- cr;
    s.n_problem <- s.n_problem + 1
  end

(* ------------------------------------------------------------------ *)
(* Propagation                                                         *)
(* ------------------------------------------------------------------ *)

(* Two-watched-literal unit propagation with blocking literals plus binary
   implication lists.  Allocation-free.  Returns an encoded conflict
   (see the header comment) or -1.

   This is the solver's innermost loop, so it uses unsafe array accesses on
   indices the watch/trail invariants already bound: [qhead < trail_size <=
   nvars], watch and bins cursors stay below the recorded sizes, and arena
   offsets come from attached crefs.  [assigns] is hoisted into a local —
   nothing below reallocates it ([enqueue] only writes) — while [wd] is
   re-read per literal because [push_watch] may reallocate other lists. *)
let propagate s =
  let assigns = s.assigns in
  let trail = s.trail in
  let conflict = ref (-1) in
  while !conflict < 0 && s.qhead < s.trail_size do
    let p = Array.unsafe_get trail s.qhead in
    s.qhead <- s.qhead + 1;
    s.st_propagations <- s.st_propagations + 1;
    (* Binary implications of p first: cheapest, and they seed the queue
       before any clause memory is touched. *)
    let bd = Array.unsafe_get s.bins p in
    let bn = Array.unsafe_get s.bin_size p in
    let i = ref 0 in
    while !conflict < 0 && !i < bn do
      let q = Array.unsafe_get bd !i in
      let vq = Array.unsafe_get assigns q in
      if vq < 0 then begin
        s.bin_confl.(0) <- Lit.negate p;
        s.bin_confl.(1) <- q;
        s.qhead <- s.trail_size;
        conflict := 1
      end
      else if vq = 0 then enqueue s q ((Lit.negate p lsl 1) lor 1);
      incr i
    done;
    if !conflict < 0 then begin
      let false_lit = Lit.negate p in
      let arena = s.arena in
      let wd = Array.unsafe_get s.watch false_lit in
      let wn = Array.unsafe_get s.watch_size false_lit in
      let i = ref 0 in
      let j = ref 0 in
      while !i < wn do
        if !conflict >= 0 then begin
          (* Conflict already found: keep the unprocessed suffix. *)
          Array.unsafe_set wd !j (Array.unsafe_get wd !i);
          Array.unsafe_set wd (!j + 1) (Array.unsafe_get wd (!i + 1));
          i := !i + 2;
          j := !j + 2
        end
        else begin
          let cr = Array.unsafe_get wd !i in
          let blocker = Array.unsafe_get wd (!i + 1) in
          if Array.unsafe_get assigns blocker = 1 then begin
            (* Blocking literal satisfied: skip without touching the arena. *)
            Array.unsafe_set wd !j cr;
            Array.unsafe_set wd (!j + 1) blocker;
            i := !i + 2;
            j := !j + 2
          end
          else begin
            let base = cr + 2 in
            (* Make sure the false literal is at index 1. *)
            if Array.unsafe_get arena base = false_lit then begin
              Array.unsafe_set arena base (Array.unsafe_get arena (base + 1));
              Array.unsafe_set arena (base + 1) false_lit
            end;
            let first = Array.unsafe_get arena base in
            if first <> blocker && Array.unsafe_get assigns first = 1
            then begin
              (* Clause satisfied by its other watch; make it the blocker. *)
              Array.unsafe_set wd !j cr;
              Array.unsafe_set wd (!j + 1) first;
              i := !i + 2;
              j := !j + 2
            end
            else begin
              let len = Array.unsafe_get arena cr in
              let k = ref (base + 2) in
              let stop = base + len in
              while
                !k < stop
                && Array.unsafe_get assigns (Array.unsafe_get arena !k) < 0
              do
                incr k
              done;
              if !k < stop then begin
                (* Found a new watch: move the clause to its list. *)
                Array.unsafe_set arena (base + 1) (Array.unsafe_get arena !k);
                Array.unsafe_set arena !k false_lit;
                push_watch s (Array.unsafe_get arena (base + 1)) cr first;
                i := !i + 2
              end
              else begin
                (* Unit or conflicting: the watch stays here. *)
                Array.unsafe_set wd !j cr;
                Array.unsafe_set wd (!j + 1) first;
                i := !i + 2;
                j := !j + 2;
                if Array.unsafe_get assigns first < 0 then begin
                  s.qhead <- s.trail_size;
                  conflict := cr lsl 1
                end
                else enqueue s first (cr lsl 1)
              end
            end
          end
        end
      done;
      s.watch_size.(false_lit) <- !j
    end
  done;
  !conflict

(* ------------------------------------------------------------------ *)
(* Conflict analysis                                                   *)
(* ------------------------------------------------------------------ *)

let abstract_level s v = 1 lsl (s.level.(v) land 62)

(* Is [lit] implied by the rest of the (marked) learnt clause?  The classic
   recursive MiniSat check: walk the implication graph below [lit]; every
   path must end in marked literals without leaving the clause's decision
   levels.  Newly marked variables are recorded in [extra] so the caller can
   clear them; on failure the marks added by this call are rolled back. *)
exception Not_redundant

let lit_redundant s abstract_levels extra lit =
  let added = ref [] in
  let rec go l =
    let v = Lit.var l in
    let r = s.reason.(v) in
    if r < 0 then raise_notrace Not_redundant;
    let visit q =
      let w = Lit.var q in
      if (not s.seen.(w)) && s.level.(w) > 0 then begin
        if s.reason.(w) >= 0 && abstract_level s w land abstract_levels <> 0
        then begin
          s.seen.(w) <- true;
          added := w :: !added;
          go q
        end
        else raise_notrace Not_redundant
      end
    in
    if r land 1 = 1 then visit (r lsr 1)
    else begin
      let cr = r lsr 1 in
      let len = c_len s cr in
      for j = 1 to len - 1 do
        visit (c_lit s cr j)
      done
    end
  in
  match go lit with
  | () ->
    extra := List.rev_append !added !extra;
    true
  | exception Not_redundant ->
    List.iter (fun w -> s.seen.(w) <- false) !added;
    false

(* Distinct decision levels among the first [n] literals of [lits] (the
   "glue" of a learnt clause). *)
let compute_lbd s lits n =
  s.lbd_stamp <- s.lbd_stamp + 1;
  let stamp = s.lbd_stamp in
  let count = ref 0 in
  for i = 0 to n - 1 do
    let lvl = s.level.(Lit.var lits.(i)) in
    if lvl > 0 && s.lbd_mark.(lvl) <> stamp then begin
      s.lbd_mark.(lvl) <- stamp;
      incr count
    end
  done;
  !count

(* First-UIP conflict analysis with recursive clause minimization.  Fills
   [s.learnt_buf] (asserting literal first) and returns
   (number of literals, backjump level, lbd). *)
let analyze s confl =
  let to_clear = ref [] in
  let buf = s.learnt_buf in
  let n_learnt = ref 1 in            (* slot 0 reserved for the asserting literal *)
  let path = ref 0 in
  let p = ref (-1) in
  let index = ref (s.trail_size - 1) in
  let confl = ref confl in
  let continue = ref true in
  let seen = s.seen in
  let level = s.level in
  let trail = s.trail in
  (* Allocated once per conflict, not per resolution step. *)
  let mark q =
    let v = q lsr 1 in
    if
      (not (Array.unsafe_get seen v)) && Array.unsafe_get level v > 0
    then begin
      Array.unsafe_set seen v true;
      to_clear := v :: !to_clear;
      bump s v;
      if Array.unsafe_get level v >= s.n_levels then incr path
      else begin
        Array.unsafe_set buf !n_learnt q;
        incr n_learnt
      end
    end
  in
  while !continue do
    (if !confl land 1 = 1 then begin
       if !p < 0 then begin
         mark s.bin_confl.(0);
         mark s.bin_confl.(1)
       end
       else mark (!confl lsr 1)
     end
     else begin
       let cr = !confl lsr 1 in
       let arena = s.arena in
       let stop = cr + 2 + Array.unsafe_get arena cr in
       let j = ref (if !p < 0 then cr + 2 else cr + 3) in
       while !j < stop do
         mark (Array.unsafe_get arena !j);
         incr j
       done
     end);
    (* Walk the trail back to the most recently assigned marked literal. *)
    while
      not (Array.unsafe_get seen (Array.unsafe_get trail !index lsr 1))
    do
      decr index
    done;
    p := Array.unsafe_get trail !index;
    decr index;
    Array.unsafe_set seen (!p lsr 1) false;
    decr path;
    if !path = 0 then continue := false
    else confl := Array.unsafe_get s.reason (!p lsr 1)
  done;
  buf.(0) <- Lit.negate !p;
  (* Minimize: drop tail literals implied by the rest of the clause. *)
  let abstract_levels = ref 0 in
  for i = 1 to !n_learnt - 1 do
    abstract_levels := !abstract_levels lor abstract_level s (Lit.var buf.(i))
  done;
  let kept = ref 1 in
  for i = 1 to !n_learnt - 1 do
    let q = buf.(i) in
    if
      s.reason.(Lit.var q) < 0
      || not (lit_redundant s !abstract_levels to_clear q)
    then begin
      buf.(!kept) <- q;
      incr kept
    end
  done;
  let n = !kept in
  (* Move (one of) the highest-level tail literals to slot 1 so it can be
     watched: it is falsified last on backjump. *)
  let backjump =
    if n <= 1 then 0
    else begin
      let best = ref 1 in
      for i = 2 to n - 1 do
        if s.level.(Lit.var buf.(i)) > s.level.(Lit.var buf.(!best)) then
          best := i
      done;
      let tmp = buf.(1) in
      buf.(1) <- buf.(!best);
      buf.(!best) <- tmp;
      s.level.(Lit.var buf.(1))
    end
  in
  let lbd = compute_lbd s buf n in
  List.iter (fun v -> s.seen.(v) <- false) !to_clear;
  (n, backjump, lbd)

(* Install the learnt clause sitting in [s.learnt_buf] after the backjump
   and assert its first literal. *)
let record_learnt s n lbd =
  s.st_learned <- s.st_learned + 1;
  if lbd > s.st_max_lbd then s.st_max_lbd <- lbd;
  (* The minimized first-UIP clause has the RUP property w.r.t. the clauses
     logged so far, so it is a legal DRAT derivation step. *)
  proof_push_sub s 1 s.learnt_buf 0 n;
  if n = 1 then enqueue s s.learnt_buf.(0) (-1)
  else if n = 2 then begin
    let a = s.learnt_buf.(0) and b = s.learnt_buf.(1) in
    attach_binary s a b;
    enqueue s a ((b lsl 1) lor 1)
  end
  else begin
    (* Copy straight from the scratch buffer; no intermediate array. *)
    let need = s.arena_top + n + 2 in
    if need > Array.length s.arena then begin
      let a = Array.make (max need (2 * Array.length s.arena)) 0 in
      Array.blit s.arena 0 a 0 s.arena_top;
      s.arena <- a
    end;
    let cr = s.arena_top in
    s.arena.(cr) <- n;
    s.arena.(cr + 1) <- (lbd lsl 2) lor 1;
    Array.blit s.learnt_buf 0 s.arena (cr + 2) n;
    s.arena_top <- need;
    push_cref s ~learned:true cr;
    attach_clause s cr;
    enqueue s s.learnt_buf.(0) (cr lsl 1)
  end

(* ------------------------------------------------------------------ *)
(* Adding clauses                                                      *)
(* ------------------------------------------------------------------ *)

let add_clause s lits =
  assert (s.n_levels = 0);
  (* Log the clause exactly as given, before simplification: the checker's
     database must mirror what the caller asserted. *)
  proof_push_list s 0 lits;
  if s.ok then begin
    (* Simplify: drop duplicates and root-level-false literals, detect
       tautologies and root-level-satisfied clauses. *)
    let lits = List.sort_uniq compare lits in
    let tautology =
      List.exists (fun l -> List.mem (Lit.negate l) lits) lits
    in
    let satisfied = List.exists (fun l -> lit_value s l = 1) lits in
    if not (tautology || satisfied) then begin
      let lits = List.filter (fun l -> lit_value s l = 0) lits in
      match lits with
      | [] -> s.ok <- false
      | [ l ] ->
        enqueue s l (-1);
        if propagate s >= 0 then s.ok <- false
      | [ a; b ] ->
        attach_binary s a b;
        s.bin_pairs <- grow_array s.bin_pairs (s.n_bin_pairs + 2) 0;
        s.bin_pairs.(s.n_bin_pairs) <- a;
        s.bin_pairs.(s.n_bin_pairs + 1) <- b;
        s.n_bin_pairs <- s.n_bin_pairs + 2
      | l0 :: l1 :: rest ->
        let arr = Array.of_list (l0 :: l1 :: rest) in
        let cr = alloc_clause s arr in
        push_cref s ~learned:false cr;
        attach_clause s cr
    end
  end

(* ------------------------------------------------------------------ *)
(* Encoding introspection (EncLint support)                            *)
(* ------------------------------------------------------------------ *)

let root_value s v =
  if v >= 0 && v < s.nvars then var_value s v else 0

(* Enumerate the live long problem clauses as (cref, literals).  Crefs stay
   valid until the next arena compaction (a clause-DB reduction during a
   solve). *)
let iter_long_problem_clauses s f =
  for i = 0 to s.n_problem - 1 do
    let cr = s.clauses.(i) in
    if not (c_deleted s cr) then begin
      let len = c_len s cr in
      let lits = ref [] in
      for j = len - 1 downto 0 do
        lits := c_lit s cr j :: !lits
      done;
      f cr !lits
    end
  done

let binary_problem_clauses s =
  let acc = ref [] in
  let i = ref (s.n_bin_pairs - 2) in
  while !i >= 0 do
    acc := (s.bin_pairs.(!i), s.bin_pairs.(!i + 1)) :: !acc;
    i := !i - 2
  done;
  !acc

let root_units s =
  let bound = if s.n_levels = 0 then s.trail_size else s.trail_lim.(0) in
  Array.to_list (Array.sub s.trail 0 bound)

(* ------------------------------------------------------------------ *)
(* Clause-database reduction                                           *)
(* ------------------------------------------------------------------ *)

(* Put the two best literals of the clause at [cr] (in the *new* arena) into
   the watch slots: non-false under the current (level-0) assignment when
   possible.  Clauses left with a false watch are satisfied at level 0 (all
   level-0 literals are fully propagated), so the invariant holds. *)
let reorder_watch_slots s cr =
  let base = cr + 2 in
  let len = s.arena.(cr) in
  let pick slot =
    if lit_value s s.arena.(base + slot) < 0 then begin
      let k = ref (slot + 1) in
      while !k < len && lit_value s s.arena.(base + !k) < 0 do incr k done;
      if !k < len then begin
        let tmp = s.arena.(base + slot) in
        s.arena.(base + slot) <- s.arena.(base + !k);
        s.arena.(base + !k) <- tmp
      end
    end
  in
  pick 0;
  pick 1

(* Compact the arena, dropping clauses marked deleted from both clause
   lists, and rebuild every watch list from scratch.  The caller must have
   cleared level-0 trail reasons first (crefs move), and must be at a fully
   propagated decision-level-0 boundary. *)
let rebuild_clause_db s =
  let old = s.arena in
  let fresh = Array.make (Array.length old) 0 in
  let top = ref 0 in
  let move cr =
    let len = old.(cr) in
    let dst = !top in
    Array.blit old cr fresh dst (len + 2);
    top := dst + len + 2;
    dst
  in
  let keep arr n =
    let kept = ref 0 in
    for i = 0 to n - 1 do
      let cr = arr.(i) in
      if not (c_deleted s cr) then begin
        arr.(!kept) <- move cr;
        incr kept
      end
    done;
    !kept
  in
  s.n_problem <- keep s.clauses s.n_problem;
  s.n_learnts <- keep s.learnts s.n_learnts;
  s.arena <- fresh;
  s.arena_top <- !top;
  Array.fill s.watch_size 0 (Array.length s.watch_size) 0;
  for i = 0 to s.n_problem - 1 do
    reorder_watch_slots s s.clauses.(i);
    attach_clause s s.clauses.(i)
  done;
  for i = 0 to s.n_learnts - 1 do
    reorder_watch_slots s s.learnts.(i);
    attach_clause s s.learnts.(i)
  done

(* Glucose-style reduction, run at decision level 0 (restart points): delete
   the worst half of the deletable learnt clauses — high LBD first, ties by
   size — keeping "glue" clauses (LBD <= 2) forever.  Binary and unit learnt
   clauses never enter the arena and are likewise permanent.  Problem
   clauses (including the activation-literal clauses of the incremental
   CEGIS encoding) are never candidates.  The surviving clauses are
   compacted into a fresh arena and all watch lists are rebuilt. *)
let reduce_db s =
  assert (s.n_levels = 0);
  (* Level-0 reasons are never followed by [analyze]; clearing them keeps
     every learnt clause unlocked and lets the arena move. *)
  for i = 0 to s.trail_size - 1 do
    s.reason.(Lit.var s.trail.(i)) <- -1
  done;
  let deletable =
    Array.of_seq
      (Seq.filter
         (fun cr -> c_lbd s cr > 2)
         (Seq.init s.n_learnts (fun i -> s.learnts.(i))))
  in
  Array.sort
    (fun a b ->
       let c = compare (c_lbd s b) (c_lbd s a) in
       if c <> 0 then c else compare (c_len s b) (c_len s a))
    deletable;
  let victims = Array.length deletable / 2 in
  for i = 0 to victims - 1 do
    let cr = deletable.(i) in
    proof_push_sub s 2 s.arena (cr + 2) (c_len s cr);
    c_delete s cr
  done;
  s.st_deleted <- s.st_deleted + victims;
  rebuild_clause_db s;
  (* Glucose-style schedule: the interval to the next reduction grows each
     time, so reductions get rarer as the search matures. *)
  s.reduce_step <- s.reduce_step + 300;
  s.reduce_budget <- s.st_conflicts + s.reduce_step

(* ------------------------------------------------------------------ *)
(* Invariant sanitizer                                                 *)
(* ------------------------------------------------------------------ *)

exception Invariant_violation of string

(* Structural well-formedness checks over the whole solver state.  These are
   meaningful at decision-level boundaries (between [propagate] fixpoints),
   which is where [solve_opt] calls them when [set_sanitize] is on: at entry,
   after every restart/reduction, and at exit.  The checks are deliberately
   exhaustive rather than fast — they exist to catch engine bugs, not to run
   in production. *)
module Invariants = struct
  exception Bad of string

  let failf fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt

  let check_assigns s =
    for v = 0 to s.nvars - 1 do
      let a = s.assigns.(2 * v) and b = s.assigns.((2 * v) + 1) in
      if a <> -b then
        failf "var %d: literal slots disagree (%d vs %d)" v a b
    done

  let check_trail s =
    if s.trail_size > s.nvars then
      failf "trail size %d exceeds variable count %d" s.trail_size s.nvars;
    if s.qhead > s.trail_size then
      failf "propagation queue head %d beyond trail size %d" s.qhead
        s.trail_size;
    for d = 0 to s.n_levels - 1 do
      if s.trail_lim.(d) > s.trail_size then
        failf "trail_lim[%d] = %d beyond trail size %d" d s.trail_lim.(d)
          s.trail_size;
      if d > 0 && s.trail_lim.(d) < s.trail_lim.(d - 1) then
        failf "trail_lim not monotone at level %d" d
    done;
    let on_trail = Array.make (max 1 s.nvars) false in
    for i = 0 to s.trail_size - 1 do
      let l = s.trail.(i) in
      let v = Lit.var l in
      if v < 0 || v >= s.nvars then
        failf "trail[%d]: literal %d out of range" i l;
      if on_trail.(v) then failf "var %d appears twice on the trail" v;
      on_trail.(v) <- true;
      if s.assigns.(l) <> 1 then
        failf "trail[%d]: literal %d is not assigned true" i l;
      let lvl = s.level.(v) in
      if lvl < 0 || lvl > s.n_levels then
        failf "trail[%d]: var %d has out-of-range level %d" i v lvl;
      let seg_lo = if lvl = 0 then 0 else s.trail_lim.(lvl - 1) in
      let seg_hi =
        if lvl >= s.n_levels then s.trail_size else s.trail_lim.(lvl)
      in
      if i < seg_lo || i >= seg_hi then
        failf "trail[%d]: var %d at level %d lies outside that segment" i v lvl
    done;
    for v = 0 to s.nvars - 1 do
      if var_value s v <> 0 && not on_trail.(v) then
        failf "var %d is assigned but missing from the trail" v
    done

  let check_reasons s =
    for i = 0 to s.trail_size - 1 do
      let l = s.trail.(i) in
      let v = Lit.var l in
      let r = s.reason.(v) in
      if r >= 0 then
        if r land 1 = 1 then begin
          let other = r lsr 1 in
          if Lit.var other >= s.nvars then
            failf "var %d: binary reason literal %d out of range" v other;
          if s.assigns.(other) <> -1 then
            failf "var %d: binary reason literal %d is not false" v other
        end
        else begin
          let cr = r lsr 1 in
          if cr < 0 || cr + 2 > s.arena_top then
            failf "var %d: reason cref %d outside the arena" v cr;
          let len = c_len s cr in
          if len < 3 || cr + 2 + len > s.arena_top then
            failf "var %d: reason cref %d malformed" v cr;
          if c_deleted s cr then
            failf "var %d: deleted clause %d used as a reason" v cr;
          if c_lit s cr 0 <> l then
            failf "var %d: reason clause %d does not carry the propagated \
                   literal in slot 0" v cr;
          for j = 1 to len - 1 do
            if s.assigns.(c_lit s cr j) <> -1 then
              failf "var %d: reason clause %d has a non-false tail literal"
                v cr
          done
        end
    done

  let check_clauses_and_watches s =
    let expected = Hashtbl.create 64 in
    let scan_list name arr n ~learned =
      for i = 0 to n - 1 do
        let cr = arr.(i) in
        if cr < 0 || cr + 2 > s.arena_top then
          failf "%s[%d]: cref %d outside the arena" name i cr;
        let len = c_len s cr in
        if len < 3 || cr + 2 + len > s.arena_top then
          failf "%s[%d]: clause %d malformed (len %d)" name i cr len;
        if c_deleted s cr then
          failf "%s[%d]: deleted clause %d still registered" name i cr;
        if c_learned s cr <> learned then
          failf "%s[%d]: clause %d learned-flag mismatch" name i cr;
        for j = 0 to len - 1 do
          let l = c_lit s cr j in
          if l < 0 || Lit.var l >= s.nvars then
            failf "clause %d: literal %d out of range" cr l
        done;
        if Hashtbl.mem expected cr then
          failf "clause %d registered in two clause lists" cr;
        Hashtbl.add expected cr (c_lit s cr 0, c_lit s cr 1)
      done
    in
    scan_list "clauses" s.clauses s.n_problem ~learned:false;
    scan_list "learnts" s.learnts s.n_learnts ~learned:true;
    let watched = Hashtbl.create 64 in
    for l = 0 to (2 * s.nvars) - 1 do
      let wd = s.watch.(l) and wn = s.watch_size.(l) in
      if wn > Array.length wd then
        failf "watch list of literal %d overruns its array" l;
      let i = ref 0 in
      while !i < wn do
        let cr = wd.(!i) and blocker = wd.(!i + 1) in
        (match Hashtbl.find_opt expected cr with
         | None ->
           failf "literal %d watches an unknown or deleted clause %d" l cr
         | Some _ ->
           let len = c_len s cr in
           let in_clause = ref false in
           for j = 0 to len - 1 do
             if c_lit s cr j = blocker then in_clause := true
           done;
           if not !in_clause then
             failf "literal %d: blocker %d is not in clause %d" l blocker cr);
        Hashtbl.add watched cr l;
        i := !i + 2
      done
    done;
    Hashtbl.iter
      (fun cr (l0, l1) ->
         match Hashtbl.find_all watched cr with
         | [ a; b ] when (a = l0 && b = l1) || (a = l1 && b = l0) -> ()
         | ws ->
           failf "clause %d: watched by {%s}, expected its first two \
                  literals {%d, %d}" cr
             (String.concat "," (List.map string_of_int ws))
             l0 l1)
      expected

  let check_heap s =
    if s.heap_size > s.nvars then
      failf "heap size %d exceeds variable count %d" s.heap_size s.nvars;
    for i = 0 to s.heap_size - 1 do
      let v = s.heap.(i) in
      if v < 0 || v >= s.nvars then
        failf "heap[%d]: variable %d out of range" i v;
      if s.heap_index.(v) <> i then
        failf "heap[%d]: heap_index inverse broken for var %d" i v;
      if i > 0 then begin
        let parent = (i - 1) / 2 in
        if s.activity.(s.heap.(parent)) < s.activity.(v) then
          failf "max-heap property violated at index %d" i
      end
    done;
    for v = 0 to s.nvars - 1 do
      let hi = s.heap_index.(v) in
      if hi >= 0 && (hi >= s.heap_size || s.heap.(hi) <> v) then
        failf "var %d: stale heap_index %d" v hi;
      (* Only at fully propagated boundaries is every unassigned variable
         guaranteed to sit in the decision heap. *)
      if hi < 0 && var_value s v = 0 && s.qhead = s.trail_size then
        failf "unassigned var %d missing from the decision heap" v
    done

  let check_bins s =
    for l = 0 to (2 * s.nvars) - 1 do
      let bn = s.bin_size.(l) in
      if bn > Array.length s.bins.(l) then
        failf "binary list of literal %d overruns its array" l;
      for i = 0 to bn - 1 do
        let q = s.bins.(l).(i) in
        if q < 0 || Lit.var q >= s.nvars then
          failf "binary list of literal %d holds out-of-range literal %d" l q
      done
    done

  let check s =
    match
      check_assigns s;
      check_trail s;
      check_reasons s;
      check_clauses_and_watches s;
      check_heap s;
      check_bins s
    with
    | () -> Ok ()
    | exception Bad msg -> Error msg
end

let set_sanitize s b = s.sanitize <- b

let sanitize_check s =
  if s.sanitize then
    match Invariants.check s with
    | Ok () -> ()
    | Error msg -> raise (Invariant_violation msg)

(* ------------------------------------------------------------------ *)
(* Search                                                              *)
(* ------------------------------------------------------------------ *)

(* Geometric restarts growing by 3/2 from a large first interval: under
   the slow activity decay (see [decay]) short restart bursts relitigate
   the same prefix on the symmetric CEGIS/cardinality encodings. *)
let restart_base = 300

let pick_branch_var s =
  let v = ref (-1) in
  while !v < 0 && s.heap_size > 0 do
    let cand = heap_pop s in
    if var_value s cand = 0 then v := cand
  done;
  !v

let solve ?(assumptions = []) s =
  if not s.ok then Unsat
  else begin
    cancel_until s 0;
    sanitize_check s;
    let assumptions = Array.of_list assumptions in
    let n_assumptions = Array.length assumptions in
    let restart_budget = ref restart_base in
    let conflicts_here = ref 0 in
    let result = ref Unsat in
    let finished = ref false in
    while not !finished do
      let confl = propagate s in
      if confl >= 0 then begin
        s.st_conflicts <- s.st_conflicts + 1;
        incr conflicts_here;
        if s.n_levels = 0 then begin
          s.ok <- false;
          result := Unsat;
          finished := true
        end
        else if s.n_levels <= n_assumptions then begin
          (* The conflict only depends on assumptions and root clauses. *)
          result := Unsat;
          finished := true
        end
        else begin
          let n, backjump, lbd = analyze s confl in
          (* Never backjump into the middle of the assumption prefix with a
             pending asserting literal that contradicts an assumption: the
             learnt clause is still sound, and if it conflicts again we end
             up in one of the terminating branches above. *)
          cancel_until s backjump;
          record_learnt s n lbd;
          decay s
        end
      end
      else if
        !conflicts_here >= !restart_budget
        || (s.reduce_enabled && s.st_conflicts >= s.reduce_budget)
      then begin
        s.st_restarts <- s.st_restarts + 1;
        restart_budget := !restart_budget * 3 / 2;
        conflicts_here := 0;
        cancel_until s 0;
        if s.reduce_enabled && s.st_conflicts >= s.reduce_budget then
          reduce_db s;
        sanitize_check s
      end
      else if s.n_levels < n_assumptions then begin
        let a = assumptions.(s.n_levels) in
        match lit_value s a with
        | -1 ->
          result := Unsat;
          finished := true
        | 1 -> new_decision_level s (* vacuous level to keep indices aligned *)
        | _ ->
          new_decision_level s;
          enqueue s a (-1)
      end
      else begin
        match pick_branch_var s with
        | -1 ->
          result := Sat (Array.init s.nvars (fun v -> var_value s v = 1));
          finished := true
        | v ->
          s.st_decisions <- s.st_decisions + 1;
          new_decision_level s;
          enqueue s (Lit.make v s.phase.(v)) (-1)
      end
    done;
    cancel_until s 0;
    sanitize_check s;
    !result
  end

(* ------------------------------------------------------------------ *)
(* DIMACS export                                                       *)
(* ------------------------------------------------------------------ *)

let to_dimacs ?(learned = false) s buf =
  let units =
    let bound = if s.n_levels = 0 then s.trail_size else s.trail_lim.(0) in
    Array.sub s.trail 0 bound
  in
  let n_long = ref 0 in
  for i = 0 to s.n_problem - 1 do
    if not (c_deleted s s.clauses.(i)) then incr n_long
  done;
  let n_learned = ref 0 in
  if learned then
    for i = 0 to s.n_learnts - 1 do
      if not (c_deleted s s.learnts.(i)) then incr n_learned
    done;
  let total =
    Array.length units + (s.n_bin_pairs / 2) + !n_long + !n_learned
    + (if s.ok then 0 else 1)
  in
  let add_lit l =
    let v = Lit.var l + 1 in
    Buffer.add_string buf (string_of_int (if Lit.is_pos l then v else -v));
    Buffer.add_char buf ' '
  in
  Buffer.add_string buf
    (Printf.sprintf "c pmi_smt export: %d vars, %d clauses%s\n" s.nvars total
       (if learned then " (learnt clauses included)" else ""));
  (* Cross-reference comments: map 1-based DIMACS variable ids back to the
     caller-supplied [Expr]/encoding names, so dumped CNFs and DRAT traces
     can be read against the port-mapping model.  Guard/activation
     variables (guarded-encoding rows, culprit observation guards, per-call
     blocking activations) are tagged, and get a line even without a
     caller-supplied name — a dumped culprit CNF is unreadable without
     knowing which literals are guards. *)
  if Hashtbl.length s.names > 0 || Hashtbl.length s.guards > 0 then begin
    let entries =
      Hashtbl.fold (fun v name acc -> (v, Some name) :: acc) s.names []
    in
    let entries =
      Hashtbl.fold
        (fun v () acc ->
           if Hashtbl.mem s.names v then acc else (v, None) :: acc)
        s.guards entries
    in
    List.iter
      (fun (v, name) ->
         if v >= 0 && v < s.nvars then begin
           let guard = if Hashtbl.mem s.guards v then " (guard)" else "" in
           match name with
           | Some name ->
             Buffer.add_string buf
               (Printf.sprintf "c var %d %s%s\n" (v + 1) name guard)
           | None ->
             Buffer.add_string buf
               (Printf.sprintf "c var %d _%s\n" (v + 1) guard)
         end)
      (List.sort compare entries)
  end;
  Buffer.add_string buf (Printf.sprintf "p cnf %d %d\n" s.nvars total);
  if not s.ok then Buffer.add_string buf "0\n";
  Array.iter
    (fun l ->
       add_lit l;
       Buffer.add_string buf "0\n")
    units;
  let i = ref 0 in
  while !i < s.n_bin_pairs do
    add_lit s.bin_pairs.(!i);
    add_lit s.bin_pairs.(!i + 1);
    Buffer.add_string buf "0\n";
    i := !i + 2
  done;
  let emit cr =
    if not (c_deleted s cr) then begin
      let len = c_len s cr in
      for j = 0 to len - 1 do
        add_lit (c_lit s cr j)
      done;
      Buffer.add_string buf "0\n"
    end
  in
  for i = 0 to s.n_problem - 1 do
    emit s.clauses.(i)
  done;
  if learned then
    for i = 0 to s.n_learnts - 1 do
      emit s.learnts.(i)
    done

let dimacs ?learned s =
  let buf = Buffer.create 4096 in
  to_dimacs ?learned s buf;
  Buffer.contents buf
