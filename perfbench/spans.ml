(* Per-span-name aggregates computed from a raw event list.

   Each closed span is matched to the span instance that encloses it: on one
   domain, events sorted by start time (ties broken by depth) form a
   properly nested sequence, so the innermost open span of depth [d - 1]
   when a depth-[d] span starts is its parent.  A span's self time is its
   duration minus the durations of its direct children. *)

module Obs = Pmi_obs.Obs

type agg = {
  calls : int;
  total_ns : int;  (** inclusive time, summed over calls *)
  self_ns : int;   (** total minus the time of direct children *)
}

type t = {
  by_name : (string, agg) Hashtbl.t;
  top_level_ns : int;  (** sum of the durations of depth-0 spans *)
  child_sets : (string * string list, int) Hashtbl.t;
  (** [(name, sorted distinct names of its direct children)] -> number of
      instances of [name] with exactly that set of child names *)
}

(* One span instance while the stack walk is running. *)
type node = {
  ev : Obs.event;
  mutable child_ns : int;
  mutable child_names : string list;
}

let compare_start a b =
  match compare a.Obs.tid b.Obs.tid with
  | 0 ->
    (match compare a.Obs.ts_ns b.Obs.ts_ns with
     | 0 -> compare a.Obs.depth b.Obs.depth
     | c -> c)
  | c -> c

let of_events events =
  let spans =
    List.filter (fun e -> e.Obs.kind = Obs.Span) events
    |> List.stable_sort compare_start
  in
  let by_name = Hashtbl.create 64 in
  let child_sets = Hashtbl.create 64 in
  let top_level_ns = ref 0 in
  let finish node =
    let e = node.ev in
    let prev =
      match Hashtbl.find_opt by_name e.Obs.name with
      | Some a -> a
      | None -> { calls = 0; total_ns = 0; self_ns = 0 }
    in
    Hashtbl.replace by_name e.Obs.name
      { calls = prev.calls + 1;
        total_ns = prev.total_ns + e.Obs.dur_ns;
        self_ns = prev.self_ns + e.Obs.dur_ns - node.child_ns };
    let k = (e.Obs.name, List.sort_uniq compare node.child_names) in
    Hashtbl.replace child_sets k
      (1 + Option.value ~default:0 (Hashtbl.find_opt child_sets k))
  in
  (* The stack holds the open ancestors of the current span, innermost
     first; a new span closes every entry at its own depth or deeper. *)
  let rec pop_to depth tid = function
    | n :: rest when n.ev.Obs.tid <> tid || n.ev.Obs.depth >= depth ->
      finish n;
      pop_to depth tid rest
    | stack -> stack
  in
  let stack =
    List.fold_left
      (fun stack e ->
         let stack = pop_to e.Obs.depth e.Obs.tid stack in
         (match stack with
          | parent :: _ ->
            parent.child_ns <- parent.child_ns + e.Obs.dur_ns;
            parent.child_names <- e.Obs.name :: parent.child_names
          | [] -> top_level_ns := !top_level_ns + e.Obs.dur_ns);
         { ev = e; child_ns = 0; child_names = [] } :: stack)
      [] spans
  in
  List.iter finish stack;
  { by_name; top_level_ns = !top_level_ns; child_sets }

let find t name =
  Option.value ~default:{ calls = 0; total_ns = 0; self_ns = 0 }
    (Hashtbl.find_opt t.by_name name)

let calls t name = (find t name).calls
let total_s t name = float_of_int (find t name).total_ns /. 1e9
let self_s t name = float_of_int (find t name).self_ns /. 1e9
let top_level_s t = float_of_int t.top_level_ns /. 1e9

let count_instances t name pred =
  Hashtbl.fold
    (fun (n, kids) count acc -> if n = name && pred kids then acc + count else acc)
    t.child_sets 0

(* Sum of an integer argument over every span of the given name. *)
let sum_arg events ~name ~arg =
  List.fold_left
    (fun acc e ->
       if e.Obs.kind = Obs.Span && e.Obs.name = name then
         match List.assoc_opt arg e.Obs.args with
         | Some (Obs.Int n) -> acc + n
         | Some (Obs.Float _ | Obs.Str _ | Obs.Bool _) | None -> acc
       else acc)
    0 events
