(* The durable store: journal framing and recovery (torn tails truncated,
   checksum-rejected records skipped without failing open), last-writer-wins
   semantics across compaction, byte-level idempotence of open/close and of
   repeated compaction, a QCheck round-trip against a reference table, and
   the harness's durable measurement tier (a second harness over the same
   store re-measures nothing).  This suite is also wired as
   `dune build @store`. *)

module Store = Pmi_store.Store
module Machine = Pmi_machine.Machine
module Harness = Pmi_measure.Harness
open Pmi_isa

(* ------------------------------------------------------------------ *)
(* Helpers                                                             *)

let temp_dir () =
  let path = Filename.temp_file "pmi-test-store" "" in
  Sys.remove path;
  path

let journal dir = Filename.concat dir "journal.pmi"
let segment dir = Filename.concat dir "segment.pmi"

let read_file path =
  if Sys.file_exists path then
    In_channel.with_open_bin path In_channel.input_all
  else ""

let write_file path data =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc data)

let with_store ?auto_compact dir f =
  let s = Store.open_ ?auto_compact dir in
  Fun.protect ~finally:(fun () -> Store.close s) (fun () -> f s)

(* ------------------------------------------------------------------ *)
(* Basics                                                              *)

let test_put_get_roundtrip () =
  let dir = temp_dir () in
  with_store dir (fun s ->
      Store.put s Store.Measurement ~key:"m1" "1:2:0:3";
      Store.put s Store.Certificate ~key:"c1" "digest";
      Store.put s Store.Bench_history ~key:"b1" "{}";
      Alcotest.(check (option string)) "measurement" (Some "1:2:0:3")
        (Store.get s Store.Measurement ~key:"m1");
      Alcotest.(check (option string)) "certificate" (Some "digest")
        (Store.get s Store.Certificate ~key:"c1");
      Alcotest.(check (option string)) "kinds are separate namespaces" None
        (Store.get s Store.Measurement ~key:"c1");
      Alcotest.(check bool) "mem" true (Store.mem s Store.Bench_history ~key:"b1"));
  (* Everything survives a close/reopen. *)
  with_store dir (fun s ->
      Alcotest.(check int) "measurements live" 1 (Store.live s Store.Measurement);
      Alcotest.(check (option string)) "value survives" (Some "1:2:0:3")
        (Store.get s Store.Measurement ~key:"m1");
      let st = Store.stats s in
      Alcotest.(check int) "no corruption" 0 st.Store.corrupt;
      Alcotest.(check int) "replayed all three" 3 st.Store.replayed)

let test_identical_reput_is_noop () =
  let dir = temp_dir () in
  with_store dir (fun s ->
      Store.put s Store.Measurement ~key:"k" "v";
      let before = (Store.stats s).Store.journal_records in
      Store.put s Store.Measurement ~key:"k" "v";
      Alcotest.(check int) "journal did not grow" before
        (Store.stats s).Store.journal_records;
      Store.put s Store.Measurement ~key:"k" "v2";
      Alcotest.(check int) "a new value does" (before + 1)
        (Store.stats s).Store.journal_records;
      Alcotest.(check (option string)) "last writer wins" (Some "v2")
        (Store.get s Store.Measurement ~key:"k"))

(* ------------------------------------------------------------------ *)
(* Recovery                                                            *)

let populate dir n =
  with_store dir (fun s ->
      for i = 0 to n - 1 do
        Store.put s Store.Measurement
          ~key:(Printf.sprintf "key-%02d" i)
          (Printf.sprintf "value-%02d" i)
      done)

let test_torn_tail_truncated () =
  (* Cut the journal at every byte offset of the final record: whatever
     the crash left behind, recovery must keep all complete records, see
     zero corruption, and leave the file appendable. *)
  let dir = temp_dir () in
  populate dir 4;
  let whole = read_file (journal dir) in
  let len = String.length whole in
  (* Locate the final record's start: records are identical in size here,
     so it is 3/4 of the file. *)
  let last = len * 3 / 4 in
  List.iter
    (fun cut ->
       write_file (journal dir) (String.sub whole 0 cut);
       let report = Store.verify dir in
       Alcotest.(check int)
         (Printf.sprintf "verify at cut %d: nothing corrupt" cut)
         0 report.Store.r_corrupt;
       with_store dir (fun s ->
           let st = Store.stats s in
           Alcotest.(check int)
             (Printf.sprintf "cut %d keeps the complete records" cut)
             3 (Store.live s Store.Measurement);
           Alcotest.(check int)
             (Printf.sprintf "cut %d reports no corruption" cut)
             0 st.Store.corrupt;
           Alcotest.(check int)
             (Printf.sprintf "cut %d truncates the tail" cut)
             (cut - last) st.Store.truncated_bytes;
           (* The store must stay writable on the recovered boundary. *)
           Store.put s Store.Measurement ~key:"after" "crash");
       with_store dir (fun s ->
           Alcotest.(check (option string))
             (Printf.sprintf "cut %d: post-recovery append survives" cut)
             (Some "crash")
             (Store.get s Store.Measurement ~key:"after")))
    [ last + 1; last + 11; last + 12; len - 1 ]

let test_bit_flip_rejected () =
  (* Flip one payload byte of the second record: that record is rejected
     by its checksum, every other record survives, and open does not
     fail. *)
  let dir = temp_dir () in
  populate dir 3;
  let whole = read_file (journal dir) in
  let record = String.length whole / 3 in
  let b = Bytes.of_string whole in
  let target = record + 14 (* a payload byte of record #2 *) in
  Bytes.set b target (Char.chr (Char.code (Bytes.get b target) lxor 0x01));
  write_file (journal dir) (Bytes.to_string b);
  let report = Store.verify dir in
  Alcotest.(check int) "verify counts one corrupt record" 1
    report.Store.r_corrupt;
  Alcotest.(check int) "verify sees no torn tail" 0 report.Store.r_torn_bytes;
  with_store dir (fun s ->
      let st = Store.stats s in
      Alcotest.(check int) "one record rejected" 1 st.Store.corrupt;
      Alcotest.(check int) "the others survive" 2
        (Store.live s Store.Measurement);
      Alcotest.(check (option string)) "record before the flip" (Some "value-00")
        (Store.get s Store.Measurement ~key:"key-00");
      Alcotest.(check (option string)) "record after the flip" (Some "value-02")
        (Store.get s Store.Measurement ~key:"key-02");
      Alcotest.(check (option string)) "the flipped record is gone" None
        (Store.get s Store.Measurement ~key:"key-01"))

(* ------------------------------------------------------------------ *)
(* Compaction                                                          *)

let test_lww_after_compaction () =
  let dir = temp_dir () in
  with_store dir (fun s ->
      Store.put s Store.Measurement ~key:"k" "v1";
      Store.put s Store.Measurement ~key:"k" "v2";
      Store.put s Store.Measurement ~key:"other" "o";
      Store.put s Store.Measurement ~key:"k" "v3";
      Store.compact s;
      Alcotest.(check (option string)) "last writer wins" (Some "v3")
        (Store.get s Store.Measurement ~key:"k");
      let st = Store.stats s in
      Alcotest.(check int) "journal truncated" 0 st.Store.journal_records;
      Alcotest.(check int) "segment holds only live records" 2
        st.Store.segment_records);
  with_store dir (fun s ->
      Alcotest.(check (option string)) "winner survives reopen" (Some "v3")
        (Store.get s Store.Measurement ~key:"k");
      Alcotest.(check int) "still two live" 2 (Store.live s Store.Measurement))

let test_open_close_idempotent () =
  let dir = temp_dir () in
  populate dir 5;
  with_store dir (fun s -> Store.compact s);
  let jnl = read_file (journal dir) in
  let seg = read_file (segment dir) in
  (* A clean open/close sequence must not move a byte of either file, and
     re-compacting the identical live set must reproduce the segment
     exactly (deterministic record order). *)
  with_store dir (fun s -> ignore (Store.stats s));
  Alcotest.(check string) "journal untouched" jnl (read_file (journal dir));
  Alcotest.(check string) "segment untouched" seg (read_file (segment dir));
  with_store dir (fun s -> Store.compact s);
  Alcotest.(check string) "re-compaction is byte-identical" seg
    (read_file (segment dir))

let test_gc_drops_and_compacts () =
  let dir = temp_dir () in
  populate dir 6;
  with_store dir (fun s ->
      Store.put s Store.Certificate ~key:"keepme" "proof";
      let dropped =
        Store.gc s ~keep:(fun kind ~key _ ->
            match kind with
            | Store.Measurement -> key <= "key-02"
            | Store.Certificate | Store.Bench_history -> true)
      in
      Alcotest.(check int) "dropped half" 3 dropped;
      Alcotest.(check int) "survivors" 3 (Store.live s Store.Measurement);
      Alcotest.(check bool) "other kinds kept" true
        (Store.mem s Store.Certificate ~key:"keepme"));
  with_store dir (fun s ->
      Alcotest.(check int) "gc is durable" 3 (Store.live s Store.Measurement))

(* ------------------------------------------------------------------ *)
(* Randomised round-trip                                               *)

let prop_random_roundtrip =
  let open QCheck2 in
  let kind_of = function
    | 0 -> Store.Measurement
    | 1 -> Store.Certificate
    | _ -> Store.Bench_history
  in
  let op =
    Gen.(oneof
           [ map3
               (fun k key v -> `Put (kind_of k, Printf.sprintf "k%d" key, v))
               (int_range 0 2) (int_range 0 15)
               (string_size ~gen:printable (int_range 0 40));
             return `Compact ])
  in
  Test.make ~name:"random ops survive close/reopen" ~count:50
    Gen.(list_size (int_range 1 60) op)
    (fun ops ->
       let dir = temp_dir () in
       let reference = Hashtbl.create 64 in
       with_store ~auto_compact:7 dir (fun s ->
           List.iter
             (function
               | `Put (kind, key, v) ->
                 Hashtbl.replace reference (kind, key) v;
                 Store.put s kind ~key v
               | `Compact -> Store.compact s)
             ops);
       with_store dir (fun s ->
           Hashtbl.iter
             (fun (kind, key) v ->
                if Store.get s kind ~key <> Some v then
                  Test.fail_reportf "key %s lost or changed" key)
             reference;
           let live_total =
             Store.live s Store.Measurement
             + Store.live s Store.Certificate
             + Store.live s Store.Bench_history
           in
           Hashtbl.length reference = live_total
           && (Store.stats s).Store.corrupt = 0))

(* ------------------------------------------------------------------ *)
(* Byte fuzz of the on-disk files                                      *)

let remove_tree dir =
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir

(* After a valid write sequence, flip and truncate bytes of one of the two
   files.  The documented contract: neither [verify] nor [open_] raises on
   damaged input, and every [get] returns a value that was written under
   that kind and key, or [None]. *)
let prop_damaged_files =
  let open QCheck2 in
  let kinds = [| Store.Measurement; Store.Certificate; Store.Bench_history |] in
  let put =
    Gen.(map3
           (fun k key v -> `Put (kinds.(k), Printf.sprintf "k%d" key, v))
           (int_range 0 2) (int_range 0 7)
           (string_size ~gen:printable (int_range 0 24)))
  in
  let op = Gen.(frequency [ (6, put); (1, return `Compact) ]) in
  let damage =
    Gen.(pair
           (list_size (int_range 0 4) (pair nat (int_range 1 255)))
           (opt nat))
  in
  Test.make ~name:"damaged journal/segment bytes never raise" ~count:300
    Gen.(triple (list_size (int_range 1 30) op) bool damage)
    (fun (ops, in_journal, (flips, cut)) ->
       let dir = temp_dir () in
       let written = Hashtbl.create 64 in
       with_store ~auto_compact:5 dir (fun s ->
           List.iter
             (function
               | `Put (kind, key, v) ->
                 Hashtbl.add written (kind, key) v;
                 Store.put s kind ~key v
               | `Compact -> Store.compact s)
             ops);
       let path = if in_journal then journal dir else segment dir in
       let data = Bytes.of_string (read_file path) in
       let len = Bytes.length data in
       if len > 0 then begin
         List.iter
           (fun (pos, x) ->
              let i = pos mod len in
              Bytes.set data i
                (Char.chr (Char.code (Bytes.get data i) lxor x)))
           flips;
         let keep = match cut with Some c -> c mod (len + 1) | None -> len in
         write_file path (Bytes.sub_string data 0 keep)
       end;
       ignore (Store.verify dir);
       with_store dir (fun s ->
           Array.iter
             (fun kind ->
                for key = 0 to 7 do
                  let key = Printf.sprintf "k%d" key in
                  match Store.get s kind ~key with
                  | None -> ()
                  | Some v ->
                    if not (List.mem v (Hashtbl.find_all written (kind, key)))
                    then
                      Test.fail_reportf "%s %s: %S was never written"
                        (Store.kind_name kind) key v
                done)
             kinds);
       remove_tree dir;
       true)

(* ------------------------------------------------------------------ *)
(* The harness's durable tier                                          *)

let test_harness_store_tier () =
  (* Two harnesses over distinct machine instances but one store: the
     second must answer every repeated experiment from the store and
     leave its machine untouched. *)
  let dir = temp_dir () in
  let machine () =
    Machine.create ~config:Machine.quiet_config
      ~profile:Pmi_machine.Profile.a64fx
      (Catalog.reduced ~per_bucket:1 ())
  in
  let experiments m =
    List.filteri (fun i _ -> i < 3)
      (Array.to_list (Catalog.schemes (Machine.catalog m)))
    |> List.map Pmi_portmap.Experiment.singleton
  in
  let first =
    with_store dir (fun store ->
        let m = machine () in
        let h = Harness.create ~reps:3 ~store m in
        let cs = List.map (Harness.cycles h) (experiments m) in
        Alcotest.(check bool) "first run measures" true
          (Machine.measurement_count m > 0);
        cs)
  in
  with_store dir (fun store ->
      let m = machine () in
      let h = Harness.create ~reps:3 ~store m in
      let second = List.map (Harness.cycles h) (experiments m) in
      Alcotest.(check int) "second run measures nothing" 0
        (Machine.measurement_count m);
      Alcotest.(check int) "no store misses" 0 (Harness.store_misses h);
      Alcotest.(check int) "every probe hit the store" (List.length second)
        (Harness.store_hits h);
      List.iter2
        (fun a b ->
           Alcotest.(check bool) "identical cycles" true
             (Pmi_numeric.Rat.equal a b))
        first second;
      Alcotest.(check int) "observations round-trip" (List.length second)
        (List.length (Harness.stored_observations h)))

(* ------------------------------------------------------------------ *)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "store"
    [ ("basics",
       [ Alcotest.test_case "put/get round-trip" `Quick test_put_get_roundtrip;
         Alcotest.test_case "identical re-put is a no-op" `Quick
           test_identical_reput_is_noop ]);
      ("recovery",
       [ Alcotest.test_case "torn tail truncated" `Quick
           test_torn_tail_truncated;
         Alcotest.test_case "bit flip rejected" `Quick test_bit_flip_rejected ]);
      ("compaction",
       [ Alcotest.test_case "last writer wins" `Quick test_lww_after_compaction;
         Alcotest.test_case "open/close and re-compaction idempotent" `Quick
           test_open_close_idempotent;
         Alcotest.test_case "gc drops and compacts" `Quick
           test_gc_drops_and_compacts ]);
      ("random", qsuite [ prop_random_roundtrip; prop_damaged_files ]);
      ("harness",
       [ Alcotest.test_case "durable measurement tier" `Quick
           test_harness_store_tier ]) ]
