open Pmi_isa
open Pmi_portmap
module Rat = Pmi_numeric.Rat
module Pool = Pmi_parallel.Pool

let rat = Alcotest.testable Rat.pp Rat.equal

(* ------------------------------------------------------------------ *)
(* Fixtures: the Figure 2 toy plus a randomised 6-port catalog         *)
(* ------------------------------------------------------------------ *)

let toy_catalog =
  Catalog.of_list
    [ ("add", [ Operand.gpr 64; Operand.gpr ~access:Operand.Read 64 ],
       Iclass.plain (Iclass.Single Iclass.Alu));
      ("mul", [ Operand.gpr 64; Operand.gpr ~access:Operand.Read 64 ],
       Iclass.plain (Iclass.Single Iclass.Alu));
      ("fma", [ Operand.gpr 64; Operand.gpr ~access:Operand.Read 64 ],
       Iclass.plain (Iclass.Single Iclass.Alu)) ]

let add = Catalog.find toy_catalog 0
let mul = Catalog.find toy_catalog 1
let fma = Catalog.find toy_catalog 2

let toy_mapping () =
  let both = Portset.of_list [ 0; 1 ] in
  let p2 = Portset.singleton 1 in
  let m = Mapping.create ~num_ports:2 in
  Mapping.set m add [ (both, 1) ];
  Mapping.set m mul [ (p2, 1) ];
  Mapping.set m fma [ (both, 2); (p2, 1) ];
  m

let num_random_schemes = 6
let random_ports = 6

let random_catalog =
  Catalog.of_list
    (List.init num_random_schemes (fun i ->
         (Printf.sprintf "i%d" i, [ Operand.gpr 32 ],
          Iclass.plain (Iclass.Single Iclass.Alu))))

(* A port set over the given ports (non-empty). *)
let portset_gen ports =
  let open QCheck2.Gen in
  let n = List.length ports in
  map
    (fun bits ->
       Portset.of_list (List.filteri (fun i _ -> bits land (1 lsl i) <> 0) ports))
    (int_range 1 ((1 lsl n) - 1))

(* Generates (usages, counts): a full random mapping over [ports] and an
   experiment over the same schemes.  A usage is either a free multiset of
   port sets or the two-µop shape of an improper (store-blocker) row, whose
   two port sets coincide about half of the time. *)
let usages_counts_gen ports =
  let open QCheck2.Gen in
  let portset = portset_gen ports in
  let free = list_size (int_range 1 3) (pair portset (int_range 1 3)) in
  let improper =
    portset >>= fun own ->
    map (fun shared -> [ (own, 1); (shared, 1) ]) (oneof [ return own; portset ])
  in
  let usage = frequency [ (3, free); (1, improper) ] in
  pair
    (list_repeat num_random_schemes usage)
    (list_repeat num_random_schemes (int_range 0 4))

let mapping_experiment_gen =
  usages_counts_gen (List.init random_ports Fun.id)

(* 24 ports, past the dense oracle's 20-port bound; port sets are drawn
   from 8 of them, so the naive reference stays cheap. *)
let wide_ports = 24

let wide_experiment_gen = usages_counts_gen [ 0; 1; 2; 3; 20; 21; 22; 23 ]

let build_mapping ?(num_ports = random_ports) usages =
  let m = Mapping.create ~num_ports in
  List.iteri
    (fun i usage -> Mapping.set m (Catalog.find random_catalog i) usage)
    usages;
  m

let build_experiment counts =
  Experiment.of_counts
    (List.mapi (fun i n -> (Catalog.find random_catalog i, n)) counts)

(* ------------------------------------------------------------------ *)
(* Known values on the toy                                             *)
(* ------------------------------------------------------------------ *)

let test_toy_known_values () =
  let m = toy_mapping () in
  let o = Oracle.create m in
  let e = Experiment.of_counts [ (mul, 2); (fma, 1) ] in
  Alcotest.check rat "Figure 2" (Rat.of_int 3) (Oracle.inverse o e);
  Alcotest.(check (list int)) "bottleneck p2" [ 1 ]
    (Portset.to_list (Oracle.bottleneck_set o e));
  Alcotest.check rat "Figure 3(b)" (Rat.of_ints 9 2)
    (Oracle.inverse o (Experiment.of_counts [ (add, 6); (fma, 1) ]));
  Alcotest.check rat "empty" Rat.zero (Oracle.inverse o Experiment.empty);
  Alcotest.(check bool) "empty bottleneck" true
    (Portset.is_empty (Oracle.bottleneck_set o Experiment.empty));
  (* Frontend bound: 8 adds over 2 ports. *)
  let e8 = Experiment.replicate 8 add in
  Alcotest.check rat "unbounded" (Rat.of_int 4)
    (Oracle.inverse_bounded ~r_max:5 o e8);
  Alcotest.check rat "bounded" (Rat.of_int 8)
    (Oracle.inverse_bounded ~r_max:1 o e8)

let test_unsupported () =
  let m = Mapping.create ~num_ports:2 in
  let o = Oracle.create m in
  Alcotest.check_raises "unsupported scheme" (Throughput.Unsupported add)
    (fun () -> ignore (Oracle.inverse o (Experiment.singleton add)));
  Alcotest.check_raises "unsupported in prepare" (Throughput.Unsupported add)
    (fun () -> Oracle.prepare o [ add ])

let test_port_limit () =
  Alcotest.check_raises "too many ports"
    (Invalid_argument "Oracle.create: unsupported port count")
    (fun () -> ignore (Oracle.create (Mapping.create ~num_ports:21)))

(* ------------------------------------------------------------------ *)
(* Exact agreement with the naive oracle                               *)
(* ------------------------------------------------------------------ *)

let prop_inverse_agrees =
  QCheck2.Test.make ~name:"memoized inverse = naive inverse (exact)" ~count:300
    mapping_experiment_gen
    (fun (usages, counts) ->
       let m = build_mapping usages in
       let e = build_experiment counts in
       Rat.equal (Oracle.inverse (Oracle.create m) e) (Throughput.inverse m e))

let prop_inverse_bounded_agrees =
  QCheck2.Test.make
    ~name:"memoized inverse_bounded = naive inverse_bounded (exact)" ~count:300
    QCheck2.Gen.(pair mapping_experiment_gen (int_range 1 6))
    (fun ((usages, counts), r_max) ->
       let m = build_mapping usages in
       let e = build_experiment counts in
       Rat.equal
         (Oracle.inverse_bounded ~r_max (Oracle.create m) e)
         (Throughput.inverse_bounded ~r_max m e))

let prop_bottleneck_optimal =
  QCheck2.Test.make ~name:"bottleneck_set attains the optimum" ~count:300
    mapping_experiment_gen
    (fun (usages, counts) ->
       let m = build_mapping usages in
       let e = build_experiment counts in
       QCheck2.assume (not (Experiment.is_empty e));
       let o = Oracle.create m in
       let q = Oracle.bottleneck_set o e in
       let mass =
         List.fold_left
           (fun acc (ports, n) ->
              if Portset.subset ports q then acc + n else acc)
           0 (Throughput.uop_masses m e)
       in
       (not (Portset.is_empty q))
       && Rat.equal (Oracle.inverse o e)
            (Rat.of_ints mass (Portset.cardinal q)))

(* The accumulator must agree with the naive oracle after any add/remove
   walk.  Each scheme is added in unit steps plus [extra] copies that are
   removed again, exercising both update directions.  Half of the cases
   use a 24-port mapping, which only the accumulator can evaluate. *)
let prop_acc_agrees =
  QCheck2.Test.make ~name:"Acc add/remove path = naive on the result" ~count:600
    QCheck2.Gen.(
      triple
        (oneof
           [ map (fun uc -> (random_ports, uc)) mapping_experiment_gen;
             map (fun uc -> (wide_ports, uc)) wide_experiment_gen ])
        (list_repeat num_random_schemes (int_range 0 2))
        (int_range 1 6))
    (fun ((num_ports, (usages, counts)), extras, r_max) ->
       let m = build_mapping ~num_ports usages in
       let e = build_experiment counts in
       let acc = Oracle.Acc.create m in
       List.iteri
         (fun i n ->
            let s = Catalog.find random_catalog i in
            let extra = List.nth extras i in
            Oracle.Acc.add acc s extra;
            for _ = 1 to n do Oracle.Acc.add acc s 1 done;
            Oracle.Acc.remove acc s extra)
         counts;
       Oracle.Acc.length acc = Experiment.length e
       && Rat.equal (Oracle.Acc.inverse acc) (Throughput.inverse m e)
       && Rat.equal
            (Oracle.Acc.inverse_bounded ~r_max acc)
            (Throughput.inverse_bounded ~r_max m e))

let test_acc_reset () =
  let m = toy_mapping () in
  let acc = Oracle.Acc.create m in
  Oracle.Acc.add acc fma 3;
  Oracle.Acc.reset acc;
  Alcotest.(check int) "length" 0 (Oracle.Acc.length acc);
  Alcotest.check rat "inverse" Rat.zero (Oracle.Acc.inverse acc)

(* ------------------------------------------------------------------ *)
(* Domain pool                                                         *)
(* ------------------------------------------------------------------ *)

let test_pool_parallel_for () =
  let n = 1000 in
  let hits = Array.init n (fun _ -> Atomic.make 0) in
  Pool.parallel_for ~domains:4 ~n (fun i -> Atomic.incr hits.(i));
  Alcotest.(check bool) "each index exactly once" true
    (Array.for_all (fun a -> Atomic.get a = 1) hits);
  (* n = 0 is a no-op, not an error. *)
  Pool.parallel_for ~domains:4 ~n:0 (fun _ -> assert false)

let test_pool_map_order () =
  let xs = List.init 500 Fun.id in
  Alcotest.(check (list int)) "map_list preserves order"
    (List.map (fun x -> x * x) xs)
    (Pool.map_list ~domains:4 (fun x -> x * x) xs);
  let arr = Array.init 500 Fun.id in
  Alcotest.(check (array int)) "map_array preserves order"
    (Array.map succ arr)
    (Pool.map_array ~domains:4 succ arr)

let test_pool_exception () =
  Alcotest.check_raises "first exception re-raised" (Failure "boom")
    (fun () ->
       Pool.parallel_for ~domains:4 ~n:100 (fun i ->
           if i = 57 then failwith "boom"))

let prop_pool_find_first_minimal =
  QCheck2.Test.make ~name:"find_first_index returns the minimal hit" ~count:100
    QCheck2.Gen.(list_size (int_range 0 200) bool)
    (fun bits ->
       let arr = Array.of_list bits in
       let expected =
         let rec scan i =
           if i >= Array.length arr then None
           else if arr.(i) then Some i
           else scan (i + 1)
         in
         scan 0
       in
       Pool.find_first_index ~domains:4 Fun.id arr = expected)

let test_pool_oracle_sweep () =
  (* The validate-style fan-out: one prepared oracle shared by domains. *)
  let m = toy_mapping () in
  let o = Oracle.create m in
  Oracle.prepare o [ add; mul; fma ];
  let blocks =
    Array.init 64 (fun i ->
        Experiment.of_counts [ (add, (i mod 5) + 1); (mul, i mod 3); (fma, 1) ])
  in
  let par = Pool.map_array ~domains:4 (Oracle.inverse o) blocks in
  Array.iteri
    (fun i e ->
       Alcotest.check rat
         (Printf.sprintf "block %d" i)
         (Throughput.inverse m e) par.(i))
    blocks

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "oracle"
    [ ("oracle",
       [ Alcotest.test_case "toy known values" `Quick test_toy_known_values;
         Alcotest.test_case "unsupported scheme" `Quick test_unsupported;
         Alcotest.test_case "port limit" `Quick test_port_limit ]
       @ qsuite
           [ prop_inverse_agrees; prop_inverse_bounded_agrees;
             prop_bottleneck_optimal ]);
      ("acc",
       [ Alcotest.test_case "reset" `Quick test_acc_reset ]
       @ qsuite [ prop_acc_agrees ]);
      ("pool",
       [ Alcotest.test_case "parallel_for covers indices" `Quick
           test_pool_parallel_for;
         Alcotest.test_case "map order" `Quick test_pool_map_order;
         Alcotest.test_case "exception propagation" `Quick test_pool_exception;
         Alcotest.test_case "shared oracle sweep" `Quick test_pool_oracle_sweep ]
       @ qsuite [ prop_pool_find_first_minimal ]) ]
