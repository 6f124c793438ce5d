open Pmi_numeric

let bigint = Alcotest.testable Bigint.pp Bigint.equal
let rat = Alcotest.testable Rat.pp Rat.equal

(* ------------------------------------------------------------------ *)
(* Bigint unit tests                                                   *)
(* ------------------------------------------------------------------ *)

let test_bigint_roundtrip () =
  List.iter
    (fun i ->
       Alcotest.(check int) (string_of_int i) i Bigint.(to_int (of_int i)))
    [ 0; 1; -1; 42; -42; 32767; 32768; -32768; 1 lsl 40; -(1 lsl 40);
      max_int; min_int; min_int + 1 ]

let test_bigint_strings () =
  let check s = Alcotest.(check string) s s Bigint.(to_string (of_string s)) in
  List.iter check
    [ "0"; "1"; "-1"; "123456789012345678901234567890";
      "-999999999999999999999999"; "10000000000000000000000000000001" ];
  Alcotest.check bigint "of_int vs of_string"
    (Bigint.of_int 123456789) (Bigint.of_string "123456789")

let test_bigint_arith_large () =
  let a = Bigint.of_string "123456789123456789123456789" in
  let b = Bigint.of_string "987654321987654321" in
  Alcotest.(check string) "mul"
    "121932631356500531469135800347203169112635269"
    Bigint.(to_string (mul a b));
  Alcotest.(check string) "add" "123456790111111111111111110"
    Bigint.(to_string (add a b));
  let q, r = Bigint.divmod a b in
  Alcotest.check bigint "divmod reconstructs" a Bigint.(add (mul q b) r)

let test_bigint_division_signs () =
  let check a b =
    let q, r = Bigint.(divmod (of_int a) (of_int b)) in
    Alcotest.(check int) (Printf.sprintf "%d / %d" a b) (a / b) (Bigint.to_int q);
    Alcotest.(check int) (Printf.sprintf "%d mod %d" a b) (a mod b) (Bigint.to_int r)
  in
  List.iter (fun (a, b) -> check a b)
    [ (7, 2); (-7, 2); (7, -2); (-7, -2); (0, 5); (12345678, 347); (-1, 3) ]

let test_bigint_gcd () =
  Alcotest.check bigint "gcd 12 18" (Bigint.of_int 6)
    Bigint.(gcd (of_int 12) (of_int 18));
  Alcotest.check bigint "gcd 0 0" Bigint.zero Bigint.(gcd zero zero);
  Alcotest.check bigint "gcd -4 6" (Bigint.of_int 2)
    Bigint.(gcd (of_int (-4)) (of_int 6))

let test_bigint_to_int_overflow () =
  let big = Bigint.(mul (of_int max_int) (of_int 2)) in
  Alcotest.(check (option int)) "overflow" None (Bigint.to_int_opt big);
  Alcotest.(check (option int)) "min_int fits" (Some min_int)
    (Bigint.to_int_opt (Bigint.of_int min_int))

(* Property tests: Bigint agrees with native ints where both apply. *)
let gen_small = QCheck2.Gen.int_range (-1_000_000) 1_000_000

let prop_bigint_matches_int =
  QCheck2.Test.make ~name:"bigint add/sub/mul match int" ~count:500
    QCheck2.Gen.(pair gen_small gen_small)
    (fun (a, b) ->
       let open Bigint in
       to_int (add (of_int a) (of_int b)) = a + b
       && to_int (sub (of_int a) (of_int b)) = a - b
       && to_int (mul (of_int a) (of_int b)) = a * b
       && compare (of_int a) (of_int b) = Stdlib.compare a b)

let prop_bigint_divmod =
  QCheck2.Test.make ~name:"bigint divmod matches int" ~count:500
    QCheck2.Gen.(pair gen_small gen_small)
    (fun (a, b) ->
       QCheck2.assume (b <> 0);
       let q, r = Bigint.(divmod (of_int a) (of_int b)) in
       Bigint.to_int q = a / b && Bigint.to_int r = a mod b)

let prop_bigint_string_roundtrip =
  QCheck2.Test.make ~name:"bigint string roundtrip" ~count:200
    QCheck2.Gen.(list_size (int_range 1 40) (int_range 0 9))
    (fun digits ->
       let s = String.concat "" (List.map string_of_int digits) in
       let normalised =
         let s' = Bigint.(to_string (of_string s)) in
         s'
       in
       (* to_string drops leading zeros; compare numerically. *)
       Bigint.(equal (of_string s) (of_string normalised)))

(* Large-operand stress: generate numerals digit by digit and verify the
   ring laws that native ints cannot check. *)
let big_gen =
  QCheck2.Gen.(
    map2
      (fun neg digits ->
         let s = String.concat "" (List.map string_of_int digits) in
         let s = if s = "" then "0" else s in
         Bigint.of_string (if neg then "-" ^ s else s))
      bool
      (list_size (int_range 1 40) (int_range 0 9)))

let prop_big_divmod_reconstructs =
  QCheck2.Test.make ~name:"big divmod reconstructs" ~count:300
    QCheck2.Gen.(pair big_gen big_gen)
    (fun (a, b) ->
       QCheck2.assume (not (Bigint.is_zero b));
       let q, r = Bigint.divmod a b in
       Bigint.equal a (Bigint.add (Bigint.mul q b) r)
       && Bigint.compare (Bigint.abs r) (Bigint.abs b) < 0
       && (Bigint.is_zero r || Bigint.sign r = Bigint.sign a))

let prop_big_gcd_divides =
  QCheck2.Test.make ~name:"big gcd divides both" ~count:300
    QCheck2.Gen.(pair big_gen big_gen)
    (fun (a, b) ->
       let g = Bigint.gcd a b in
       if Bigint.is_zero g then Bigint.is_zero a && Bigint.is_zero b
       else
         Bigint.is_zero (Bigint.rem a g)
         && Bigint.is_zero (Bigint.rem b g)
         && Bigint.sign g > 0)

let prop_big_string_roundtrip =
  QCheck2.Test.make ~name:"big to_string/of_string roundtrip" ~count:300
    big_gen
    (fun a -> Bigint.equal a (Bigint.of_string (Bigint.to_string a)))

let prop_big_mul_distributes =
  QCheck2.Test.make ~name:"big multiplication distributes" ~count:200
    QCheck2.Gen.(triple big_gen big_gen big_gen)
    (fun (a, b, c) ->
       Bigint.equal
         (Bigint.mul a (Bigint.add b c))
         (Bigint.add (Bigint.mul a b) (Bigint.mul a c)))

(* ------------------------------------------------------------------ *)
(* Rat unit and property tests                                         *)
(* ------------------------------------------------------------------ *)

let test_rat_canonical () =
  Alcotest.check rat "2/4 = 1/2" (Rat.of_ints 1 2) (Rat.of_ints 2 4);
  Alcotest.check rat "neg den" (Rat.of_ints (-1) 2) (Rat.of_ints 1 (-2));
  Alcotest.(check string) "print" "5/4" (Rat.to_string (Rat.of_ints 10 8));
  Alcotest.(check string) "int print" "3" (Rat.to_string (Rat.of_ints 9 3))

let test_rat_arith () =
  let open Rat.Infix in
  Alcotest.check rat "1/2 + 1/3" (Rat.of_ints 5 6)
    (Rat.of_ints 1 2 + Rat.of_ints 1 3);
  Alcotest.check rat "3/4 * 2/3" (Rat.of_ints 1 2)
    (Rat.of_ints 3 4 * Rat.of_ints 2 3);
  Alcotest.check rat "div" (Rat.of_ints 9 8) (Rat.of_ints 3 4 / Rat.of_ints 2 3);
  Alcotest.(check bool) "lt" true (Rat.of_ints 1 3 < Rat.of_ints 1 2)

let test_rat_floor_ceil () =
  Alcotest.(check int) "floor 7/2" 3 Bigint.(to_int (Rat.floor (Rat.of_ints 7 2)));
  Alcotest.(check int) "floor -7/2" (-4)
    Bigint.(to_int (Rat.floor (Rat.of_ints (-7) 2)));
  Alcotest.(check int) "ceil 7/2" 4 Bigint.(to_int (Rat.ceil (Rat.of_ints 7 2)));
  Alcotest.(check int) "ceil -7/2" (-3)
    Bigint.(to_int (Rat.ceil (Rat.of_ints (-7) 2)))

let rat_gen =
  QCheck2.Gen.(
    map2 (fun n d -> Rat.of_ints n d)
      (int_range (-1000) 1000)
      (map (fun d -> if d = 0 then 1 else d) (int_range (-50) 50)))

let prop_rat_field_laws =
  QCheck2.Test.make ~name:"rat ring laws" ~count:500
    QCheck2.Gen.(triple rat_gen rat_gen rat_gen)
    (fun (a, b, c) ->
       let open Rat in
       equal (add a b) (add b a)
       && equal (mul a b) (mul b a)
       && equal (add (add a b) c) (add a (add b c))
       && equal (mul (mul a b) c) (mul a (mul b c))
       && equal (mul a (add b c)) (add (mul a b) (mul a c))
       && equal (sub a a) zero)

let prop_rat_order_total =
  QCheck2.Test.make ~name:"rat order consistent with subtraction" ~count:500
    QCheck2.Gen.(pair rat_gen rat_gen)
    (fun (a, b) -> Rat.compare a b = Rat.sign (Rat.sub a b))

(* Boundary differential suite.  Terms cluster where the native-int fast
   path hands over to Bigint: around 2^30 and 2^31 (the cross-product
   limit on 64-bit ints), 2^53 (exact floats), 2^62 and 2^63 (max_int and
   min_int), plus small and shared-factor terms so reduction matters.
   Every operation is checked against a reference computed only in Bigint
   cross-products. *)
let pow2 k = Bigint.(mul (of_int (1 lsl (k / 2))) (of_int (1 lsl (k - (k / 2)))))

let term_gen =
  QCheck2.Gen.(
    let near =
      map3
        (fun anchor delta neg ->
           let v = Bigint.add anchor (Bigint.of_int delta) in
           if neg then Bigint.neg v else v)
        (oneofl
           [ pow2 30; pow2 31; pow2 53; pow2 62; pow2 63;
             Bigint.of_int max_int; Bigint.of_int min_int;
             Bigint.(mul (of_int 6) (pow2 29)); Bigint.(mul (of_int 6) (pow2 60)) ])
        (int_range (-3) 3) bool
    in
    frequency
      [ (4, near);
        (2, map Bigint.of_int (int_range (-1000) 1000));
        (1, map Bigint.of_int int);
        (1, map2 (fun a b -> Bigint.(mul (of_int a) b)) (int_range (-12) 12) near) ])

let nonzero_term_gen =
  QCheck2.Gen.map (fun t -> if Bigint.is_zero t then Bigint.one else t) term_gen

(* Magnitudes at or just under 2^30 and 2^31.  On 64-bit ints the fast path
   takes terms below 2^30, and n1*d2 + n2*d1 overflows once all four terms
   are near 2^31, so rationals built only from these probe the limit. *)
let at_limit_gen =
  QCheck2.Gen.map3
    (fun k delta neg ->
       let v = Bigint.sub (pow2 k) (Bigint.of_int delta) in
       if neg then Bigint.neg v else v)
    (QCheck2.Gen.int_range 30 31) (QCheck2.Gen.int_range 0 3) QCheck2.Gen.bool

(* Native-int terms: the same clusters, clamped to [min_int, max_int]. *)
let int_term_gen =
  QCheck2.Gen.map
    (fun t ->
       match Bigint.to_int_opt t with
       | Some i -> i
       | None -> if Bigint.sign t > 0 then max_int else min_int)
    term_gen

(* A reference rational is a canonical Bigint pair. *)
let ref_make n d =
  let n, d = if Bigint.sign d < 0 then (Bigint.neg n, Bigint.neg d) else (n, d) in
  let g = Bigint.gcd n d in
  (Bigint.div n g, Bigint.div d g)

let ref_add (n1, d1) (n2, d2) =
  ref_make Bigint.(add (mul n1 d2) (mul n2 d1)) (Bigint.mul d1 d2)

let ref_mul (n1, d1) (n2, d2) = ref_make (Bigint.mul n1 n2) (Bigint.mul d1 d2)
let ref_neg (n, d) = (Bigint.neg n, d)
let ref_inv (n, d) = ref_make d n
let ref_compare (n1, d1) (n2, d2) = Bigint.compare (Bigint.mul n1 d2) (Bigint.mul n2 d1)

let ref_floor (n, d) =
  let q, r = Bigint.divmod n d in
  if Bigint.sign r < 0 then Bigint.sub q Bigint.one else q

let ref_to_string (n, d) =
  if Bigint.is_one d then Bigint.to_string n
  else Bigint.to_string n ^ "/" ^ Bigint.to_string d

let matches r (n, d) = Bigint.equal (Rat.num r) n && Bigint.equal (Rat.den r) d

(* A rational next to its reference. *)
let boundary_of n d = (Rat.make n d, ref_make n d)

let boundary_gen =
  QCheck2.Gen.(
    oneof
      [ map2 boundary_of term_gen nonzero_term_gen;
        map2 boundary_of at_limit_gen at_limit_gen ])

let print_boundary (r, _) = Rat.to_string r

let prop_rat_boundary_unary =
  QCheck2.Test.make ~name:"rat boundary: unary operations match Bigint" ~count:2000
    ~print:print_boundary boundary_gen
    (fun (a, ra) ->
       let nonzero = not (Bigint.is_zero (fst ra)) in
       matches a ra
       && Rat.sign a = Bigint.sign (fst ra)
       && matches (Rat.neg a) (ref_neg ra)
       && matches (Rat.abs a) (Bigint.abs (fst ra), snd ra)
       && ((not nonzero) || matches (Rat.inv a) (ref_inv ra))
       && Bigint.equal (Rat.floor a) (ref_floor ra)
       && Bigint.equal (Rat.ceil a) (Bigint.neg (ref_floor (ref_neg ra)))
       && Rat.to_string a = ref_to_string ra
       && Rat.make (Rat.num a) (Rat.den a) = a)

let prop_rat_boundary_binary =
  QCheck2.Test.make ~name:"rat boundary: binary operations match Bigint" ~count:2000
    ~print:QCheck2.Print.(pair print_boundary print_boundary)
    QCheck2.Gen.(pair boundary_gen boundary_gen)
    (fun ((a, ra), (b, rb)) ->
       let c = ref_compare ra rb in
       matches (Rat.add a b) (ref_add ra rb)
       && matches (Rat.sub a b) (ref_add ra (ref_neg rb))
       && matches (Rat.mul a b) (ref_mul ra rb)
       && (Bigint.is_zero (fst rb) || matches (Rat.div a b) (ref_mul ra (ref_inv rb)))
       && Rat.compare a b = c
       && Rat.equal a b = (c = 0)
       && (a = b) = (c = 0))

let prop_rat_boundary_of_ints =
  QCheck2.Test.make ~name:"rat boundary: of_ints matches Bigint" ~count:2000
    QCheck2.Gen.(pair int_term_gen int_term_gen)
    (fun (n, d) ->
       QCheck2.assume (d <> 0);
       let r = Rat.of_ints n d in
       matches r (ref_make (Bigint.of_int n) (Bigint.of_int d))
       && r = Rat.make (Bigint.of_int n) (Bigint.of_int d)
       && (d <> 1 || r = Rat.of_int n))

let prop_rat_to_float =
  QCheck2.Test.make ~name:"rat to_float is close" ~count:2000
    QCheck2.Gen.(oneof [ rat_gen; map fst boundary_gen ])
    (fun a ->
       let f = Rat.to_float a in
       let n = float_of_string (Bigint.to_string (Rat.num a)) in
       let d = float_of_string (Bigint.to_string (Rat.den a)) in
       Int64.equal (Int64.bits_of_float f) (Int64.bits_of_float (n /. d)))

(* ------------------------------------------------------------------ *)
(* Simplex tests                                                       *)
(* ------------------------------------------------------------------ *)

let solve_expect name problem expected =
  match Simplex.solve problem with
  | Simplex.Optimal { objective_value; _ } ->
    Alcotest.check rat name expected objective_value
  | Simplex.Infeasible -> Alcotest.failf "%s: infeasible" name
  | Simplex.Unbounded -> Alcotest.failf "%s: unbounded" name

let r = Rat.of_int

let test_simplex_basic_max () =
  (* max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18  (classic; opt 36). *)
  let problem =
    { Simplex.num_vars = 2;
      constraints =
        [ { Simplex.coeffs = [| r 1; r 0 |]; relation = Simplex.Le; rhs = r 4 };
          { Simplex.coeffs = [| r 0; r 2 |]; relation = Simplex.Le; rhs = r 12 };
          { Simplex.coeffs = [| r 3; r 2 |]; relation = Simplex.Le; rhs = r 18 } ];
      objective = Simplex.Maximize [| r 3; r 5 |] }
  in
  solve_expect "classic max" problem (r 36)

let test_simplex_min_with_ge () =
  (* min x + y s.t. x + 2y >= 4, 3x + y >= 6; optimum at (8/5, 6/5) = 14/5. *)
  let problem =
    { Simplex.num_vars = 2;
      constraints =
        [ { Simplex.coeffs = [| r 1; r 2 |]; relation = Simplex.Ge; rhs = r 4 };
          { Simplex.coeffs = [| r 3; r 1 |]; relation = Simplex.Ge; rhs = r 6 } ];
      objective = Simplex.Minimize [| r 1; r 1 |] }
  in
  solve_expect "min with >=" problem (Rat.of_ints 14 5)

let test_simplex_equality () =
  (* min 2x + y s.t. x + y = 3, x <= 1; optimum x=0, y=3 -> 3. *)
  let problem =
    { Simplex.num_vars = 2;
      constraints =
        [ { Simplex.coeffs = [| r 1; r 1 |]; relation = Simplex.Eq; rhs = r 3 };
          { Simplex.coeffs = [| r 1; r 0 |]; relation = Simplex.Le; rhs = r 1 } ];
      objective = Simplex.Minimize [| r 2; r 1 |] }
  in
  solve_expect "equality" problem (r 3)

let test_simplex_infeasible () =
  let problem =
    { Simplex.num_vars = 1;
      constraints =
        [ { Simplex.coeffs = [| r 1 |]; relation = Simplex.Le; rhs = r 1 };
          { Simplex.coeffs = [| r 1 |]; relation = Simplex.Ge; rhs = r 2 } ];
      objective = Simplex.Minimize [| r 1 |] }
  in
  match Simplex.solve problem with
  | Simplex.Infeasible -> ()
  | Simplex.Optimal _ | Simplex.Unbounded ->
    Alcotest.fail "expected infeasible"

let test_simplex_unbounded () =
  let problem =
    { Simplex.num_vars = 1;
      constraints =
        [ { Simplex.coeffs = [| r 1 |]; relation = Simplex.Ge; rhs = r 1 } ];
      objective = Simplex.Maximize [| r 1 |] }
  in
  match Simplex.solve problem with
  | Simplex.Unbounded -> ()
  | Simplex.Optimal _ | Simplex.Infeasible -> Alcotest.fail "expected unbounded"

let test_simplex_degenerate () =
  (* Degenerate vertex (x+y <= 0 and y+z <= 0 pin all three variables to
     zero): Bland's rule must still terminate and report 0. *)
  let problem =
    { Simplex.num_vars = 3;
      constraints =
        [ { Simplex.coeffs = [| r 1; r 1; r 0 |]; relation = Simplex.Le; rhs = r 0 };
          { Simplex.coeffs = [| r 0; r 1; r 1 |]; relation = Simplex.Le; rhs = r 0 };
          { Simplex.coeffs = [| r 1; r 0; r 1 |]; relation = Simplex.Le; rhs = r 2 } ];
      objective = Simplex.Maximize [| r 1; r 1; r 1 |] }
  in
  solve_expect "degenerate" problem (r 0)

let test_simplex_assignment () =
  let problem =
    { Simplex.num_vars = 2;
      constraints =
        [ { Simplex.coeffs = [| r 1; r 1 |]; relation = Simplex.Le; rhs = r 10 } ];
      objective = Simplex.Maximize [| r 2; r 1 |] }
  in
  match Simplex.solve problem with
  | Simplex.Optimal { assignment; objective_value } ->
    Alcotest.check rat "value" (r 20) objective_value;
    Alcotest.check rat "x" (r 10) assignment.(0);
    Alcotest.check rat "y" (r 0) assignment.(1)
  | Simplex.Infeasible | Simplex.Unbounded -> Alcotest.fail "expected optimal"

(* Random feasibility property: the optimum of a min problem with rhs >= 0
   and Le constraints is 0 (all-zero is feasible and the objective is
   non-negative). *)
let prop_simplex_trivial_optimum =
  QCheck2.Test.make ~name:"simplex: all-zero optimal when feasible" ~count:100
    QCheck2.Gen.(
      list_size (int_range 1 5)
        (list_size (int_range 1 4) (int_range 0 9)))
    (fun rows ->
       QCheck2.assume (rows <> []);
       let width = List.length (List.hd rows) in
       QCheck2.assume (List.for_all (fun r' -> List.length r' = width) rows);
       let constraints =
         List.map
           (fun row ->
              { Simplex.coeffs = Array.of_list (List.map Rat.of_int row);
                relation = Simplex.Le;
                rhs = Rat.of_int 5 })
           rows
       in
       let objective = Simplex.Minimize (Array.make width Rat.one) in
       match Simplex.solve { Simplex.num_vars = width; constraints; objective } with
       | Simplex.Optimal { objective_value; _ } -> Rat.is_zero objective_value
       | Simplex.Infeasible | Simplex.Unbounded -> false)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "numeric"
    [ ("bigint",
       [ Alcotest.test_case "roundtrip" `Quick test_bigint_roundtrip;
         Alcotest.test_case "strings" `Quick test_bigint_strings;
         Alcotest.test_case "large arithmetic" `Quick test_bigint_arith_large;
         Alcotest.test_case "division signs" `Quick test_bigint_division_signs;
         Alcotest.test_case "gcd" `Quick test_bigint_gcd;
         Alcotest.test_case "to_int overflow" `Quick test_bigint_to_int_overflow ]
       @ qsuite
           [ prop_bigint_matches_int; prop_bigint_divmod;
             prop_bigint_string_roundtrip; prop_big_divmod_reconstructs;
             prop_big_gcd_divides; prop_big_string_roundtrip;
             prop_big_mul_distributes ]);
      ("rat",
       [ Alcotest.test_case "canonical form" `Quick test_rat_canonical;
         Alcotest.test_case "arithmetic" `Quick test_rat_arith;
         Alcotest.test_case "floor/ceil" `Quick test_rat_floor_ceil ]
       @ qsuite
           [ prop_rat_field_laws; prop_rat_order_total; prop_rat_to_float;
             prop_rat_boundary_unary; prop_rat_boundary_binary;
             prop_rat_boundary_of_ints ]);
      ("simplex",
       [ Alcotest.test_case "classic max" `Quick test_simplex_basic_max;
         Alcotest.test_case "min with >=" `Quick test_simplex_min_with_ge;
         Alcotest.test_case "equality" `Quick test_simplex_equality;
         Alcotest.test_case "infeasible" `Quick test_simplex_infeasible;
         Alcotest.test_case "unbounded" `Quick test_simplex_unbounded;
         Alcotest.test_case "degenerate" `Quick test_simplex_degenerate;
         Alcotest.test_case "assignment" `Quick test_simplex_assignment ]
       @ qsuite [ prop_simplex_trivial_optimum ]) ]
