(* A value is [S (n, d)] whenever both terms fit a native [int] other than
   [min_int] (so negation never overflows), and [B (n, d)] only otherwise.
   Either way [d > 0] and [gcd n d = 1], so every value has exactly one
   representation and structural equality is numeric equality. *)
type t = S of int * int | B of Bigint.t * Bigint.t

(* Terms strictly below [limit] in magnitude have cross-products below
   [2^(int_size - 2)], so [n1*d2 + n2*d1] stays within [max_int]. *)
let limit = 1 lsl ((Sys.int_size - 2) / 2)

(* [limit] is a power of two, so the [lor] of non-negative terms is below it
   exactly when every term is. *)
let fast n1 d1 n2 d2 = Stdlib.abs n1 lor d1 lor Stdlib.abs n2 lor d2 < limit

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

(* [small n d] is [n/d] for [d <> 0] and neither term [min_int]. *)
let small n d =
  let n, d = if d < 0 then (-n, -d) else (n, d) in
  let g = gcd (Stdlib.abs n) d in
  if g = 1 then S (n, d) else S (n / g, d / g)

(* [n/d] already canonical as big integers. *)
let of_canonical n d =
  match (Bigint.to_int_opt n, Bigint.to_int_opt d) with
  | Some n, Some d when n <> min_int -> S (n, d)
  | _ -> B (n, d)

let make num den =
  if Bigint.is_zero den then raise Division_by_zero
  else
    match (Bigint.to_int_opt num, Bigint.to_int_opt den) with
    | Some n, Some d when n <> min_int && d <> min_int -> small n d
    | _ ->
      let num, den = if Bigint.sign den < 0 then (Bigint.neg num, Bigint.neg den) else (num, den) in
      let g = Bigint.gcd num den in
      if Bigint.is_one g then of_canonical num den
      else of_canonical (Bigint.div num g) (Bigint.div den g)

let zero = S (0, 1)
let one = S (1, 1)

let of_int i = if i = min_int then B (Bigint.of_int i, Bigint.one) else S (i, 1)

let of_ints a b =
  if b = 0 then raise Division_by_zero
  else if a = min_int || b = min_int then make (Bigint.of_int a) (Bigint.of_int b)
  else small a b

let num = function S (n, _) -> Bigint.of_int n | B (n, _) -> n
let den = function S (_, d) -> Bigint.of_int d | B (_, d) -> d

let compare a b =
  match (a, b) with
  | S (n1, d1), S (n2, d2) when fast n1 d1 n2 d2 -> Int.compare (n1 * d2) (n2 * d1)
  | _ ->
    (* n1/d1 ? n2/d2  <=>  n1*d2 ? n2*d1, dens > 0. *)
    Bigint.compare (Bigint.mul (num a) (den b)) (Bigint.mul (num b) (den a))

let equal a b =
  match (a, b) with
  | S (n1, d1), S (n2, d2) -> n1 = n2 && d1 = d2
  | B (n1, d1), B (n2, d2) -> Bigint.equal n1 n2 && Bigint.equal d1 d2
  | S _, B _ | B _, S _ -> false

let sign = function S (n, _) -> Int.compare n 0 | B (n, _) -> Bigint.sign n

let neg = function S (n, d) -> S (-n, d) | B (n, d) -> B (Bigint.neg n, d)
let abs = function S (n, d) -> S (Stdlib.abs n, d) | B (n, d) -> B (Bigint.abs n, d)

let add a b =
  match (a, b) with
  | S (n1, d1), S (n2, d2) when fast n1 d1 n2 d2 -> small ((n1 * d2) + (n2 * d1)) (d1 * d2)
  | _ ->
    make
      (Bigint.add (Bigint.mul (num a) (den b)) (Bigint.mul (num b) (den a)))
      (Bigint.mul (den a) (den b))

let sub a b = add a (neg b)

let mul a b =
  match (a, b) with
  | S (n1, d1), S (n2, d2) when fast n1 d1 n2 d2 -> small (n1 * n2) (d1 * d2)
  | _ -> make (Bigint.mul (num a) (num b)) (Bigint.mul (den a) (den b))

let inv = function
  | S (0, _) -> raise Division_by_zero
  | S (n, d) -> if n > 0 then S (d, n) else S (-d, -n)
  | B (n, d) -> if Bigint.sign n > 0 then B (d, n) else B (Bigint.neg d, Bigint.neg n)

let div a b = mul a (inv b)

let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b

let is_zero a = sign a = 0
let is_integer = function S (_, d) -> d = 1 | B (_, d) -> Bigint.is_one d

let floor = function
  | S (n, d) -> Bigint.of_int (if n mod d < 0 then (n / d) - 1 else n / d)
  | B (n, d) ->
    let q, r = Bigint.divmod n d in
    if Bigint.sign r < 0 then Bigint.sub q Bigint.one else q

let ceil a = Bigint.neg (floor (neg a))

(* Terms below 2^53 convert to floats exactly, so this is the same quotient
   as the decimal round-trip. *)
let float_exact = if Sys.int_size > 53 then 1 lsl 53 else max_int

let to_float = function
  | S (n, d) when Stdlib.abs n < float_exact && d < float_exact -> float_of_int n /. float_of_int d
  | a -> float_of_string (Bigint.to_string (num a)) /. float_of_string (Bigint.to_string (den a))

let to_string = function
  | S (n, 1) -> string_of_int n
  | S (n, d) -> string_of_int n ^ "/" ^ string_of_int d
  | B (n, d) ->
    if Bigint.is_one d then Bigint.to_string n
    else Bigint.to_string n ^ "/" ^ Bigint.to_string d

let pp ppf a = Format.pp_print_string ppf (to_string a)

module Infix = struct
  let ( + ) = add
  let ( - ) = sub
  let ( * ) = mul
  let ( / ) = div
  let ( ~- ) = neg
  let ( = ) = equal
  let ( < ) a b = compare a b < 0
  let ( <= ) a b = compare a b <= 0
  let ( > ) a b = compare a b > 0
  let ( >= ) a b = compare a b >= 0
end
