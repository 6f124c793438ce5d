(** Exact rational numbers.

    A value whose numerator and denominator both fit a native [int] (other
    than [min_int]) is stored as that pair of ints; anything larger falls
    back to a pair of {!Bigint}s.  Either way the form is canonical: the
    denominator is positive, the terms are coprime, and the native pair is
    used whenever it fits, so structural equality coincides with numeric
    equality.

    [compare], [add], [sub], [mul] and [div] run in native arithmetic while
    every term is below [2^((Sys.int_size - 2) / 2)] in magnitude (2{^30}
    on 64-bit OCaml), where no cross-product can overflow, and in
    {!Bigint} otherwise; the result is exact either way. *)

type t

val zero : t
val one : t

val make : Bigint.t -> Bigint.t -> t
(** [make num den] is the canonical rational [num/den].
    @raise Division_by_zero if [den] is zero. *)

val of_int : int -> t

val of_ints : int -> int -> t
(** [of_ints a b] is [a/b]. @raise Division_by_zero if [b = 0]. *)

val num : t -> Bigint.t
val den : t -> Bigint.t

val compare : t -> t -> int
val equal : t -> t -> bool
val sign : t -> int

val neg : t -> t
val abs : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
(** @raise Division_by_zero if the divisor is zero. *)

val inv : t -> t
(** @raise Division_by_zero on zero. *)

val min : t -> t -> t
val max : t -> t -> t

val is_zero : t -> bool
val is_integer : t -> bool

val floor : t -> Bigint.t
val ceil : t -> Bigint.t

val to_float : t -> float
(** [float num /. float den], each term rounded to the nearest float
    first (exactly as [float_of_string] on its decimal form). *)

val to_string : t -> string
(** ["n"] for integers, ["n/d"] otherwise. *)

val pp : Format.formatter -> t -> unit

(** Infix operators, intended for local [open Rat.Infix]. *)
module Infix : sig
  val ( + ) : t -> t -> t
  val ( - ) : t -> t -> t
  val ( * ) : t -> t -> t
  val ( / ) : t -> t -> t
  val ( ~- ) : t -> t
  val ( = ) : t -> t -> bool
  val ( < ) : t -> t -> bool
  val ( <= ) : t -> t -> bool
  val ( > ) : t -> t -> bool
  val ( >= ) : t -> t -> bool
end
