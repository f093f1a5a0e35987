(* Runtime type witness: lets field-generic code recover [t = float] at
   functor-application time and branch into monomorphic float kernels
   (unboxed arithmetic over flat float arrays) without changing any
   functor arity. Fields other than the float one answer [Any]. *)
type 'a witness = Float : float witness | Any : 'a witness

let is_finite : type a. a witness -> a -> bool =
 fun w x -> match w with Float -> Float.is_finite x | Any -> true

module type S = sig
  type t

  (** Type identity of [t], for dispatching to specialized kernels. *)
  val witness : t witness

  val zero : t
  val one : t
  val of_int : int -> t
  val of_q : int -> int -> t
  val add : t -> t -> t
  val sub : t -> t -> t
  val mul : t -> t -> t
  val div : t -> t -> t
  val neg : t -> t
  val abs : t -> t
  val compare : t -> t -> int
  val equal : t -> t -> bool
  val sign : t -> int
  val min : t -> t -> t
  val max : t -> t -> t
  val to_float : t -> float
  val to_string : t -> string
  val repr : t -> string
  val of_repr : string -> t option
  val pp : Format.formatter -> t -> unit
  val leq_approx : t -> t -> bool
  val equal_approx : t -> t -> bool

  (** [sub_mul a b c] is [a - b*c]; [add_div a b c] is [a + b/c]
      ([Division_by_zero] when [c] is zero). Semantically the two-op
      composition — float fields must not contract to an FMA — but
      exact fields may canonicalize the fused expression once instead
      of once per operation. *)
  val sub_mul : t -> t -> t -> t

  val add_div : t -> t -> t -> t
end

module Ops (F : S) = struct
  let ( + ) = F.add
  let ( - ) = F.sub
  let ( * ) = F.mul
  let ( / ) = F.div
  let ( ~- ) = F.neg
  let ( = ) a b = F.equal a b
  let ( < ) a b = F.compare a b < 0
  let ( <= ) a b = F.compare a b <= 0
  let ( > ) a b = F.compare a b > 0
  let ( >= ) a b = F.compare a b >= 0
  let ( <> ) a b = not (F.equal a b)
  let sum l = List.fold_left F.add F.zero l

  let sum_up_to n f =
    let rec go acc i = if Stdlib.( >= ) i n then acc else go (F.add acc (f i)) (Stdlib.( + ) i 1) in
    go F.zero 0

  let sum_array a = Array.fold_left F.add F.zero a
end

module Float_field = struct
  type t = float

  let witness : t witness = Float
  let epsilon = 1e-9
  let zero = 0.
  let one = 1.
  let of_int = float_of_int
  let of_q n d = if d = 0 then raise Division_by_zero else float_of_int n /. float_of_int d
  let add = ( +. )
  let sub = ( -. )
  let mul = ( *. )
  let div a b = if b = 0. then raise Division_by_zero else a /. b
  let neg = Stdlib.( ~-. )
  let abs = Float.abs
  let compare = Float.compare
  let equal = Float.equal
  let sign x = if x > 0. then 1 else if x < 0. then -1 else 0
  let min = Float.min
  let max = Float.max
  let to_float x = x
  let to_string = string_of_float

  (* Hexadecimal floats round-trip exactly through float_of_string;
     decimal renderings (string_of_float's %.12g) do not. This is the
     primitive [Printf.sprintf "%h"] calls (precision -6: as many
     digits as needed; '-': sign only when negative), minus the format
     interpretation. *)
  external hexstring_of_float : float -> int -> char -> string = "caml_hexstring_of_float"

  let repr x = hexstring_of_float x (-6) '-'

  let of_repr s =
    let parsed =
      match float_of_string_opt s with
      | Some _ as x -> x
      | None -> (
        (* "p/q" ratio notation, for symmetry with the exact engine. *)
        match String.index_opt s '/' with
        | None -> None
        | Some i -> (
          let num = float_of_string_opt (String.sub s 0 i) in
          let den = float_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) in
          match (num, den) with
          | Some n, Some d when d <> 0. -> Some (n /. d)
          | _ -> None))
    in
    (* inf, nan and overflowing literals (1e400) are refused: one
       non-finite number poisons virtual time and every eta after it. *)
    match parsed with Some x when Float.is_finite x -> parsed | _ -> None
  let pp fmt x = Format.fprintf fmt "%g" x
  let leq_approx a b = a <= b +. epsilon
  let equal_approx a b = Float.abs (a -. b) <= epsilon

  (* Kept as the plain two-op sequence: OCaml never contracts to an
     FMA, so these are bit-identical to [sub (mul b c)] / [add (div b c)]. *)
  let sub_mul a b c = a -. (b *. c)
  let add_div a b c = if c = 0. then raise Division_by_zero else a +. (b /. c)
end
