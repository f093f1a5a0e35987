(** Ordered-field abstraction over which every scheduling algorithm of the
    library is written.

    The paper's algorithms (WDEQ, Water-Filling, Greedy, the Corollary-1
    linear program) only use field operations and comparisons, so they can
    be instantiated both with floating-point numbers (fast, approximate)
    and with exact rationals (slow, exact — the analogue of the paper's
    Sage verification). *)

(** Runtime type witness for a field's carrier. Matching a field's
    {!S.witness} against [Float] refines [t = float] in that branch,
    letting generic code dispatch into monomorphic float kernels
    (unboxed arithmetic over flat float arrays) while keeping every
    functor signature unchanged. All non-float fields answer [Any]. *)
type 'a witness = Float : float witness | Any : 'a witness

(** [is_finite (F.witness) x]: [x] is a finite number. Only the float
    carrier has infinities and NaNs; every other field here is exact,
    so the answer there is always [true]. *)
val is_finite : 'a witness -> 'a -> bool

(** Signature of an ordered field with conversions. *)
module type S = sig
  type t

  (** Type identity of [t], for dispatching to specialized kernels. *)
  val witness : t witness

  val zero : t
  val one : t

  val of_int : int -> t

  (** [of_q num den] is the field element [num/den]. [den] must be
      non-zero. *)
  val of_q : int -> int -> t

  val add : t -> t -> t
  val sub : t -> t -> t
  val mul : t -> t -> t

  (** [div a b] divides. Raises [Division_by_zero] when [b] is zero. *)
  val div : t -> t -> t

  val neg : t -> t
  val abs : t -> t

  (** Total order compatible with the field operations. *)
  val compare : t -> t -> int

  val equal : t -> t -> bool

  (** [sign x] is [-1], [0] or [1]. *)
  val sign : t -> int

  val min : t -> t -> t
  val max : t -> t -> t

  val to_float : t -> float
  val to_string : t -> string

  (** [repr x] is an exact, machine-readable rendering:
      [of_repr (repr x)] reconstructs [x] bit-for-bit. The float field
      renders hexadecimal floats ([%h]); exact fields reuse their
      canonical [to_string]. Used by serialization layers (the runtime
      journal) that must survive a round trip without drift. *)
  val repr : t -> string

  (** Parse a {!repr} output. Also accepts the field's human notations:
      ["p/q"] ratios on both engines, decimal literals where the field
      can represent them exactly ([1.5] is [3/2]). [None] on anything
      else, including non-finite floats ([inf], [nan], and literals
      such as [1e400] that overflow). *)
  val of_repr : string -> t option

  val pp : Format.formatter -> t -> unit

  (** [leq_approx a b] holds when [a <= b] up to the field's tolerance.
      Exact fields use the exact order; the float field allows an
      absolute slack of {!Float_field.epsilon}. Used only in validity
      checks, never in constructions. *)
  val leq_approx : t -> t -> bool

  (** [equal_approx a b] holds when [a = b] up to the field's
      tolerance. *)
  val equal_approx : t -> t -> bool

  (** [sub_mul a b c] is [a - b*c]. Semantically identical to the
      two-op composition — the float field must not contract to an FMA,
      so results are bit-for-bit those of [sub a (mul b c)] — but exact
      fields may canonicalize the fused expression once. The online
      engine's remaining-volume updates go through this. *)
  val sub_mul : t -> t -> t -> t

  (** [add_div a b c] is [a + b/c]; raises [Division_by_zero] when [c]
      is zero. Same contract as {!sub_mul}. The engine's completion
      estimates ([eta = now + remaining/share]) go through this. *)
  val add_div : t -> t -> t -> t
end

(** Derived infix operators and helpers for a field, for local [open]. *)
module Ops (F : S) : sig
  val ( + ) : F.t -> F.t -> F.t
  val ( - ) : F.t -> F.t -> F.t
  val ( * ) : F.t -> F.t -> F.t
  val ( / ) : F.t -> F.t -> F.t
  val ( ~- ) : F.t -> F.t
  val ( = ) : F.t -> F.t -> bool
  val ( < ) : F.t -> F.t -> bool
  val ( <= ) : F.t -> F.t -> bool
  val ( > ) : F.t -> F.t -> bool
  val ( >= ) : F.t -> F.t -> bool
  val ( <> ) : F.t -> F.t -> bool

  (** Sum of a list. *)
  val sum : F.t list -> F.t

  (** Sum of [f i] for [i] in [[0, n-1]]. *)
  val sum_up_to : int -> (int -> F.t) -> F.t

  (** Sum of an array. *)
  val sum_array : F.t array -> F.t
end

(** IEEE-754 double instantiation, with absolute tolerance
    {!Float_field.epsilon} in the approximate comparisons. *)
module Float_field : sig
  include S with type t = float

  (** Absolute tolerance used by [leq_approx] / [equal_approx]. *)
  val epsilon : float
end
