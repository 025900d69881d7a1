(** Small multi-layer perceptron with tanh hidden activations, explicit
    backpropagation and Adam.  Gradients are checked against finite
    differences in the test suite. *)

type layer = {
  w : float array array; (** out x in *)
  b : float array;
  gw : float array array; (** gradient accumulators *)
  gb : float array;
  mw : float array array; (** Adam moments *)
  vw : float array array;
  mb : float array;
  vb : float array;
}

type t = { sizes : int array; layers : layer array; mutable step : int }

type cache

val create : ?seed:int -> int array -> t
(** [create [|n_in; hidden...; n_out|]] with Xavier-style init. *)

val forward : t -> float array -> float array
val forward_cache : t -> float array -> float array * cache

val backward : t -> cache -> dout:float array -> float array
(** Accumulate gradients for dL/d(output) = [dout]; returns dL/d(input). *)

val zero_grads : t -> unit

val adam_step :
  ?lr:float -> ?beta1:float -> ?beta2:float -> ?eps:float -> t -> unit
