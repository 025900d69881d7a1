(** Operator compute definitions: layout- and schedule-independent
    descriptions of tensor operators, plus a naive reference interpreter
    used as the correctness oracle for every transformation.

    The oracle, {!reference_eval}, compiles an operator once per call and
    then evaluates it point by point.  It interprets the logical index
    expressions as written (no simplifier, no affine analysis), shares
    nothing with lowering, loop environments, layouts, programs, kernels
    or the profiler, and is bit-identical to the tree-walking interpreter
    kept in the test suite. *)

module Shape = Alt_tensor.Shape
module Var = Alt_tensor.Var
module Ixexpr = Alt_tensor.Ixexpr

type combiner = Sum | Max | Assign

(** Sliding-window geometry of one spatial dimension of a convolution-like
    operator (metadata consumed by the layout-template builder). *)
type conv_spatial = {
  out_dim : int; (** output tensor dimension *)
  inp_dim : int; (** input tensor dimension *)
  kernel : int;
  stride : int;
  dilation : int;
}

(** Operator classification used to choose a layout tuning template. *)
type kind =
  | Simple
  | Conv of {
      inp : string;
      ker : string;
      out_channel_dim : int;
      inp_channel_dim : int;
      ker_out_dim : int;
      ker_in_dim : int option; (** [None] for depthwise weights *)
      spatials : conv_spatial list;
    }
  | Matmul of { a : string; b : string; batched : bool }

type t = {
  name : string;
  inputs : (string * Shape.t) list;
  out_name : string;
  out_shape : Shape.t;
  spatial : Var.t array; (** one iterator per logical output dim *)
  reduce : (Var.t * int) list; (** reduction iterators with extents *)
  combiner : combiner;
  init : float; (** reduction identity *)
  body : Sexpr.t;
  window : (Var.t * int) list;
      (** spatial iterators in sliding-window accesses, with stride V *)
  complex : bool;
      (** "complex operator" in the paper's sense: gets a layout space *)
  kind : kind;
}

val make :
  name:string ->
  inputs:(string * Shape.t) list ->
  out_name:string ->
  out_shape:Shape.t ->
  spatial:Var.t array ->
  reduce:(Var.t * int) list ->
  combiner:combiner ->
  init:float ->
  body:Sexpr.t ->
  ?window:(Var.t * int) list ->
  ?complex:bool ->
  ?kind:kind ->
  unit -> t
(** Validated constructor (iterator counts, known body tensors). *)

val input_shape : t -> string -> Shape.t

val window_fn : t -> Alt_tensor.Layout.window

val flops : t -> int
(** Total arithmetic work (for accounting). *)

val reference_eval : t -> (string * float array) list -> float array
(** Naive interpretation over logical row-major buffers: every output
    point in row-major order, its reduction points lexicographically from
    [init].  Raises [Invalid_argument] on a missing or wrong-size input
    and on any out-of-range read, checked per index at every point. *)
