(** Operator library: constructors for every operator used in the
    evaluation.

    Complex operators (the nine of Fig. 9) are marked [complex] and carry
    the {!Alt_ir.Opdef.kind} metadata the layout templates need.  Logical
    dimension conventions: convolutions are
    [output [N;O;spatial...]], [input [N;I;spatial_in...]],
    [weight [O;I;kernel...]]; GMM is [C [M;N] = A [M;K] x B [K;N]].
    Convolution constructors take {e output} spatial sizes; [in_*]
    overrides allow an oversized input (e.g. subsampling 1x1 stride-2
    convolutions). *)

module Shape = Alt_tensor.Shape
module Opdef = Alt_ir.Opdef

(** {1 Complex operators} *)

val c2d :
  name:string -> inp:string -> ker:string -> out:string -> n:int -> i:int ->
  o:int -> h:int -> w:int -> kh:int -> kw:int -> ?stride:int ->
  ?dilation:int -> ?in_h:int -> ?in_w:int -> unit -> Opdef.t

val dil :
  name:string -> inp:string -> ker:string -> out:string -> n:int -> i:int ->
  o:int -> h:int -> w:int -> kh:int -> kw:int -> ?stride:int ->
  ?dilation:int -> ?in_h:int -> ?in_w:int -> unit -> Opdef.t
(** Dilated convolution (defaults to dilation 2). *)

val grp :
  name:string -> inp:string -> ker:string -> out:string -> n:int -> i:int ->
  o:int -> h:int -> w:int -> kh:int -> kw:int -> groups:int -> ?stride:int ->
  unit -> Opdef.t

val dep :
  name:string -> inp:string -> ker:string -> out:string -> n:int -> c:int ->
  h:int -> w:int -> kh:int -> kw:int -> ?stride:int -> ?in_h:int ->
  ?in_w:int -> unit -> Opdef.t
(** Depthwise convolution (weight [C;KH;KW]). *)

val t2d :
  name:string -> inp:string -> ker:string -> out:string -> n:int -> i:int ->
  o:int -> h:int -> w:int -> kh:int -> kw:int -> unit -> Opdef.t
(** Transposed convolution, stride 1 (flipped-kernel correlation over an
    input padded by k-1; weight [I;O;KH;KW]). *)

val c1d :
  name:string -> inp:string -> ker:string -> out:string -> n:int -> i:int ->
  o:int -> w:int -> kw:int -> ?stride:int -> unit -> Opdef.t

val c3d :
  name:string -> inp:string -> ker:string -> out:string -> n:int -> i:int ->
  o:int -> d:int -> h:int -> w:int -> kd:int -> kh:int -> kw:int ->
  ?stride:int -> ?in_d:int -> ?in_h:int -> ?in_w:int -> unit -> Opdef.t

val t3d :
  name:string -> inp:string -> ker:string -> out:string -> n:int -> i:int ->
  o:int -> d:int -> h:int -> w:int -> kd:int -> kh:int -> kw:int -> unit ->
  Opdef.t

val gmm :
  name:string -> a:string -> b:string -> out:string -> m:int -> k:int ->
  n:int -> unit -> Opdef.t

val bmm :
  name:string -> a:string -> b:string -> out:string -> batch:int -> m:int ->
  k:int -> n:int -> unit -> Opdef.t

(** {1 Elementwise operators} *)

val relu : name:string -> inp:string -> out:string -> shape:Shape.t -> unit -> Opdef.t
val gelu : name:string -> inp:string -> out:string -> shape:Shape.t -> unit -> Opdef.t

val add :
  name:string -> a:string -> b:string -> out:string -> shape:Shape.t ->
  unit -> Opdef.t

val bias_add :
  name:string -> inp:string -> bias:string -> out:string -> shape:Shape.t ->
  dim:int -> unit -> Opdef.t

val scale :
  name:string -> inp:string -> out:string -> shape:Shape.t -> factor:float ->
  unit -> Opdef.t

(** {1 Padding} *)

val pad2d :
  name:string -> inp:string -> out:string -> n:int -> c:int -> h:int ->
  w:int -> pad:int -> ?pad_hi:int -> unit -> Opdef.t
(** Zero padding of the trailing spatial dims; [pad_hi] defaults to [pad]
    (asymmetric padding serves stride-2 convolutions). *)

val pad3d :
  name:string -> inp:string -> out:string -> n:int -> c:int -> d:int ->
  h:int -> w:int -> pad:int -> ?pad_hi:int -> unit -> Opdef.t

(** {1 Pooling and reductions} *)

val maxpool2d :
  name:string -> inp:string -> out:string -> n:int -> c:int -> h:int ->
  w:int -> k:int -> ?stride:int -> unit -> Opdef.t

val global_avgpool :
  name:string -> inp:string -> out:string -> n:int -> c:int -> h:int ->
  w:int -> unit -> Opdef.t

val global_avgpool3d :
  name:string -> inp:string -> out:string -> n:int -> c:int -> d:int ->
  h:int -> w:int -> unit -> Opdef.t

val rowmax :
  name:string -> inp:string -> out:string -> lead:Shape.t -> n:int -> unit ->
  Opdef.t
(** Reduce the last dim; [lead] are the leading dims kept. *)

val rowsum :
  name:string -> inp:string -> out:string -> lead:Shape.t -> n:int ->
  ?scale:float -> unit -> Opdef.t

val rowvar :
  name:string -> inp:string -> mean:string -> out:string -> lead:Shape.t ->
  n:int -> unit -> Opdef.t

(** {1 Softmax / normalization pieces} *)

val exp_sub :
  name:string -> inp:string -> row:string -> out:string -> lead:Shape.t ->
  n:int -> unit -> Opdef.t

val div_rows :
  name:string -> inp:string -> row:string -> out:string -> lead:Shape.t ->
  n:int -> unit -> Opdef.t

val normalize_rows :
  name:string -> inp:string -> mean:string -> var:string -> out:string ->
  lead:Shape.t -> n:int -> ?eps:float -> unit -> Opdef.t

(** {1 Attention head plumbing} *)

val split_heads :
  name:string -> inp:string -> out:string -> s:int -> h:int -> heads:int ->
  unit -> Opdef.t
(** [S;H] -> [A;S;H/A]. *)

val split_heads_t :
  name:string -> inp:string -> out:string -> s:int -> h:int -> heads:int ->
  unit -> Opdef.t
(** [S;H] -> [A;H/A;S] (transposed keys). *)

val merge_heads :
  name:string -> inp:string -> out:string -> s:int -> h:int -> heads:int ->
  unit -> Opdef.t
(** [A;S;H/A] -> [S;H]. *)
