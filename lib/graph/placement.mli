(** store_at / decouple_at: inter-tensor placement (Section 4.1.2).

    [store_at] fuses a guest tensor into a host buffer — the paper's
    example attaches a bias vector to the columns of a weight matrix so
    the inner product and the bias addition share cache lines.  The host's
    dim [dim] grows by one; the guest occupies the extra hyperplane, and
    the combined tensor takes ordinary layout primitives. *)

module Shape = Alt_tensor.Shape
module Opdef = Alt_ir.Opdef

type t = {
  host : string;
  guest : string;
  dim : int; (** host dimension that grows by one *)
  combined : string; (** name of the fused tensor *)
}

val apply : host_shape:Shape.t -> Opdef.t -> t -> Opdef.t
(** Rewrite an operator to read the combined tensor wherever it reads the
    host or the guest (an operator may read only one of them, e.g. the
    bias-add consumer reads only the guest).  Raises if the guest shape is
    not the host shape minus [dim]. *)

val pack_combined :
  host_shape:Shape.t -> t -> host:float array -> guest:float array ->
  float array
(** Build the combined tensor's logical data. *)

val unpack_combined :
  host_shape:Shape.t -> t -> float array -> float array * float array
(** The inverse (decouple_at): recover [(host, guest)]. *)
