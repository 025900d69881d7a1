(* Operator library: constructors for every operator the evaluation uses.

   Complex operators (Section 5.1) — the nine of Fig. 9: C2D, GRP
   (group-wise), DEP (depth-wise), DIL (dilated), C3D, C1D, GMM (+ batched
   GMM), T2D, T3D — are marked [complex = true]; their tensors receive
   layout tuning spaces.  Everything else (padding, bias, activations,
   pooling, normalization pieces) is "simple" and participates through
   layout propagation only.

   Logical dimension conventions (layouts reorder the *storage*, not these):
     convolutions:  output [N; O; H; W (; D before H for 3-D)]
                    input  [N; I; H_in; W_in]
                    weight [O; I; KH; KW]
     GMM:           C [M; N],  A [M; K],  B [K; N]
   Convolution operators take *output* spatial sizes; the input must have
   the matching [stride*(s-1) + dilation*(k-1) + 1] extent (explicit [pad2d]
   operators produce it, so operator bodies stay guard-free). *)

module Shape = Alt_tensor.Shape
module Var = Alt_tensor.Var
module Ixexpr = Alt_tensor.Ixexpr
module Opdef = Alt_ir.Opdef
module Sexpr = Alt_ir.Sexpr

let fv = Var.fresh
let ( %* ) c v = Ixexpr.mul (Ixexpr.const c) (Ixexpr.var v)
let ( %+ ) = Ixexpr.add
let iv = Ixexpr.var
let ic = Ixexpr.const

let conv_in_extent ~out ~kernel ~stride ~dilation =
  (stride * (out - 1)) + (dilation * (kernel - 1)) + 1

(* ------------------------------------------------------------------ *)
(* 2-D convolution family                                             *)
(* ------------------------------------------------------------------ *)

let c2d ~name ~inp ~ker ~out ~n ~i ~o ~h ~w ~kh ~kw ?(stride = 1)
    ?(dilation = 1) ?in_h ?in_w () =
  (* [in_h]/[in_w] may exceed the minimal extent (e.g. 1x1 stride-2 convs
     subsample their input); accesses never exceed the minimal extent. *)
  let need_h = conv_in_extent ~out:h ~kernel:kh ~stride ~dilation in
  let need_w = conv_in_extent ~out:w ~kernel:kw ~stride ~dilation in
  let hi = Option.value in_h ~default:need_h in
  let wi = Option.value in_w ~default:need_w in
  if hi < need_h || wi < need_w then invalid_arg "Ops.c2d: input too small";
  let vn = fv "n" and vo = fv "o" and vh = fv "h" and vw = fv "w" in
  let ri = fv "ri" and rh = fv "rh" and rw = fv "rw" in
  let body =
    Sexpr.(
      load inp
        [|
          iv vn; iv ri; (stride %* vh) %+ (dilation %* rh);
          (stride %* vw) %+ (dilation %* rw);
        |]
      *. load ker [| iv vo; iv ri; iv rh; iv rw |])
  in
  Opdef.make ~name
    ~inputs:[ (inp, [| n; i; hi; wi |]); (ker, [| o; i; kh; kw |]) ]
    ~out_name:out ~out_shape:[| n; o; h; w |]
    ~spatial:[| vn; vo; vh; vw |]
    ~reduce:[ (ri, i); (rh, kh); (rw, kw) ]
    ~combiner:Opdef.Sum ~init:0.0 ~body
    ~window:[ (vh, stride); (vw, stride) ]
    ~complex:true
    ~kind:
      (Opdef.Conv
         {
           inp;
           ker;
           out_channel_dim = 1;
           inp_channel_dim = 1;
           ker_out_dim = 0;
           ker_in_dim = Some 1;
           spatials =
             [
               { Opdef.out_dim = 2; inp_dim = 2; kernel = kh; stride; dilation };
               { Opdef.out_dim = 3; inp_dim = 3; kernel = kw; stride; dilation };
             ];
         })
    ()

let dil ~name ~inp ~ker ~out ~n ~i ~o ~h ~w ~kh ~kw ?(stride = 1)
    ?(dilation = 2) ?in_h ?in_w () =
  c2d ~name ~inp ~ker ~out ~n ~i ~o ~h ~w ~kh ~kw ~stride ~dilation ?in_h
    ?in_w ()

let grp ~name ~inp ~ker ~out ~n ~i ~o ~h ~w ~kh ~kw ~groups ?(stride = 1) () =
  if i mod groups <> 0 || o mod groups <> 0 then
    invalid_arg "Ops.grp: channels not divisible by groups";
  let ig = i / groups and og = o / groups in
  let hi = conv_in_extent ~out:h ~kernel:kh ~stride ~dilation:1 in
  let wi = conv_in_extent ~out:w ~kernel:kw ~stride ~dilation:1 in
  let vn = fv "n" and vo = fv "o" and vh = fv "h" and vw = fv "w" in
  let ri = fv "ri" and rh = fv "rh" and rw = fv "rw" in
  (* group of output channel o is o / og; its input channels start at
     (o / og) * ig *)
  let in_chan = Ixexpr.add (Ixexpr.mul (Ixexpr.div (iv vo) (ic og)) (ic ig)) (iv ri) in
  let body =
    Sexpr.(
      load inp
        [| iv vn; in_chan; (stride %* vh) %+ iv rh; (stride %* vw) %+ iv rw |]
      *. load ker [| iv vo; iv ri; iv rh; iv rw |])
  in
  Opdef.make ~name
    ~inputs:[ (inp, [| n; i; hi; wi |]); (ker, [| o; ig; kh; kw |]) ]
    ~out_name:out ~out_shape:[| n; o; h; w |]
    ~spatial:[| vn; vo; vh; vw |]
    ~reduce:[ (ri, ig); (rh, kh); (rw, kw) ]
    ~combiner:Opdef.Sum ~init:0.0 ~body
    ~window:[ (vh, stride); (vw, stride) ]
    ~complex:true
    ~kind:
      (Opdef.Conv
         {
           inp;
           ker;
           out_channel_dim = 1;
           inp_channel_dim = 1;
           ker_out_dim = 0;
           ker_in_dim = Some 1;
           spatials =
             [
               { Opdef.out_dim = 2; inp_dim = 2; kernel = kh; stride; dilation = 1 };
               { Opdef.out_dim = 3; inp_dim = 3; kernel = kw; stride; dilation = 1 };
             ];
         })
    ()

let dep ~name ~inp ~ker ~out ~n ~c ~h ~w ~kh ~kw ?(stride = 1) ?in_h ?in_w () =
  let need_h = conv_in_extent ~out:h ~kernel:kh ~stride ~dilation:1 in
  let need_w = conv_in_extent ~out:w ~kernel:kw ~stride ~dilation:1 in
  let hi = Option.value in_h ~default:need_h in
  let wi = Option.value in_w ~default:need_w in
  if hi < need_h || wi < need_w then invalid_arg "Ops.dep: input too small";
  let vn = fv "n" and vc = fv "c" and vh = fv "h" and vw = fv "w" in
  let rh = fv "rh" and rw = fv "rw" in
  let body =
    Sexpr.(
      load inp
        [| iv vn; iv vc; (stride %* vh) %+ iv rh; (stride %* vw) %+ iv rw |]
      *. load ker [| iv vc; iv rh; iv rw |])
  in
  Opdef.make ~name
    ~inputs:[ (inp, [| n; c; hi; wi |]); (ker, [| c; kh; kw |]) ]
    ~out_name:out ~out_shape:[| n; c; h; w |]
    ~spatial:[| vn; vc; vh; vw |]
    ~reduce:[ (rh, kh); (rw, kw) ]
    ~combiner:Opdef.Sum ~init:0.0 ~body
    ~window:[ (vh, stride); (vw, stride) ]
    ~complex:true
    ~kind:
      (Opdef.Conv
         {
           inp;
           ker;
           out_channel_dim = 1;
           inp_channel_dim = 1;
           ker_out_dim = 0;
           ker_in_dim = None;
           spatials =
             [
               { Opdef.out_dim = 2; inp_dim = 2; kernel = kh; stride; dilation = 1 };
               { Opdef.out_dim = 3; inp_dim = 3; kernel = kw; stride; dilation = 1 };
             ];
         })
    ()

(* Transposed 2-D convolution, stride 1: correlation with a flipped kernel
   over an input padded by (k-1) on each side (the caller pads).  Weight is
   stored [I; O; KH; KW] as in deconvolution layers. *)
let t2d ~name ~inp ~ker ~out ~n ~i ~o ~h ~w ~kh ~kw () =
  let hi = h + kh - 1 and wi = w + kw - 1 in
  let vn = fv "n" and vo = fv "o" and vh = fv "h" and vw = fv "w" in
  let ri = fv "ri" and rh = fv "rh" and rw = fv "rw" in
  let body =
    Sexpr.(
      load inp [| iv vn; iv ri; iv vh %+ iv rh; iv vw %+ iv rw |]
      *. load ker
           [|
             iv ri; iv vo;
             Ixexpr.sub (ic (kh - 1)) (iv rh);
             Ixexpr.sub (ic (kw - 1)) (iv rw);
           |])
  in
  Opdef.make ~name
    ~inputs:[ (inp, [| n; i; hi; wi |]); (ker, [| i; o; kh; kw |]) ]
    ~out_name:out ~out_shape:[| n; o; h; w |]
    ~spatial:[| vn; vo; vh; vw |]
    ~reduce:[ (ri, i); (rh, kh); (rw, kw) ]
    ~combiner:Opdef.Sum ~init:0.0 ~body
    ~window:[ (vh, 1); (vw, 1) ]
    ~complex:true
    ~kind:
      (Opdef.Conv
         {
           inp;
           ker;
           out_channel_dim = 1;
           inp_channel_dim = 1;
           ker_out_dim = 1;
           ker_in_dim = Some 0;
           spatials =
             [
               { Opdef.out_dim = 2; inp_dim = 2; kernel = kh; stride = 1; dilation = 1 };
               { Opdef.out_dim = 3; inp_dim = 3; kernel = kw; stride = 1; dilation = 1 };
             ];
         })
    ()

(* ------------------------------------------------------------------ *)
(* 1-D / 3-D convolutions                                             *)
(* ------------------------------------------------------------------ *)

let c1d ~name ~inp ~ker ~out ~n ~i ~o ~w ~kw ?(stride = 1) () =
  let wi = conv_in_extent ~out:w ~kernel:kw ~stride ~dilation:1 in
  let vn = fv "n" and vo = fv "o" and vw = fv "w" in
  let ri = fv "ri" and rw = fv "rw" in
  let body =
    Sexpr.(
      load inp [| iv vn; iv ri; (stride %* vw) %+ iv rw |]
      *. load ker [| iv vo; iv ri; iv rw |])
  in
  Opdef.make ~name
    ~inputs:[ (inp, [| n; i; wi |]); (ker, [| o; i; kw |]) ]
    ~out_name:out ~out_shape:[| n; o; w |]
    ~spatial:[| vn; vo; vw |]
    ~reduce:[ (ri, i); (rw, kw) ]
    ~combiner:Opdef.Sum ~init:0.0 ~body
    ~window:[ (vw, stride) ]
    ~complex:true
    ~kind:
      (Opdef.Conv
         {
           inp;
           ker;
           out_channel_dim = 1;
           inp_channel_dim = 1;
           ker_out_dim = 0;
           ker_in_dim = Some 1;
           spatials =
             [ { Opdef.out_dim = 2; inp_dim = 2; kernel = kw; stride; dilation = 1 } ];
         })
    ()

let c3d ~name ~inp ~ker ~out ~n ~i ~o ~d ~h ~w ~kd ~kh ~kw ?(stride = 1)
    ?in_d ?in_h ?in_w () =
  let need_d = conv_in_extent ~out:d ~kernel:kd ~stride ~dilation:1 in
  let need_h = conv_in_extent ~out:h ~kernel:kh ~stride ~dilation:1 in
  let need_w = conv_in_extent ~out:w ~kernel:kw ~stride ~dilation:1 in
  let di = Option.value in_d ~default:need_d in
  let hi = Option.value in_h ~default:need_h in
  let wi = Option.value in_w ~default:need_w in
  if di < need_d || hi < need_h || wi < need_w then
    invalid_arg "Ops.c3d: input too small";
  let vn = fv "n" and vo = fv "o" and vd = fv "d" and vh = fv "h"
  and vw = fv "w" in
  let ri = fv "ri" and rd = fv "rd" and rh = fv "rh" and rw = fv "rw" in
  let body =
    Sexpr.(
      load inp
        [|
          iv vn; iv ri; (stride %* vd) %+ iv rd; (stride %* vh) %+ iv rh;
          (stride %* vw) %+ iv rw;
        |]
      *. load ker [| iv vo; iv ri; iv rd; iv rh; iv rw |])
  in
  Opdef.make ~name
    ~inputs:[ (inp, [| n; i; di; hi; wi |]); (ker, [| o; i; kd; kh; kw |]) ]
    ~out_name:out ~out_shape:[| n; o; d; h; w |]
    ~spatial:[| vn; vo; vd; vh; vw |]
    ~reduce:[ (ri, i); (rd, kd); (rh, kh); (rw, kw) ]
    ~combiner:Opdef.Sum ~init:0.0 ~body
    ~window:[ (vd, stride); (vh, stride); (vw, stride) ]
    ~complex:true
    ~kind:
      (Opdef.Conv
         {
           inp;
           ker;
           out_channel_dim = 1;
           inp_channel_dim = 1;
           ker_out_dim = 0;
           ker_in_dim = Some 1;
           spatials =
             [
               { Opdef.out_dim = 2; inp_dim = 2; kernel = kd; stride; dilation = 1 };
               { Opdef.out_dim = 3; inp_dim = 3; kernel = kh; stride; dilation = 1 };
               { Opdef.out_dim = 4; inp_dim = 4; kernel = kw; stride; dilation = 1 };
             ];
         })
    ()

(* Transposed 3-D convolution, stride 1 (see t2d). *)
let t3d ~name ~inp ~ker ~out ~n ~i ~o ~d ~h ~w ~kd ~kh ~kw () =
  let di = d + kd - 1 and hi = h + kh - 1 and wi = w + kw - 1 in
  let vn = fv "n" and vo = fv "o" and vd = fv "d" and vh = fv "h"
  and vw = fv "w" in
  let ri = fv "ri" and rd = fv "rd" and rh = fv "rh" and rw = fv "rw" in
  let body =
    Sexpr.(
      load inp
        [| iv vn; iv ri; iv vd %+ iv rd; iv vh %+ iv rh; iv vw %+ iv rw |]
      *. load ker
           [|
             iv ri; iv vo;
             Ixexpr.sub (ic (kd - 1)) (iv rd);
             Ixexpr.sub (ic (kh - 1)) (iv rh);
             Ixexpr.sub (ic (kw - 1)) (iv rw);
           |])
  in
  Opdef.make ~name
    ~inputs:[ (inp, [| n; i; di; hi; wi |]); (ker, [| i; o; kd; kh; kw |]) ]
    ~out_name:out ~out_shape:[| n; o; d; h; w |]
    ~spatial:[| vn; vo; vd; vh; vw |]
    ~reduce:[ (ri, i); (rd, kd); (rh, kh); (rw, kw) ]
    ~combiner:Opdef.Sum ~init:0.0 ~body
    ~window:[ (vd, 1); (vh, 1); (vw, 1) ]
    ~complex:true
    ~kind:
      (Opdef.Conv
         {
           inp;
           ker;
           out_channel_dim = 1;
           inp_channel_dim = 1;
           ker_out_dim = 1;
           ker_in_dim = Some 0;
           spatials =
             [
               { Opdef.out_dim = 2; inp_dim = 2; kernel = kd; stride = 1; dilation = 1 };
               { Opdef.out_dim = 3; inp_dim = 3; kernel = kh; stride = 1; dilation = 1 };
               { Opdef.out_dim = 4; inp_dim = 4; kernel = kw; stride = 1; dilation = 1 };
             ];
         })
    ()

(* ------------------------------------------------------------------ *)
(* Matrix multiplication                                              *)
(* ------------------------------------------------------------------ *)

let gmm ~name ~a ~b ~out ~m ~k ~n () =
  let vm = fv "m" and vn = fv "n" in
  let rk = fv "k" in
  let body = Sexpr.(load a [| iv vm; iv rk |] *. load b [| iv rk; iv vn |]) in
  Opdef.make ~name
    ~inputs:[ (a, [| m; k |]); (b, [| k; n |]) ]
    ~out_name:out ~out_shape:[| m; n |] ~spatial:[| vm; vn |]
    ~reduce:[ (rk, k) ]
    ~combiner:Opdef.Sum ~init:0.0 ~body ~complex:true
    ~kind:(Opdef.Matmul { a; b; batched = false })
    ()

let bmm ~name ~a ~b ~out ~batch ~m ~k ~n () =
  let vb = fv "b" and vm = fv "m" and vn = fv "n" in
  let rk = fv "k" in
  let body =
    Sexpr.(load a [| iv vb; iv vm; iv rk |] *. load b [| iv vb; iv rk; iv vn |])
  in
  Opdef.make ~name
    ~inputs:[ (a, [| batch; m; k |]); (b, [| batch; k; n |]) ]
    ~out_name:out ~out_shape:[| batch; m; n |] ~spatial:[| vb; vm; vn |]
    ~reduce:[ (rk, k) ]
    ~combiner:Opdef.Sum ~init:0.0 ~body ~complex:true
    ~kind:(Opdef.Matmul { a; b; batched = true })
    ()

(* ------------------------------------------------------------------ *)
(* Simple (non-complex) operators                                     *)
(* ------------------------------------------------------------------ *)

(* Generic unary elementwise operator over any logical shape. *)
let unary ~name ~inp ~out ~shape op =
  let vars = Array.map (fun _ -> fv "i") shape in
  let idx = Array.map iv vars in
  Opdef.make ~name
    ~inputs:[ (inp, shape) ]
    ~out_name:out ~out_shape:shape ~spatial:vars ~reduce:[]
    ~combiner:Opdef.Assign ~init:0.0
    ~body:(Sexpr.Un (op, Sexpr.load inp idx))
    ()

let relu ~name ~inp ~out ~shape () = unary ~name ~inp ~out ~shape Sexpr.Urelu

let gelu ~name ~inp ~out ~shape () =
  (* tanh approximation: 0.5 x (1 + tanh(0.7978845608 (x + 0.044715 x^3))) *)
  let vars = Array.map (fun _ -> fv "i") shape in
  let idx = Array.map iv vars in
  let x = Sexpr.load inp idx in
  let body =
    Sexpr.(
      fconst 0.5 *. x
      *. (fconst 1.0
         +. Un
              ( Utanh,
                fconst 0.7978845608
                *. (x +. (fconst 0.044715 *. x *. x *. x)) )))
  in
  Opdef.make ~name
    ~inputs:[ (inp, shape) ]
    ~out_name:out ~out_shape:shape ~spatial:vars ~reduce:[]
    ~combiner:Opdef.Assign ~init:0.0 ~body ()

let binary ~name ~a ~b ~out ~shape op =
  let vars = Array.map (fun _ -> fv "i") shape in
  let idx = Array.map iv vars in
  Opdef.make ~name
    ~inputs:[ (a, shape); (b, shape) ]
    ~out_name:out ~out_shape:shape ~spatial:vars ~reduce:[]
    ~combiner:Opdef.Assign ~init:0.0
    ~body:(Sexpr.Bin (op, Sexpr.load a idx, Sexpr.load b idx))
    ()

let add ~name ~a ~b ~out ~shape () = binary ~name ~a ~b ~out ~shape Sexpr.Badd

(* Bias add along dimension [dim] of [shape] (e.g. the channel dim). *)
let bias_add ~name ~inp ~bias ~out ~shape ~dim () =
  let vars = Array.map (fun _ -> fv "i") shape in
  let idx = Array.map iv vars in
  Opdef.make ~name
    ~inputs:[ (inp, shape); (bias, [| shape.(dim) |]) ]
    ~out_name:out ~out_shape:shape ~spatial:vars ~reduce:[]
    ~combiner:Opdef.Assign ~init:0.0
    ~body:Sexpr.(load inp idx +. load bias [| iv vars.(dim) |])
    ()

(* Explicit zero padding of the two trailing spatial dims of [N;C;H;W]
   (or the three trailing dims of 5-D video tensors via [pad3d]). *)
let pad2d ~name ~inp ~out ~n ~c ~h ~w ~pad ?pad_hi () =
  let lo = pad and hi_p = Option.value pad_hi ~default:pad in
  let vn = fv "n" and vc = fv "c" and vh = fv "h" and vw = fv "w" in
  let hh = h + lo + hi_p and ww = w + lo + hi_p in
  let inb e extent =
    Sexpr.And
      ( Sexpr.Cmp (Sexpr.Cge, e, ic 0),
        Sexpr.Cmp (Sexpr.Clt, e, ic extent) )
  in
  let eh = Ixexpr.sub (iv vh) (ic lo) and ew = Ixexpr.sub (iv vw) (ic lo) in
  let body =
    Sexpr.select
      (Sexpr.And (inb eh h, inb ew w))
      (Sexpr.load inp [| iv vn; iv vc; eh; ew |])
      (Sexpr.fconst 0.0)
  in
  Opdef.make ~name
    ~inputs:[ (inp, [| n; c; h; w |]) ]
    ~out_name:out ~out_shape:[| n; c; hh; ww |]
    ~spatial:[| vn; vc; vh; vw |]
    ~reduce:[] ~combiner:Opdef.Assign ~init:0.0 ~body ()

let pad3d ~name ~inp ~out ~n ~c ~d ~h ~w ~pad ?pad_hi () =
  let lo = pad and hi_p = Option.value pad_hi ~default:pad in
  let vn = fv "n" and vc = fv "c" and vd = fv "d" and vh = fv "h"
  and vw = fv "w" in
  let dd = d + lo + hi_p and hh = h + lo + hi_p and ww = w + lo + hi_p in
  let inb e extent =
    Sexpr.And
      (Sexpr.Cmp (Sexpr.Cge, e, ic 0), Sexpr.Cmp (Sexpr.Clt, e, ic extent))
  in
  let ed = Ixexpr.sub (iv vd) (ic lo)
  and eh = Ixexpr.sub (iv vh) (ic lo)
  and ew = Ixexpr.sub (iv vw) (ic lo) in
  let body =
    Sexpr.select
      (Sexpr.And (inb ed d, Sexpr.And (inb eh h, inb ew w)))
      (Sexpr.load inp [| iv vn; iv vc; ed; eh; ew |])
      (Sexpr.fconst 0.0)
  in
  Opdef.make ~name
    ~inputs:[ (inp, [| n; c; d; h; w |]) ]
    ~out_name:out ~out_shape:[| n; c; dd; hh; ww |]
    ~spatial:[| vn; vc; vd; vh; vw |]
    ~reduce:[] ~combiner:Opdef.Assign ~init:0.0 ~body ()

let maxpool2d ~name ~inp ~out ~n ~c ~h ~w ~k ?(stride = 2) () =
  let hi = conv_in_extent ~out:h ~kernel:k ~stride ~dilation:1 in
  let wi = conv_in_extent ~out:w ~kernel:k ~stride ~dilation:1 in
  let vn = fv "n" and vc = fv "c" and vh = fv "h" and vw = fv "w" in
  let rh = fv "rh" and rw = fv "rw" in
  let body =
    Sexpr.load inp
      [| iv vn; iv vc; (stride %* vh) %+ iv rh; (stride %* vw) %+ iv rw |]
  in
  Opdef.make ~name
    ~inputs:[ (inp, [| n; c; hi; wi |]) ]
    ~out_name:out ~out_shape:[| n; c; h; w |]
    ~spatial:[| vn; vc; vh; vw |]
    ~reduce:[ (rh, k); (rw, k) ]
    ~combiner:Opdef.Max ~init:Float.neg_infinity ~body
    ~window:[ (vh, stride); (vw, stride) ]
    ()

(* Global average pooling [N;C;H;W] -> [N;C]. *)
let global_avgpool ~name ~inp ~out ~n ~c ~h ~w () =
  let vn = fv "n" and vc = fv "c" in
  let rh = fv "rh" and rw = fv "rw" in
  let inv_hw = 1.0 /. float_of_int (h * w) in
  let body =
    Sexpr.(load inp [| iv vn; iv vc; iv rh; iv rw |] *. fconst inv_hw)
  in
  Opdef.make ~name
    ~inputs:[ (inp, [| n; c; h; w |]) ]
    ~out_name:out ~out_shape:[| n; c |] ~spatial:[| vn; vc |]
    ~reduce:[ (rh, h); (rw, w) ]
    ~combiner:Opdef.Sum ~init:0.0 ~body ()

(* Row-wise reductions over the last dim of a tensor with leading dims
   [lead] (e.g. [|m|] for matrices, [|heads; s|] for attention scores). *)
let rowmax ~name ~inp ~out ~lead ~n () =
  let vs = Array.map (fun _ -> fv "i") lead in
  let rn = fv "rn" in
  Opdef.make ~name
    ~inputs:[ (inp, Array.append lead [| n |]) ]
    ~out_name:out ~out_shape:lead ~spatial:vs
    ~reduce:[ (rn, n) ]
    ~combiner:Opdef.Max ~init:Float.neg_infinity
    ~body:(Sexpr.load inp (Array.append (Array.map iv vs) [| iv rn |]))
    ()

let rowsum ~name ~inp ~out ~lead ~n ?(scale = 1.0) () =
  let vs = Array.map (fun _ -> fv "i") lead in
  let rn = fv "rn" in
  Opdef.make ~name
    ~inputs:[ (inp, Array.append lead [| n |]) ]
    ~out_name:out ~out_shape:lead ~spatial:vs
    ~reduce:[ (rn, n) ]
    ~combiner:Opdef.Sum ~init:0.0
    ~body:
      Sexpr.(
        load inp (Array.append (Array.map iv vs) [| iv rn |]) *. fconst scale)
    ()

(* out[..,n] = exp(X[..,n] - R[..]) -- the shifted exponent of softmax. *)
let exp_sub ~name ~inp ~row ~out ~lead ~n () =
  let vs = Array.map (fun _ -> fv "i") lead in
  let vn = fv "n" in
  let full = Array.append (Array.map iv vs) [| iv vn |] in
  Opdef.make ~name
    ~inputs:[ (inp, Array.append lead [| n |]); (row, lead) ]
    ~out_name:out
    ~out_shape:(Array.append lead [| n |])
    ~spatial:(Array.append vs [| vn |])
    ~reduce:[] ~combiner:Opdef.Assign ~init:0.0
    ~body:Sexpr.(Un (Uexp, load inp full -. load row (Array.map iv vs)))
    ()

(* out[..,n] = X[..,n] * recip(R[..]) -- softmax normalization. *)
let div_rows ~name ~inp ~row ~out ~lead ~n () =
  let vs = Array.map (fun _ -> fv "i") lead in
  let vn = fv "n" in
  let full = Array.append (Array.map iv vs) [| iv vn |] in
  Opdef.make ~name
    ~inputs:[ (inp, Array.append lead [| n |]); (row, lead) ]
    ~out_name:out
    ~out_shape:(Array.append lead [| n |])
    ~spatial:(Array.append vs [| vn |])
    ~reduce:[] ~combiner:Opdef.Assign ~init:0.0
    ~body:Sexpr.(load inp full *. Un (Urecip, load row (Array.map iv vs)))
    ()

(* out[..,n] = (X[..,n] - Mu[..]) * recip(sqrt(Var[..] + eps)) -- layernorm. *)
let normalize_rows ~name ~inp ~mean ~var ~out ~lead ~n ?(eps = 1e-5) () =
  let vs = Array.map (fun _ -> fv "i") lead in
  let vn = fv "n" in
  let full = Array.append (Array.map iv vs) [| iv vn |] in
  let x = Sexpr.load inp full in
  let mu = Sexpr.load mean (Array.map iv vs) in
  let va = Sexpr.load var (Array.map iv vs) in
  Opdef.make ~name
    ~inputs:[ (inp, Array.append lead [| n |]); (mean, lead); (var, lead) ]
    ~out_name:out
    ~out_shape:(Array.append lead [| n |])
    ~spatial:(Array.append vs [| vn |])
    ~reduce:[] ~combiner:Opdef.Assign ~init:0.0
    ~body:Sexpr.((x -. mu) *. Un (Urecip, Un (Usqrt, va +. fconst eps)))
    ()

(* Var[..] = sum_n (X[..,n]-Mu[..])^2 / n *)
let rowvar ~name ~inp ~mean ~out ~lead ~n () =
  let vs = Array.map (fun _ -> fv "i") lead in
  let rn = fv "rn" in
  let full = Array.append (Array.map iv vs) [| iv rn |] in
  let d = Sexpr.(load inp full -. load mean (Array.map iv vs)) in
  Opdef.make ~name
    ~inputs:[ (inp, Array.append lead [| n |]); (mean, lead) ]
    ~out_name:out ~out_shape:lead ~spatial:vs
    ~reduce:[ (rn, n) ]
    ~combiner:Opdef.Sum ~init:0.0
    ~body:
      (let inv_n = 1.0 /. float_of_int n in
       Sexpr.(d *. d *. fconst inv_n))
    ()

(* ------------------------------------------------------------------ *)
(* Attention head plumbing (index-shuffling Assign operators)          *)
(* ------------------------------------------------------------------ *)

(* [S; H] -> [A; S; H/A] *)
let split_heads ~name ~inp ~out ~s ~h ~heads () =
  if h mod heads <> 0 then invalid_arg "Ops.split_heads";
  let dh = h / heads in
  let va = fv "a" and vs = fv "s" and vd = fv "d" in
  Opdef.make ~name
    ~inputs:[ (inp, [| s; h |]) ]
    ~out_name:out ~out_shape:[| heads; s; dh |]
    ~spatial:[| va; vs; vd |]
    ~reduce:[] ~combiner:Opdef.Assign ~init:0.0
    ~body:
      (Sexpr.load inp
         [| iv vs; Ixexpr.add (Ixexpr.mul (iv va) (ic dh)) (iv vd) |])
    ()

(* [S; H] -> [A; H/A; S] (transposed, for attention keys) *)
let split_heads_t ~name ~inp ~out ~s ~h ~heads () =
  if h mod heads <> 0 then invalid_arg "Ops.split_heads_t";
  let dh = h / heads in
  let va = fv "a" and vd = fv "d" and vs = fv "s" in
  Opdef.make ~name
    ~inputs:[ (inp, [| s; h |]) ]
    ~out_name:out ~out_shape:[| heads; dh; s |]
    ~spatial:[| va; vd; vs |]
    ~reduce:[] ~combiner:Opdef.Assign ~init:0.0
    ~body:
      (Sexpr.load inp
         [| iv vs; Ixexpr.add (Ixexpr.mul (iv va) (ic dh)) (iv vd) |])
    ()

(* [A; S; H/A] -> [S; H] *)
let merge_heads ~name ~inp ~out ~s ~h ~heads () =
  if h mod heads <> 0 then invalid_arg "Ops.merge_heads";
  let dh = h / heads in
  let vs = fv "s" and vh = fv "h" in
  Opdef.make ~name
    ~inputs:[ (inp, [| heads; s; dh |]) ]
    ~out_name:out ~out_shape:[| s; h |] ~spatial:[| vs; vh |]
    ~reduce:[] ~combiner:Opdef.Assign ~init:0.0
    ~body:
      (Sexpr.load inp
         [| Ixexpr.div (iv vh) (ic dh); iv vs; Ixexpr.mod_ (iv vh) (ic dh) |])
    ()

(* Scale every element by a constant. *)
let scale ~name ~inp ~out ~shape ~factor () =
  let vars = Array.map (fun _ -> fv "i") shape in
  let idx = Array.map iv vars in
  Opdef.make ~name
    ~inputs:[ (inp, shape) ]
    ~out_name:out ~out_shape:shape ~spatial:vars ~reduce:[]
    ~combiner:Opdef.Assign ~init:0.0
    ~body:Sexpr.(load inp idx *. fconst factor)
    ()

(* Global average pooling for video tensors: [N;C;D;H;W] -> [N;C]. *)
let global_avgpool3d ~name ~inp ~out ~n ~c ~d ~h ~w () =
  let vn = fv "n" and vc = fv "c" in
  let rd = fv "rd" and rh = fv "rh" and rw = fv "rw" in
  let inv = 1.0 /. float_of_int (d * h * w) in
  let body =
    Sexpr.(load inp [| iv vn; iv vc; iv rd; iv rh; iv rw |] *. fconst inv)
  in
  Opdef.make ~name
    ~inputs:[ (inp, [| n; c; d; h; w |]) ]
    ~out_name:out ~out_shape:[| n; c |] ~spatial:[| vn; vc |]
    ~reduce:[ (rd, d); (rh, h); (rw, w) ]
    ~combiner:Opdef.Sum ~init:0.0 ~body ()
