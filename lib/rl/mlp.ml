(* Small multi-layer perceptron with tanh hidden activations, explicit
   backward pass and Adam — the neural substrate for the PPO actor and
   critic networks (Section 5.2).  No autodiff frameworks exist in this
   environment, so gradients are hand-derived; the test suite checks them
   against finite differences. *)

type layer = {
  w : float array array; (* out x in *)
  b : float array;
  (* gradient accumulators *)
  gw : float array array;
  gb : float array;
  (* Adam moments *)
  mw : float array array;
  vw : float array array;
  mb : float array;
  vb : float array;
}

type t = {
  sizes : int array; (* e.g. [| in; hidden; out |] *)
  layers : layer array;
  mutable step : int;
}

type cache = {
  xs : float array array; (* input of each layer *)
  zs : float array array; (* pre-activations *)
}

let mk_layer rng n_out n_in =
  let scale = Float.sqrt (2.0 /. float_of_int (n_in + n_out)) in
  let gauss () =
    (* Box-Muller *)
    let u1 = Float.max 1e-9 (Random.State.float rng 1.0) in
    let u2 = Random.State.float rng 1.0 in
    Float.sqrt (-2.0 *. Float.log u1) *. Float.cos (2.0 *. Float.pi *. u2)
  in
  {
    w = Array.init n_out (fun _ -> Array.init n_in (fun _ -> scale *. gauss ()));
    b = Array.make n_out 0.0;
    gw = Array.init n_out (fun _ -> Array.make n_in 0.0);
    gb = Array.make n_out 0.0;
    mw = Array.init n_out (fun _ -> Array.make n_in 0.0);
    vw = Array.init n_out (fun _ -> Array.make n_in 0.0);
    mb = Array.make n_out 0.0;
    vb = Array.make n_out 0.0;
  }

let create ?(seed = 0) (sizes : int array) : t =
  if Array.length sizes < 2 then invalid_arg "Mlp.create: need >= 2 sizes";
  let rng = Random.State.make [| seed; 77 |] in
  {
    sizes;
    layers =
      Array.init
        (Array.length sizes - 1)
        (fun i -> mk_layer rng sizes.(i + 1) sizes.(i));
    step = 0;
  }

let n_layers t = Array.length t.layers

let forward_cache t (x : float array) : float array * cache =
  let n = n_layers t in
  let xs = Array.make n [||] and zs = Array.make n [||] in
  let cur = ref x in
  for li = 0 to n - 1 do
    let l = t.layers.(li) in
    xs.(li) <- !cur;
    let z =
      Array.mapi
        (fun o row ->
          let s = ref l.b.(o) in
          Array.iteri (fun i w -> s := !s +. (w *. !cur.(i))) row;
          !s)
        l.w
    in
    zs.(li) <- z;
    (* tanh on hidden layers, identity on the last *)
    cur := if li = n - 1 then z else Array.map Float.tanh z
  done;
  (!cur, { xs; zs })

let forward t x = fst (forward_cache t x)

(* Accumulate gradients for dL/d(output) = dout; returns dL/d(input). *)
let backward t (c : cache) ~(dout : float array) : float array =
  let n = n_layers t in
  let delta = ref dout in
  for li = n - 1 downto 0 do
    let l = t.layers.(li) in
    let d =
      if li = n - 1 then !delta
      else
        Array.mapi
          (fun o dz ->
            let th = Float.tanh c.zs.(li).(o) in
            dz *. (1.0 -. (th *. th)))
          !delta
    in
    let x = c.xs.(li) in
    Array.iteri
      (fun o dv ->
        l.gb.(o) <- l.gb.(o) +. dv;
        let row = l.gw.(o) in
        Array.iteri (fun i xv -> row.(i) <- row.(i) +. (dv *. xv)) x)
      d;
    (* propagate *)
    let din = Array.make (Array.length x) 0.0 in
    Array.iteri
      (fun o dv ->
        let row = l.w.(o) in
        Array.iteri (fun i w -> din.(i) <- din.(i) +. (dv *. w)) row)
      d;
    delta := din
  done;
  !delta

let zero_grads t =
  Array.iter
    (fun l ->
      Array.iter (fun row -> Array.fill row 0 (Array.length row) 0.0) l.gw;
      Array.fill l.gb 0 (Array.length l.gb) 0.0)
    t.layers

let adam_step ?(lr = 1e-3) ?(beta1 = 0.9) ?(beta2 = 0.999) ?(eps = 1e-8) t =
  t.step <- t.step + 1;
  let bc1 = 1.0 -. (beta1 ** float_of_int t.step) in
  let bc2 = 1.0 -. (beta2 ** float_of_int t.step) in
  Array.iter
    (fun l ->
      Array.iteri
        (fun o row ->
          Array.iteri
            (fun i g ->
              l.mw.(o).(i) <- (beta1 *. l.mw.(o).(i)) +. ((1.0 -. beta1) *. g);
              l.vw.(o).(i) <- (beta2 *. l.vw.(o).(i)) +. ((1.0 -. beta2) *. g *. g);
              let m = l.mw.(o).(i) /. bc1 and v = l.vw.(o).(i) /. bc2 in
              row.(i) <- row.(i) -. (lr *. m /. (Float.sqrt v +. eps)))
            l.gw.(o))
        l.w;
      Array.iteri
        (fun o g ->
          l.mb.(o) <- (beta1 *. l.mb.(o)) +. ((1.0 -. beta1) *. g);
          l.vb.(o) <- (beta2 *. l.vb.(o)) +. ((1.0 -. beta2) *. g *. g);
          let m = l.mb.(o) /. bc1 and v = l.vb.(o) /. bc2 in
          l.b.(o) <- l.b.(o) -. (lr *. m /. (Float.sqrt v +. eps)))
        l.gb)
    t.layers
