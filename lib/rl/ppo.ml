(* Proximal Policy Optimization with a clipped surrogate objective
   (Schulman et al., the paper's exploration algorithm, Section 5.2).

   The "generic split actor" design of the paper: a single actor network is
   invoked once per tunable knob.  Its input is the concatenation of a
   fixed-size state embedding (the current primitive/knob configuration)
   and per-knob features; its output is the pre-squash mean of a Gaussian
   whose sample, squashed to (0,1), becomes the action a_s from which the
   concrete split factor is derived as F = R(D * a_s) (Eq. (2)).

   A single critic network is shared by all actors ("global shared critic",
   Section 5.2.2), fitting rewards from the same state embedding. *)

type sample = {
  state : float array;
  action_u : float; (* unsquashed Gaussian sample *)
  logp : float;
  mutable reward : float; (* filled when the episode's reward arrives *)
}

type t = {
  actor : Mlp.t;
  critic : Mlp.t;
  mutable log_std : float;
  mutable g_log_std : float;
  mutable m_log_std : float;
  mutable v_log_std : float;
  mutable std_step : int;
  clip : float;
  entropy_coef : float;
  lr : float;
  rng : Random.State.t;
}

let create ?(seed = 0) ?(hidden = 32) ?(clip = 0.2) ?(entropy_coef = 0.01)
    ?(lr = 6e-3) ~state_dim () =
  {
    actor = Mlp.create ~seed [| state_dim; hidden; 1 |];
    critic = Mlp.create ~seed:(seed + 1) [| state_dim; hidden; 1 |];
    log_std = Float.log 0.4;
    g_log_std = 0.0;
    m_log_std = 0.0;
    v_log_std = 0.0;
    std_step = 0;
    clip;
    entropy_coef;
    lr;
    rng = Random.State.make [| seed; 1234 |];
  }

let sigmoid x = 1.0 /. (1.0 +. Float.exp (-.x))

let gauss rng =
  let u1 = Float.max 1e-9 (Random.State.float rng 1.0) in
  let u2 = Random.State.float rng 1.0 in
  Float.sqrt (-2.0 *. Float.log u1) *. Float.cos (2.0 *. Float.pi *. u2)

let log_prob t ~mean ~u =
  let std = Float.exp t.log_std in
  let d = (u -. mean) /. std in
  (-0.5 *. d *. d) -. t.log_std -. (0.5 *. Float.log (2.0 *. Float.pi))

(* Sample an action for [state]: returns the squashed action in (0,1) and
   the sample record to be rewarded later. *)
let act ?(explore = true) t (state : float array) : float * sample =
  let m_tilde = (Mlp.forward t.actor state).(0) in
  let mean = sigmoid m_tilde in
  let u =
    if explore then mean +. (Float.exp t.log_std *. gauss t.rng) else mean
  in
  let a = Float.min 0.999 (Float.max 0.001 u) in
  (a, { state; action_u = u; logp = log_prob t ~mean ~u; reward = 0.0 })

(* Uniform warm-up action: drawn uniformly but scored under the current
   policy, so early PPO updates still receive a valid importance ratio.
   Used for the first proposals of a fresh (non-pretrained) agent, whose
   sigmoid-centred initialization would otherwise bias exploration. *)
let act_uniform t (state : float array) : float * sample =
  let u = 0.001 +. Random.State.float t.rng 0.998 in
  let m_tilde = (Mlp.forward t.actor state).(0) in
  let mean = sigmoid m_tilde in
  (u, { state; action_u = u; logp = log_prob t ~mean ~u; reward = 0.0 })

let value t state = (Mlp.forward t.critic state).(0)

(* One PPO update over a batch of rewarded samples. *)
let update ?(epochs = 4) t (batch : sample list) =
  if batch <> [] then begin
    let n = float_of_int (List.length batch) in
    (* advantage normalization stabilizes tiny batches *)
    let advs =
      List.map (fun s -> s.reward -. value t s.state) batch
    in
    let amean = List.fold_left ( +. ) 0.0 advs /. n in
    let astd =
      Float.sqrt
        (List.fold_left (fun acc a -> acc +. ((a -. amean) ** 2.0)) 0.0 advs
        /. n)
      +. 1e-6
    in
    let data =
      List.map2 (fun s a -> (s, (a -. amean) /. astd)) batch advs
    in
    for _ = 1 to epochs do
      Mlp.zero_grads t.actor;
      Mlp.zero_grads t.critic;
      t.g_log_std <- 0.0;
      List.iter
        (fun (s, adv) ->
          (* actor *)
          let out, cache = Mlp.forward_cache t.actor s.state in
          let m_tilde = out.(0) in
          let mean = sigmoid m_tilde in
          let logp = log_prob t ~mean ~u:s.action_u in
          let ratio = Float.exp (logp -. s.logp) in
          let clipped_active =
            (adv >= 0.0 && ratio > 1.0 +. t.clip)
            || (adv < 0.0 && ratio < 1.0 -. t.clip)
          in
          (* logit regularization keeps the squashed mean away from the
             saturated ends of the sigmoid, where the policy gradient
             vanishes and the agent can no longer adapt to a new task *)
          let reg = 0.02 *. 2.0 *. m_tilde /. n in
          if not clipped_active then begin
            (* dL/dlogp = -ratio * adv  (minimizing loss) *)
            let dlogp = -.ratio *. adv /. n in
            let std = Float.exp t.log_std in
            let dmean = (s.action_u -. mean) /. (std *. std) in
            let dm_tilde = (dlogp *. dmean *. mean *. (1.0 -. mean)) +. reg in
            ignore (Mlp.backward t.actor cache ~dout:[| dm_tilde |]);
            let d2 = ((s.action_u -. mean) /. std) ** 2.0 in
            t.g_log_std <- t.g_log_std +. (dlogp *. (d2 -. 1.0))
          end
          else ignore (Mlp.backward t.actor cache ~dout:[| reg |]);
          (* entropy bonus: H = log_std + c; grad wrt log_std is 1 *)
          t.g_log_std <- t.g_log_std -. (t.entropy_coef /. n);
          (* critic: squared error to reward *)
          let vout, vcache = Mlp.forward_cache t.critic s.state in
          let dv = 2.0 *. (vout.(0) -. s.reward) /. n in
          ignore (Mlp.backward t.critic vcache ~dout:[| dv |]))
        data;
      Mlp.adam_step ~lr:t.lr t.actor;
      Mlp.adam_step ~lr:t.lr t.critic;
      (* Adam on log_std *)
      t.std_step <- t.std_step + 1;
      t.m_log_std <- (0.9 *. t.m_log_std) +. (0.1 *. t.g_log_std);
      t.v_log_std <-
        (0.999 *. t.v_log_std) +. (0.001 *. t.g_log_std *. t.g_log_std);
      let mc = t.m_log_std /. (1.0 -. (0.9 ** float_of_int t.std_step)) in
      let vc = t.v_log_std /. (1.0 -. (0.999 ** float_of_int t.std_step)) in
      t.log_std <- t.log_std -. (t.lr *. mc /. (Float.sqrt vc +. 1e-8));
      (* keep exploration within sane bounds *)
      t.log_std <- Float.max (Float.log 0.15) (Float.min (Float.log 0.6) t.log_std)
    done
  end
