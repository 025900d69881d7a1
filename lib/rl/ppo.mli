(** Proximal Policy Optimization with a clipped surrogate — the paper's
    layout-space exploration algorithm (Section 5.2).

    One generic actor is invoked per tunable knob; its Gaussian sample,
    squashed to (0,1), becomes the action from which a concrete split
    factor is derived as F = R(D * a) (Eq. (2)).  A single critic is
    shared by all actors. *)

type sample = {
  state : float array;
  action_u : float; (** unsquashed Gaussian sample *)
  logp : float;
  mutable reward : float; (** filled when the episode's reward arrives *)
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

val create :
  ?seed:int -> ?hidden:int -> ?clip:float -> ?entropy_coef:float ->
  ?lr:float -> state_dim:int -> unit -> t

val act : ?explore:bool -> t -> float array -> float * sample
(** Sample an action in (0,1) for a state; the returned [sample] must be
    rewarded and passed to {!update}. *)

val act_uniform : t -> float array -> float * sample
(** Uniform warm-up action scored under the current policy (for the first
    proposals of a fresh agent). *)

val update : ?epochs:int -> t -> sample list -> unit
(** One PPO update (clipped surrogate + critic regression + entropy
    bonus) over a batch of rewarded samples. *)
