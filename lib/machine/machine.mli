(** Machine models: the three hardware profiles substituting for the
    paper's testbeds (Intel Xeon, NVIDIA V100, ARM Cortex-A76 SoC). *)

type t = {
  name : string;
  lanes : int;  (** SIMD lanes for float32 *)
  cores : int;
  freq_ghz : float;
  cpi : float;  (** average cycles per scalar instruction *)
  l1 : Cache.cfg;
  l2 : Cache.cfg;
  prefetch_extra : int;  (** further consecutive lines fetched on a miss *)
  l1_miss_penalty : float;  (** cycles *)
  l2_miss_penalty : float;
  parallel_efficiency : float;
  reg_cap : int;  (** floats available for register accumulation *)
}

val intel_cpu : t
val nvidia_gpu : t
val arm_cpu : t
val all : t list
val pp : t Fmt.t
