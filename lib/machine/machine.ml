(* Machine models: the three hardware profiles of the paper's evaluation.

   Each profile fixes SIMD width, core count, a two-level cache geometry,
   a hardware prefetcher depth and a latency model.  The numbers are
   plausible for the paper's platforms (Intel Xeon, NVIDIA V100 — modelled
   as a very wide, very parallel SIMD machine — and an ARM Cortex-A76 SoC);
   they are not calibrated to silicon, only meant to preserve the relative
   behaviour that layout and loop optimization exploit.  The ARM prefetcher
   fetches 4 consecutive lines on a miss, matching the measurement that
   motivates the paper's Table 2. *)

type t = {
  name : string;
  lanes : int; (* SIMD lanes for float32 *)
  cores : int;
  freq_ghz : float;
  cpi : float; (* average cycles per scalar instruction *)
  l1 : Cache.cfg;
  l2 : Cache.cfg;
  prefetch_extra : int; (* further consecutive lines fetched on a miss *)
  l1_miss_penalty : float; (* cycles *)
  l2_miss_penalty : float;
  parallel_efficiency : float;
  reg_cap : int; (* floats that can live in registers for accumulation *)
}

let intel_cpu =
  {
    name = "intel-cpu";
    lanes = 16 (* AVX-512 *);
    cores = 32;
    freq_ghz = 2.5;
    cpi = 0.35;
    l1 = { Cache.size_bytes = 32 * 1024; assoc = 8; line_bytes = 64 };
    l2 = { Cache.size_bytes = 1024 * 1024; assoc = 16; line_bytes = 64 };
    prefetch_extra = 1;
    l1_miss_penalty = 12.0;
    l2_miss_penalty = 60.0;
    parallel_efficiency = 0.85;
    reg_cap = 64;
  }

let nvidia_gpu =
  {
    name = "nvidia-gpu";
    lanes = 32 (* warp *);
    cores = 80 (* SMs *);
    freq_ghz = 1.4;
    cpi = 0.08;
    l1 = { Cache.size_bytes = 64 * 1024; assoc = 8; line_bytes = 128 };
    l2 = { Cache.size_bytes = 4 * 1024 * 1024; assoc = 16; line_bytes = 128 };
    prefetch_extra = 0 (* GPUs rely on massive threading, not prefetch *);
    l1_miss_penalty = 8.0;
    l2_miss_penalty = 36.0;
    parallel_efficiency = 0.9;
    reg_cap = 128;
  }

let arm_cpu =
  {
    name = "arm-cpu";
    lanes = 4 (* NEON *);
    cores = 4;
    freq_ghz = 2.0;
    cpi = 0.6;
    l1 = { Cache.size_bytes = 64 * 1024; assoc = 4; line_bytes = 64 };
    l2 = { Cache.size_bytes = 512 * 1024; assoc = 8; line_bytes = 64 };
    prefetch_extra = 3 (* 4 consecutive lines per miss event, Table 2 *);
    l1_miss_penalty = 10.0;
    l2_miss_penalty = 90.0;
    parallel_efficiency = 0.8;
    reg_cap = 32;
  }

let all = [ intel_cpu; nvidia_gpu; arm_cpu ]

let pp ppf m = Fmt.string ppf m.name
