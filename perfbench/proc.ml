(* Process-level helpers of the ledger: forked cold repetitions, peak
   memory, order statistics. *)

(* Run [f] in a forked child and return its value.  Every repetition of
   a workload runs this way, so each one starts from the parent's
   post-set-up state with empty in-process memos (the layout relation
   memo, the lowering caches), as cold as a fresh CLI invocation.  The
   child ships its result back over a pipe and leaves with [_exit], so
   the parent's [at_exit] handlers and buffered output never run twice.
   Requires that no extra domain is running, which holds at --jobs 1
   with one exec domain. *)
let in_child (f : unit -> 'a) : 'a =
  flush stdout;
  flush stderr;
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close rd;
      let v = try Ok (f ()) with e -> Error (Printexc.to_string e) in
      let oc = Unix.out_channel_of_descr wr in
      Marshal.to_channel oc (v : ('a, string) result) [];
      close_out oc;
      Unix._exit 0
  | pid -> (
      Unix.close wr;
      let ic = Unix.in_channel_of_descr rd in
      let v : ('a, string) result option =
        try Some (Marshal.from_channel ic) with End_of_file | Failure _ -> None
      in
      close_in ic;
      let _, status = Unix.waitpid [] pid in
      match (v, status) with
      | Some (Ok v), Unix.WEXITED 0 -> v
      | Some (Error e), _ -> failwith ("repetition failed: " ^ e)
      | _ -> failwith "repetition process died without a result")

(* Peak resident set of this process in MiB, from the kernel's VmHWM. *)
let peak_rss_mb () : float =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
              (fun kb -> float_of_int kb /. 1024.0)
        | _ -> scan ()
        | exception End_of_file ->
            failwith "VmHWM missing from /proc/self/status"
      in
      scan ())

let now = Unix.gettimeofday

(* CPU time (user + system) of this process, in seconds.  Every timed
   section runs single-threaded, so this is its wall time minus the time
   the host gave to others: on a shared virtual machine, steal time alone
   moved wall-clock runs of the same work by up to 40 %. *)
let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* A reading of the host's current speed: the CPU seconds of a fixed loop
   in the ledger's own code, so no change to the program moves it.  It
   streams over a float array and probes an open-addressing table, as the
   workloads' kernels and simulator do, and allocates nothing while timed,
   so the heap the program left behind does not move it either.  On a
   shared virtual machine the CPU time of the same work changed by 2x
   within minutes, alike for every workload and every kind of work in it,
   most likely through hardware shared with other tenants, which the
   guest cannot see.  The ledger scales its timings by this reading to
   cancel that, and takes it in a forked child, so its arrays never count
   in the resident set of the repetitions. *)
let probe () : float =
  let floats = Array.init 131_072 float_of_int in
  let slots = Array.make 262_144 0 in
  let t0 = cpu () in
  let s = ref 0.0 in
  for _ = 1 to 120 do
    for i = 0 to Array.length floats - 1 do
      s := !s +. (floats.(i) *. float_of_int (i land 7))
    done
  done;
  let mask = Array.length slots - 1 and x = ref 1 in
  for _ = 1 to 1_200_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    (* 2^17 distinct keys: the table never fills past half *)
    let key = 1 + (!x lsr 13) in
    let i = ref (key * 40503 land mask) in
    while slots.(!i) <> 0 && slots.(!i) <> key do
      i := (!i + 1) land mask
    done;
    slots.(!i) <- key
  done;
  ignore (Sys.opaque_identity !s);
  cpu () -. t0

(* [f ()] and the CPU seconds it took. *)
let time f =
  let t0 = cpu () in
  let v = f () in
  (v, cpu () -. t0)

(* Linear-interpolated quantile of the samples, [q] in [0, 1]. *)
let quantile q (xs : float list) : float =
  match List.sort Float.compare xs with
  | [] -> invalid_arg "quantile of no samples"
  | sorted ->
      let a = Array.of_list sorted in
      let pos = q *. float_of_int (Array.length a - 1) in
      let lo = int_of_float pos in
      let hi = min (lo + 1) (Array.length a - 1) in
      let frac = pos -. float_of_int lo in
      a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let median xs = quantile 0.5 xs
let sum xs = List.fold_left ( +. ) 0.0 xs
let mean xs = sum xs /. float_of_int (max 1 (List.length xs))

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()
