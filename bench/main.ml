(* Experiment harness entry point.

   Regenerates every table and figure of the paper's evaluation on the
   machine simulator:

     dune exec bench/main.exe            # run everything
     dune exec bench/main.exe -- fig9    # run one experiment
     ALT_BENCH_SCALE=smoke|quick|full    # workload scale (default quick)

   The mapping between these outputs and the paper's numbers is documented
   in EXPERIMENTS.md. *)

let experiments =
  [
    ("fig1", Fig1.run);
    ("table2", Table2.run);
    ("fig9", Fig9.run);
    ("fig10", Fig10.run);
    ("fig11", Fig11.run);
    ("fig12", Fig12.run);
    ("fig13", Fig13.run);
    ("table3", Table3.run);
  ]

let () =
  (* strip "--jobs N" (or "-j N") anywhere in the argument list; what
     remains are experiment names *)
  let rec split_args acc = function
    | [] -> List.rev acc
    | ("--jobs" | "-j") :: n :: rest ->
        (Bench_util.jobs :=
           try int_of_string n
           with _ -> Fmt.failwith "--jobs expects an integer, got %S" n);
        split_args acc rest
    | (("--jobs" | "-j") as f) :: [] -> Fmt.failwith "%s expects a value" f
    | a :: rest -> split_args (a :: acc) rest
  in
  let names =
    split_args [] (List.tl (Array.to_list Sys.argv))
  in
  Fmt.pr "ALT experiment harness (scale=%s, jobs=%d)@." Bench_util.scale_name
    (Bench_util.effective_jobs ());
  let requested =
    match names with [] -> List.map fst experiments | names -> names
  in
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some f -> Bench_util.with_elapsed name f
      | None ->
          Fmt.epr "unknown experiment %S; available: %s@." name
            (String.concat ", " (List.map fst experiments));
          exit 1)
    requested;
  Fmt.pr "@.all requested experiments completed.@."
