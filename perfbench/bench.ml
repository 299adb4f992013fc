(* The benchmark's entry point:
     bench.exe --workload decide|serve|eval --seed N --seconds S --trace 0|1
   prints human-readable notes and, as its last line, one JSON object
   {correct, attempted, failed, metrics}. [run.py] builds this program
   and adds the peak resident set of the run's processes. *)

(* The self-check: every workload, untraced and traced, on tiny inputs,
   each in its own process (a process that has started domains may not
   fork shard workers). Fails unless every run exits 0 and prints a
   correct result with the full metric set. *)
let selfcheck () =
  let end_to_end = [ "setup_s"; "ops_per_s"; "p50_ms"; "tail_ms"; "max_rate_rps" ] in
  let per_layer = List.map fst Layers.all in
  let ok = ref true in
  List.iter
    (fun w ->
      List.iter
        (fun trace ->
          if not (Sys.file_exists Common.work_dir) then Unix.mkdir Common.work_dir 0o755;
          let out = Filename.temp_file ~temp_dir:Common.work_dir "selfcheck" ".out" in
          let cmd =
            Printf.sprintf "%s --tiny --workload %s --seed 7 --seconds 1 --trace %d > %s"
              (Filename.quote Sys.executable_name) w trace (Filename.quote out)
          in
          let code = Sys.command cmd in
          let lines = In_channel.with_open_text out In_channel.input_all |> String.split_on_char '\n' in
          Sys.remove out;
          let last = List.fold_left (fun acc l -> if String.trim l = "" then acc else l) "" lines in
          let want = if trace = 1 then per_layer else end_to_end in
          let good =
            code = 0
            &&
            match Xpds.Json.parse last with
            | Ok v ->
              Xpds.Json.member "correct" v = Some (Xpds.Json.Bool true)
              && (match Xpds.Json.member "attempted" v with Some (Xpds.Json.Num a) -> a >= 1. | _ -> false)
              && (match Xpds.Json.member "metrics" v with
                 | Some (Xpds.Json.Obj ms) -> List.sort compare (List.map fst ms) = List.sort compare want
                 | _ -> false)
            | Error _ -> false
          in
          Printf.printf "selfcheck %-6s trace %d: %s\n%!" w trace (if good then "ok" else "FAILED: " ^ last);
          if not good then ok := false)
        [ 0; 1 ])
    [ "decide"; "serve"; "eval" ];
  exit (if !ok then 0 else 1)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let check = ref false in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "decide | serve | eval");
      ("--seed", Arg.Set_int seed, "input seed");
      ("--seconds", Arg.Set_int seconds, "length of the timed phase");
      ("--trace", Arg.Set_int trace, "1: the traced run, printing per-layer metrics");
      ("--tiny", Arg.Set Common.tiny, "tiny inputs (the self-check)");
      ("--selfcheck", Arg.Set check, "run every workload on tiny inputs and check the results") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload W --seed N --seconds S --trace 0|1";
  if !check then selfcheck ();
  let trace = !trace = 1 in
  let run =
    match !workload with
    | "decide" -> Decide.run
    | "serve" -> Serve.run
    | "eval" -> Evalw.run
    | w -> prerr_endline ("unknown workload " ^ w); exit 2
  in
  let outcome = run ~seed:!seed ~seconds:!seconds ~trace in
  Common.print_outcome outcome;
  exit (if outcome.Common.correct then 0 else 1)
