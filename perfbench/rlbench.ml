(* One workload of the repository benchmark, in a fresh process.

   rlbench WORKLOAD --seed N --seconds S --trace 0|1 --out FILE
           [--rlcheckd EXE] [--rev REV]

   Prints a human report on stdout and writes the result object to FILE.
   Exits 1 when a verdict differs from its reference answer, 2 on usage
   errors or a refused environment. perfbench/run.py builds the program
   and calls this. *)

(* Knobs that change what the program does: a run under any of them
   would not measure the defaults. *)
let refused_env = [ "RLCHECK_JOBS"; "RLCHECK_WS_MIN"; "RLCHECK_PAR_CUTOFF"; "RLCHECK_GC"; "RLCHECK_FAULT" ]

let usage () =
  prerr_endline
    "usage: rlbench (cold-mix|deep-search|daemon-edit-loop) --seed N --seconds S --trace 0|1 \
     --out FILE [--rlcheckd EXE] [--rev REV]";
  exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec opts acc = function
    | k :: v :: rest when String.starts_with ~prefix:"--" k -> opts ((k, v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let workload, opts = match args with w :: rest -> (w, opts [] rest) | [] -> usage () in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let int_opt k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let seed = int_opt "--seed" and seconds = float_of_int (int_opt "--seconds") in
  let trace = match get "--trace" with "0" -> false | "1" -> true | _ -> usage () in
  let out = get "--out" in
  if seconds < 1. then usage ();
  List.iter
    (fun v ->
      if Sys.getenv_opt v <> None then begin
        Printf.eprintf "rlbench: refusing to run with %s set: it changes what is measured\n" v;
        exit 2
      end)
    refused_env;
  let tm = Unix.gmtime (Unix.time ()) in
  Format.printf "host: cores=%d ocaml=%s rev=%s date=%04d-%02d-%02dT%02d:%02d:%02dZ@."
    (Domain.recommended_domain_count ()) Sys.ocaml_version
    (Option.value ~default:"unknown" (List.assoc_opt "--rev" opts))
    (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
    tm.Unix.tm_sec;
  Format.printf "run: workload=%s seed=%d seconds=%g trace=%b@." workload seed seconds trace;
  let result =
    match workload with
    | "cold-mix" ->
        Library.run ~name:workload ~corpus:(Library.cold_mix_corpus seed) ~jobs:1 ~seconds ~trace
    | "deep-search" ->
        Library.run ~name:workload ~corpus:(Library.deep_search_corpus seed)
          ~jobs:(Domain.recommended_domain_count ()) ~seconds ~trace
    | "daemon-edit-loop" -> Daemon_loop.run ~rlcheckd:(get "--rlcheckd") ~seconds ~trace seed
    | _ -> usage ()
  in
  Measure.print_metrics result;
  Format.printf "attempted %d, failed %d, wrong verdicts %d@." result.Measure.attempted
    result.Measure.failed result.Measure.wrong;
  Measure.write_json out result;
  exit (if result.Measure.wrong = 0 then 0 else 1)
