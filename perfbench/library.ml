(* The two library workloads: closed loops of serial calls into the
   program from this process, one check at a time.

   cold-mix: [Request.run] with no cache and [Abstraction.verify], with
   the simulation cache emptied before every check, as for a CLI run.

   deep-search: a few large instances through [Request.run] on a pool of
   one domain per core, where inclusion, the scheduler and Büchi emptiness
   do the work. *)

open Rl_automata
open Rl_core
module Request = Rl_service.Request
module Pool = Rl_engine.Pool
module Simcache = Rl_engine.Simcache
module Stats = Rl_engine.Stats
module M = Measure

type expect = Reference of Models.formula | Known_holds

type entry =
  | Check of { kind : Request.kind; model : Models.model; formula : string; expect : expect }
  | Abstract of {
      model : Models.model;
      keep : string list;
      formula : string;
      conclusion : Abstraction.conclusion;
    }

type outcome = Holds | Fails of string | Concludes of Abstraction.conclusion | Error of string

let describe = function
  | Check { kind; model; formula; _ } ->
      Printf.sprintf "%s %s on %d states" (Request.kind_name kind) formula model.Models.reachable
  | Abstract { formula; model; _ } ->
      Printf.sprintf "abstraction %s on %d states" formula model.Models.states

let outcome_name = function
  | Holds -> "holds"
  | Fails _ -> "fails"
  | Concludes `Concrete_holds -> "concrete-holds"
  | Concludes `Concrete_fails -> "concrete-fails"
  | Concludes `Unknown -> "unknown"
  | Error e -> "error: " ^ e

(* --- corpora --- *)

let abc = [| "a"; "b"; "c" |]

let random_check st kind ~states ~shape =
  let model = Models.random_ts st ~labels:abc ~states ~branching:2.0 () in
  let shape = Models.random_formula st abc ~shape in
  Check { kind; model; formula = Models.formula_text shape; expect = Reference shape }

(* The corpora are drawn once, from a fixed generator seed, and the run's
   seed orders the loop. Costs of random models of one size differ
   severalfold, and the tail percentile sits on the few heaviest checks,
   so drawing new models per seed would measure the draw rather than the
   program. *)
let cold_mix_corpus seed =
  let st = Models.rng 0 "cold-mix" in
  let ladder kind sizes = List.mapi (fun i n -> random_check st kind ~states:n ~shape:i) sizes in
  let rl_sizes = [ 40; 60; 80; 100; 120; 140; 170; 200 ] in
  let rl = ladder Rl rl_sizes @ ladder Rl (List.rev rl_sizes) @ ladder Rl rl_sizes in
  let sat = ladder Sat [ 60; 120; 180; 240; 300; 360 ] in
  (* pairs checked under all three kinds, for Theorem 4.7 *)
  let triples =
    List.concat_map
      (function
        | Check c -> List.map (fun kind -> Check { c with kind }) [ Request.Sat; Rl; Rs ]
        | Abstract _ -> assert false)
      (ladder Rs [ 24; 32; 40 ])
  in
  let pipeline stages tricky =
    Abstract
      { model = Models.pipeline ~stages ~tricky; keep = [ "ok"; "fail" ]; formula = "[]<> ok";
        conclusion = (if tricky then `Unknown else `Concrete_holds) }
  in
  let paper model conclusion =
    Abstract { model; keep = [ "request"; "result"; "reject" ]; formula = "[]<> result"; conclusion }
  in
  let stages = 50 in
  let abstract =
    [ pipeline stages false; pipeline stages true; pipeline (2 * stages) false;
      pipeline (2 * stages) true; paper Models.server `Concrete_holds; paper Models.faulty `Unknown ]
  in
  let all = Array.of_list (rl @ sat @ triples @ abstract) in
  Models.shuffle (Models.rng seed "cold-mix") all;
  all

(* counter-4290 is the roadmap's inclusion instance; the dense models are
   generator streams [dense k] whose rs checks explore 10^4 to 1.5 10^5
   states (two of them hold). With eleven entries and the heaviest one
   twice, the median falls inside one entry's samples and p90 inside the
   heaviest pair's, not between two entries; the loop runs 100 to 199
   checks in 30 s, so the tail is p90. *)
let deep_search_corpus seed =
  let counter ps = Check { kind = Rl; model = Models.counter ps; formula = "true"; expect = Known_holds } in
  let dense k =
    let st = Models.rng k "dense" in
    let model = Models.random_ts st ~labels:[| "a"; "b" |] ~states:30 ~branching:2.5 () in
    let shape = Models.random_formula st [| "a"; "b" |] ~shape:k in
    Check { kind = Rs; model; formula = Models.formula_text shape; expect = Reference shape }
  in
  let all =
    Array.of_list
      ([ counter [ 2; 3; 5; 11; 13 ]; counter [ 2; 3; 5; 7; 13 ] ] @ List.map dense [ 0; 4; 4; 8; 9; 12; 14; 18; 19 ])
  in
  Models.shuffle (Models.rng seed "deep-search") all;
  all

let digest corpus =
  Models.digest
    (Array.to_list
       (Array.map
          (function
            | Check { kind; model; formula; _ } -> Request.kind_name kind ^ formula ^ Models.text model
            | Abstract { model; formula; _ } -> formula ^ Models.text model)
          corpus))

(* --- one check --- *)

(* Everything but the returned thunk happens outside the timer. *)
let prepare ?pool = function
  | Check { kind; model; formula; _ } ->
      let job = Request.job kind (Request.Inline { name = "model.ts"; text = Models.text model }) formula in
      fun () ->
        let r = Request.run ?pool job in
        (match r.Request.status with
        | Request.Holds -> Holds
        | Request.Fails -> Fails (Option.value ~default:"" r.Request.witness)
        | Request.Blocked -> Error "blocked by pre-flight lint"
        | Request.Failed e -> Error (Format.asprintf "%a" Rl_engine.Error.pp e))
  | Abstract { model; keep; formula; _ } ->
      let text = Models.text model in
      fun () ->
        let ts = Nfa.trim (Ts_format.parse_ts text) in
        let hom = Rl_hom.Hom.hiding ~concrete:(Nfa.alphabet ts) ~keep in
        let report = Abstraction.verify ~ts ~hom ~formula:(Rl_ltl.Parser.parse formula) () in
        Concludes report.Abstraction.conclusion

let prepare_traced ?pool tr = function
  | Check { kind; model; formula; _ } ->
      let text = Models.text model in
      fun () ->
        (match Replay.check tr ?pool ~kind ~name:"model.ts" ~text ~formula () with
        | Replay.Holds -> Holds
        | Replay.Fails w -> Fails w
        | Replay.Blocked -> Error "blocked by pre-flight lint")
  | Abstract { model; keep; formula; _ } ->
      let text = Models.text model in
      fun () -> Concludes (Replay.abstraction tr ~text ~keep ~formula)

(* --- the closed loop --- *)

type sample = { index : int; latency : float; outcome : outcome; minor_words : float; majors : int }

let majors () = (Gc.quick_stat ()).Gc.major_collections

(* Back-to-back checks cycling through the corpus, for [seconds] and then
   to the end of the cycle, so every entry weighs the same. Returns the
   samples in order, and per completed cycle its latencies, the CPU
   seconds it took and the peak resident set during it. *)
let closed_loop ~seconds corpus prep =
  let n = Array.length corpus in
  let samples = ref [] and cycles = ref [] and i = ref 0 in
  let cycle = ref [] and cpu0 = ref (M.cpu_self ()) in
  M.reset_peak None;
  let t_end = M.now () +. seconds in
  while !i = 0 || M.now () < t_end || !i mod n <> 0 do
    let index = !i mod n in
    let thunk = prep corpus.(index) in
    Simcache.clear ();
    let g0 = majors () and w0 = Gc.minor_words () in
    let t0 = M.now () in
    let outcome = try thunk () with e -> Error (Printexc.to_string e) in
    let latency = M.now () -. t0 in
    let minor_words = Gc.minor_words () -. w0 in
    samples := { index; latency; outcome; minor_words; majors = majors () - g0 } :: !samples;
    cycle := latency :: !cycle;
    incr i;
    if !i mod n = 0 then begin
      let cpu = M.cpu_self () in
      cycles := (!cycle, cpu -. !cpu0, M.peak_rss_mb None) :: !cycles;
      M.reset_peak None;
      cycle := [];
      cpu0 := cpu
    end
  done;
  (List.rev !samples, List.rev !cycles)

(* --- verdicts against the references --- *)

let verify (r : M.result) corpus samples =
  let refs = Hashtbl.create 64 and seen = Hashtbl.create 256 in
  let reference index =
    match Hashtbl.find_opt refs index with
    | Some x -> x
    | None ->
        let x =
          match corpus.(index) with
          | Check { model; formula; expect = Reference shape; _ } ->
              `Refs (Reference.refs model shape formula)
          | Check { expect = Known_holds; _ } -> `Known true
          | Abstract { conclusion; _ } -> `Abstract conclusion
        in
        Hashtbl.add refs index x;
        x
  in
  List.iter
    (fun s ->
      r.attempted <- r.attempted + 1;
      let e = corpus.(s.index) in
      match s.outcome with
      | Error msg ->
          r.failed <- r.failed + 1;
          Format.printf "check failed: %s: %s@." (describe e) msg
      | outcome when not (Hashtbl.mem seen (s.index, outcome)) -> (
          Hashtbl.add seen (s.index, outcome) ();
          let bad () = M.wrong r "%s: got %s" (describe e) (outcome_name outcome) in
          match (e, reference s.index, outcome) with
          | Abstract _, `Abstract c, Concludes c' -> if c <> c' then bad ()
          | Check _, `Known h, (Holds | Fails _) -> if h <> (outcome = Holds) then bad ()
          | Check { kind; model; formula; _ }, `Refs refs, (Holds | Fails _) ->
              let witness = match outcome with Fails w -> Some w | _ -> None in
              Option.iter
                (M.wrong r "%s: %s" (describe e))
                (Reference.judge model refs ~kind ~formula ~witness)
          | _ -> bad ())
      | _ -> ())
    samples;
  (* the program's own triples must agree with Theorem 4.7 too *)
  let verdicts = Hashtbl.create 16 in
  List.iter
    (fun s ->
      match (corpus.(s.index), s.outcome) with
      | Check { kind; model; formula; _ }, (Holds | Fails _) ->
          Hashtbl.replace verdicts (model, formula, kind) (s.outcome = Holds)
      | _ -> ())
    samples;
  Hashtbl.iter
    (fun (model, formula, kind) sat ->
      if kind = Request.Sat then
        match
          ( Hashtbl.find_opt verdicts (model, formula, Request.Rl),
            Hashtbl.find_opt verdicts (model, formula, Request.Rs) )
        with
        | Some rl, Some rs when sat <> (rl && rs) ->
            M.wrong r "Theorem 4.7 fails for %s: sat=%b rl=%b rs=%b" formula sat rl rs
        | _ -> ())
    verdicts

(* --- set-up --- *)

(* [Stats.gc_tune] and pool creation, as [rlcheck] does them, repeated
   from the runtime's defaults; the median is reported and the last pool
   is kept for the run *)
let setup ~jobs =
  let defaults = Gc.get () in
  let times = ref [] and pool = ref None in
  for i = 1 to 101 do
    Gc.set defaults;
    let t0 = M.now () in
    Stats.gc_tune ();
    let p = if jobs = 1 then None else Some (Pool.create ~jobs ()) in
    times := (M.now () -. t0) :: !times;
    match p with Some p when i < 101 -> Pool.shutdown p | _ -> pool := p
  done;
  (M.median !times, !pool)

(* --- the run --- *)

let run ~name ~corpus ~jobs ~seconds ~trace =
  let r = M.result () in
  let setup_s, pool = setup ~jobs in
  Format.printf "workload %s: %d corpus entries, digest %s, %d job(s)@." name (Array.length corpus)
    (digest corpus) jobs;
  let untraced s = closed_loop ~seconds:s corpus (prepare ?pool) in
  (* warm-up: one cycle, untimed *)
  ignore (untraced 0.);
  let measured_s = if trace then seconds /. 2. else seconds in
  let samples, cycles = untraced measured_s in
  verify r corpus samples;
  let n = List.length samples in
  Format.printf "per entry (checks x mean ms, outcome):@.";
  Array.iteri
    (fun i e ->
      match List.filter (fun s -> s.index = i) samples with
      | [] -> ()
      | s0 :: _ as l ->
          let k = List.length l in
          Format.printf "  %-44s %3d x %8.2f  %s@." (describe e) k
            (1000. *. List.fold_left (fun a s -> a +. s.latency) 0. l /. float_of_int k)
            (outcome_name s0.outcome))
    corpus;
  let ok = List.filter (fun s -> match s.outcome with Error _ -> false | _ -> true) samples in
  let lat = M.sorted (List.map (fun s -> s.latency) ok) in
  let busy = List.fold_left (fun a s -> a +. s.latency) 0. samples in
  let tail_p, tail = M.tail lat in
  Format.printf "%d checks in %.2f s of checking (%d entries cycled), tail = p%g@." n busy
    (Array.length corpus) tail_p;
  Format.printf "latency ms:%s@."
    (String.concat ""
       (List.map (fun p -> Printf.sprintf " p%g=%.3f" p (1000. *. M.percentile lat p))
          [ 10.; 25.; 50.; 75.; 90.; 99. ]));
  if not trace then begin
    (* throughput, median latency and CPU as medians over the cycles, so a
       burst of interference on the host moves one cycle, not the figure *)
    let over_cycles f = M.median (List.map f cycles) in
    let count l = float_of_int (List.length l) in
    M.metric r "checks_per_s" "1/s"
      (over_cycles (fun (l, _, _) -> count l /. List.fold_left ( +. ) 0. l));
    M.metric r "check_p50_ms" "ms" (over_cycles (fun (l, _, _) -> 1000. *. M.median l));
    M.metric r "check_tail_ms" "ms" (1000. *. tail);
    M.metric r "cpu_ms_per_check" "ms" (over_cycles (fun (l, cpu, _) -> 1000. *. cpu /. count l));
    M.metric r "peak_rss_mb" "MB" (over_cycles (fun (_, _, rss) -> rss));
    M.metric r "success_rate" "ratio" (float_of_int (n - r.failed) /. float_of_int n);
    M.metric r "setup_s" "s" setup_s
  end
  else begin
    (* the traced replica, on the same corpus from the same position *)
    let tr = Trace.create () in
    let sim_hits = ref 0 and sim_misses = ref 0 in
    let traced_prep e =
      let thunk = prepare_traced ?pool tr e in
      fun () ->
        let x = thunk () in
        let h, m, _ = Simcache.stats () in
        sim_hits := !sim_hits + h;
        sim_misses := !sim_misses + m;
        x
    in
    let tsamples, _ = closed_loop ~seconds:(seconds /. 2.) corpus traced_prep in
    verify r corpus tsamples;
    let tn = float_of_int (List.length tsamples) in
    let tbusy = List.fold_left (fun a s -> a +. s.latency) 0. tsamples in
    let count name = Trace.get tr name /. tn in
    let nodes = Trace.get tr "inclusion.nodes" in
    let per_knode x = if nodes = 0. then 0. else 1000. *. x /. nodes in
    Replay.layer_metrics r tr ~checks:tn;
    M.metric r "simcache.hit_ratio" "ratio"
      (M.ratio (float_of_int !sim_hits) (float_of_int !sim_misses));
    M.metric r "inclusion.nodes" "count" (count "inclusion.nodes");
    M.metric r "inclusion.subsumed_ratio" "ratio" (M.ratio (Trace.get tr "inclusion.subsumed") nodes);
    M.metric r "pool.steals_per_knode" "count" (per_knode (Trace.get tr "pool.steals"));
    M.metric r "pool.parks" "count" (count "pool.parks");
    M.metric r "pool.contention_per_knode" "count" (per_knode (Trace.get tr "pool.contention"));
    (* no cache, no daemon: measured zero by construction *)
    List.iter
      (fun (m, u) -> M.metric r m u 0.)
      [ ("request.memo_hit_ratio", "ratio"); ("request.lint_memo_hit_ratio", "ratio");
        ("request.model_cache_hit_ratio", "ratio"); ("request.decides_per_check", "count");
        ("ts_diff.identical", "ratio"); ("ts_diff.equivalent", "ratio"); ("ts_diff.local", "ratio");
        ("ts_diff.global", "ratio"); ("daemon.overhead_ms", "ms"); ("daemon.ping_ms", "ms");
        ("jsonx.codec_ms", "ms") ];
    (* exact allocation of the calling domain, from the untraced half *)
    let fn = float_of_int n in
    M.metric r "gc.minor_words_per_check" "words"
      (List.fold_left (fun a s -> a +. s.minor_words) 0. samples /. fn);
    M.metric r "gc.major_collections_per_check" "count"
      (float_of_int (List.fold_left (fun a s -> a + s.majors) 0 samples) /. fn);
    M.metric r "trace.coverage" "ratio" (tr.Trace.covered /. tbusy);
    M.metric r "trace.overhead" "x" ((tbusy /. tn) /. (busy /. fn));
    Format.printf "traced: %.0f checks in %.2f s; shares of traced time:@." tn tbusy;
    Replay.print_shares tr ~total:tbusy;
    Format.printf "  %-22s %5.1f%%@." "(not in any span)" (100. *. (1. -. (tr.Trace.covered /. tbusy)))
  end;
  Option.iter Pool.shutdown pool;
  r
