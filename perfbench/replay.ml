(* The traced replica of a check: the same steps [Request.run] and
   [Abstraction.verify] take, called one public function at a time, each
   inside a span. Verdicts of the replica are held to the same reference
   answers as the real calls, so a replica that drifted from the program
   would fail the run rather than mismeasure it. *)

open Rl_sigma
open Rl_automata
open Rl_buchi
open Rl_core
module Stats = Rl_engine.Stats
module Lint = Rl_analysis.Lint
module Diagnostic = Rl_analysis.Diagnostic

type verdict = Holds | Fails of string | Blocked

let span = Trace.span

(* Inclusion.included with the antichain and pool counters around it *)
let included tr ?pool a b =
  let s0 = Stats.snapshot () in
  let r =
    span tr "inclusion" (fun () -> Inclusion.included ?pool ~subsumption:`Simulation a b)
  in
  let s1 = Stats.snapshot () in
  let d = Stats.diff ~before:s0 ~after:s1 in
  Trace.count tr "inclusion.nodes" (float_of_int d.Stats.nodes);
  Trace.count tr "inclusion.subsumed" (float_of_int d.Stats.antichain_hits);
  Trace.count tr "pool.steals" (float_of_int d.Stats.steals);
  Trace.count tr "pool.parks" (float_of_int d.Stats.parks);
  Trace.count tr "pool.contention" (float_of_int d.Stats.shard_contention);
  r

let quotient_buchi tr b =
  let b = span tr "glue" (fun () -> Buchi.trim b) in
  let q = span tr "preorder.quotient" (fun () -> Reduce.quotient b) in
  Trace.count tr "preorder.states_in" (float_of_int (Buchi.states b));
  Trace.count tr "preorder.states_out" (float_of_int (Buchi.states q));
  q

let quotient_nfa tr n =
  let q = span tr "preorder.quotient" (fun () -> Preorder.reduce n) in
  Trace.count tr "preorder.states_in" (float_of_int (Nfa.states n));
  Trace.count tr "preorder.states_out" (float_of_int (Nfa.states q));
  q

let product tr a b =
  let p = span tr "buchi.product" (fun () -> Buchi.inter a b) in
  Trace.count tr "buchi.product_states" (float_of_int (Buchi.states p));
  p

let translate tr ~neg alpha labeling f =
  let b =
    span tr "translate" (fun () ->
        if neg then Rl_ltl.Translate.to_buchi_neg ~alphabet:alpha ~labeling f
        else Rl_ltl.Translate.to_buchi ~alphabet:alpha ~labeling f)
  in
  Trace.count tr "translate.states" (float_of_int (Buchi.states b));
  b

(* Relative.is_relative_liveness, step by step *)
let relative_liveness tr ?pool ~system alpha labeling f =
  let pb = quotient_buchi tr (translate tr ~neg:false alpha labeling f) in
  let sys = quotient_buchi tr system in
  let pre_l = quotient_nfa tr (span tr "buchi.pre" (fun () -> Buchi.pre_language sys)) in
  let prod = product tr sys pb in
  let pre_lp = quotient_nfa tr (span tr "buchi.pre" (fun () -> Buchi.pre_language prod)) in
  included tr ?pool pre_l pre_lp

let decide tr ?pool kind ts f =
  let alpha = Nfa.alphabet ts in
  let labeling = Rl_ltl.Semantics.canonical alpha in
  let system = span tr "glue" (fun () -> Buchi.of_transition_system ts) in
  let p = Relative.ltl alpha f in
  let certified name ok = if ok then () else failwith ("replica: uncertified " ^ name) in
  match (kind : Rl_service.Request.kind) with
  | Sat -> (
      let neg = translate tr ~neg:true alpha labeling f in
      let prod = product tr system neg in
      match span tr "buchi.emptiness" (fun () -> Buchi.accepting_lasso prod) with
      | None -> Holds
      | Some x ->
          let c = span tr "certify" (fun () -> Rl_engine.Certify.counterexample ~system p x) in
          certified "counterexample" (Result.is_ok c);
          Fails (Format.asprintf "%a" (Lasso.pp alpha) x))
  | Rl -> (
      match relative_liveness tr ?pool ~system alpha labeling f with
      | Ok () -> Holds
      | Error w ->
          let c = span tr "certify" (fun () -> Rl_engine.Certify.doomed_prefix ~system p w) in
          certified "doomed prefix" (Result.is_ok c);
          Fails (Format.asprintf "%a" (Word.pp alpha) w))
  | Rs -> (
      let pb = quotient_buchi tr (translate tr ~neg:false alpha labeling f) in
      let sys = quotient_buchi tr system in
      let neg = translate tr ~neg:true alpha labeling f in
      let pre = quotient_nfa tr (span tr "buchi.pre" (fun () -> Buchi.pre_language (product tr sys pb))) in
      let closure = span tr "buchi.limit" (fun () -> Buchi.limit pre) in
      let bad = product tr (product tr sys closure) neg in
      match span tr "buchi.emptiness" (fun () -> Buchi.accepting_lasso bad) with
      | None -> Holds
      | Some x ->
          let c = span tr "certify" (fun () -> Rl_engine.Certify.counterexample ~system p x) in
          certified "counterexample" (Result.is_ok c);
          Fails (Format.asprintf "%a" (Lasso.pp alpha) x))

(* Request.run on an inline model, without a cache *)
let check tr ?pool ~kind ~name ~text ~formula () =
  let f = span tr "glue" (fun () -> Rl_ltl.Parser.parse formula) in
  let parse_diags = ref [] in
  let sys =
    match
      span tr "ts_format.parse" (fun () ->
          Ts_format.parse_ts_result
            ~on_diagnostic:(fun d -> parse_diags := d :: !parse_diags)
            ~file:name text)
    with
    | Ok s -> s
    | Error _ -> failwith "replica: model does not parse"
  in
  let diags =
    span tr "lint.preflight" (fun () ->
        Lint.run ~deep:false
          { Lint.empty with file = Some name; parse = List.rev !parse_diags; system = Some sys;
            formula = Some f })
  in
  if List.exists Diagnostic.is_error diags then Blocked
  else decide tr ?pool kind (span tr "glue" (fun () -> Nfa.trim sys)) f

(* Abstraction.verify on a parsed model, step by step; returns the
   conclusion the real call would *)
let abstraction tr ~text ~keep ~formula =
  span tr "abstraction.verify" @@ fun () ->
  let ts =
    span tr "ts_format.parse" (fun () -> Nfa.trim (Ts_format.parse_ts text))
  in
  let f = span tr "glue" (fun () -> Rl_ltl.Parser.parse formula) in
  let hom = span tr "glue" (fun () -> Rl_hom.Hom.hiding ~concrete:(Nfa.alphabet ts) ~keep) in
  let abstract_ts = span tr "hom.image" (fun () -> Rl_hom.Hom.image_ts hom ts) in
  let maximal = span tr "hom.maximal_words" (fun () -> Rl_hom.Hom.has_maximal_words abstract_ts) in
  let checked = if maximal then span tr "glue" (fun () -> Rl_hom.Hom.hash_extend abstract_ts) else abstract_ts in
  let alpha = Nfa.alphabet checked in
  let system = span tr "glue" (fun () -> Buchi.of_transition_system checked) in
  let verdict =
    relative_liveness tr ~system alpha (Rl_ltl.Semantics.canonical alpha) f
  in
  let analysis = span tr "hom.simplicity" (fun () -> Rl_hom.Hom.analyze hom ts) in
  if maximal then `Unknown
  else
    match verdict with
    | Error _ -> `Concrete_fails
    | Ok () -> if analysis.Rl_hom.Hom.simple then `Concrete_holds else `Unknown

(* --- the replica's figures --- *)

let layers =
  [ "ts_format.parse"; "lint.preflight"; "translate"; "preorder.quotient"; "buchi.pre";
    "buchi.product"; "buchi.limit"; "buchi.emptiness"; "inclusion"; "certify"; "hom.image";
    "hom.maximal_words"; "hom.simplicity"; "glue" ]

(* each layer's span time as a share of [total] seconds *)
let print_shares tr ~total =
  List.iter (fun k -> Format.printf "  %-22s %5.1f%%@." k (100. *. Trace.time tr k /. total)) layers

(* The layer figures the replica measures, over [checks] checks of the
   workload: milliseconds and counts per check. *)
let layer_metrics (r : Measure.result) tr ~checks =
  let ms name span = Measure.metric r name "ms" (1000. *. Trace.time tr span /. checks) in
  let count name = Measure.metric r name "count" (Trace.get tr name /. checks) in
  ms "ts_format.parse_ms" "ts_format.parse";
  ms "lint.preflight_ms" "lint.preflight";
  ms "translate.ms" "translate";
  count "translate.states";
  ms "certify.ms" "certify";
  ms "preorder.quotient_ms" "preorder.quotient";
  count "preorder.states_in";
  count "preorder.states_out";
  ms "buchi.pre_ms" "buchi.pre";
  ms "buchi.product_ms" "buchi.product";
  count "buchi.product_states";
  ms "buchi.limit_ms" "buchi.limit";
  ms "buchi.emptiness_ms" "buchi.emptiness";
  ms "inclusion.ms" "inclusion";
  Measure.metric r "inclusion.nodes_per_s" "1/s"
    (let t = Trace.time tr "inclusion" in
     if t = 0. then 0. else Trace.get tr "inclusion.nodes" /. t);
  ms "abstraction.verify_ms" "abstraction.verify";
  ms "hom.simplicity_ms" "hom.simplicity"
