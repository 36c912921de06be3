(* Answers the program under test did not compute, checked outside the
   timed loop:

   - [sat] of the [Models.formula] shapes, by graph search on the model
     (every state of a generated model has a successor, so behaviors are
     the infinite paths from an initial state);
   - [rl] by the eager route the antichain engine replaced: determinize
     pre(Lω) and pre(Lω ∩ P), then compare the DFAs;
   - [rs] through Theorem 4.7 (sat ⟺ rl ∧ rs) from the two above;
   - every counterexample lasso by the direct LTL semantics
     ([Rl_ltl.Semantics.satisfies]) and a path simulation here, every
     doomed prefix by the same simulation and the eager DFA. *)

open Rl_sigma
open Rl_automata
open Rl_buchi
open Rl_core

let adjacency (m : Models.model) =
  let adj = Array.make m.states [] in
  Array.iter (fun (s, a, t) -> adj.(s) <- (a, t) :: adj.(s)) m.edges;
  adj

let reachable (m : Models.model) adj =
  let seen = Array.make m.states false in
  let rec go q = if not seen.(q) then (seen.(q) <- true; List.iter (fun (_, t) -> go t) adj.(q)) in
  List.iter go m.initial;
  seen

(* Tarjan over the edges whose label satisfies [keep]: the component of
   each state, and whether the state lies on a cycle of that subgraph *)
let sccs (m : Models.model) adj ~keep =
  let n = m.states in
  let index = Array.make n (-1) and low = Array.make n 0 and comp = Array.make n (-1) in
  let on_stack = Array.make n false and stack = ref [] and next = ref 0 and ncomp = ref 0 in
  let rec visit v =
    index.(v) <- !next;
    low.(v) <- !next;
    incr next;
    stack := v :: !stack;
    on_stack.(v) <- true;
    List.iter
      (fun (a, w) ->
        if keep a then
          if index.(w) < 0 then (visit w; low.(v) <- min low.(v) low.(w))
          else if on_stack.(w) then low.(v) <- min low.(v) index.(w))
      adj.(v);
    if low.(v) = index.(v) then begin
      let rec pop () =
        match !stack with
        | w :: rest ->
            stack := rest;
            on_stack.(w) <- false;
            comp.(w) <- !ncomp;
            if w <> v then pop ()
        | [] -> assert false
      in
      pop ();
      incr ncomp
    end
  in
  for v = 0 to n - 1 do
    if index.(v) < 0 then visit v
  done;
  let size = Array.make !ncomp 0 in
  Array.iter (fun c -> size.(c) <- size.(c) + 1) comp;
  let cyclic =
    Array.init n (fun v ->
        size.(comp.(v)) > 1 || List.exists (fun (a, w) -> keep a && w = v) adj.(v))
  in
  (comp, cyclic)

let label_index (m : Models.model) x =
  let rec find i = if m.labels.(i) = x then i else find (i + 1) in
  find 0

(* Lω ⊆ P for the generated shapes *)
let sat (m : Models.model) (f : Models.formula) =
  let adj = adjacency m in
  let reach = reachable m adj in
  let exists p = let r = ref false in Array.iteri (fun q b -> if b && p q then r := true) reach; !r in
  match f with
  | Inf x ->
      (* violated by a reachable cycle that never reads x *)
      let xi = label_index m x in
      let _, cyc = sccs m adj ~keep:(fun a -> a <> xi) in
      not (exists (fun q -> cyc.(q)))
  | Fg x ->
      (* violated by a reachable cycle that reads something other than x *)
      let xi = label_index m x in
      let comp, _ = sccs m adj ~keep:(fun _ -> true) in
      not (exists (fun q -> List.exists (fun (a, t) -> a <> xi && comp.(t) = comp.(q)) adj.(q)))
  | Resp (x, y) ->
      (* violated by a reachable x-edge into a state with an infinite
         y-free path *)
      let xi = label_index m x and yi = label_index m y in
      let _, cyc = sccs m adj ~keep:(fun a -> a <> yi) in
      let radj = Array.make m.states [] in
      Array.iter (fun (s, a, t) -> if a <> yi then radj.(t) <- s :: radj.(t)) m.edges;
      let doomed = Array.make m.states false in
      let rec mark q = if not doomed.(q) then (doomed.(q) <- true; List.iter mark radj.(q)) in
      Array.iteri (fun q c -> if c then mark q) cyc;
      not (exists (fun q -> List.exists (fun (a, t) -> a = xi && doomed.(t)) adj.(q)))

let alphabet (m : Models.model) = Alphabet.make (Array.to_list m.labels)

let nfa (m : Models.model) =
  Nfa.trim
    (Nfa.create ~alphabet:(alphabet m) ~states:m.states ~initial:m.initial
       ~finals:(List.init m.states Fun.id) ~transitions:(Array.to_list m.edges) ())

(* the eager reference for relative liveness: [Ok ()] or [Error dfa_lp],
   the determinized pre(Lω ∩ P), with which a doomed prefix is checked *)
let rl (m : Models.model) formula =
  let ts = nfa m in
  let system = Buchi.of_transition_system ts in
  let p = Relative.ltl (Nfa.alphabet ts) (Rl_ltl.Parser.parse formula) in
  let pb = Relative.property_buchi (Buchi.alphabet system) p in
  let pre_l = Dfa.determinize (Buchi.pre_language system) in
  let pre_lp = Dfa.determinize (Buchi.pre_language (Buchi.inter system pb)) in
  match Dfa.included pre_l pre_lp with Ok () -> Ok () | Error _ -> Error pre_lp

(* --- witnesses, parsed from the rendered text of a reply --- *)

(* the byte offset of the first "·" separator *)
let find_dot s =
  let rec go i =
    if i + 1 >= String.length s then None
    else if s.[i] = '\xc2' && s.[i + 1] = '\xb7' then Some i
    else go (i + 1)
  in
  go 0

let split_word alpha s =
  if s = "ε" || s = "" then Some Word.empty
  else
    let rec names acc s =
      match find_dot s with
      | None -> List.rev (s :: acc)
      | Some i -> names (String.sub s 0 i :: acc) (String.sub s (i + 2) (String.length s - i - 2))
    in
    let ns = names [] s in
    if List.for_all (Alphabet.mem_name alpha) ns then Some (Word.of_names alpha ns) else None

(* "u·(v)^ω" *)
let parse_lasso alpha s =
  match String.index_opt s '(' with
  | None -> None
  | Some i ->
      let stem = if i >= 2 then String.sub s 0 (i - 2) else "" in
      let suffix = ")^ω" in
      let body = String.sub s (i + 1) (String.length s - i - 1) in
      if not (String.ends_with ~suffix body) then None
      else
        let cycle = String.sub body 0 (String.length body - String.length suffix) in
        match (split_word alpha stem, split_word alpha cycle) with
        | Some u, Some v when Word.length v > 0 -> Some (Lasso.make u v)
        | _ -> None

(* states reached from the initial states along [w] *)
let post adj states w =
  List.fold_left
    (fun s a -> List.sort_uniq compare (List.concat_map (fun q -> List.filter_map (fun (b, t) -> if b = a then Some t else None) adj.(q)) s))
    states (Word.to_list w)

let in_system_prefix (m : Models.model) w = post (adjacency m) m.initial w <> []

(* u·v^ω is a behavior iff reading v forever from the states u reaches
   never empties the state set; the sets repeat, so iterate to a cycle *)
let in_system_lasso (m : Models.model) x =
  let adj = adjacency m in
  let rec loop seen s =
    s <> [] && (List.mem s seen || loop (s :: seen) (post adj s (Lasso.cycle x)))
  in
  loop [] (post adj m.initial (Lasso.stem x))

(* a sat/rs counterexample: a behavior of the model that violates P *)
let counterexample_ok (m : Models.model) formula text =
  let alpha = alphabet m in
  match parse_lasso alpha text with
  | None -> false
  | Some x ->
      in_system_lasso m x
      && not
           (Rl_ltl.Semantics.satisfies ~labeling:(Rl_ltl.Semantics.canonical alpha) x
              (Rl_ltl.Parser.parse formula))

(* an rl witness: a prefix of the model outside pre(Lω ∩ P) *)
let doomed_prefix_ok (m : Models.model) pre_lp text =
  match split_word (alphabet m) text with
  | None -> false
  | Some w -> in_system_prefix m w && not (Dfa.accepts pre_lp w)

(* --- judging a verdict --- *)

(* the references of one (model, formula) pair, computed on first use *)
type refs = { sat_ref : bool Lazy.t; rl_ref : (unit, Dfa.t) result Lazy.t }

let refs m shape formula = { sat_ref = lazy (sat m shape); rl_ref = lazy (rl m formula) }

(* [None] when a [kind] verdict ([witness] is [None] for "holds") and its
   witness agree with the references, else what is wrong. Theorem 4.7
   (sat ⟺ rl ∧ rs) pins an rs verdict only where rl holds. *)
let judge m refs ~(kind : Rl_service.Request.kind) ~formula ~witness =
  let holds = witness = None in
  let rl_holds () = Result.is_ok (Lazy.force refs.rl_ref) in
  let expected =
    match kind with
    | Sat -> Some (Lazy.force refs.sat_ref)
    | Rl -> Some (rl_holds ())
    | Rs -> if rl_holds () then Some (Lazy.force refs.sat_ref) else None
  in
  match (expected, witness) with
  | Some e, _ when e <> holds -> Some (if holds then "got holds" else "got fails")
  | _, None -> None
  | _, Some w ->
      let ok =
        match kind with
        | Rl -> (
            match Lazy.force refs.rl_ref with
            | Error pre_lp -> doomed_prefix_ok m pre_lp w
            | Ok () -> false)
        | Sat | Rs -> counterexample_ok m formula w
      in
      if ok then None else Some ("witness " ^ w ^ " does not check")
