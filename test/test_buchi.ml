(* Tests for the Büchi library: emptiness (two algorithms), witnesses,
   products, limits, prefix languages and rank-based complementation. *)

open Rl_sigma
open Rl_automata
open Rl_buchi

let ab = Alphabet.make [ "a"; "b" ]
let a_sym = Alphabet.symbol ab "a"
let b_sym = Alphabet.symbol ab "b"
let lasso stem cycle = Lasso.of_names ab ~stem ~cycle

(* Infinitely many a's (□◇a). *)
let inf_a =
  Buchi.create ~alphabet:ab ~states:2 ~initial:[ 0 ] ~accepting:[ 1 ]
    ~transitions:
      [ (0, b_sym, 0); (0, a_sym, 1); (1, a_sym, 1); (1, b_sym, 0) ]
    ()

(* Finitely many a's (◇□b): guess the point after which only b occurs. *)
let fin_a =
  Buchi.create ~alphabet:ab ~states:2 ~initial:[ 0 ] ~accepting:[ 1 ]
    ~transitions:
      [ (0, a_sym, 0); (0, b_sym, 0); (0, b_sym, 1); (1, b_sym, 1) ]
    ()

let test_member () =
  List.iter
    (fun (x, expect, label) ->
      Alcotest.(check bool) label expect (Buchi.member inf_a x))
    [
      (lasso [] [ "a" ], true, "a^ω");
      (lasso [] [ "a"; "b" ], true, "(ab)^ω");
      (lasso [] [ "b" ], false, "b^ω");
      (lasso [ "a"; "b" ] [ "b" ], false, "ab·b^ω");
      (lasso [ "b"; "b"; "b" ] [ "a"; "b"; "b" ], true, "bbb·(abb)^ω");
    ]

let test_emptiness () =
  Alcotest.(check bool) "inf_a nonempty" false (Buchi.is_empty inf_a);
  Alcotest.(check bool) "ndfs agrees" false (Buchi.is_empty_ndfs inf_a);
  (* accepting state unreachable from a cycle *)
  let dead =
    Buchi.create ~alphabet:ab ~states:2 ~initial:[ 0 ] ~accepting:[ 1 ]
      ~transitions:[ (0, a_sym, 0); (0, b_sym, 1) ]
      ()
  in
  Alcotest.(check bool) "no accepting cycle" true (Buchi.is_empty dead);
  Alcotest.(check bool) "ndfs agrees (empty)" true (Buchi.is_empty_ndfs dead)

let test_accepting_lasso () =
  match Buchi.accepting_lasso inf_a with
  | None -> Alcotest.fail "expected witness"
  | Some x -> Alcotest.(check bool) "witness accepted" true (Buchi.member inf_a x)

let test_of_lasso () =
  let x = lasso [ "b" ] [ "a"; "b" ] in
  let bx = Buchi.of_lasso ab x in
  Alcotest.(check bool) "x ∈ {x}" true (Buchi.member bx x);
  Alcotest.(check bool) "y ∉ {x}" false (Buchi.member bx (lasso [] [ "a" ]));
  Alcotest.(check bool) "b·(ab)^ω has inf a" true (Buchi.member inf_a x)

let test_trim () =
  let t = Buchi.trim fin_a in
  Alcotest.(check bool) "language kept" true
    (Buchi.member t (lasso [ "a"; "a" ] [ "b" ]));
  Alcotest.(check bool) "still rejects" false (Buchi.member t (lasso [] [ "a"; "b" ]))

let test_inter_unit () =
  let both = Buchi.inter inf_a fin_a in
  (* □◇a ∧ ◇□b is unsatisfiable over {a,b} since ◇□b = ¬□◇a here. *)
  Alcotest.(check bool) "inf_a ∩ fin_a empty" true (Buchi.is_empty both)

let test_union_unit () =
  let either = Buchi.union inf_a fin_a in
  List.iter
    (fun (x, label) ->
      Alcotest.(check bool) label true (Buchi.member either x))
    [ (lasso [] [ "a" ], "a^ω"); (lasso [] [ "b" ], "b^ω"); (lasso [] [ "a"; "b" ], "(ab)^ω") ]

let test_pre_language () =
  let pre = Buchi.pre_language inf_a in
  (* every finite word extends to a word with infinitely many a's *)
  List.iter
    (fun names ->
      Alcotest.(check bool)
        (String.concat "" ("pre:" :: names))
        true
        (Nfa.accepts pre (Word.of_names ab names)))
    [ []; [ "a" ]; [ "b"; "b" ]; [ "a"; "b"; "a" ] ]

let test_pre_language_strict () =
  (* L = a^ω only: pre(L) = a* *)
  let only_a =
    Buchi.create ~alphabet:ab ~states:1 ~initial:[ 0 ] ~accepting:[ 0 ]
      ~transitions:[ (0, a_sym, 0) ] ()
  in
  let pre = Buchi.pre_language only_a in
  Alcotest.(check bool) "aa ∈" true (Nfa.accepts pre (Word.of_names ab [ "a"; "a" ]));
  Alcotest.(check bool) "ab ∉" false (Nfa.accepts pre (Word.of_names ab [ "a"; "b" ]))

let test_limit_of_dfa () =
  (* L = words ending in a; lim(L) = words with infinitely many ... no:
     lim(L) = ω-words with infinitely many prefixes ending in a
            = ω-words containing infinitely many a's. *)
  let ends_in_a =
    Nfa.create ~alphabet:ab ~states:2 ~initial:[ 0 ] ~finals:[ 1 ]
      ~transitions:
        [ (0, a_sym, 1); (0, b_sym, 0); (1, a_sym, 1); (1, b_sym, 0) ]
      ()
  in
  let l = Buchi.limit (Nfa.trim ends_in_a) in
  Alcotest.(check bool) "a^ω ∈ lim" true (Buchi.member l (lasso [] [ "a" ]));
  Alcotest.(check bool) "(ab)^ω ∈ lim" true (Buchi.member l (lasso [] [ "a"; "b" ]));
  Alcotest.(check bool) "b^ω ∉ lim" false (Buchi.member l (lasso [] [ "b" ]));
  Alcotest.(check bool) "a·b^ω ∉ lim" false (Buchi.member l (lasso [ "a" ] [ "b" ]))

let test_complement_unit () =
  let c = Complement.complement inf_a in
  Alcotest.(check bool) "b^ω ∈ comp" true (Buchi.member c (lasso [] [ "b" ]));
  Alcotest.(check bool) "ab·b^ω ∈ comp" true (Buchi.member c (lasso [ "a"; "b" ] [ "b" ]));
  Alcotest.(check bool) "a^ω ∉ comp" false (Buchi.member c (lasso [] [ "a" ]));
  Alcotest.(check bool) "disjoint" true (Buchi.is_empty (Buchi.inter inf_a c))

let test_included () =
  (* {a^ω} ⊆ □◇a *)
  let only_a =
    Buchi.create ~alphabet:ab ~states:1 ~initial:[ 0 ] ~accepting:[ 0 ]
      ~transitions:[ (0, a_sym, 0) ] ()
  in
  (match Omega_lang.included only_a inf_a with
  | Ok () -> ()
  | Error x -> Alcotest.failf "unexpected witness %a" (Lasso.pp ab) x);
  match Omega_lang.included inf_a only_a with
  | Ok () -> Alcotest.fail "□◇a ⊄ {a^ω}"
  | Error x ->
      Alcotest.(check bool) "witness valid" true
        (Buchi.member inf_a x && not (Buchi.member only_a x))

let test_limit_closed () =
  (* Transition systems are limit closed; ◇□b is not. *)
  let ts =
    Nfa.create ~alphabet:ab ~states:1 ~initial:[ 0 ] ~finals:[ 0 ]
      ~transitions:[ (0, a_sym, 0); (0, b_sym, 0) ]
      ()
  in
  Alcotest.(check bool) "Σ^ω limit closed" true
    (Omega_lang.is_limit_closed (Buchi.of_transition_system ts));
  Alcotest.(check bool) "◇□b not limit closed" false
    (Omega_lang.is_limit_closed fin_a)

let test_safety_closure () =
  let sc = Omega_lang.safety_closure fin_a in
  (* pre(◇□b) = Σ*, so the closure is Σ^ω. *)
  Alcotest.(check bool) "a^ω ∈ closure" true (Buchi.member sc (lasso [] [ "a" ]));
  match Omega_lang.included fin_a sc with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "L ⊆ closure must hold"

(* --- randomized properties --- *)

let mk_rng seed = Rl_prelude.Prng.create seed

let random_buchi rng ~states =
  let k = Alphabet.size ab in
  let transitions = ref [] in
  for q = 0 to states - 1 do
    for a = 0 to k - 1 do
      for q' = 0 to states - 1 do
        if Rl_prelude.Prng.float rng < 0.3 then
          transitions := (q, a, q') :: !transitions
      done
    done
  done;
  let accepting =
    List.filter (fun _ -> Rl_prelude.Prng.float rng < 0.4) (List.init states Fun.id)
  in
  Buchi.create ~alphabet:ab ~states ~initial:[ 0 ] ~accepting
    ~transitions:!transitions ()

let gen_buchi max_states =
  QCheck2.Gen.(
    let* seed = 0 -- 1_000_000 in
    let* states = 1 -- max_states in
    return (random_buchi (mk_rng seed) ~states))

let gen_lasso =
  QCheck2.Gen.(
    pair (list_size (0 -- 3) (0 -- 1)) (list_size (1 -- 3) (0 -- 1))
    >|= fun (s, c) -> Lasso.make (Word.of_list s) (Word.of_list c))

(* --- oracles: the list and Hashtbl constructions that the fused product
   and the array-based witness search replaced, kept verbatim in shape and
   built only from the public API --- *)

let all_states b = List.init (Buchi.states b) Fun.id
let alphabet_symbols b = List.init (Alphabet.size (Buchi.alphabet b)) Fun.id

(* [steps b].(p).(q): q is reachable from p in one or more steps *)
let steps b =
  let n = Buchi.states b in
  Array.init n (fun p ->
      let seen = Array.make n false in
      let rec go q =
        List.iter
          (fun a ->
            List.iter
              (fun q' ->
                if not seen.(q') then begin
                  seen.(q') <- true;
                  go q'
                end)
              (Buchi.successors b q a))
          (alphabet_symbols b)
      in
      go p;
      seen)

let oracle_reachable b =
  let r = steps b in
  List.filter
    (fun q -> List.exists (fun i -> i = q || r.(i).(q)) (Buchi.initial b))
    (all_states b)

(* live: some accepting state on a cycle is reachable in zero or more steps *)
let oracle_live b =
  let r = steps b in
  List.filter
    (fun q ->
      List.exists
        (fun f -> Buchi.is_accepting b f && r.(f).(f) && (f = q || r.(q).(f)))
        (all_states b))
    (all_states b)

let oracle_restrict b keep =
  let remap = Array.make (Buchi.states b) (-1) in
  let n = ref 0 in
  List.iter
    (fun q ->
      if List.mem q keep then begin
        remap.(q) <- !n;
        incr n
      end)
    (all_states b);
  let kept q = remap.(q) >= 0 in
  (* [create] prepends, so feeding the triples in reverse keeps list order *)
  let transitions =
    List.concat_map
      (fun q ->
        List.concat_map
          (fun a ->
            List.filter_map
              (fun q' -> if kept q' then Some (remap.(q), a, remap.(q')) else None)
              (Buchi.successors b q a))
          (alphabet_symbols b))
      (List.filter kept (all_states b))
  in
  Buchi.create ~alphabet:(Buchi.alphabet b) ~states:!n
    ~initial:(List.filter_map (fun q -> if kept q then Some remap.(q) else None) (Buchi.initial b))
    ~accepting:
      (List.filter_map
         (fun q -> if kept q && Buchi.is_accepting b q then Some remap.(q) else None)
         (all_states b))
    ~transitions:(List.rev transitions) ()

let oracle_trim b =
  let live = oracle_live b in
  oracle_restrict b (List.filter (fun q -> List.mem q live) (oracle_reachable b))

let oracle_inter ?(budget = Rl_engine_kernel.Budget.unlimited) a b =
  let alphabet = Buchi.alphabet a in
  if Buchi.states a = 0 || Buchi.states b = 0 then
    Buchi.create ~alphabet ~states:0 ~initial:[] ~accepting:[] ~transitions:[] ()
  else begin
    let k = Alphabet.size alphabet in
    let table = Hashtbl.create 64 in
    let rev = ref [] in
    let count = ref 0 in
    let intern pair =
      match Hashtbl.find_opt table pair with
      | Some id -> (id, false)
      | None ->
          Rl_engine_kernel.Budget.tick budget;
          let id = !count in
          incr count;
          Hashtbl.add table pair id;
          rev := pair :: !rev;
          (id, true)
    in
    let queue = Queue.create () in
    let initial =
      List.concat_map
        (fun p ->
          List.map
            (fun q ->
              let pair = (p, q) in
              let id, fresh = intern pair in
              if fresh then Queue.add pair queue;
              id)
            (Buchi.initial b))
        (Buchi.initial a)
    in
    let transitions = ref [] in
    while not (Queue.is_empty queue) do
      let ((p, q) as pair) = Queue.pop queue in
      let src = Hashtbl.find table pair in
      for s = 0 to k - 1 do
        List.iter
          (fun p' ->
            List.iter
              (fun q' ->
                let pair' = (p', q') in
                let dst, fresh = intern pair' in
                if fresh then Queue.add pair' queue;
                transitions := (src, s, dst) :: !transitions)
              (Buchi.successors b q s))
          (Buchi.successors a p s)
      done
    done;
    let pairs = Array.of_list (List.rev !rev) in
    let set1 = ref [] and set2 = ref [] in
    Array.iteri
      (fun id (p, q) ->
        if Buchi.is_accepting a p then set1 := id :: !set1;
        if Buchi.is_accepting b q then set2 := id :: !set2)
      pairs;
    let g =
      Buchi.Gba.create ~alphabet ~states:!count ~initial
        ~accepting_sets:[ !set1; !set2 ] ~transitions:!transitions ()
    in
    oracle_trim (Buchi.Gba.degeneralize g)
  end

(* the witness search as a list BFS with [Queue] and optional parents;
   SCC membership by mutual reachability *)
let oracle_lasso b =
  let n = Buchi.states b in
  let r = steps b in
  let same_scc p q = p = q || (r.(p).(q) && r.(q).(p)) in
  let reach = oracle_reachable b in
  match
    List.find_opt
      (fun q -> List.mem q reach && Buchi.is_accepting b q && r.(q).(q))
      (all_states b)
  with
  | None -> None
  | Some f ->
      let bfs start within =
        let parent = Array.make n None in
        let seen = Array.make n false in
        let queue = Queue.create () in
        List.iter
          (fun (q, lab) ->
            if not seen.(q) then begin
              seen.(q) <- true;
              parent.(q) <- lab;
              Queue.add q queue
            end)
          start;
        let found = ref None in
        while !found = None && not (Queue.is_empty queue) do
          let q = Queue.pop queue in
          if q = f then found := Some q
          else
            List.iter
              (fun a ->
                List.iter
                  (fun q' ->
                    if within q' && not seen.(q') then begin
                      seen.(q') <- true;
                      parent.(q') <- Some (q, a);
                      Queue.add q' queue
                    end)
                  (Buchi.successors b q a))
              (alphabet_symbols b)
        done;
        Option.map
          (fun q ->
            let rec back q acc =
              match parent.(q) with None -> acc | Some (p, a) -> back p (a :: acc)
            in
            back q [])
          !found
      in
      let stem =
        Option.get (bfs (List.map (fun q -> (q, None)) (Buchi.initial b)) (fun _ -> true))
      in
      let first_edges = ref [] in
      List.iter
        (fun a ->
          List.iter
            (fun q' -> if same_scc q' f then first_edges := (a, q') :: !first_edges)
            (Buchi.successors b f a))
        (alphabet_symbols b);
      let cycle =
        List.find_map
          (fun (a, q') ->
            Option.map (fun l -> a :: l) (bfs [ (q', None) ] (same_scc f)))
          !first_edges
      in
      Some (stem, Option.get cycle)

let same_automaton x y =
  let open Rl_prelude in
  Buchi.states x = Buchi.states y
  && Buchi.initial x = Buchi.initial y
  && Bitset.elements (Buchi.accepting x) = Bitset.elements (Buchi.accepting y)
  && List.for_all
       (fun q ->
         List.for_all
           (fun a -> Buchi.successors x q a = Buchi.successors y q a)
           (alphabet_symbols x))
       (all_states x)
  && Csr.offsets (Buchi.csr x) = Csr.offsets (Buchi.csr y)
  && Csr.targets (Buchi.csr x) = Csr.targets (Buchi.csr y)

(* arbitrary operands: zero states, empty or repeated initial states and
   repeated transitions all occur *)
let gen_raw_buchi =
  QCheck2.Gen.(
    let* states = 0 -- 5 in
    if states = 0 then
      return (Buchi.create ~alphabet:ab ~states:0 ~initial:[] ~accepting:[] ~transitions:[] ())
    else
      let st = 0 -- (states - 1) in
      let* initial = list_size (0 -- 3) st in
      let* accepting = list_size (0 -- states) st in
      let* transitions = list_size (0 -- 16) (triple st (0 -- 1) st) in
      let* repeated = 0 -- List.length transitions in
      let transitions = transitions @ List.filteri (fun i _ -> i < repeated) transitions in
      return (Buchi.create ~alphabet:ab ~states ~initial ~accepting ~transitions ()))

let print_buchi = Format.asprintf "%a" Buchi.pp

let prop_inter_matches_oracle =
  QCheck2.Test.make ~name:"inter is structurally the list/Hashtbl product"
    ~count:1000
    ~print:(fun (x, y) -> print_buchi x ^ "\n" ^ print_buchi y)
    QCheck2.Gen.(pair gen_raw_buchi gen_raw_buchi)
    (fun (x, y) -> same_automaton (Buchi.inter x y) (oracle_inter x y))

let prop_inter_matches_oracle_dense =
  QCheck2.Test.make ~name:"inter is the list/Hashtbl product (dense operands)"
    ~count:200
    QCheck2.Gen.(pair (gen_buchi 7) (gen_buchi 7))
    (fun (x, y) -> same_automaton (Buchi.inter x y) (oracle_inter x y))

let prop_trim_matches_oracle =
  QCheck2.Test.make ~name:"trim is structurally the reachable-and-live restriction"
    ~count:500 ~print:print_buchi gen_raw_buchi (fun b ->
      same_automaton (Buchi.trim b) (oracle_trim b))

let prop_lasso_matches_oracle =
  QCheck2.Test.make ~name:"accepting_lasso is the list-BFS witness" ~count:1000
    ~print:print_buchi
    QCheck2.Gen.(oneof [ gen_raw_buchi; gen_buchi 7 ])
    (fun b ->
      let show =
        Option.map (fun x -> (Word.to_list (Lasso.stem x), Word.to_list (Lasso.cycle x)))
      in
      let want =
        Option.map
          (fun (stem, cycle) -> Lasso.make (Word.of_list stem) (Word.of_list cycle))
          (oracle_lasso b)
      in
      show (Buchi.accepting_lasso b) = show want)

let test_inter_budget () =
  (* both constructions tick once per fresh pair, in the same order, so a
     tiny budget runs out at the same tick *)
  let x = random_buchi (mk_rng 7) ~states:6 and y = random_buchi (mk_rng 8) ~states:6 in
  let pairs_seen inter max_states =
    let budget = Rl_engine_kernel.Budget.create ~max_states () in
    match inter budget with
    | _ -> None
    | exception Rl_engine_kernel.Budget.Exhausted e -> Some e.states_explored
  in
  for max_states = 0 to 12 do
    let got = pairs_seen (fun budget -> Buchi.inter ~budget x y) max_states in
    let want = pairs_seen (fun budget -> oracle_inter ~budget x y) max_states in
    Alcotest.(check (option int)) (Printf.sprintf "max_states %d" max_states) want got;
    Alcotest.(check bool) "exhausted" true (got <> None)
  done

let prop_emptiness_algorithms_agree =
  QCheck2.Test.make ~name:"scc and ndfs emptiness agree" ~count:500 (gen_buchi 7)
    (fun b -> Buchi.is_empty b = Buchi.is_empty_ndfs b)

let prop_witness_sound =
  QCheck2.Test.make ~name:"accepting_lasso witness is a member" ~count:500
    (gen_buchi 7) (fun b ->
      match Buchi.accepting_lasso b with
      | None -> Buchi.is_empty b
      | Some x -> Buchi.member b x)

let prop_trim_preserves =
  QCheck2.Test.make ~name:"trim preserves membership" ~count:300
    QCheck2.Gen.(pair (gen_buchi 6) gen_lasso)
    (fun (b, x) -> Buchi.member b x = Buchi.member (Buchi.trim b) x)

let prop_inter_semantics =
  QCheck2.Test.make ~name:"inter matches conjunction" ~count:300
    QCheck2.Gen.(triple (gen_buchi 4) (gen_buchi 4) gen_lasso)
    (fun (b1, b2, x) ->
      Buchi.member (Buchi.inter b1 b2) x = (Buchi.member b1 x && Buchi.member b2 x))

let prop_union_semantics =
  QCheck2.Test.make ~name:"union matches disjunction" ~count:300
    QCheck2.Gen.(triple (gen_buchi 4) (gen_buchi 4) gen_lasso)
    (fun (b1, b2, x) ->
      Buchi.member (Buchi.union b1 b2) x = (Buchi.member b1 x || Buchi.member b2 x))

let prop_complement_partition =
  (* the KV construction is doubly exponential in practice on dense inputs:
     keep the automata small (production paths pre-reduce, cf. Omega_lang) *)
  QCheck2.Test.make ~name:"complement partitions Σ^ω (on lassos)" ~count:150
    QCheck2.Gen.(pair (gen_buchi 3) gen_lasso)
    (fun (b, x) ->
      let c = Complement.complement b in
      Buchi.member b x <> Buchi.member c x)

let prop_complement_disjoint =
  QCheck2.Test.make ~name:"L ∩ comp(L) = ∅" ~count:100 (gen_buchi 3) (fun b ->
      Buchi.is_empty (Buchi.inter b (Complement.complement b)))

let prop_complement_covers =
  (* universality of b ∪ comp(b) needs a second complementation, which is
     exponential: keep the inputs tiny and skip the occasional blow-up *)
  QCheck2.Test.make ~name:"L ∪ comp(L) = Σ^ω (small cases)" ~count:60
    (gen_buchi 2) (fun b ->
      match
        Rl_buchi.Reduce.quotient
          (Buchi.trim
             (Buchi.union b (Complement.complement ~max_states:20_000 b)))
      with
      | exception Complement.Too_large _ -> true (* skip the blow-up *)
      | u -> (
          Buchi.states u > 6
          ||
          let sigma_omega =
            Buchi.create ~alphabet:ab ~states:1 ~initial:[ 0 ] ~accepting:[ 0 ]
              ~transitions:[ (0, a_sym, 0); (0, b_sym, 0) ]
              ()
          in
          match Omega_lang.included sigma_omega u with
          | Ok () -> true
          | Error _ -> false))

(* Oracle for limits: run the DFA along the lasso; the state sequence is
   ultimately periodic, and x ∈ lim(L) iff the periodic part visits a final
   state. *)
let limit_oracle d x =
  let spoke = Lasso.spoke x and p = Lasso.period x in
  let q = ref (Dfa.initial d) in
  for i = 0 to spoke - 1 do
    q := Dfa.step d !q (Lasso.at x i)
  done;
  (* Find the cycle of (offset in cycle, dfa state) pairs. *)
  let seen = Hashtbl.create 16 in
  let pos = ref spoke in
  let result = ref None in
  while !result = None do
    let key = ((!pos - spoke) mod p, !q) in
    match Hashtbl.find_opt seen key with
    | Some start ->
        (* cycle from [start] to [!pos]: accepting iff some final inside *)
        let hit = ref false in
        let qq = ref !q in
        for i = !pos to !pos + (!pos - start) - 1 do
          if Dfa.is_final d !qq then hit := true;
          qq := Dfa.step d !qq (Lasso.at x i)
        done;
        result := Some !hit
    | None ->
        Hashtbl.add seen key !pos;
        q := Dfa.step d !q (Lasso.at x !pos);
        incr pos
  done;
  Option.get !result

let prop_limit_matches_oracle =
  QCheck2.Test.make ~name:"limit_of_dfa matches infinitely-many-prefixes oracle"
    ~count:400
    QCheck2.Gen.(
      let* seed = 0 -- 1_000_000 in
      let* states = 1 -- 5 in
      let rng = mk_rng seed in
      let d = Gen.dfa rng ~alphabet:ab ~states ~final_prob:0.5 in
      let* x = gen_lasso in
      return (d, x))
    (fun (d, x) -> Buchi.member (Buchi.limit_of_dfa d) x = limit_oracle d x)

let prop_transition_system_limit_closed =
  QCheck2.Test.make ~name:"transition systems are limit closed" ~count:40
    QCheck2.Gen.(pair (0 -- 1_000_000) (1 -- 4))
    (fun (seed, states) ->
      let rng = mk_rng seed in
      let ts = Gen.transition_system rng ~alphabet:ab ~states ~branching:1.4 in
      Omega_lang.is_limit_closed (Buchi.of_transition_system ts))

let prop_pre_language_correct =
  QCheck2.Test.make ~name:"pre(Lω) membership: w ∈ pre iff live continuation"
    ~count:300
    QCheck2.Gen.(
      let* b = gen_buchi 5 in
      let* w = list_size (0 -- 5) (0 -- 1) in
      return (b, Word.of_list w))
    (fun (b, w) ->
      let in_pre = Nfa.accepts (Buchi.pre_language b) w in
      (* oracle: does some accepting run read w as a prefix? Decide by
         moving the initial states along w and checking emptiness. *)
      let rec reach_sets states i =
        if i >= Word.length w then states
        else
          let next =
            List.sort_uniq compare
              (List.concat_map (fun q -> Buchi.successors b q (Word.get w i)) states)
          in
          reach_sets next (i + 1)
      in
      let reached = reach_sets (Buchi.initial b) 0 in
      let shifted =
        Buchi.create ~alphabet:ab ~states:(Buchi.states b) ~initial:reached
          ~accepting:(Rl_prelude.Bitset.elements (Buchi.accepting b))
          ~transitions:(Buchi.transitions b) ()
      in
      in_pre = not (Buchi.is_empty shifted))

let prop_simulation_quotient_preserves =
  QCheck2.Test.make ~name:"simulation quotient preserves membership" ~count:300
    QCheck2.Gen.(pair (gen_buchi 6) gen_lasso)
    (fun (b, x) -> Buchi.member b x = Buchi.member (Reduce.quotient b) x)

let prop_simulation_quotient_shrinks =
  QCheck2.Test.make ~name:"simulation quotient never grows" ~count:300
    (gen_buchi 6)
    (fun b -> Buchi.states (Reduce.quotient b) <= Buchi.states b)

let test_simulation_quotient_merges () =
  (* two identical accepting sink components must merge *)
  let b =
    Buchi.create ~alphabet:ab ~states:3 ~initial:[ 0 ] ~accepting:[ 1; 2 ]
      ~transitions:
        [ (0, a_sym, 1); (0, a_sym, 2); (1, a_sym, 1); (2, a_sym, 2) ]
      ()
  in
  Alcotest.(check int) "duplicates merged" 2 (Buchi.states (Reduce.quotient b))

let test_simulation_preorder () =
  (* in inf_a, the accepting state simulates... check reflexivity and the
     acceptance constraint *)
  let sim = Reduce.direct_simulation inf_a in
  Alcotest.(check bool) "reflexive 0" true sim.(0).(0);
  Alcotest.(check bool) "reflexive 1" true sim.(1).(1);
  Alcotest.(check bool) "accepting not simulated by plain" false sim.(1).(0)

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_simulation_quotient_preserves;
      prop_simulation_quotient_shrinks;
      prop_emptiness_algorithms_agree;
      prop_witness_sound;
      prop_inter_matches_oracle;
      prop_inter_matches_oracle_dense;
      prop_trim_matches_oracle;
      prop_lasso_matches_oracle;
      prop_trim_preserves;
      prop_inter_semantics;
      prop_union_semantics;
      prop_complement_partition;
      prop_complement_disjoint;
      prop_complement_covers;
      prop_limit_matches_oracle;
      prop_transition_system_limit_closed;
      prop_pre_language_correct;
    ]

let () =
  Alcotest.run "buchi"
    [
      ( "basics",
        [
          Alcotest.test_case "member" `Quick test_member;
          Alcotest.test_case "emptiness" `Quick test_emptiness;
          Alcotest.test_case "accepting lasso" `Quick test_accepting_lasso;
          Alcotest.test_case "of_lasso" `Quick test_of_lasso;
          Alcotest.test_case "trim" `Quick test_trim;
        ] );
      ( "reduction",
        [
          Alcotest.test_case "duplicate merge" `Quick test_simulation_quotient_merges;
          Alcotest.test_case "simulation preorder" `Quick test_simulation_preorder;
        ] );
      ( "boolean",
        [
          Alcotest.test_case "inter" `Quick test_inter_unit;
          Alcotest.test_case "inter budget" `Quick test_inter_budget;
          Alcotest.test_case "union" `Quick test_union_unit;
          Alcotest.test_case "complement" `Quick test_complement_unit;
          Alcotest.test_case "included" `Quick test_included;
        ] );
      ( "prefix-limit",
        [
          Alcotest.test_case "pre language" `Quick test_pre_language;
          Alcotest.test_case "pre language strict" `Quick test_pre_language_strict;
          Alcotest.test_case "limit of dfa" `Quick test_limit_of_dfa;
          Alcotest.test_case "limit closed" `Quick test_limit_closed;
          Alcotest.test_case "safety closure" `Quick test_safety_closure;
        ] );
      ("properties", qsuite);
    ]
