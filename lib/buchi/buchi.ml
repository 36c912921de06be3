open Rl_prelude
open Rl_sigma
open Rl_automata

type t = {
  alphabet : Alphabet.t;
  states : int;
  initial : int list;
  accepting : Bitset.t;
  delta : int list array array;
  csr : Csr.t;
      (* the canonical flat transition table, built once per automaton;
         slice order equals the [delta] list order *)
  rcsr : Csr.t option Atomic.t;
      (* the transposed table, built lazily on first backward pass
         (liveness pruning, simulation refinement) and cached; the
         keep-first CAS makes the cell domain-safe *)
}

(* Every construction site funnels through [make]: the delta is frozen
   into a CSR table exactly once, after all mutation. *)
let make ~alphabet ~states ~initial ~accepting ~delta =
  let csr = Csr.of_lists ~states ~symbols:(Alphabet.size alphabet) delta in
  { alphabet; states; initial; accepting; delta; csr; rcsr = Atomic.make None }

let check_state states q =
  if q < 0 || q >= states then invalid_arg "Buchi: state out of range"

(* [rows ~k ~states transitions] is the [delta] of the triples: prepending
   in list order leaves every row in reverse input order. *)
let rows ~k ~states transitions =
  let delta = Array.init states (fun _ -> Array.make k []) in
  List.iter
    (fun (q, a, q') ->
      check_state states q;
      check_state states q';
      if a < 0 || a >= k then invalid_arg "Buchi.create: symbol out of range";
      delta.(q).(a) <- q' :: delta.(q).(a))
    transitions;
  delta

let create ~alphabet ~states ~initial ~accepting ~transitions () =
  if states < 0 then invalid_arg "Buchi.create: negative state count";
  let acc = Bitset.create states in
  List.iter (check_state states) initial;
  List.iter
    (fun q ->
      check_state states q;
      Bitset.add acc q)
    accepting;
  let delta = rows ~k:(Alphabet.size alphabet) ~states transitions in
  make ~alphabet ~states ~initial ~accepting:acc ~delta

let alphabet t = t.alphabet
let states t = t.states
let initial t = t.initial
let accepting t = t.accepting
let is_accepting t q = Bitset.mem t.accepting q
let successors t q a = t.delta.(q).(a)
let csr t = t.csr

let rcsr t =
  match Atomic.get t.rcsr with
  | Some r -> r
  | None ->
      let r = Csr.transpose t.csr in
      if Atomic.compare_and_set t.rcsr None (Some r) then r
      else (match Atomic.get t.rcsr with Some r -> r | None -> r)

let iter_succ t q a f = Csr.iter_succ t.csr q a f
let has_edge t q a q' = Csr.mem_succ t.csr q a q'

let transitions t =
  let acc = ref [] in
  for q = t.states - 1 downto 0 do
    for a = Alphabet.size t.alphabet - 1 downto 0 do
      List.iter (fun q' -> acc := (q, a, q') :: !acc) t.delta.(q).(a)
    done
  done;
  !acc

let of_transition_system n =
  if Nfa.has_eps n then
    invalid_arg "Buchi.of_transition_system: ε-moves not allowed";
  if not (Nfa.all_states_final n) then
    invalid_arg "Buchi.of_transition_system: all states must be final";
  create ~alphabet:(Nfa.alphabet n) ~states:(Nfa.states n)
    ~initial:(Nfa.initial n)
    ~accepting:(List.init (Nfa.states n) Fun.id)
    ~transitions:(Nfa.transitions n) ()

let limit_of_dfa d =
  let k = Alphabet.size (Dfa.alphabet d) in
  let transitions = ref [] in
  for q = 0 to Dfa.states d - 1 do
    for a = 0 to k - 1 do
      transitions := (q, a, Dfa.step d q a) :: !transitions
    done
  done;
  let accepting =
    List.filter (Dfa.is_final d) (List.init (Dfa.states d) Fun.id)
  in
  create ~alphabet:(Dfa.alphabet d) ~states:(Dfa.states d)
    ~initial:[ Dfa.initial d ] ~accepting ~transitions:!transitions ()

let limit ?budget n = limit_of_dfa (Dfa.determinize ?budget n)

let of_lasso alphabet x =
  let stem = Lasso.stem x and cycle = Lasso.cycle x in
  let s = Word.length stem and p = Word.length cycle in
  let n = s + p in
  let transitions = ref [] in
  for i = 0 to s - 1 do
    transitions := (i, Word.get stem i, i + 1) :: !transitions
  done;
  for i = 0 to p - 1 do
    let target = if i = p - 1 then s else s + i + 1 in
    transitions := (s + i, Word.get cycle i, target) :: !transitions
  done;
  create ~alphabet ~states:n ~initial:[ 0 ]
    ~accepting:(List.init n Fun.id) ~transitions:!transitions ()

(* --- graph analyses --- *)

let graph t =
  Scc.flat ~states:t.states ~stride:(Alphabet.size t.alphabet)
    ~offsets:(Csr.offsets t.csr) ~targets:(Csr.targets t.csr)

(* Successors of [q] from its last CSR slot to its first. [sccs] visits
   rows in this order because its numbering is observable (the fairness
   layer's [bottom_sccs] groups by it) and must not change. *)
let iter_row_rev t q f =
  let k = Alphabet.size t.alphabet in
  let offsets = Csr.offsets t.csr and targets = Csr.targets t.csr in
  for i = offsets.((q + 1) * k) - 1 downto offsets.(q * k) do
    f targets.(i)
  done

let reachable t =
  let seen = Bitset.create t.states in
  let stack = Array.make t.states 0 in
  let sp = ref 0 in
  let push q =
    if not (Bitset.mem seen q) then begin
      Bitset.add seen q;
      stack.(!sp) <- q;
      incr sp
    end
  in
  List.iter push t.initial;
  while !sp > 0 do
    decr sp;
    Csr.iter_row_all t.csr stack.(!sp) push
  done;
  seen

let sccs t =
  let s = Scc.of_succ ~states:t.states (iter_row_rev t) in
  (s.Scc.comp, s.Scc.count)

(* [live_marks g ~is_acc ~roots] runs one Tarjan over [g] from [roots] and
   marks the states that are reachable and live. A component completes
   after every component it reaches, so its liveness is decided at
   completion: it is live iff it can loop through an accepting state
   (non-trivial and accepting) or has an edge into a live component. No
   transpose is needed. *)
let live_marks (g : Scc.graph) ~is_acc ~roots =
  let marks = Bytes.make g.states '\000' in
  let on_component stack lo hi =
    let loops = ref (hi - lo > 1) in
    let acc = ref false in
    let into_live = ref false in
    for m = lo to hi - 1 do
      let x = stack.(m) in
      if is_acc x then acc := true;
      let row = x / g.lanes * g.stride and l = g.lane x in
      for i = g.offsets.(row) to g.offsets.(row + g.stride) - 1 do
        let y = (g.lanes * g.targets.(i)) + l in
        if y = x then loops := true
        else if Bytes.unsafe_get marks y <> '\000' then into_live := true
      done
    done;
    if (!loops && !acc) || !into_live then
      for m = lo to hi - 1 do
        Bytes.unsafe_set marks stack.(m) '\001'
      done
  in
  ignore (Scc.search ?roots ~on_component g);
  marks

let live t =
  let marks =
    live_marks (graph t) ~is_acc:(Bitset.mem t.accepting) ~roots:None
  in
  let live = Bitset.create t.states in
  Bytes.iteri (fun q m -> if m <> '\000' then Bitset.add live q) marks;
  live

(* [compact ~alphabet g marks ~is_acc initial] is the automaton over the
   marked states of [g], numbered in increasing order. Every row keeps its
   slot order with unmarked targets dropped; [initial] keeps its order
   (duplicates included) with unmarked states dropped. The flat table is
   built once and adopted; the list view is read off it. *)
let compact ~alphabet (g : Scc.graph) marks ~is_acc initial =
  let k = g.stride in
  let remap = Array.make g.states (-1) in
  let n = ref 0 in
  Bytes.iteri
    (fun x m ->
      if m <> '\000' then begin
        remap.(x) <- !n;
        incr n
      end)
    marks;
  let n = !n in
  let offsets = Array.make ((n * k) + 1) 0 in
  let targets = Vec.create ~capacity:64 () in
  let accepting = Bitset.create n in
  for x = 0 to g.states - 1 do
    let q = remap.(x) in
    if q >= 0 then begin
      if is_acc x then Bitset.add accepting q;
      let row = x / g.lanes * k and l = g.lane x in
      for a = 0 to k - 1 do
        for i = g.offsets.(row + a) to g.offsets.(row + a + 1) - 1 do
          let q' = remap.((g.lanes * g.targets.(i)) + l) in
          if q' >= 0 then Vec.push targets q'
        done;
        offsets.((q * k) + a + 1) <- Vec.length targets
      done
    end
  done;
  let targets = Vec.to_array targets in
  let csr = Csr.of_arrays ~states:n ~symbols:k ~offsets ~targets in
  let delta =
    Array.init n (fun q ->
        Array.init k (fun a ->
            let l = ref [] in
            for i = offsets.((q * k) + a + 1) - 1 downto offsets.((q * k) + a) do
              l := targets.(i) :: !l
            done;
            !l))
  in
  let initial =
    List.filter_map
      (fun x -> if remap.(x) >= 0 then Some remap.(x) else None)
      initial
  in
  { alphabet; states = n; initial; accepting; delta; csr; rcsr = Atomic.make None }

let trim t =
  let g = graph t in
  let is_acc = Bitset.mem t.accepting in
  let marks = live_marks g ~is_acc ~roots:(Some t.initial) in
  compact ~alphabet:t.alphabet g marks ~is_acc t.initial

let is_empty t =
  let marks =
    live_marks (graph t) ~is_acc:(Bitset.mem t.accepting)
      ~roots:(Some t.initial)
  in
  not (List.exists (fun q -> Bytes.get marks q <> '\000') t.initial)

(* Nested DFS (Courcoubetis–Vardi–Wolper–Yannakakis), used as an
   independent oracle for [is_empty] in tests. *)
let is_empty_ndfs t =
  let n = t.states in
  if n = 0 then true
  else begin
    let blue = Array.make n false in
    let red = Array.make n false in
    let on_path = Array.make n false in
    let exception Found in
    let rec red_dfs q =
      iter_row_rev t q (fun q' ->
          if on_path.(q') then raise Found;
          if not red.(q') then begin
            red.(q') <- true;
            red_dfs q'
          end)
    in
    let rec blue_dfs q =
      blue.(q) <- true;
      on_path.(q) <- true;
      iter_row_rev t q (fun q' -> if not blue.(q') then blue_dfs q');
      if Bitset.mem t.accepting q then begin
        (* post-order check from accepting state *)
        red_dfs q
      end;
      on_path.(q) <- false
    in
    try
      List.iter (fun q -> if not blue.(q) then blue_dfs q) t.initial;
      true
    with Found -> false
  end

let accepting_lasso ?(budget = Rl_engine_kernel.Budget.unlimited) t =
  if t.states = 0 then None
  else begin
    (* the automaton is already built: the witness search is linear, so a
       single bulk charge accounts for it *)
    Rl_engine_kernel.Budget.charge budget t.states;
    let n = t.states and k = Alphabet.size t.alphabet in
    let reach = reachable t in
    (* only the SCC partition is used, never its numbering *)
    let scc = Scc.of_csr t.csr in
    let comp = scc.Scc.comp in
    (* the least reachable accepting state inside a good SCC — one that is
       non-trivial and, holding it, accepting *)
    let target = ref (-1) in
    Bitset.iter
      (fun q ->
        if !target < 0 && Bitset.mem reach q && Scc.nontrivial scc comp.(q)
        then target := q)
      t.accepting;
    if !target < 0 then None
    else begin
      let f = !target in
      let offsets = Csr.offsets t.csr and targets = Csr.targets t.csr in
      (* BFS scratch shared by every search below: [parent.(q) = -1] for
         unseen and start states, and each search first resets exactly the
         states the previous one enqueued *)
      let seen = Bytes.make n '\000' in
      let parent = Array.make n (-1) in
      let label = Array.make n 0 in
      let queue = Array.make n 0 in
      let tail = ref 0 in
      (* BFS from [starts] (in order) to [f], through states of component
         [within] only when [within >= 0]; the labels of the first path
         found *)
      let bfs starts within =
        for j = 0 to !tail - 1 do
          Bytes.unsafe_set seen queue.(j) '\000';
          parent.(queue.(j)) <- -1
        done;
        tail := 0;
        let enqueue q =
          Bytes.unsafe_set seen q '\001';
          queue.(!tail) <- q;
          incr tail
        in
        List.iter (fun q -> if Bytes.unsafe_get seen q = '\000' then enqueue q) starts;
        let head = ref 0 in
        let found = ref false in
        while (not !found) && !head < !tail do
          let q = queue.(!head) in
          incr head;
          if q = f then found := true
          else
            for a = 0 to k - 1 do
              for i = offsets.((q * k) + a) to offsets.((q * k) + a + 1) - 1 do
                let q' = targets.(i) in
                if
                  (within < 0 || comp.(q') = within)
                  && Bytes.unsafe_get seen q' = '\000'
                then begin
                  enqueue q';
                  parent.(q') <- q;
                  label.(q') <- a
                end
              done
            done
        done;
        if not !found then None
        else begin
          let labels = ref [] and q = ref f in
          while parent.(!q) >= 0 do
            labels := label.(!q) :: !labels;
            q := parent.(!q)
          done;
          Some !labels
        end
      in
      let stem =
        match bfs t.initial (-1) with
        | Some labels -> Word.of_list labels
        | None -> assert false
      in
      (* Cycle: take one edge f --a--> q' inside f's SCC, then a path
         q' → f. The BFS starts fresh at q' so the back walk terminates
         there; the first edge is prepended. Edges are tried from the last
         slot of f's row to the first. *)
      let id = comp.(f) in
      let cycle = ref None in
      let a = ref (k - 1) in
      while !cycle = None && !a >= 0 do
        let i = ref (offsets.((f * k) + !a + 1) - 1) in
        while !cycle = None && !i >= offsets.((f * k) + !a) do
          let q' = targets.(!i) in
          (if comp.(q') = id then
             match bfs [ q' ] id with
             | Some labels -> cycle := Some (Word.of_list (!a :: labels))
             | None -> ());
          decr i
        done;
        decr a
      done;
      match !cycle with
      | Some cycle -> Some (Lasso.make stem cycle)
      | None -> assert false (* f lies in a good (non-trivial) SCC *)
    end
  end

(* --- generalized Büchi --- *)

module Gba = struct
  type gba = {
    g_alphabet : Alphabet.t;
    g_states : int;
    g_initial : int list;
    g_sets : Bitset.t array;
    g_delta : int list array array;
  }

  let create ~alphabet ~states ~initial ~accepting_sets ~transitions () =
    if states < 0 then invalid_arg "Buchi.create: negative state count";
    List.iter (check_state states) initial;
    let delta = rows ~k:(Alphabet.size alphabet) ~states transitions in
    let sets =
      Array.of_list
        (List.map
           (fun set ->
             let b = Bitset.create states in
             List.iter
               (fun q ->
                 if q < 0 || q >= states then
                   invalid_arg "Gba.create: state out of range";
                 Bitset.add b q)
               set;
             b)
           accepting_sets)
    in
    {
      g_alphabet = alphabet;
      g_states = states;
      g_initial = initial;
      g_sets = sets;
      g_delta = delta;
    }

  let degeneralize g =
    let m = Array.length g.g_sets in
    if m = 0 then
      (* no constraint: every infinite run accepts *)
      make ~alphabet:g.g_alphabet ~states:g.g_states ~initial:g.g_initial
        ~accepting:(Bitset.of_list g.g_states (List.init g.g_states Fun.id))
        ~delta:g.g_delta
    else begin
      let k = Alphabet.size g.g_alphabet in
      let n = g.g_states in
      let encode q i = (q * m) + i in
      let next i q = if Bitset.mem g.g_sets.(i) q then (i + 1) mod m else i in
      let total = n * m in
      let delta = Array.init total (fun _ -> Array.make k []) in
      for q = 0 to n - 1 do
        for i = 0 to m - 1 do
          let j = next i q in
          for a = 0 to k - 1 do
            delta.(encode q i).(a) <- List.map (fun q' -> encode q' j) g.g_delta.(q).(a)
          done
        done
      done;
      let accepting = Bitset.create total in
      for q = 0 to n - 1 do
        if Bitset.mem g.g_sets.(0) q then Bitset.add accepting (encode q 0)
      done;
      make ~alphabet:g.g_alphabet ~states:total
        ~initial:(List.map (fun q -> encode q 0) g.g_initial)
        ~accepting ~delta
    end
end

(* Open-addressing map from product pair keys [p * nb + q] to pair ids:
   linear probing, 64 slots to start, doubling at half load. Small
   products stay on the minor heap. *)
module Pairs = struct
  type t = { mutable keys : int array; mutable ids : int array; mutable size : int }

  let create () = { keys = Array.make 64 (-1); ids = Array.make 64 0; size = 0 }

  let rec slot keys key i =
    let k = keys.(i) in
    if k = key || k < 0 then i else slot keys key ((i + 1) land (Array.length keys - 1))

  let start keys key =
    ((key * 0x2545F4914F6CDD1D) lsr 32) land (Array.length keys - 1)

  (* the id of [key], or -1 *)
  let find t key =
    let i = slot t.keys key (start t.keys key) in
    if t.keys.(i) < 0 then -1 else t.ids.(i)

  let add t key id =
    if 2 * (t.size + 1) > Array.length t.keys then begin
      let keys = t.keys and ids = t.ids in
      t.keys <- Array.make (2 * Array.length keys) (-1);
      t.ids <- Array.make (2 * Array.length keys) 0;
      Array.iteri
        (fun j k ->
          if k >= 0 then begin
            let i = slot t.keys k (start t.keys k) in
            t.keys.(i) <- k;
            t.ids.(i) <- ids.(j)
          end)
        keys
    end;
    let i = slot t.keys key (start t.keys key) in
    t.keys.(i) <- key;
    t.ids.(i) <- id;
    t.size <- t.size + 1
end

(* The fused product. Pairs get ids in BFS discovery order and their edges
   go straight into a flat table ([poff] per pair and symbol, [ptgt]), in
   BFS order. The degeneralized state [x = 2·id + c] (counter [c] of
   {!Gba.degeneralize} over the sets "accepting in [a]", "accepting in
   [b]") is never built: it is a lane of that table. One Tarjan from the
   initial states marks the reachable live states, and [compact] numbers
   them in increasing [x]. The result is [trim (Gba.degeneralize g)] for
   the generalized product [g], state for state and slot for slot. *)
let inter ?(budget = Rl_engine_kernel.Budget.unlimited) a b =
  if not (Alphabet.equal a.alphabet b.alphabet) then
    invalid_arg "Buchi.inter: alphabet mismatch";
  if a.states = 0 || b.states = 0 then
    create ~alphabet:a.alphabet ~states:0 ~initial:[] ~accepting:[]
      ~transitions:[] ()
  else begin
    (* explore only the reachable pairs: the full product is quadratic and
       dominates memory when one operand is large (e.g. a complement) *)
    let k = Alphabet.size a.alphabet and nb = b.states in
    let pairs = Pairs.create () in
    let pa = Vec.create ~capacity:64 () and pb = Vec.create ~capacity:64 () in
    let intern p q =
      let key = (p * nb) + q in
      let id = Pairs.find pairs key in
      if id >= 0 then id
      else begin
        Rl_engine_kernel.Budget.tick budget;
        let id = Vec.length pa in
        Vec.push pa p;
        Vec.push pb q;
        Pairs.add pairs key id;
        id
      end
    in
    let initial =
      List.concat_map
        (fun p -> List.map (fun q -> 2 * intern p q) b.initial)
        a.initial
    in
    let aoff = Csr.offsets a.csr and atgt = Csr.targets a.csr in
    let boff = Csr.offsets b.csr and btgt = Csr.targets b.csr in
    let poff = Vec.create ~capacity:64 () and ptgt = Vec.create ~capacity:64 () in
    Vec.push poff 0;
    (* the queue is the id range itself: ids are handed out in FIFO order *)
    let id = ref 0 in
    while !id < Vec.length pa do
      let p = Vec.get pa !id and q = Vec.get pb !id in
      for s = 0 to k - 1 do
        for i = aoff.((p * k) + s) to aoff.((p * k) + s + 1) - 1 do
          let p' = atgt.(i) in
          for j = boff.((q * k) + s) to boff.((q * k) + s + 1) - 1 do
            Vec.push ptgt (intern p' btgt.(j))
          done
        done;
        Vec.push poff (Vec.length ptgt)
      done;
      incr id
    done;
    let acc_a x = Bitset.mem a.accepting (Vec.get pa (x lsr 1)) in
    let acc_b x = Bitset.mem b.accepting (Vec.get pb (x lsr 1)) in
    (* counter 0 waits for [a]'s set, counter 1 for [b]'s *)
    let lane x =
      if x land 1 = 0 then (if acc_a x then 1 else 0)
      else if acc_b x then 0
      else 1
    in
    let is_acc x = x land 1 = 0 && acc_a x in
    let g =
      {
        Scc.states = 2 * Vec.length pa;
        stride = k;
        offsets = Vec.to_array poff;
        targets = Vec.to_array ptgt;
        lanes = 2;
        lane;
      }
    in
    let marks = live_marks g ~is_acc ~roots:(Some initial) in
    compact ~alphabet:a.alphabet g marks ~is_acc initial
  end

let union a b =
  if not (Alphabet.equal a.alphabet b.alphabet) then
    invalid_arg "Buchi.union: alphabet mismatch";
  let shift q = q + a.states in
  let transitions =
    transitions a
    @ List.map (fun (q, s, q') -> (shift q, s, shift q')) (transitions b)
  in
  create ~alphabet:a.alphabet ~states:(a.states + b.states)
    ~initial:(a.initial @ List.map shift b.initial)
    ~accepting:
      (Bitset.elements a.accepting
      @ List.map shift (Bitset.elements b.accepting))
    ~transitions ()

let member t x = not (is_empty (inter t (of_lasso t.alphabet x)))

let pre_language ?(budget = Rl_engine_kernel.Budget.unlimited) t =
  Rl_engine_kernel.Budget.charge budget t.states;
  let t = trim t in
  if t.states = 0 then
    Nfa.create ~alphabet:t.alphabet ~states:0 ~initial:[] ~finals:[]
      ~transitions:[] ()
  else
    Nfa.create ~alphabet:t.alphabet ~states:t.states ~initial:t.initial
      ~finals:(List.init t.states Fun.id)
      ~transitions:(transitions t) ()

let pp ppf t =
  Format.fprintf ppf
    "@[<v>Buchi over %a: %d states, initial %a, accepting %a@,"
    Alphabet.pp t.alphabet t.states
    (Format.pp_print_list ~pp_sep:Format.pp_print_space Format.pp_print_int)
    t.initial Bitset.pp t.accepting;
  List.iter
    (fun (q, a, q') ->
      Format.fprintf ppf "  %d --%s--> %d@," q (Alphabet.name t.alphabet a) q')
    (transitions t);
  Format.fprintf ppf "@]"

let to_dot ?(name = "buchi") t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "digraph %s {\n  rankdir=LR;\n" name);
  List.iter
    (fun q ->
      Buffer.add_string buf
        (Printf.sprintf "  init%d [shape=point];\n  init%d -> %d;\n" q q q))
    t.initial;
  for q = 0 to t.states - 1 do
    let shape = if Bitset.mem t.accepting q then "doublecircle" else "circle" in
    Buffer.add_string buf (Printf.sprintf "  %d [shape=%s];\n" q shape)
  done;
  List.iter
    (fun (q, a, q') ->
      Buffer.add_string buf
        (Printf.sprintf "  %d -> %d [label=\"%s\"];\n" q q'
           (Alphabet.name t.alphabet a)))
    (transitions t);
  Buffer.add_string buf "}\n";
  Buffer.contents buf
