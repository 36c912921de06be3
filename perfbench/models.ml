(* Input generation. Every model the benchmark checks is built here from
   a seed and handed to the program as [.ts] text (or parsed from
   that text), so the parent and the child of a change see byte-identical
   inputs for the same seed. Nothing here calls the program: the random
   source is the standard library's, and the text is rendered locally. *)

type model = {
  labels : string array;
  states : int;
  initial : int list;
  edges : (int * int * int) array;  (** source, label index, target *)
  reachable : int;
      (** states [0 .. reachable-1] are reachable; the rest form an
          unreachable region that edits may touch without changing any
          verdict *)
}

let rng seed tag = Random.State.make [| seed; Hashtbl.hash tag |]
let pick st a = a.(Random.State.int st (Array.length a))

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

let text m =
  let b = Buffer.create (32 * Array.length m.edges) in
  Buffer.add_string b "alphabet";
  Array.iter (fun l -> Buffer.add_char b ' '; Buffer.add_string b l) m.labels;
  Buffer.add_string b "\ninitial";
  List.iter (fun q -> Printf.bprintf b " %d" q) m.initial;
  Buffer.add_char b '\n';
  Array.iter
    (fun (s, a, t) -> Printf.bprintf b "%d %s %d\n" s m.labels.(a) t)
    m.edges;
  Buffer.contents b

(* The property family for random models. Each shape has a path-level
   satisfaction check in [Reference] that shares no code with the
   program's LTL translation. *)
type formula =
  | Inf of string  (** [[]<> x] *)
  | Fg of string  (** [<>[] x] *)
  | Resp of string * string  (** [[](x -> <> y)] *)

let formula_text = function
  | Inf x -> "[]<> " ^ x
  | Fg x -> "<>[] " ^ x
  | Resp (x, y) -> Printf.sprintf "[](%s -> <> %s)" x y

(* shape [i mod 3] over random labels *)
let random_formula st labels ~shape =
  let x = pick st labels in
  let rec other () = let y = pick st labels in if y = x then other () else y in
  match shape mod 3 with 0 -> Inf x | 1 -> Fg x | _ -> Resp (x, other ())

(* A random transition system. States [0 .. n-1] hang off a random
   spanning tree rooted at 0, so all of them are reachable; each has at
   least one successor, so every finite behavior extends to an infinite
   one. [branching] is the expected out-degree. States [n .. n+u-1] form
   an unreachable region, with edges among themselves and into the
   reachable part but none back. *)
let random_ts st ~labels ~states:n ?(unreachable = 0) ~branching () =
  let k = Array.length labels in
  let edges = ref [] in
  let add s t = edges := (s, Random.State.int st k, t) :: !edges in
  for q = 1 to n - 1 do
    add (Random.State.int st q) q
  done;
  for q = 0 to n - 1 do
    add q (Random.State.int st n)
  done;
  let extra = int_of_float (float_of_int n *. (branching -. 2.)) in
  for _ = 1 to max 0 extra do
    add (Random.State.int st n) (Random.State.int st n)
  done;
  for i = 0 to unreachable - 1 do
    let q = n + i in
    add q (n + Random.State.int st unreachable);
    add q (Random.State.int st n)
  done;
  let edges = Array.of_list (List.sort_uniq compare !edges) in
  { labels; states = n + unreachable; initial = [ 0 ]; edges; reachable = n }

(* A renaming of the states by a random permutation: the same language
   (so the same verdicts) under a different structure and text, which is
   how the daemon's clients resubmit a base model without hitting the
   memo entries of its previous submission. *)
let permutation st n =
  let perm = Array.init n Fun.id in
  shuffle st perm;
  perm

let rename perm m =
  let edges = Array.map (fun (s, a, t) -> (perm.(s), a, perm.(t))) m.edges in
  Array.sort compare edges;
  { m with initial = List.map (fun q -> perm.(q)) m.initial; edges }

(* --- families whose verdicts are known by construction --- *)

(* counter(ps): one t-cycle per length in ps, all heads initial, and a
   c-edge from every head into a c-only sink. Under [true] relative
   liveness holds trivially, but the antichain search must walk the
   lcm(ps)-long cycle of position vectors to see it. *)
let counter ps =
  let total = List.fold_left ( + ) 0 ps in
  let sink = total in
  let edges = ref [ (sink, 1, sink) ] and heads = ref [] and base = ref 0 in
  List.iter
    (fun p ->
      let b = !base in
      heads := b :: !heads;
      for i = 0 to p - 1 do
        edges := (b + i, 0, b + ((i + 1) mod p)) :: !edges
      done;
      edges := (b, 1, sink) :: !edges;
      base := b + p)
    ps;
  {
    labels = [| "t"; "c" |];
    states = total + 1;
    initial = List.rev !heads;
    edges = Array.of_list (List.rev !edges);
    reachable = total + 1;
  }

(* pipeline: [stages] hidden steps into an ok/fail loop; the tricky
   variant can also commit silently, at the start, to a fail-only loop.
   Under the ok/fail observation the abstract system is {ok,fail}^ω in
   both cases: the plain pipeline's homomorphism is simple (Theorem 8.2
   transfers [[]<> ok]), the tricky one's is not (no conclusion). *)
let pipeline ~stages ~tricky =
  let good = stages + 1 and bad = stages + 2 in
  let e = ref [ (0, 0, 1); (stages, 2, good); (good, 3, good); (good, 4, good) ] in
  for i = 1 to stages - 1 do
    e := (i, 2, i + 1) :: !e
  done;
  if tricky then e := (0, 1, bad) :: (bad, 4, bad) :: !e;
  let states = if tricky then stages + 3 else stages + 2 in
  {
    labels = [| "go"; "silent"; "step"; "ok"; "fail" |];
    states;
    initial = [ 0 ];
    edges = Array.of_list (List.rev !e);
    reachable = states;
  }

(* A model from named edges, labels in order of first use. *)
let of_named edges =
  let labels = ref [] in
  List.iter (fun (_, a, _) -> if not (List.mem a !labels) then labels := a :: !labels) edges;
  let labels = Array.of_list (List.rev !labels) in
  let index a = let rec go i = if labels.(i) = a then i else go (i + 1) in go 0 in
  let states = 1 + List.fold_left (fun m (s, _, t) -> max m (max s t)) 0 edges in
  { labels; states; initial = [ 0 ];
    edges = Array.of_list (List.map (fun (s, a, t) -> (s, index a, t)) edges);
    reachable = states }

(* The reachability graphs of the paper's Figure 1 server net and its
   Figure 3 faulty variant. Under the request/result/reject observation
   the server's homomorphism is simple (Theorem 8.2 transfers
   [[]<> result]) and the faulty one's is not. *)
let server =
  of_named
    [ (0, "lock", 2); (0, "request", 1); (1, "lock", 4); (1, "ok", 3); (2, "free", 0);
      (2, "request", 4); (3, "lock", 5); (3, "result", 0); (4, "free", 1); (4, "no", 6);
      (5, "free", 3); (5, "result", 2); (6, "free", 7); (6, "reject", 2); (7, "lock", 6);
      (7, "reject", 0) ]

let faulty =
  of_named
    [ (0, "lock", 2); (0, "request", 1); (1, "lock", 5); (1, "no", 4); (1, "ok", 3);
      (2, "request", 5); (3, "lock", 6); (3, "result", 0); (4, "lock", 7); (4, "reject", 0);
      (5, "no", 7); (6, "result", 2); (7, "reject", 2) ]

(* --- edits for the daemon's check–edit–recheck cycle --- *)

(* [m] plus one transition it lacks, between states [lo .. lo+n-1] *)
let add_edge st m ~lo ~n =
  let rec fresh () =
    let e =
      (lo + Random.State.int st n, Random.State.int st (Array.length m.labels), lo + Random.State.int st n)
    in
    if Array.mem e m.edges then fresh () else e
  in
  let edges = Array.append m.edges [| fresh () |] in
  Array.sort compare edges;
  { m with edges }

(* an edit inside the unreachable region, which cannot change a verdict *)
let unreachable_edit st m = add_edge st m ~lo:m.reachable ~n:(m.states - m.reachable)

(* a small reachable edit *)
let reachable_edit st m = add_edge st m ~lo:0 ~n:m.reachable

(* printed so two runs can be shown to have measured the same inputs *)
let digest parts = Digest.to_hex (Digest.string (String.concat "\x00" parts))
