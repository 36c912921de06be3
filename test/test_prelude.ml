(* Tests for the prelude: bitsets, union-find, and the deterministic PRNG. *)

open Rl_prelude

(* --- Bitset --- *)

let test_bitset_basic () =
  let s = Bitset.create 100 in
  Alcotest.(check bool) "empty" true (Bitset.is_empty s);
  Bitset.add s 0;
  Bitset.add s 63;
  Bitset.add s 64;
  Bitset.add s 99;
  Alcotest.(check bool) "mem 63" true (Bitset.mem s 63);
  Alcotest.(check bool) "mem 64" true (Bitset.mem s 64);
  Alcotest.(check bool) "not mem 1" false (Bitset.mem s 1);
  Alcotest.(check int) "cardinal" 4 (Bitset.cardinal s);
  Bitset.remove s 63;
  Alcotest.(check bool) "removed" false (Bitset.mem s 63);
  Alcotest.(check (list int)) "elements sorted" [ 0; 64; 99 ] (Bitset.elements s)

let test_bitset_bounds () =
  let s = Bitset.create 10 in
  Alcotest.check_raises "add out of range"
    (Invalid_argument "Bitset: element out of range") (fun () -> Bitset.add s 10);
  Alcotest.check_raises "negative"
    (Invalid_argument "Bitset: element out of range") (fun () ->
      ignore (Bitset.mem s (-1)))

let test_bitset_setops () =
  let mk xs = Bitset.of_list 70 xs in
  let a = mk [ 1; 2; 65 ] and b = mk [ 2; 3; 65 ] in
  let u = Bitset.copy a in
  Bitset.union_into ~into:u b;
  Alcotest.(check (list int)) "union" [ 1; 2; 3; 65 ] (Bitset.elements u);
  let i = Bitset.copy a in
  Bitset.inter_into ~into:i b;
  Alcotest.(check (list int)) "inter" [ 2; 65 ] (Bitset.elements i);
  let d = Bitset.copy a in
  Bitset.diff_into ~into:d b;
  Alcotest.(check (list int)) "diff" [ 1 ] (Bitset.elements d);
  Alcotest.(check bool) "subset" true (Bitset.subset i a);
  Alcotest.(check bool) "not subset" false (Bitset.subset a b);
  Alcotest.(check bool) "disjoint" true (Bitset.disjoint d (mk [ 2; 3 ]));
  Alcotest.(check bool) "equal to self copy" true (Bitset.equal a (Bitset.copy a));
  Alcotest.(check int) "choose = min" 1 (Bitset.choose a)

let prop_bitset_model =
  (* bitsets behave like integer sets *)
  QCheck2.Test.make ~name:"bitset agrees with a list-set model" ~count:500
    QCheck2.Gen.(list_size (0 -- 40) (0 -- 59))
    (fun xs ->
      let s = Bitset.of_list 60 xs in
      let model = List.sort_uniq compare xs in
      Bitset.elements s = model
      && Bitset.cardinal s = List.length model
      && List.for_all (Bitset.mem s) model
      && Bitset.hash s = Bitset.hash (Bitset.of_list 60 (List.rev xs)))

(* The raw-word layout the antichain engine's inner loops hard-code:
   bit [i] of the set is bit [i mod int_size] of word [i / int_size],
   and the array has exactly [(capacity + int_size - 1) / int_size]
   words. A change here silently breaks every hoisted word loop. *)
let test_bitset_word_layout () =
  let isz = Sys.int_size in
  let nb = (2 * isz) + 5 in
  let s = Bitset.create nb in
  let w = Bitset.unsafe_words s in
  Alcotest.(check int) "word count" ((nb + isz - 1) / isz) (Array.length w);
  let probes = [ 0; 1; isz - 1; isz; (2 * isz) - 1; 2 * isz; nb - 1 ] in
  List.iter (Bitset.add s) probes;
  let w = Bitset.unsafe_words s in
  List.iter
    (fun i ->
      Alcotest.(check bool)
        (Printf.sprintf "bit %d set in word %d" i (i / isz))
        true
        (w.(i / isz) land (1 lsl (i mod isz)) <> 0))
    probes;
  (* and only those bits: popcount over the words equals the cardinal *)
  let bits = ref 0 in
  Array.iter
    (fun word ->
      let x = ref word in
      while !x <> 0 do
        bits := !bits + (!x land 1);
        x := !x lsr 1
      done)
    w;
  Alcotest.(check int) "popcount = cardinal" (Bitset.cardinal s) !bits

let prop_bitset_setops_model =
  (* the in-place set operations against the sorted-list model — these
     are the exact primitives the frontier loops OR/AND over raw words *)
  QCheck2.Test.make ~name:"bitset set operations agree with the model"
    ~count:300
    QCheck2.Gen.(
      pair (list_size (0 -- 30) (0 -- 99)) (list_size (0 -- 30) (0 -- 99)))
    (fun (xs, ys) ->
      let a = Bitset.of_list 100 xs and b = Bitset.of_list 100 ys in
      let xs = List.sort_uniq compare xs
      and ys = List.sort_uniq compare ys in
      let union = Bitset.copy a in
      Bitset.union_into ~into:union b;
      let inter = Bitset.copy a in
      Bitset.inter_into ~into:inter b;
      let diff = Bitset.copy a in
      Bitset.diff_into ~into:diff b;
      Bitset.elements union = List.sort_uniq compare (xs @ ys)
      && Bitset.elements inter = List.filter (fun x -> List.mem x ys) xs
      && Bitset.elements diff
         = List.filter (fun x -> not (List.mem x ys)) xs
      && Bitset.subset a b
         = List.for_all (fun x -> List.mem x ys) xs
      && Bitset.disjoint a b
         = List.for_all (fun x -> not (List.mem x ys)) xs)

(* --- Csr --- *)

(* rows.(q).(a) in exactly the order the triples listed them — CSR
   construction must preserve slice order, duplicates included *)
let rows_of_triples ~states ~symbols triples =
  let rows = Array.init states (fun _ -> Array.make symbols []) in
  List.iter
    (fun (q, a, q') -> rows.(q).(a) <- q' :: rows.(q).(a))
    (List.rev triples);
  rows

let test_csr_small () =
  (* 3 states, 2 symbols; state 1 has a duplicate a-edge to 2 *)
  let triples = [ (0, 0, 1); (0, 0, 2); (1, 0, 2); (1, 0, 2); (2, 1, 0) ] in
  let rows = rows_of_triples ~states:3 ~symbols:2 triples in
  let t = Csr.of_lists ~states:3 ~symbols:2 rows in
  Alcotest.(check int) "states" 3 (Csr.states t);
  Alcotest.(check int) "symbols" 2 (Csr.symbols t);
  Alcotest.(check int) "degree 0 a" 2 (Csr.degree t 0 0);
  Alcotest.(check int) "duplicate kept" 2 (Csr.degree t 1 0);
  Alcotest.(check int) "empty row" 0 (Csr.degree t 0 1);
  Alcotest.(check bool) "has_succ" true (Csr.has_succ t 2 1);
  Alcotest.(check bool) "has_succ empty" false (Csr.has_succ t 2 0);
  Alcotest.(check bool) "mem_succ" true (Csr.mem_succ t 0 0 2);
  Alcotest.(check bool) "not mem_succ" false (Csr.mem_succ t 0 0 0);
  (* raw slice access agrees with iter_succ, in order *)
  let by_iter = ref [] in
  Csr.iter_succ t 0 0 (fun q' -> by_iter := q' :: !by_iter);
  let by_slice = ref [] in
  for i = Csr.row_stop t 0 0 - 1 downto Csr.row_start t 0 0 do
    by_slice := Csr.target t i :: !by_slice
  done;
  Alcotest.(check (list int)) "slice = iter" (List.rev !by_iter) !by_slice;
  Alcotest.(check (list int)) "slice order = input order" [ 1; 2 ] !by_slice;
  (* iter_row_all is the symbol-major concatenation *)
  let all = ref [] in
  Csr.iter_row_all t 0 (fun q' -> all := q' :: !all);
  Alcotest.(check (list int)) "row-all" [ 1; 2 ] (List.rev !all);
  Alcotest.(check int) "fold_succ" 3
    (Csr.fold_succ t 0 0 (fun q' acc -> q' + acc) 0);
  (* offsets: length states*symbols+1, nondecreasing, end = pool size *)
  let offs = Csr.offsets t in
  Alcotest.(check int) "offsets length" 7 (Array.length offs);
  Alcotest.(check int) "total" (List.length triples)
    (Array.length (Csr.targets t));
  Array.iteri
    (fun i o -> if i > 0 && o < offs.(i - 1) then Alcotest.fail "decreasing")
    offs

let test_csr_empty () =
  let t = Csr.of_fn ~states:0 ~symbols:3 (fun _ _ -> []) in
  Alcotest.(check int) "no states" 0 (Csr.states t);
  Alcotest.(check int) "offsets of empty" 1 (Array.length (Csr.offsets t));
  let t = Csr.of_fn ~states:4 ~symbols:2 (fun _ _ -> []) in
  for q = 0 to 3 do
    Csr.iter_row_all t q (fun _ -> Alcotest.fail "edge in empty table")
  done

let gen_csr_input =
  QCheck2.Gen.(
    bind
      (pair (1 -- 6) (1 -- 3))
      (fun (n, k) ->
        let edge = triple (0 -- (n - 1)) (0 -- (k - 1)) (0 -- (n - 1)) in
        map (fun ts -> (n, k, ts)) (list_size (0 -- 25) edge)))

let prop_csr_of_lists_eq_of_fn =
  QCheck2.Test.make ~name:"csr: of_lists and of_fn build identical tables"
    ~count:300 gen_csr_input (fun (n, k, triples) ->
      let rows = rows_of_triples ~states:n ~symbols:k triples in
      let a = Csr.of_lists ~states:n ~symbols:k rows in
      let b = Csr.of_fn ~states:n ~symbols:k (fun q s -> rows.(q).(s)) in
      Csr.offsets a = Csr.offsets b && Csr.targets a = Csr.targets b)

let prop_csr_model =
  QCheck2.Test.make ~name:"csr agrees with the successor-list model"
    ~count:300 gen_csr_input (fun (n, k, triples) ->
      let rows = rows_of_triples ~states:n ~symbols:k triples in
      let t = Csr.of_lists ~states:n ~symbols:k rows in
      let ok = ref true in
      for q = 0 to n - 1 do
        let concat = ref [] in
        for a = k - 1 downto 0 do
          let want = rows.(q).(a) in
          concat := want @ !concat;
          if Csr.degree t q a <> List.length want then ok := false;
          if Csr.has_succ t q a <> (want <> []) then ok := false;
          if List.rev (Csr.fold_succ t q a (fun x acc -> x :: acc) []) <> want
          then ok := false;
          for q' = 0 to n - 1 do
            if Csr.mem_succ t q a q' <> List.mem q' want then ok := false
          done
        done;
        let all = ref [] in
        Csr.iter_row_all t q (fun x -> all := x :: !all);
        if List.rev !all <> !concat then ok := false
      done;
      !ok)

let prop_csr_transpose =
  QCheck2.Test.make ~name:"csr: transpose reverses the relation" ~count:300
    gen_csr_input (fun (n, k, triples) ->
      let rows = rows_of_triples ~states:n ~symbols:k triples in
      let t = Csr.of_lists ~states:n ~symbols:k rows in
      let r = Csr.transpose t in
      let ok = ref true in
      for q = 0 to n - 1 do
        for a = 0 to k - 1 do
          for q' = 0 to n - 1 do
            if Csr.mem_succ r q' a q <> Csr.mem_succ t q a q' then ok := false
          done;
          (* documented: transposed slices are sorted by source state *)
          let slice = List.rev (Csr.fold_succ r q a (fun x acc -> x :: acc) []) in
          if List.sort compare slice <> slice then ok := false
        done
      done;
      !ok)

(* --- Scc --- *)

let gen_graph_input =
  QCheck2.Gen.(
    bind
      (pair (1 -- 12) (1 -- 3))
      (fun (n, k) ->
        let edge = triple (0 -- (n - 1)) (0 -- (k - 1)) (0 -- (n - 1)) in
        map (fun ts -> (n, k, ts)) (list_size (0 -- 40) edge)))

(* [closure t].(p).(q): q is reachable from p in zero or more steps *)
let closure t =
  let n = Csr.states t in
  Array.init n (fun p ->
      let seen = Array.make n false in
      let rec go q =
        if not seen.(q) then begin
          seen.(q) <- true;
          Csr.iter_row_all t q go
        end
      in
      go p;
      seen)

let prop_scc_of_csr_eq_of_succ =
  QCheck2.Test.make ~name:"scc: of_csr equals of_succ over iter_row_all"
    ~count:500 gen_graph_input (fun (n, k, triples) ->
      let t = Csr.of_lists ~states:n ~symbols:k (rows_of_triples ~states:n ~symbols:k triples) in
      let a = Scc.of_csr t and b = Scc.of_succ ~states:n (Csr.iter_row_all t) in
      a.comp = b.comp && a.count = b.count && a.size = b.size
      && a.self_loop = b.self_loop && a.closed = b.closed)

let prop_scc_search_roots =
  QCheck2.Test.make ~name:"scc: search visits exactly the states reachable from its roots"
    ~count:500
    QCheck2.Gen.(pair gen_graph_input (list_size (0 -- 3) (0 -- 11)))
    (fun ((n, k, triples), roots) ->
      let roots = List.filter (fun q -> q < n) roots in
      let t = Csr.of_lists ~states:n ~symbols:k (rows_of_triples ~states:n ~symbols:k triples) in
      let g =
        Scc.flat ~states:n ~stride:k ~offsets:(Csr.offsets t) ~targets:(Csr.targets t)
      in
      let completed = Array.make n (-1) and order = ref 0 in
      let on_component stack lo hi =
        for m = lo to hi - 1 do
          completed.(stack.(m)) <- !order
        done;
        incr order
      in
      let comp, count = Scc.search ~roots ~on_component g in
      let r = closure t in
      count = !order
      && List.for_all
           (fun q ->
             let reached = List.exists (fun p -> r.(p).(q)) roots in
             (comp.(q) >= 0) = reached && completed.(q) = comp.(q))
           (List.init n Fun.id))

(* --- Vec --- *)

let test_vec_basic () =
  let v = Vec.create () in
  Alcotest.(check bool) "fresh is empty" true (Vec.is_empty v);
  for i = 0 to 299 do
    Vec.push v (i * 2)
  done;
  Alcotest.(check int) "length" 300 (Vec.length v);
  Alcotest.(check int) "get" 84 (Vec.get v 42);
  Vec.set v 42 (-1);
  Alcotest.(check int) "set" (-1) (Vec.get v 42);
  Alcotest.(check int) "pop is LIFO" 598 (Vec.pop v);
  Alcotest.(check int) "pop shrinks" 299 (Vec.length v);
  Vec.truncate v 10;
  Alcotest.(check int) "truncate" 10 (Vec.length v);
  Alcotest.(check (list int)) "to_list survives truncation"
    (List.init 10 (fun i -> i * 2))
    (Vec.to_list v);
  Vec.clear v;
  Alcotest.(check bool) "cleared" true (Vec.is_empty v)

let prop_vec_model =
  QCheck2.Test.make ~name:"vec agrees with a list model (push/pop mix)"
    ~count:300
    QCheck2.Gen.(list_size (0 -- 60) (option (0 -- 999)))
    (fun ops ->
      (* Some x = push x, None = pop (ignored when empty) *)
      let v = Vec.create () in
      let model = ref [] in
      List.iter
        (fun op ->
          match op with
          | Some x ->
              Vec.push v x;
              model := x :: !model
          | None -> (
              match !model with
              | [] -> ()
              | x :: rest ->
                  if Vec.pop v <> x then failwith "pop mismatch";
                  model := rest))
        ops;
      Vec.to_list v = List.rev !model
      && Vec.length v = List.length !model
      && Array.to_list (Vec.to_array v) = List.rev !model)

(* --- Arena --- *)

let test_arena_slices () =
  let a = Arena.create ~width:3 in
  Alcotest.(check int) "width" 3 (Arena.width a);
  let s0 = Arena.alloc a and s1 = Arena.alloc a in
  Alcotest.(check bool) "distinct slices" true (s0 <> s1);
  Alcotest.(check int) "live" 2 (Arena.live a);
  (* write through the raw storage, then force growth and re-read: the
     contents must survive the backing array being replaced *)
  let w = Arena.words a in
  for j = 0 to 2 do
    w.((s0 * 3) + j) <- 100 + j;
    w.((s1 * 3) + j) <- 200 + j
  done;
  let more = List.init 40 (fun _ -> Arena.alloc a) in
  let w = Arena.words a in
  for j = 0 to 2 do
    Alcotest.(check int) "s0 survives growth" (100 + j) w.((s0 * 3) + j);
    Alcotest.(check int) "s1 survives growth" (200 + j) w.((s1 * 3) + j)
  done;
  Arena.clear_slice a s0;
  let w = Arena.words a in
  for j = 0 to 2 do
    Alcotest.(check int) "cleared" 0 w.((s0 * 3) + j)
  done;
  Alcotest.(check int) "live counts all" (2 + List.length more) (Arena.live a);
  Alcotest.(check bool) "high water in words" true
    (Arena.high_water_words a >= 42 * 3)

let test_arena_quarantine () =
  let a = Arena.create ~width:2 in
  let s0 = Arena.alloc a in
  let w = Arena.words a in
  w.(s0 * 2) <- 7;
  w.((s0 * 2) + 1) <- 8;
  Arena.defer_release a s0;
  (* quarantined, not free: a fresh alloc must NOT hand s0 back, and the
     slice stays readable — the antichain engine reads evicted-but-live
     nodes' sets until the level boundary *)
  let s1 = Arena.alloc a in
  Alcotest.(check bool) "no reuse before reclaim" true (s1 <> s0);
  let w = Arena.words a in
  Alcotest.(check int) "quarantined slice readable" 7 w.(s0 * 2);
  Arena.reclaim a;
  (* after the generation boundary the slice is allocatable again *)
  let s2 = Arena.alloc a in
  Alcotest.(check int) "freed slice reused first" s0 s2;
  Alcotest.(check int) "high water unchanged by reuse" (Arena.high_water a) 2

let prop_arena_reuse_bounds_footprint =
  QCheck2.Test.make
    ~name:"arena: alternating alloc/defer/reclaim reuses slices" ~count:200
    QCheck2.Gen.(pair (1 -- 4) (1 -- 20))
    (fun (width, levels) ->
      let a = Arena.create ~width in
      (* each level allocates 3 slices and defers them; with reclaim at
         every level boundary the pool never exceeds two generations *)
      for _ = 1 to levels do
        Arena.reclaim a;
        let ids = List.init 3 (fun _ -> Arena.alloc a) in
        List.iter (fun id -> Arena.defer_release a id) ids
      done;
      Arena.high_water a <= 6 && Arena.live a = 0)

(* --- Union-find --- *)

let test_union_find () =
  let uf = Union_find.create 6 in
  Alcotest.(check int) "classes" 6 (Union_find.count uf);
  Alcotest.(check bool) "merge" true (Union_find.union uf 0 1);
  Alcotest.(check bool) "again no-op" false (Union_find.union uf 1 0);
  Alcotest.(check bool) "same" true (Union_find.same uf 0 1);
  Alcotest.(check bool) "different" false (Union_find.same uf 0 2);
  ignore (Union_find.union uf 2 3);
  ignore (Union_find.union uf 1 3);
  Alcotest.(check bool) "transitive" true (Union_find.same uf 0 2);
  Alcotest.(check int) "count" 3 (Union_find.count uf)

let prop_union_find_equivalence =
  QCheck2.Test.make ~name:"union-find maintains an equivalence relation"
    ~count:300
    QCheck2.Gen.(list_size (0 -- 30) (pair (0 -- 14) (0 -- 14)))
    (fun merges ->
      let uf = Union_find.create 15 in
      List.iter (fun (i, j) -> ignore (Union_find.union uf i j)) merges;
      (* reflexive, symmetric (trivially), and consistent with the merge
         closure computed by a naive fixpoint *)
      let reach = Array.make_matrix 15 15 false in
      for i = 0 to 14 do
        reach.(i).(i) <- true
      done;
      List.iter
        (fun (i, j) ->
          reach.(i).(j) <- true;
          reach.(j).(i) <- true)
        merges;
      let changed = ref true in
      while !changed do
        changed := false;
        for i = 0 to 14 do
          for j = 0 to 14 do
            for k = 0 to 14 do
              if reach.(i).(j) && reach.(j).(k) && not reach.(i).(k) then begin
                reach.(i).(k) <- true;
                changed := true
              end
            done
          done
        done
      done;
      let ok = ref true in
      for i = 0 to 14 do
        for j = 0 to 14 do
          if Union_find.same uf i j <> reach.(i).(j) then ok := false
        done
      done;
      !ok)

(* --- PRNG --- *)

let test_prng_deterministic () =
  let a = Prng.create 42 and b = Prng.create 42 in
  let xs g = List.init 20 (fun _ -> Prng.int g 1000) in
  Alcotest.(check (list int)) "same seed, same stream" (xs a) (xs b);
  let c = Prng.create 43 in
  Alcotest.(check bool) "different seed, different stream" true
    (xs (Prng.create 42) <> xs c)

let test_prng_bounds () =
  let g = Prng.create 7 in
  for _ = 1 to 1000 do
    let x = Prng.int g 17 in
    if x < 0 || x >= 17 then Alcotest.fail "out of bounds"
  done;
  Alcotest.check_raises "zero bound"
    (Invalid_argument "Prng.int: bound must be positive") (fun () ->
      ignore (Prng.int g 0))

let test_prng_split_independent () =
  let g = Prng.create 5 in
  let h = Prng.split g in
  let xs = List.init 10 (fun _ -> Prng.int g 100) in
  let ys = List.init 10 (fun _ -> Prng.int h 100) in
  Alcotest.(check bool) "split streams differ" true (xs <> ys)

let test_prng_float_range () =
  let g = Prng.create 11 in
  for _ = 1 to 1000 do
    let f = Prng.float g in
    if f < 0. || f >= 1. then Alcotest.fail "float out of [0,1)"
  done

let test_prng_shuffle_permutes () =
  let g = Prng.create 13 in
  let a = Array.init 20 Fun.id in
  Prng.shuffle g a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check bool) "still a permutation" true (sorted = Array.init 20 Fun.id)

let prop_prng_roughly_uniform =
  QCheck2.Test.make ~name:"prng buckets are roughly uniform" ~count:20
    QCheck2.Gen.(0 -- 1_000_000)
    (fun seed ->
      let g = Prng.create seed in
      let buckets = Array.make 8 0 in
      let n = 4000 in
      for _ = 1 to n do
        let b = Prng.int g 8 in
        buckets.(b) <- buckets.(b) + 1
      done;
      (* expected 500 per bucket; allow generous slack *)
      Array.for_all (fun c -> c > 300 && c < 700) buckets)

(* --- Deque --- *)

let test_deque_basic () =
  let d = Deque.create ~capacity:4 () in
  Alcotest.(check int) "empty pop" (-1) (Deque.pop d);
  Alcotest.(check int) "empty steal" (-1) (Deque.steal d);
  for i = 0 to 9 do
    Deque.push d i
  done;
  Alcotest.(check int) "length" 10 (Deque.length d);
  Alcotest.(check int) "pop is LIFO" 9 (Deque.pop d);
  Alcotest.(check int) "steal is FIFO" 0 (Deque.steal d);
  Alcotest.(check int) "steal next" 1 (Deque.steal d);
  Alcotest.(check int) "pop next" 8 (Deque.pop d);
  Alcotest.(check int) "shrunk" 6 (Deque.length d);
  Alcotest.check_raises "negative rejected"
    (Invalid_argument "Deque.push: negative value") (fun () ->
      Deque.push d (-3))

let test_deque_last_element () =
  let d = Deque.create () in
  Deque.push d 7;
  Alcotest.(check int) "single pop" 7 (Deque.pop d);
  Alcotest.(check int) "then empty" (-1) (Deque.steal d);
  Deque.push d 8;
  Alcotest.(check int) "single steal" 8 (Deque.steal d);
  Alcotest.(check int) "then empty pop" (-1) (Deque.pop d)

(* sequential model check: push appends at the bottom, pop takes from
   the bottom, steal from the top — a list with front = top *)
let prop_deque_model =
  QCheck2.Test.make ~name:"deque agrees with a two-ended list model"
    ~count:300
    QCheck2.Gen.(list (int_range 0 2))
    (fun ops ->
      let d = Deque.create ~capacity:2 () in
      let model = ref [] in
      let counter = ref 0 in
      let ok = ref true in
      List.iter
        (fun op ->
          match op with
          | 0 ->
              Deque.push d !counter;
              model := !model @ [ !counter ];
              incr counter
          | 1 -> (
              let v = Deque.pop d in
              match List.rev !model with
              | [] -> if v <> -1 then ok := false
              | last :: rev_rest ->
                  if v <> last then ok := false;
                  model := List.rev rev_rest)
          | _ -> (
              let v = Deque.steal d in
              match !model with
              | [] -> if v <> -1 then ok := false
              | first :: rest ->
                  if v <> first then ok := false;
                  model := rest))
        ops;
      !ok && Deque.length d = List.length !model)

(* steal races under real domains: one owner pushes [n] distinct values
   (popping a few as it goes), two thieves steal concurrently; every
   value must be taken exactly once across the three parties *)
let test_deque_steal_race () =
  let rounds = 50 and n = 400 in
  for round = 1 to rounds do
    let d = Deque.create ~capacity:4 () in
    let done_ = Atomic.make false in
    let thief () =
      let taken = ref [] in
      let rec loop () =
        let v = Deque.steal d in
        if v >= 0 then begin
          taken := v :: !taken;
          loop ()
        end
        else if not (Atomic.get done_) then begin
          Domain.cpu_relax ();
          loop ()
        end
      in
      loop ();
      !taken
    in
    let t1 = Domain.spawn thief and t2 = Domain.spawn thief in
    let mine = ref [] in
    for i = 0 to n - 1 do
      Deque.push d i;
      if i mod 3 = round mod 3 then begin
        let v = Deque.pop d in
        if v >= 0 then mine := v :: !mine
      end
    done;
    let rec drain () =
      let v = Deque.pop d in
      if v >= 0 then begin
        mine := v :: !mine;
        drain ()
      end
    in
    drain ();
    Atomic.set done_ true;
    let s1 = Domain.join t1 and s2 = Domain.join t2 in
    let all = List.sort compare (!mine @ s1 @ s2) in
    Alcotest.(check (list int))
      (Printf.sprintf "round %d: each value taken exactly once" round)
      (List.init n Fun.id) all
  done

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_bitset_model;
      prop_bitset_setops_model;
      prop_csr_of_lists_eq_of_fn;
      prop_csr_model;
      prop_csr_transpose;
      prop_scc_of_csr_eq_of_succ;
      prop_scc_search_roots;
      prop_vec_model;
      prop_deque_model;
      prop_arena_reuse_bounds_footprint;
      prop_union_find_equivalence;
      prop_prng_roughly_uniform;
    ]

let () =
  Alcotest.run "prelude"
    [
      ( "bitset",
        [
          Alcotest.test_case "basic" `Quick test_bitset_basic;
          Alcotest.test_case "bounds" `Quick test_bitset_bounds;
          Alcotest.test_case "set operations" `Quick test_bitset_setops;
          Alcotest.test_case "word layout" `Quick test_bitset_word_layout;
        ] );
      ( "csr",
        [
          Alcotest.test_case "small table" `Quick test_csr_small;
          Alcotest.test_case "empty tables" `Quick test_csr_empty;
        ] );
      ( "vec", [ Alcotest.test_case "basic" `Quick test_vec_basic ] );
      ( "deque",
        [
          Alcotest.test_case "basic" `Quick test_deque_basic;
          Alcotest.test_case "last-element conflict" `Quick
            test_deque_last_element;
          Alcotest.test_case "steal races under domains" `Quick
            test_deque_steal_race;
        ] );
      ( "arena",
        [
          Alcotest.test_case "slices and growth" `Quick test_arena_slices;
          Alcotest.test_case "quarantine and reuse" `Quick
            test_arena_quarantine;
        ] );
      ( "union-find",
        [ Alcotest.test_case "basic" `Quick test_union_find ] );
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "bounds" `Quick test_prng_bounds;
          Alcotest.test_case "split" `Quick test_prng_split_independent;
          Alcotest.test_case "float range" `Quick test_prng_float_range;
          Alcotest.test_case "shuffle permutes" `Quick test_prng_shuffle_permutes;
        ] );
      ("properties", qsuite);
    ]
