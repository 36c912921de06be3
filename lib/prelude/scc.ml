type t = {
  comp : int array;
  count : int;
  size : int array;
  self_loop : bool array;
  closed : bool array;
}

type graph = {
  states : int;
  stride : int;
  offsets : int array;
  targets : int array;
  lanes : int;
  lane : int -> int;
}

let flat ~states ~stride ~offsets ~targets =
  { states; stride; offsets; targets; lanes = 1; lane = (fun _ -> 0) }

let no_component _ _ _ = ()

(* The one iterative Tarjan. Every array is allocated once per call and
   sized by the state count: the DFS call stack is four int arrays (state,
   slot cursor, slot stop, lane), the component stack one more, and a
   visited state is on the component stack exactly while its [comp] is
   still -1. Components are numbered in completion order, which for Tarjan
   is reverse topological order: a component is completed only after every
   component it can reach. *)
let search ?roots ?(on_component = no_component) g =
  let n = g.states in
  let index = Array.make n (-1) in
  let lowlink = Array.make n 0 in
  let comp = Array.make n (-1) in
  let stack = Array.make n 0 in
  let sp = ref 0 in
  let frame_state = Array.make n 0 in
  let frame_slot = Array.make n 0 in
  let frame_stop = Array.make n 0 in
  let frame_lane = Array.make n 0 in
  let depth = ref 0 in
  let next = ref 0 in
  let count = ref 0 in
  let enter v =
    index.(v) <- !next;
    lowlink.(v) <- !next;
    incr next;
    stack.(!sp) <- v;
    incr sp;
    let row = v / g.lanes * g.stride in
    let d = !depth in
    frame_state.(d) <- v;
    frame_slot.(d) <- g.offsets.(row);
    frame_stop.(d) <- g.offsets.(row + g.stride);
    frame_lane.(d) <- g.lane v;
    depth := d + 1
  in
  let visit root =
    if index.(root) < 0 then begin
      enter root;
      while !depth > 0 do
        let d = !depth - 1 in
        let v = frame_state.(d) in
        let i = frame_slot.(d) in
        if i < frame_stop.(d) then begin
          frame_slot.(d) <- i + 1;
          let w = (g.lanes * g.targets.(i)) + frame_lane.(d) in
          if index.(w) < 0 then enter w
          else if comp.(w) < 0 && index.(w) < lowlink.(v) then
            lowlink.(v) <- index.(w)
        end
        else begin
          depth := d;
          if d > 0 then begin
            let parent = frame_state.(d - 1) in
            if lowlink.(v) < lowlink.(parent) then
              lowlink.(parent) <- lowlink.(v)
          end;
          if lowlink.(v) = index.(v) then begin
            let id = !count in
            incr count;
            let hi = !sp in
            let lo = ref hi in
            let continue = ref true in
            while !continue do
              decr lo;
              let w = stack.(!lo) in
              comp.(w) <- id;
              if w = v then continue := false
            done;
            sp := !lo;
            on_component stack !lo hi
          end
        end
      done
    end
  in
  (match roots with
  | None ->
      for root = 0 to n - 1 do
        visit root
      done
  | Some roots -> List.iter visit roots);
  (comp, !count)

(* Every state is a root, so every [comp] entry is set. *)
let of_flat g =
  let comp, count = search g in
  let size = Array.make count 0 in
  Array.iter (fun c -> size.(c) <- size.(c) + 1) comp;
  let self_loop = Array.make count false in
  let closed = Array.make count true in
  for q = 0 to g.states - 1 do
    let c = comp.(q) in
    for i = g.offsets.(q * g.stride) to g.offsets.((q + 1) * g.stride) - 1 do
      let q' = g.targets.(i) in
      if q = q' then self_loop.(c) <- true;
      if c <> comp.(q') then closed.(c) <- false
    done
  done;
  { comp; count; size; self_loop; closed }

let of_csr csr =
  of_flat
    (flat ~states:(Csr.states csr) ~stride:(Csr.symbols csr)
       ~offsets:(Csr.offsets csr) ~targets:(Csr.targets csr))

let of_succ ~states succ =
  (* flatten the rows once, in iteration order, into the same layout *)
  let offsets = Array.make (states + 1) 0 in
  let targets = Vec.create () in
  let push q' = Vec.push targets q' in
  for q = 0 to states - 1 do
    succ q push;
    offsets.(q + 1) <- Vec.length targets
  done;
  of_flat (flat ~states ~stride:1 ~offsets ~targets:(Vec.to_array targets))

let nontrivial t c = t.size.(c) > 1 || t.self_loop.(c)

let members t c =
  let states = Array.length t.comp in
  List.filter (fun q -> t.comp.(q) = c) (List.init states Fun.id)
