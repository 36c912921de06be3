(* Spans and counters for the traced run.

   A span wraps one call from the benchmark into a public function of the
   program; nothing inside the program is instrumented. Each recorder
   belongs to one thread. [covered] is the wall time inside outermost
   spans, so [covered / wall] is the share of the traced run the spans
   account for; the rest is benchmark bookkeeping, shown, not hidden. *)

type t = {
  times : (string, float ref) Hashtbl.t;  (** seconds per span name *)
  counts : (string, float ref) Hashtbl.t;
  mutable depth : int;
  mutable covered : float;
}

let create () =
  { times = Hashtbl.create 32; counts = Hashtbl.create 32; depth = 0; covered = 0. }

let bump tbl name v =
  match Hashtbl.find_opt tbl name with
  | Some r -> r := !r +. v
  | None -> Hashtbl.add tbl name (ref v)

let count t name v = bump t.counts name v

let span t name f =
  let t0 = Unix.gettimeofday () in
  t.depth <- t.depth + 1;
  let x = f () in
  t.depth <- t.depth - 1;
  let dt = Unix.gettimeofday () -. t0 in
  bump t.times name dt;
  if t.depth = 0 then t.covered <- t.covered +. dt;
  x

let time t name = match Hashtbl.find_opt t.times name with Some r -> !r | None -> 0.
let get t name = match Hashtbl.find_opt t.counts name with Some r -> !r | None -> 0.

let merge_into dst src =
  Hashtbl.iter (fun k r -> bump dst.times k !r) src.times;
  Hashtbl.iter (fun k r -> bump dst.counts k !r) src.counts;
  dst.covered <- dst.covered +. src.covered
