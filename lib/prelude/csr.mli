(** Compressed-sparse-row transition tables.

    A CSR table stores a finite transition relation
    [state × symbol → state list] as two flat int arrays: [offsets],
    indexed by [q * symbols + a], and a shared [targets] pool holding the
    concatenated successor slices. Stepping a (state, symbol) pair is a
    contiguous array scan — no list chasing, no per-state allocation —
    which is what the frontier-expansion hot loops of the antichain and
    complementation engines need. Tables are immutable after construction
    and safe to share across domains. *)

type t

(** [of_fn ~states ~symbols succ] builds the table from a successor
    function; [succ q a] is consulted exactly twice per cell and must be
    deterministic. Slice order follows the list order of [succ]. *)
val of_fn : states:int -> symbols:int -> (int -> int -> int list) -> t

(** [of_lists ~states ~symbols rows] builds the table directly from the
    [rows.(q).(a) = successor list] representation the automata use at
    construction time. Slice order follows the list order. *)
val of_lists : states:int -> symbols:int -> int list array array -> t

(** [of_arrays ~states ~symbols ~offsets ~targets] adopts already-flat
    storage (no copy): [offsets] has length [states * symbols + 1], is
    nondecreasing from [0] and ends at [Array.length targets]. The caller
    hands the arrays over and must not mutate them afterwards.
    @raise Invalid_argument if the lengths or end points do not match. *)
val of_arrays :
  states:int -> symbols:int -> offsets:int array -> targets:int array -> t

val states : t -> int
val symbols : t -> int

(** [degree t q a] is the number of [a]-successors of [q]. *)
val degree : t -> int -> int -> int

(** [has_succ t q a] is [degree t q a > 0], without the subtraction being
    visible at call sites. *)
val has_succ : t -> int -> int -> bool

(** Raw slice access, for closure-free inner loops: iterate
    [row_start t q a .. row_stop t q a - 1] and read each successor with
    [target]. Equivalent to [iter_succ] without the closure. *)
val row_start : t -> int -> int -> int

val row_stop : t -> int -> int -> int

(** [target t i] is the [i]-th entry of the shared successor pool. *)
val target : t -> int -> int

(** The table's own flat storage — read-only. [offsets] has length
    [states * symbols + 1] and is nondecreasing; [targets] holds the
    concatenated successor slices. *)
val offsets : t -> int array

val targets : t -> int array

(** [mem_succ t q a q'] is [true] iff [q'] is an [a]-successor of [q]
    (linear scan of the slice). *)
val mem_succ : t -> int -> int -> int -> bool

(** [iter_succ t q a f] applies [f] to every [a]-successor of [q], in
    slice order. *)
val iter_succ : t -> int -> int -> (int -> unit) -> unit

(** [iter_row_all t q f] applies [f] to every successor of [q] across all
    symbols, in symbol-major slice order (one contiguous range scan). *)
val iter_row_all : t -> int -> (int -> unit) -> unit

(** [fold_succ t q a f acc] folds [f] over the [a]-successors of [q]. *)
val fold_succ : t -> int -> int -> (int -> 'a -> 'a) -> 'a -> 'a

(** [transpose t] is the reversed relation: [q' ∈ succ t q a] iff
    [q ∈ succ (transpose t) q' a]. Slices are sorted by source state. *)
val transpose : t -> t
