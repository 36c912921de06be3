(** Nondeterministic Büchi automata over ω-words.

    Büchi automata represent the ω-regular data of the paper: the behavior
    set [Lω] of a system, the property [P], their intersection [Lω ∩ P], and
    the limits [lim(L)] of prefix-closed regular languages. States are
    integers [0 .. states-1]; acceptance is the standard Büchi condition
    (some accepting state visited infinitely often). *)

open Rl_sigma
open Rl_automata

type t

(** {1 Construction} *)

(** [create ~alphabet ~states ~initial ~accepting ~transitions ()] builds a
    Büchi automaton from [(source, symbol, target)] triples. *)
val create :
  alphabet:Alphabet.t ->
  states:int ->
  initial:int list ->
  accepting:int list ->
  transitions:(int * Alphabet.symbol * int) list ->
  unit ->
  t

(** [of_transition_system n] reads a {e trim, all-states-final} NFA — the
    representation of a prefix-closed behavior language [L] — as the Büchi
    automaton for [lim(L)] (every state accepting). This matches the paper's
    "finite-state system without acceptance conditions".
    @raise Invalid_argument if [n] has ε-moves or non-final states. *)
val of_transition_system : Nfa.t -> t

(** [limit_of_dfa d] accepts [lim(L(d))]: the DFA read as a Büchi automaton
    (correct because DFA runs are unique). *)
val limit_of_dfa : Dfa.t -> t

(** [limit ?budget n] accepts [lim(L(n))] for an arbitrary NFA [n]
    (via determinization, which is where [budget] is spent). *)
val limit : ?budget:Rl_engine_kernel.Budget.t -> Nfa.t -> t

(** [of_lasso alphabet x] accepts exactly the singleton ω-language [{x}]. *)
val of_lasso : Alphabet.t -> Lasso.t -> t

(** {1 Accessors} *)

val alphabet : t -> Alphabet.t
val states : t -> int
val initial : t -> int list
val accepting : t -> Rl_prelude.Bitset.t
val is_accepting : t -> int -> bool
val successors : t -> int -> Alphabet.symbol -> int list
val transitions : t -> (int * Alphabet.symbol * int) list

(** [csr b] is the flat CSR view of the transitions, built once at
    construction. Slice order equals the list order of {!successors}. *)
val csr : t -> Rl_prelude.Csr.t

(** [rcsr b] is the transposed CSR table ([Csr.transpose (csr b)]),
    built on first use and cached on the automaton — the backward
    passes (liveness pruning, simulation refinement) stop rebuilding
    it. Domain-safe (keep-first CAS). *)
val rcsr : t -> Rl_prelude.Csr.t

(** [iter_succ b q a f] applies [f] to every [a]-successor of [q], in
    {!successors} order, through the CSR table (no list allocation). *)
val iter_succ : t -> int -> Alphabet.symbol -> (int -> unit) -> unit

(** [has_edge b q a q'] decides whether [q --a--> q'] is a transition
    (linear scan of the CSR slice; no allocation). *)
val has_edge : t -> int -> Alphabet.symbol -> int -> bool

(** {1 Structural operations} *)

(** [reachable b] is the set of states reachable from the initial states. *)
val reachable : t -> Rl_prelude.Bitset.t

(** [live b] is the set of states from which some accepting run exists
    (states that reach a non-trivial SCC containing an accepting state).
    One {!Rl_prelude.Scc.search} pass decides it at component completion;
    no transposed table is built. *)
val live : t -> Rl_prelude.Bitset.t

(** [sccs b] is Tarjan's strongly-connected-component decomposition:
    [(component_of_state, component_count)]. Components are numbered in
    reverse topological order (every edge goes from a higher-numbered
    component to a lower or equal one). The numbering is stable: roots in
    increasing order, each row scanned from its last CSR slot to its
    first (the fairness layer's [bottom_sccs] grouping observes it). *)
val sccs : t -> int array * int

(** [trim b] is the "reduced" automaton of the paper's Theorem 5.1 proof:
    restricted to reachable states from which an ω-word can be accepted.
    Preserves the language; may have zero states if the language is empty.
    Kept states are renumbered in increasing order; rows keep their order
    with dropped targets skipped, and [initial] keeps its order. *)
val trim : t -> t

(** {1 Decision procedures} *)

(** [is_empty b] decides [L(b) = ∅] via SCC analysis (one Tarjan pass
    from the initial states). *)
val is_empty : t -> bool

(** [is_empty_ndfs b] — the same decision by nested depth-first search;
    used to cross-check [is_empty] in the test suite. *)
val is_empty_ndfs : t -> bool

(** [accepting_lasso ?budget b] is a witness [u·v^ω ∈ L(b)], if the
    language is non-empty. The cycle passes through an accepting state.
    [budget] is charged for the (linear) witness search.

    The witness is a function of [b]'s numbering and row order only, never
    of SCC numbering: the target [f] is the least reachable accepting
    state on a cycle; [u] labels the first path from the initial states
    (taken in order) to [f] found by a BFS that scans rows in symbol order
    and slot order; [v] is [a] followed by the labels of the same BFS from
    [q'] to [f] within [f]'s SCC, for the first edge [f --a--> q'] into
    that SCC whose search succeeds, trying [f]'s edges from its last CSR
    slot to its first. *)
val accepting_lasso : ?budget:Rl_engine_kernel.Budget.t -> t -> Lasso.t option

(** [member b x] decides [x ∈ L(b)] for an ultimately periodic [x]. *)
val member : t -> Lasso.t -> bool

(** {1 Boolean operations} *)

(** [inter ?budget a b] accepts [L(a) ∩ L(b)] (generalized-Büchi product,
    degeneralized, trimmed). Only reachable product pairs are explored;
    [budget] is ticked once per fresh pair, in discovery order.

    The result is numbered by a fixed contract:
    - pair ids are handed out in BFS order: first the initial pairs, [a]'s
      initial states outer and [b]'s inner, then the successors of each
      pair in id order, symbol by symbol, [a]'s slot outer and [b]'s slot
      inner;
    - the degeneralized state of pair [id] with counter [c] is
      [x = 2·id + c], as in {!Gba.degeneralize} over the two sets
      "accepting in [a]" and "accepting in [b]"; [x] accepts iff [c = 0]
      and the pair's [a] state accepts;
    - the reachable states from which an accepting run exists are kept
      and renumbered in increasing [x]; every row keeps that slot order
      (duplicate edges included) with dropped targets skipped, and
      [initial] lists [2·id] of each initial pair in the order above,
      repeats included, when kept. *)
val inter : ?budget:Rl_engine_kernel.Budget.t -> t -> t -> t

(** [union a b] accepts [L(a) ∪ L(b)] (disjoint sum). *)
val union : t -> t -> t

(** {1 Prefixes and limits} *)

(** [pre_language ?budget b] is an NFA recognizing [pre(L(b))], the set of
    finite prefixes of accepted ω-words. *)
val pre_language : ?budget:Rl_engine_kernel.Budget.t -> t -> Nfa.t

(** {1 Generalized acceptance} *)

module Gba : sig
  (** Büchi automata with multiple acceptance sets, as produced by the
      LTL translation; a run is accepting iff it visits {e every} set
      infinitely often. *)

  type gba

  val create :
    alphabet:Alphabet.t ->
    states:int ->
    initial:int list ->
    accepting_sets:int list list ->
    transitions:(int * Alphabet.symbol * int) list ->
    unit ->
    gba

  (** [degeneralize g] is an equivalent plain Büchi automaton (counter
      construction; [m] sets multiply the state count by [m]). An empty
      list of sets means "all runs accepting". *)
  val degeneralize : gba -> t
end

(** {1 Output} *)

val pp : Format.formatter -> t -> unit
val to_dot : ?name:string -> t -> string
