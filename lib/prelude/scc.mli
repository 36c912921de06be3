(** Tarjan strongly-connected components over successor graphs.

    One SCC decomposition shared by the Büchi layer and the semantic lint
    passes ({!Rl_analysis}): states are integers [0 .. states-1], edges
    come from a caller-supplied successor iterator (typically a {!Csr}
    table), and components are numbered in {e reverse topological order}:
    every edge goes from a higher-numbered component to a lower or equal
    one, so component [0] is a sink of the condensation.

    Beyond the membership map the result carries the per-component facts
    the dataflow passes keep re-deriving: sizes, self-loop presence, and
    closedness (no edge leaves the component) — together these decide
    cycle-bearing ("can a run stay here forever?") and trap questions
    without another graph walk. *)

type t = {
  comp : int array;  (** [comp.(q)] is the component of state [q] *)
  count : int;  (** number of components; ids are [0 .. count-1] *)
  size : int array;  (** [size.(c)] is the number of member states *)
  self_loop : bool array;
      (** [self_loop.(c)]: some member has an edge to itself *)
  closed : bool array;
      (** [closed.(c)]: no edge leaves [c] (a sink of the condensation) *)
}

(** [of_succ ~states succ] decomposes the graph whose edges are produced
    by [succ q f] (calling [f q'] once per edge [q -> q'], duplicates
    allowed). The iterator is invoked once per state; its rows are
    flattened into the layout {!search} steps. Component numbering
    depends on the iteration order, so callers that expose their
    numbering keep it stable by fixing that order. *)
val of_succ : states:int -> (int -> (int -> unit) -> unit) -> t

(** [of_csr csr] is [of_succ] over all labelled edges of [csr], in
    {!Csr.iter_row_all} order, stepping the table's own slices. *)
val of_csr : Csr.t -> t

(** {1 The search core}

    [of_succ] and [of_csr] are thin wrappers over one iterative Tarjan
    that allocates its int arrays once per call and nothing per state or
    edge. It also runs on {e lifted} tables, where a state is a row of a
    flat table paired with a small counter — the shape of a degeneralized
    Büchi product — without materializing the lifted edges. *)

(** A flat graph, possibly lifted. State [x] (in [0 .. states-1]) owns the
    edge slots [offsets.(u * stride) .. offsets.((u + 1) * stride) - 1]
    of row [u = x / lanes], and slot [i] leads to state
    [lanes * targets.(i) + lane x]. A {!Csr} table is the case
    [stride = symbols], [lanes = 1]. *)
type graph = {
  states : int;
  stride : int;
  offsets : int array;
  targets : int array;
  lanes : int;
  lane : int -> int;
}

(** [flat ~states ~stride ~offsets ~targets] is the unlifted graph
    ([lanes = 1], every lane [0]). *)
val flat :
  states:int -> stride:int -> offsets:int array -> targets:int array -> graph

(** [search ?roots ?on_component g] runs Tarjan's algorithm from each root
    in order ([roots] defaults to every state in increasing order), visiting
    edge slots in slot order. It returns [(comp, count)]: [comp.(x)] is the
    component of [x], numbered in completion (reverse topological) order,
    or [-1] when [x] is unreachable from the roots. When a component
    completes, [on_component stack lo hi] sees its members as
    [stack.(lo .. hi - 1)]; every component reachable from it has already
    completed. *)
val search :
  ?roots:int list ->
  ?on_component:(int array -> int -> int -> unit) ->
  graph ->
  int array * int

(** [nontrivial t c] is [true] iff component [c] contains a cycle: more
    than one state, or a single state with a self-loop. A run can remain
    inside [c] forever iff [nontrivial t c]. *)
val nontrivial : t -> int -> bool

(** [members t c] lists the states of component [c] in increasing order. *)
val members : t -> int -> int list
