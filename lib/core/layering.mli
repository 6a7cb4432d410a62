(** The layering algorithm (Algorithm 1, §5.2): peel the hypergraph into
    layers, each a {e minimal} set cover of the remaining items. Within
    a minimal cover every edge owns a unique item, so pricing each
    unique item at its edge's valuation extracts the layer's full value.
    The best layer is a B-approximation. There are at most B layers;
    peeling one costs O(m_r * |cover| + sum |e|) integer work, for the
    m_r edges still remaining and the |cover| greedy picks it takes.

    Edges with empty conflict sets can never own an item and are ignored
    (they sell at price 0 and contribute nothing). *)

val layers : Hypergraph.t -> Hypergraph.edge list list
(** The successive minimal covers the algorithm peels, in order —
    exposed for tests (each layer must be a minimal cover of the items
    remaining at its turn) and for the structure diagnostics of §6.3. *)

val solve : Hypergraph.t -> Pricing.t
(** Item pricing extracting the most valuable layer's full value.
    Recorded as a [layering.solve] span (layer count and best layer in
    its args) when {!Qp_obs} tracing is enabled. *)
