(** Canonical network fingerprints for the solution cache.

    The batch server keys cached partitionings by a {e canonical} form
    of the request network: a deterministic node ordering under which
    two isomorphic networks — same block classes, behaviours, arities,
    costs and wiring, whatever their node ids and labels — render to the
    same string and hence the same digest.  A resubmitted design hits
    the cache even after a round-trip through an editor that renumbered
    every node.

    The ordering is found by colour refinement (1-dimensional
    Weisfeiler–Leman over typed, port-labelled edges) plus
    individualization on ties: a search tree whose leaves are discrete
    colourings, of which the one with the smallest rendering wins.  The
    search prunes automorphic branches as nauty does (McKay & Piperno,
    {e Practical Graph Isomorphism, II}): two leaves that render equal
    exhibit an automorphism, and at each branch point only one member
    per orbit of the recorded automorphisms that fix the branch's
    individualised prefix is explored; a leaf equal to the first leaf
    abandons the subtree it shows to be an image of the first path's.
    Pruned subtrees hold only renderings already seen, so the result is
    the one full enumeration of the tree gives.

    A budget of 2 000 refinement rounds bounds the work of the whole
    pruned search; networks over 512 nodes are not searched.  Past
    either limit the module falls back to id-order.  Every catalogue
    design and every design of the end-to-end benchmark's corpus
    canonises exactly.  The fallback is {e sound}: the digest is always
    the hash of the rendered form, and equal rendered forms exhibit an
    isomorphism position-by-position regardless of how the order was
    chosen.  A fallback can only miss a relabel hit, never corrupt
    one. *)

module Graph = Netlist.Graph
module Node_id = Netlist.Node_id

type t

val of_graph : Graph.t -> t
(** Canonise a network.  Deterministic: a pure function of the graph's
    structure (and, in the fallback case, its id order). *)

val digest : t -> string
(** Hex digest of the canonical rendering — the cache key for
    label-insensitive operations.  Equal digests (modulo hash collision)
    certify isomorphism via {!id_of}/{!index_of}. *)

val size : t -> int
(** Node count. *)

val exact : t -> bool
(** [false] when the refinement budget was exhausted and the id-order
    fallback was used (so isomorphic relabellings may miss). *)

val index_of : t -> Node_id.t -> int
(** Canonical index of a node.  Raises [Not_found] on unknown ids. *)

val id_of : t -> int -> Node_id.t
(** Node id at a canonical index. *)

val labels_digest : Graph.t -> string
(** Digest of the network's exact textual form, ids and labels
    included — the cache key for label-{e sensitive} operations
    (reliability scoring draws fault plans from node ids, so a relabel
    legitimately changes the answer). *)
