(** Independent output checkers for the benchmark.

    Nothing here calls into the system under test: hypergraphs, tree
    decompositions and fractional covers get their own plain
    representation, the decomposition text format gets its own parser,
    and the HD / GHD conditions, fractional covers and GYO acyclicity are
    re-implemented from their definitions. The benchmark converts the
    program's values into these types and accepts an answer only if these
    checks pass. *)

type hypergraph
(** Edges over named vertices. Vertex and edge ids are positions in the
    name arrays. *)

val hypergraph : (string * string list) list -> hypergraph
(** [(edge name, vertex names)] in edge order; vertices are numbered in
    order of first appearance. Duplicate vertex names within one edge are
    merged. *)

val vertex_id : hypergraph -> string -> int option
val edge_id : hypergraph -> string -> int option

(** {1 Integral decompositions} *)

type cover = { edge : int; verts : int list }
(** A cover element: the edge it comes from and the vertices it covers
    (sorted; the whole edge for an original edge, a subset for a
    subedge). *)

type node = { bag : int list; cover : cover list; children : node list }
(** Bags are sorted vertex ids. *)

val parse_decomposition : hypergraph -> string -> (node, string) result
(** Parse the text form: one node per line, [{bag} [cover]], two spaces
    of indentation per tree level; cover elements are edge names or
    [name~{a,b}] subedges; names may be bare or ["..."]-quoted with
    [\\]-escapes. Unknown names, a second root and malformed lines are
    errors. *)

val width : node -> int
(** Largest cover size over all nodes. *)

val ghd_violations : hypergraph -> node -> string list
(** Every edge inside some bag; every vertex's nodes form a connected
    subtree; every bag inside the union of its cover; every cover element
    a subset of its edge. Empty means a valid GHD. *)

val hd_violations : hypergraph -> node -> string list
(** {!ghd_violations}, plus: every cover element is a whole edge, and the
    special condition — for every node [u], the vertices of [u]'s cover
    that occur in [u]'s subtree lie in [u]'s bag. Empty means a valid
    HD. *)

(** {1 Fractional decompositions} *)

type fnode = {
  fbag : int list;
  fcover : (int * float) list;  (** (edge id, weight) *)
  fchildren : fnode list;
}

val fwidth : fnode -> float
(** Largest total cover weight over all nodes. *)

val fhd_violations : ?eps:float -> hypergraph -> fnode -> string list
(** Tree-decomposition conditions, non-negative weights on known edges,
    and every bag vertex covered with total weight [>= 1 - eps] (default
    [1e-6]) by the edges that contain it. *)

(** {1 Acyclicity} *)

val alpha_acyclic : hypergraph -> bool
(** GYO reduction: repeatedly drop vertices that occur in one edge only
    and edges contained in another edge; α-acyclic iff nothing but at
    most one empty edge remains. *)
