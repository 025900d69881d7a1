(** Data layout state and layout primitives (paper Section 4.1).

    A layout records a tensor's logical shape plus a cached sequence of
    primitives.  Basic primitives ([split]/[reorder]/[fuse], Table 1)
    perform one-to-one transformations; advanced primitives ([unfold] for
    overlapped tiling and [pad] for alignment, Section 4.1.2) may expand
    data.  [store_at] couples two tensors and lives at the graph level
    ({!Alt_graph.Placement}).  Physical buffers are row-major over
    [physical_shape].

    Every map below walks the primitive sequence, which is validated
    once (when built, or on the first [physical_shape] of an
    unmarshalled layout); only each layout's physical shape is memoized.
    The index relation a layout denotes is its specification (DESIGN.md
    §16): it lives in the test-only oracle library (test/oracle), whose
    differential suites pin these walks to it. *)

exception Layout_error of string

type prim =
  | Split of { dim : int; factors : int list }
  | Reorder of int array
  | Fuse of { dim : int; count : int }
  | Unfold of { dim : int; tile : int; stride : int }
  | Pad of { dim : int; lo : int; hi : int }

type t

val create : Shape.t -> t
(** Identity layout of a logical shape. *)

val logical_shape : t -> Shape.t
val physical_shape : t -> Shape.t
val prims : t -> prim list
val is_trivial : t -> bool

val phys_strides : t -> int array
(** Row-major element strides of the physical shape — what lowering and
    the exec backend's affine-profile extraction use. *)

val has_advanced : t -> bool
(** True if the primitive sequence contains [unfold] or [pad] — the
    "non-trivial advanced primitives" test of Algorithm 1. *)

val invertible : t -> bool
(** True if the logical->physical index map is a bijection (no advanced
    primitives); required of output-tensor layouts. *)

val split : t -> dim:int -> factors:int list -> t
(** Factors must multiply to the current extent of [dim]. *)

val reorder : t -> int array -> t
(** [reorder t perm]: new dim [i] is old dim [perm.(i)]. *)

val fuse : t -> dim:int -> count:int -> t
val unfold : t -> dim:int -> tile:int -> stride:int -> t
val pad : t -> dim:int -> lo:int -> hi:int -> t

val equal : t -> t -> bool
val pp : t Fmt.t
val pp_prim : prim Fmt.t

type window = Var.t -> int option
(** Maps sliding-window variables (e.g. a convolution's output spatial
    iterators) to their constant stride V; used by the unfold rewrite. *)

val forward_exprs :
  ?bounds:Ixexpr.bounds -> ?window:window -> t -> Ixexpr.t array ->
  Ixexpr.t array
(** Rewrites logical access expressions to physical ones (Table 1); for
    [unfold] the access must have the sliding form [V*i + r] with window
    variable [i] (Eq. (1)).  Raises {!Layout_error} otherwise. *)

val logical_of_physical :
  ?bounds:Ixexpr.bounds -> t -> Ixexpr.t array ->
  Ixexpr.t array * (Ixexpr.t * int) list
(** Physical index expressions -> logical ones, total even for [unfold]
    and [pad]: the S_Y^{-1} used to reconstruct a producer's loop nest and
    to generate conversion programs.  Walks the chain backward, stepping
    each basic primitive's inverse through the forward rewrite.  Also
    returns in-bounds conditions [(expr, extent)], meaning
    [0 <= expr < extent], that guard padded and overhanging positions;
    the list is empty exactly when the layout is [invertible]. *)

val pack : t -> float array -> float array
(** Materializes the physical buffer from logical row-major data (zero
    fills padding; duplicates overlapped tiles) by walking the primitive
    chain backward from every physical index.  It reads the memoized
    physical shape and validates nothing more.  This is the reference
    that [Alt_exec.Kernel.pack] — the compiled conversion kernel every
    production pack runs through — is pinned to bit for bit
    (test/test_exec.ml).  Raises {!Layout_error} when the source is not
    one element per logical index. *)

val unpack : t -> float array -> float array
(** Recovers logical row-major data from a physical buffer, by the same
    walk as {!pack}. *)

val num_physical_elements : t -> int

val expansion_ratio : t -> float
(** Physical elements / logical elements (>= 1; > 1 for unfold and pad). *)

val of_prims : Shape.t -> prim list -> t
(** Replays a primitive sequence onto a fresh layout of [shape].  Each
    primitive is validated exactly once against the incrementally
    maintained physical shape (linear in chain length; the seed
    re-validated the whole prefix per step, quadratic — the
    [layout.relation.validate] counter ticks once per validation and a
    regression test pins the linear count). *)

val replay : Shape.t -> t -> t
(** [replay shape src] copies [src]'s primitive chain onto a tensor of
    [shape] — how layout propagation duplicates a chosen layout onto
    consumers.  When [shape] equals [src]'s logical shape (the common
    case) the already-proven physical shape is shared and nothing is
    re-validated; otherwise it falls back to {!of_prims} (which raises
    {!Layout_error} if the chain is illegal for [shape]). *)
