(** Integer index relations: the algebra underneath layout primitives
    (DESIGN.md §16).

    A relation maps points of a [domain] shape to points of a [range]
    shape.  It is stored as a canonical chain of five step kinds —
    mixed-radix {e decode}/{e encode}, {e permute} (affine dimension
    maps), and the two piecewise-guarded kinds {e shift} (padding) and
    {e window} (overlapped tiling).  Every step carries a derivable
    inverse, so the whole chain can be evaluated in both directions:

    - forward (domain → range) is a total map for injective chains and
      a one-to-many map when a window is present (an overlapped element
      lives in several tiles);
    - backward (range → domain) is always a {e function with holes}:
      every range point comes from at most one domain point, and [None]
      marks the zero-filled positions (pad margins, window overhang).

    [compose] concatenates chains and canonicalizes symbolically
    (permutation fusion, decode/encode cancellation, shift merging,
    nested-decode flattening), so replayed or propagated layout chains
    stay short.  The QCheck2 suite in test/test_relation.ml proves the
    round-trip laws ([backward ∘ forward ≡ id] on the domain,
    [forward ∘ backward ≡ id] on the live range), compose ≡ sequential
    application, and canonicalization idempotence over random primitive
    chains.

    Values are pure data (safe for structural comparison and hashing);
    the [compile_*] functions precompute the per-step shape trace once
    and return closures for per-point evaluation. *)

exception Relation_error of string

type step =
  | Decode of { dim : int; radices : int array }
      (** one dimension of extent [prod radices] becomes [|radices|]
          mixed-radix digit dimensions, most significant first (split) *)
  | Encode of { dim : int; radices : int array }
      (** [|radices|] consecutive dimensions with exactly those extents
          collapse row-major into one dimension (fuse) *)
  | Permute of int array
      (** new dimension [i] is old dimension [perm.(i)] (reorder) *)
  | Shift of { dim : int; lo : int; hi : int }
      (** pad: [x -> x + lo] with [lo + hi] new positions; the inverse
          is guarded by [0 <= y - lo < extent] *)
  | Window of { dim : int; tile : int; stride : int }
      (** unfold: one dimension becomes [tiles; tile]; forward is
          one-to-many (every tile containing the point), backward is
          [(t, r) -> t*stride + r] guarded against the overhang *)

type t
(** A relation from [domain] to [range]; canonical step chain. *)

val domain : t -> Shape.t
val range : t -> Shape.t
val steps : t -> step list

val id : Shape.t -> t
(** The identity relation on a shape. *)

(** {1 Step constructors}

    Each validates against the given domain shape and raises
    {!Relation_error} on illegal parameters (out-of-range dimension,
    factor product mismatch, invalid permutation, negative padding,
    tile larger than extent). *)

val decode : Shape.t -> dim:int -> radices:int array -> t
val encode : Shape.t -> dim:int -> radices:int array -> t
val permute : Shape.t -> int array -> t
val shift : Shape.t -> dim:int -> lo:int -> hi:int -> t
val window : Shape.t -> dim:int -> tile:int -> stride:int -> t

(** {1 Algebra} *)

val compose : t -> t -> t
(** [compose a b] is the relation running [a] then [b]; requires
    [range a = domain b].  The combined chain is canonicalized; counts
    [layout.relation.compose] (and [.simplify] per rewrite) in the
    metrics registry. *)

val canonicalize : t -> t
(** Re-runs the rewrite rules to fixpoint.  Idempotent:
    [canonicalize (canonicalize t) = canonicalize t] (proven by the
    QCheck2 suite). *)

val inverse : t -> t
(** The inverse relation; defined for bijective chains only (no shift,
    no window) — raises {!Relation_error} otherwise.  Each step kind
    inverts symbolically: decode ↔ encode, permute ↔ inverse
    permutation. *)

val injective : t -> bool
(** No window step: every domain point has exactly one image. *)

val bijective : t -> bool
(** Injective and total in both directions (no window, no shift). *)

(** {1 Point evaluation} *)

val compile_bwd : t -> int array -> int array option
(** [compile_bwd t] precomputes the shape trace and returns the
    backward evaluator: range point → its unique domain source, or
    [None] for holes (pad margins, window overhang). *)

val compile_fwd : t -> int array -> int array
(** Forward evaluator for injective relations; raises
    {!Relation_error} if a window step is present. *)

val fwd_points : t -> int array -> int array list
(** All images of a domain point, in ascending row-major order of the
    range; a singleton for injective relations, possibly several when
    windows overlap.  Never empty for an in-domain point. *)

(** {1 Extents, strides and cost} *)

val range_strides : t -> int array
(** Row-major element strides of the range shape — what lowering and
    the exec backend's affine-profile extraction read as the physical
    strides of a laid-out buffer. *)

val num_range_elements : t -> int

val expansion : t -> float
(** [range elements / domain elements]; 1.0 for bijective chains, > 1
    with padding or overlapped tiling. *)

val conversion_cost : t -> int
(** Data-movement cost of materializing the range from the domain (one
    read per domain element + one write per range element) — the
    symbolic conversion-cost derivation layout search ranks with. *)

val pp_step : step Fmt.t
val pp : t Fmt.t
val equal : t -> t -> bool
