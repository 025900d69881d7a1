(** Gradient-boosted regression trees — the XGBoost stand-in for the
    paper's learned cost model (Section 5.2.3). *)

type t

type params = {
  max_depth : int;
  min_samples : int;
  n_trees : int;
  learning_rate : float;
}

val fit : ?params:params -> float array array -> float array -> t
(** Squared-error boosting of depth-limited trees with shrinkage, using
    the exact-greedy fitter over one workspace per fit.  Each feature
    that varies over the samples is copied column-major and argsorted
    once per fit (a constant one holds no split candidate); a node is a
    range of per-feature index columns that a stable in-place partition
    keeps sorted down the tree, so total sort cost is O(d n log n), and
    the prefix sums, partition scratch and marks are shared by every
    node.  Squared residuals are computed once per tree (as [r ** 2.0],
    which libm does not always round like [r *. r]), each node's SSE
    once, and a column whose values are equal at both ends of a node's
    range is skipped.

    {b Tie caveat.}  On {e tie-free} feature columns the trees are
    bit-identical to {!fit_reference} (QCheck2-proven on continuous random
    data with constant columns, and asserted by [bench-tuner]'s tie-free
    oracle).  When a column holds {e tied} values inside a node — the
    common case for real schedule features, which are discrete knobs —
    the reference fitter's unstable per-node [Array.sort] may permute a
    tied run differently than this fitter's stable partition of the
    per-fit presort.  Split {e sets} still agree exactly (a split never
    separates tied values, so candidate thresholds and memberships are
    order-invariant), but the prefix sums over a permuted tied run can
    round differently in the last ulp, which can tip a near-tied gain
    comparison and yield a different (equally optimal) tree.  On tied
    data [test_costmodel] pins this fitter's predictions instead; see
    DESIGN.md §10. *)

val fit_reference : ?params:params -> float array array -> float array -> t
(** The seed fitter (a fresh [Array.sort] per node per feature), kept as
    the differential oracle for tests and benchmarks.  Same trees as
    {!fit} on tie-free data, O(log n) slower per node. *)

val refit : ?params:params -> ?extra_trees:int -> t ->
  float array array -> float array -> t
(** Warm start: keep the ensemble and boost [extra_trees] new trees
    (default [max 1 (params.n_trees / 5)]) on the residuals of the full
    grown dataset, with {!fit}'s exact-greedy fitter and a workspace of
    its own.  The base and shrinkage are inherited; the base is not
    recentered.  Raises [Invalid_argument] on negative [extra_trees]. *)

val predict : t -> float array -> float

val n_trees : t -> int
(** Number of boosted trees in the ensemble. *)

val equal : t -> t -> bool
(** Structural equality with exact float comparison — the old-vs-new
    fitter equivalence check. *)

val r2 : t -> float array array -> float array -> float
(** Coefficient of determination on a held-out set. *)
