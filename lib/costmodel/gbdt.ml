(* Gradient-boosted regression trees — the XGBoost stand-in of the paper's
   cost model (Section 5.2.3).

   Squared-error boosting over depth-limited regression trees with
   shrinkage.  The tuner trains on (features, log-latency) pairs collected
   from simulator measurements and uses predictions to pick the top-k
   candidates to actually measure.

   Two fitters produce the same trees:

   - [fit] is the exact-greedy fitter (XGBoost's "exact" tree method) over
     one workspace per fit: every feature that varies over the samples is
     copied column-major and argsorted {e once per fit}, and a node is a
     range [\[lo, hi)] of per-feature index columns that stay sorted all
     the way down the tree (a stable in-place partition by split
     membership).  Total sort cost is O(d n log n) per fit instead of
     O(trees x nodes x d x n log n); squared residuals are computed once
     per tree, each node's SSE once, a column equal at both ends of a
     node's range is skipped, and a node allocates nothing but its result.

   - [fit_reference] is the seed implementation (a fresh per-node
     per-feature [Array.sort]), kept as the differential oracle for tests
     and benchmarks.

   Both enumerate split candidates in the same order with the same
   floating-point expressions, so on tie-free feature columns the trees
   are bit-identical (the equivalence test draws continuous random data).
   When a feature column has {e tied} values inside a node, the reference
   fitter's unstable sort may permute the tied run differently than the
   stable partition; the split {e sets} still agree exactly (splits never
   separate tied values), and only the last-ulp rounding of the tied run's
   prefix sums could differ — see DESIGN.md §10. *)

type tree =
  | Leaf of float
  | Node of { feat : int; thresh : float; left : tree; right : tree }

type t = { base : float; trees : tree list; shrinkage : float }

type params = {
  max_depth : int;
  min_samples : int;
  n_trees : int;
  learning_rate : float;
}

let default_params =
  { max_depth = 4; min_samples = 4; n_trees = 40; learning_rate = 0.3 }

let rec predict_tree tree (x : float array) =
  match tree with
  | Leaf v -> v
  | Node { feat; thresh; left; right } ->
      if x.(feat) <= thresh then predict_tree left x else predict_tree right x

let predict t x =
  List.fold_left
    (fun acc tree -> acc +. (t.shrinkage *. predict_tree tree x))
    t.base t.trees

(* Mean and SSE of [a] over the samples [idx.(lo) .. idx.(hi - 1)], summed
   in that order (the order fixes the rounding).  Squares are [** 2.0],
   here and in [boost], never [x *. x]: libm's [pow (x, 2.)] is not
   always the correctly rounded product (on glibc 2.36 it differs in the
   last bit for about 0.09 % of doubles in (-1, 1)), and the fitters'
   trees are pinned bit for bit. *)
let mean_range (a : float array) (idx : int array) lo hi =
  if hi <= lo then 0.0
  else begin
    let s = ref 0.0 in
    for k = lo to hi - 1 do
      s := !s +. a.(idx.(k))
    done;
    !s /. float_of_int (hi - lo)
  end

let sse_range (a : float array) (idx : int array) lo hi ~mean =
  let s = ref 0.0 in
  for k = lo to hi - 1 do
    s := !s +. ((a.(idx.(k)) -. mean) ** 2.0)
  done;
  !s

let mean a idx = mean_range a idx 0 (Array.length idx)
let sse a idx = sse_range a idx 0 (Array.length idx) ~mean:(mean a idx)

(* ------------------------------------------------------------------ *)
(* Exact-greedy fitter over a per-fit workspace                       *)
(* ------------------------------------------------------------------ *)

(* Everything a fit needs beyond its result, allocated once.  Only the
   features that vary over the fit's samples get a column — a constant
   feature holds no split candidate anywhere — and [feats] maps columns
   back to features in ascending order, so columns are scanned in the
   reference fitter's feature order.  A node is a range [\[lo, hi)] that
   holds the same samples in every column of [cols]; each column lists
   them in ascending order of its feature, with ties in the order of the
   presort's [Array.sort] — the order the reference fitter's root sort
   produces. *)
type workspace = {
  feats : int array; (* feats.(c): the feature of column c, ascending *)
  xcol : float array array; (* xcol.(c).(s): feature feats.(c) of sample s *)
  presorted : int array array; (* per column, all samples, ascending *)
  cols : int array array; (* a copy of [presorted], partitioned per node *)
  root : int array; (* 0 .. n-1: the root's summation order *)
  scratch : int array; (* right halves while a column is partitioned *)
  mark : Bytes.t; (* '\001' for the left child's samples while partitioning *)
  psum : float array; (* psum.(k): sum of the node's first k residuals *)
  psq : float array; (* the same over [sq] *)
  sq : float array; (* sq.(s) = residual.(s) ** 2.0, once per tree *)
}

(* The comparator and the input permutation match the reference fitter's
   root-node sort, so the presorted columns are bit-compatible with it. *)
let workspace (xs : float array array) =
  let n = Array.length xs in
  let feats =
    List.init (Array.length xs.(0)) Fun.id
    |> List.filter (fun f ->
           Array.exists (fun x -> not (Float.equal x.(f) xs.(0).(f))) xs)
    |> Array.of_list
  in
  let xcol = Array.map (fun f -> Array.init n (fun s -> xs.(s).(f))) feats in
  let presorted =
    Array.map
      (fun x ->
        let a = Array.init n Fun.id in
        Array.sort (fun i j -> Float.compare x.(i) x.(j)) a;
        a)
      xcol
  in
  {
    feats;
    xcol;
    presorted;
    cols = Array.map Array.copy presorted;
    root = Array.init n Fun.id;
    scratch = Array.make n 0;
    mark = Bytes.make n '\000';
    psum = Array.make (n + 1) 0.0;
    psq = Array.make (n + 1) 0.0;
    sq = Array.make n 0.0;
  }

(* Best (column, threshold) split of the node [\[lo, hi)] whose SSE is
   [parent_sse].  Returns [(gain, c, thresh, i)] with [i] the left
   child's size.  The candidates, their enumeration order, the tie rule
   and every floating-point expression are the reference fitter's:
   [best_gain] starts at nan, so the first candidate always wins, exactly
   like the reference's empty [best]. *)
let best_split_sorted ws (ys : float array) ~lo ~hi ~parent_sse ~min_samples =
  let n = hi - lo in
  let psum = ws.psum and psq = ws.psq and sq = ws.sq in
  let best_gain = ref Float.nan and best_thresh = ref 0.0 in
  let best_col = ref (-1) and best_i = ref 0 in
  for c = 0 to Array.length ws.cols - 1 do
    let col = ws.cols.(c) and x = ws.xcol.(c) in
    (* a column equal at both ends of the node holds no candidate *)
    if not (Float.equal x.(col.(lo)) x.(col.(hi - 1))) then begin
      for k = 0 to n - 1 do
        let s = col.(lo + k) in
        psum.(k + 1) <- psum.(k) +. ys.(s);
        psq.(k + 1) <- psq.(k) +. sq.(s)
      done;
      for i = min_samples to n - min_samples do
        let xl = x.(col.(lo + i - 1)) and xr = x.(col.(lo + i)) in
        if xl < xr then begin
          let ln = float_of_int i and rn = float_of_int (n - i) in
          let lsum = psum.(i) and rsum = psum.(n) -. psum.(i) in
          let lsq = psq.(i) and rsq = psq.(n) -. psq.(i) in
          let lsse = lsq -. (lsum *. lsum /. ln) in
          let rsse = rsq -. (rsum *. rsum /. rn) in
          let gain = parent_sse -. (lsse +. rsse) in
          if not (!best_gain >= gain) then begin
            best_gain := gain;
            best_col := c;
            best_thresh := (xl +. xr) /. 2.0;
            best_i := i
          end
        end
      done
    end
  done;
  if !best_col < 0 then None
  else Some (!best_gain, !best_col, !best_thresh, !best_i)

(* Stable in-place partition of the node [\[lo, hi)] in every column:
   the left child's samples move to [\[lo, mid)], the rest to [\[mid, hi)],
   each keeping its order.  Membership is decided by {e rank} in the split
   column (its first [mid - lo] entries), not by comparing against the
   threshold — midpoint thresholds can round onto a boundary value, and
   rank is what the reference fitter's [Array.sub] uses. *)
let partition ws ~lo ~hi ~split ~mid =
  let mark = ws.mark and scratch = ws.scratch in
  let split_col = ws.cols.(split) in
  for k = lo to mid - 1 do
    Bytes.set mark split_col.(k) '\001'
  done;
  for c = 0 to Array.length ws.cols - 1 do
    let col = ws.cols.(c) in
    (* the split column is already partitioned *)
    if c <> split then begin
      let l = ref lo and r = ref 0 in
      for k = lo to hi - 1 do
        let s = col.(k) in
        if Bytes.get mark s = '\001' then begin
          col.(!l) <- s;
          incr l
        end
        else begin
          scratch.(!r) <- s;
          incr r
        end
      done;
      Array.blit scratch 0 col mid (hi - mid)
    end
  done;
  for k = lo to mid - 1 do
    Bytes.set mark split_col.(k) '\000'
  done

(* Grow the subtree of the node [\[lo, hi)].  [idx.(lo) .. idx.(hi - 1)]
   are its samples in the reference fitter's visitation order — the
   identity at the root, then the split column (the reference hands
   children [Array.sub sorted]) — which fixes the rounding of its mean and
   SSE.  [idx]'s range is only read before this node partitions it. *)
let rec grow ws ys ~idx ~lo ~hi ~depth ~params =
  let n = hi - lo in
  let m = mean_range ys idx lo hi in
  if depth >= params.max_depth || n < 2 * params.min_samples then Leaf m
  else begin
    let parent_sse = sse_range ys idx lo hi ~mean:m in
    if parent_sse < 1e-10 then Leaf m
    else
      match
        best_split_sorted ws ys ~lo ~hi ~parent_sse
          ~min_samples:params.min_samples
      with
      | Some (gain, c, thresh, i) when not (gain <= 1e-12) ->
          let mid = lo + i in
          partition ws ~lo ~hi ~split:c ~mid;
          let col = ws.cols.(c) in
          let depth = depth + 1 in
          let left = grow ws ys ~idx:col ~lo ~hi:mid ~depth ~params in
          let right = grow ws ys ~idx:col ~lo:mid ~hi ~depth ~params in
          Node { feat = ws.feats.(c); thresh; left; right }
      | _ -> Leaf m
  end

(* Boost [n_new] trees onto [residual] (mutated in place). *)
let boost ws xs residual ~params ~shrinkage ~n_new =
  let n = Array.length xs in
  let trees = ref [] in
  for _ = 1 to n_new do
    Array.iteri (fun s r -> ws.sq.(s) <- r ** 2.0) residual;
    Array.iteri (fun c sorted -> Array.blit sorted 0 ws.cols.(c) 0 n) ws.presorted;
    let tree = grow ws residual ~idx:ws.root ~lo:0 ~hi:n ~depth:0 ~params in
    trees := tree :: !trees;
    Array.iteri
      (fun i _ ->
        residual.(i) <-
          residual.(i) -. (shrinkage *. predict_tree tree xs.(i)))
      residual
  done;
  List.rev !trees

let fit ?(params = default_params) (xs : float array array) (ys : float array)
    : t =
  if Array.length xs = 0 then
    { base = 0.0; trees = []; shrinkage = params.learning_rate }
  else begin
    let ws = workspace xs in
    let base = mean ys ws.root in
    let residual = Array.map (fun y -> y -. base) ys in
    let trees =
      boost ws xs residual ~params ~shrinkage:params.learning_rate
        ~n_new:params.n_trees
    in
    { base; trees; shrinkage = params.learning_rate }
  end

(* Warm start: keep the existing ensemble (base, shrinkage, trees) and
   boost [extra_trees] new trees on the residuals of the {e full} grown
   dataset.  The base is deliberately not recentered — the new trees
   absorb any drift of the data mean, exactly as later boosting rounds
   would.  Off by default in the tuner because the resulting model (and
   hence the tuning trajectory) differs from a from-scratch fit. *)
let refit ?(params = default_params) ?extra_trees (t : t)
    (xs : float array array) (ys : float array) : t =
  let n_new =
    match extra_trees with
    | Some e ->
        if e < 0 then invalid_arg "Gbdt.refit: extra_trees must be >= 0";
        e
    | None -> max 1 (params.n_trees / 5)
  in
  if Array.length xs = 0 || n_new = 0 then t
  else begin
    let residual = Array.mapi (fun i x -> ys.(i) -. predict t x) xs in
    let trees =
      boost (workspace xs) xs residual ~params ~shrinkage:t.shrinkage ~n_new
    in
    { t with trees = t.trees @ trees }
  end


(* ------------------------------------------------------------------ *)
(* Reference fitter (the seed implementation, kept as the oracle)     *)
(* ------------------------------------------------------------------ *)

(* Best (feature, threshold) split of [idx] minimizing children SSE. *)
let best_split (xs : float array array) (ys : float array) (idx : int array)
    ~min_samples =
  let nfeat = Array.length xs.(0) in
  let best = ref None in
  let parent_sse = sse ys idx in
  for f = 0 to nfeat - 1 do
    let sorted = Array.copy idx in
    Array.sort (fun a b -> Float.compare xs.(a).(f) xs.(b).(f)) sorted;
    let n = Array.length sorted in
    (* prefix sums for O(n) split evaluation *)
    let psum = Array.make (n + 1) 0.0 and psq = Array.make (n + 1) 0.0 in
    for i = 0 to n - 1 do
      psum.(i + 1) <- psum.(i) +. ys.(sorted.(i));
      psq.(i + 1) <- psq.(i) +. (ys.(sorted.(i)) ** 2.0)
    done;
    for i = min_samples to n - min_samples do
      if xs.(sorted.(i - 1)).(f) < xs.(sorted.(i)).(f) then begin
        let ln = float_of_int i and rn = float_of_int (n - i) in
        let lsum = psum.(i) and rsum = psum.(n) -. psum.(i) in
        let lsq = psq.(i) and rsq = psq.(n) -. psq.(i) in
        let lsse = lsq -. (lsum *. lsum /. ln) in
        let rsse = rsq -. (rsum *. rsum /. rn) in
        let gain = parent_sse -. (lsse +. rsse) in
        let thresh = (xs.(sorted.(i - 1)).(f) +. xs.(sorted.(i)).(f)) /. 2.0 in
        match !best with
        | Some (g, _, _, _) when g >= gain -> ()
        | _ ->
            let li = Array.sub sorted 0 i and ri = Array.sub sorted i (n - i) in
            best := Some (gain, f, thresh, (li, ri))
      end
    done
  done;
  !best

let rec fit_tree xs ys idx ~depth ~params =
  if
    depth >= params.max_depth
    || Array.length idx < 2 * params.min_samples
    || sse ys idx < 1e-10
  then Leaf (mean ys idx)
  else
    match best_split xs ys idx ~min_samples:params.min_samples with
    | None | Some (_, _, _, ([||], _)) | Some (_, _, _, (_, [||])) ->
        Leaf (mean ys idx)
    | Some (gain, feat, thresh, (li, ri)) ->
        if gain <= 1e-12 then Leaf (mean ys idx)
        else
          Node
            {
              feat;
              thresh;
              left = fit_tree xs ys li ~depth:(depth + 1) ~params;
              right = fit_tree xs ys ri ~depth:(depth + 1) ~params;
            }

let fit_reference ?(params = default_params) (xs : float array array)
    (ys : float array) : t =
  if Array.length xs = 0 then
    { base = 0.0; trees = []; shrinkage = params.learning_rate }
  else begin
    let n = Array.length xs in
    let base = mean ys (Array.init n (fun i -> i)) in
    let residual = Array.map (fun y -> y -. base) ys in
    let trees = ref [] in
    let idx = Array.init n (fun i -> i) in
    for _ = 1 to params.n_trees do
      let tree = fit_tree xs residual idx ~depth:0 ~params in
      trees := tree :: !trees;
      Array.iteri
        (fun i _ ->
          residual.(i) <-
            residual.(i) -. (params.learning_rate *. predict_tree tree xs.(i)))
        residual
    done;
    { base; trees = List.rev !trees; shrinkage = params.learning_rate }
  end

(* ------------------------------------------------------------------ *)
(* Introspection                                                      *)
(* ------------------------------------------------------------------ *)

let n_trees t = List.length t.trees

let rec tree_equal a b =
  match (a, b) with
  | Leaf x, Leaf y -> Float.equal x y
  | Node a, Node b ->
      a.feat = b.feat
      && Float.equal a.thresh b.thresh
      && tree_equal a.left b.left && tree_equal a.right b.right
  | _ -> false

let equal a b =
  Float.equal a.base b.base
  && Float.equal a.shrinkage b.shrinkage
  && List.equal tree_equal a.trees b.trees

(* Coefficient of determination on a held-out set — used in tests. *)
let r2 t xs ys =
  let n = Array.length xs in
  if n = 0 then 0.0
  else begin
    let preds = Array.map (predict t) xs in
    let ym = Array.fold_left ( +. ) 0.0 ys /. float_of_int n in
    let ss_res = ref 0.0 and ss_tot = ref 0.0 in
    Array.iteri
      (fun i y ->
        ss_res := !ss_res +. ((y -. preds.(i)) ** 2.0);
        ss_tot := !ss_tot +. ((y -. ym) ** 2.0))
      ys;
    1.0 -. (!ss_res /. Float.max 1e-12 !ss_tot)
  end
