(** Incremental evaluation cursor over a pure profile.

    Every equilibrium predicate in the paper compares [load/c^l_i]
    ratios, and almost every algorithm explores profiles by single-user
    deviations: best-response steps, better-response walks, game-graph
    DFS, exhaustive odometer sweeps.  A [View.t] materialises the
    per-link loads of one profile once ({!of_profile}, honouring
    [?initial]) and then maintains them under single-user moves in O(1)
    exact rational updates: {!move} touches exactly the two affected
    load entries and {!undo} restores them.  Against the view, a load
    lookup is O(1), a latency is O(1), a best response is O(m) and a
    full Nash check is O(n·m) — where the scan-based {!Pure} seed path
    paid an extra O(n) profile rescan per load.

    The view is a mutable cursor, not a value: share it only within one
    traversal, and treat the arrays returned by {!profile} and {!loads}
    as snapshots (they are copies).

    Loads are stored in one of two lanes chosen at construction.  When
    every scaled component of the game fits the native range (the
    {!Packing} bound), loads are flat native-int arrays and every
    equilibrium predicate is a three-factor native product — exact,
    allocation-free and check-free.  Otherwise the loads are
    big-rational values.  Both lanes compute identical canonical
    rationals; lane choice is observable only through {!packed}.

    Beyond single-user moves, the cursor supports {e structural
    deltas}: {!add_user}, {!remove_user} and {!revise_capacity}, each
    an exact O(m)-or-better load patch with undo.  Views are born
    {e sealed} — per-user data is read from the immutable {!Game.t}
    and moves cost exactly what they cost in the seed; the first
    structural delta unseals the view, materialising view-local
    per-user tables in one O(n·m) pass.  Departures tombstone their
    slot: user indices stay stable, {!users} counts slots (departed
    included) and scans skip inactive slots.  Structural deltas
    re-check the {!Packing} bound and spill to the big-rational lane
    in place when the revised magnitudes no longer fit; {!undo}
    restores the fast lane. *)

type t

(** [packed v] holds when the view runs on the native-int fast lane.
    Exposed for benchmarks and tests; results never depend on it. *)
val packed : t -> bool

(** [of_profile g ?initial p] positions a fresh view at [p], computing
    all link loads once in O(n + m).  [p] is copied; later mutation of
    the caller's array does not affect the view.
    @raise Invalid_argument when [p] or [initial] is malformed (same
    checks as {!Pure.validate}). *)
val of_profile : Game.t -> ?initial:Numeric.Rational.t array -> int array -> t

(** [game v] is the game the view was constructed over.  After a
    structural delta it reflects the {e original} spec, not the
    revised one — use {!to_game} for the live state. *)
val game : t -> Game.t

(** [users v] is the number of user {e slots}, departed users
    included; equals the game's user count until the first
    {!add_user}. *)
val users : t -> int

val links : t -> int

(** [is_active v i] holds unless user [i] has departed via
    {!remove_user} (and the departure was not undone). O(1). *)
val is_active : t -> int -> bool

(** [active_users v] is the number of live users. O(1). *)
val active_users : t -> int

(** [link v i] is the link user [i] currently plays. O(1). *)
val link : t -> int -> int

(** [profile v] is a snapshot copy of the current profile. *)
val profile : t -> int array

(** [owner v] is the id of the domain that created the view, as
    recorded for the [SELFISH_OWNERSHIP] sanitizer
    ({!Parallel.Ownership}).  Under the sanitizer, {!move} and {!undo}
    raise {!Parallel.Ownership.Violation} when called from any other
    domain. *)
val owner : t -> int

(** [unsafe_set_owner v id] rewrites the recorded owner.  Test-only
    forgery hook for pinning the sanitizer's failure message; never
    call it in library code. *)
val unsafe_set_owner : t -> int -> unit

(** [load v l] is the current total traffic on link [l] (initial
    traffic plus the weights of the users assigned there). O(1). *)
val load : t -> int -> Numeric.Rational.t

(** [loads v] is a snapshot copy of the per-link loads. *)
val loads : t -> Numeric.Rational.t array

(** [move v i l] reassigns user [i] to link [l], updating the two
    affected loads in O(1) exact rational operations and recording the
    move for {!undo}.  Moving a user to its current link is a recorded
    no-op, so move/undo sequences always balance.
    @raise Invalid_argument when [i] or [l] is out of range. *)
val move : t -> int -> int -> unit

(** [undo v] reverts the most recent un-undone {!move} or structural
    delta — O(1) for a move, O(m) for a delta.
    @raise Invalid_argument when the history is empty. *)
val undo : t -> unit

(** [depth v] is the number of moves and structural deltas that
    {!undo} can still revert. *)
val depth : t -> int

(** [weight v i], [capacity v i l], [contribution v i],
    [uncertainty v i]: user [i]'s current per-user data, reflecting
    any structural revision (read from the game while the view is
    sealed). O(1). *)
val weight : t -> int -> Numeric.Rational.t

val capacity : t -> int -> int -> Numeric.Rational.t
val contribution : t -> int -> Numeric.Rational.t
val uncertainty : t -> int -> Uncertainty.t

(** [add_user v ~weight ?uncertainty ?capacities ~link ()] appends a
    user on [link] and returns its slot index ([users v] before the
    call).  Exactly one of [~uncertainty] (any backend) or
    [~capacities] (wrapped as a certain Bayesian belief) must be
    given.  One O(1) load patch after the first unsealing; on the
    packed lane the new user's scaled weight and capacity pairs are
    admitted against the grown totals, spilling to the exact lane when
    the bound fails.
    @raise Invalid_argument on a malformed weight, row or link. *)
val add_user :
  t ->
  weight:Numeric.Rational.t ->
  ?uncertainty:Uncertainty.t ->
  ?capacities:Numeric.Rational.t array ->
  link:int ->
  unit ->
  int

(** [remove_user v i] tombstones user [i]: its contribution leaves its
    link's load (O(1)) and every scan skips it.  The slot index stays
    allocated, so indices of other users are stable and {!undo}
    restores the user in place.
    @raise Invalid_argument when [i] is out of range, already
    departed, or the last active user. *)
val remove_user : t -> int -> unit

(** [revise_capacity v ~user ~link cap'] rewrites user [user]'s
    effective capacity on [link].  Loads are unaffected (O(1)); the
    packed capacity pair is patched when the revised reduced pair
    keeps the product bound, else the view spills.
    @raise Invalid_argument on an index out of range or [cap' ≤ 0]. *)
val revise_capacity : t -> user:int -> link:int -> Numeric.Rational.t -> unit

(** [to_game v] re-materialises a per-user game over the active slots
    (in slot order) together with the slot index of each of its users.
    Untouched capacity rows keep their uncertainty backend; revised
    rows are re-wrapped as the matching certain belief (degenerate
    interval for [Strict]).  Returns the original game and the
    identity map while the view is sealed. *)
val to_game : t -> Game.t * int array

(** [latency v i] is user [i]'s expected latency [λ_{i,b_i}] at the
    current profile. O(1). *)
val latency : t -> int -> Numeric.Rational.t

(** [latency_on_link v i l] is the latency user [i] would experience
    after unilaterally moving to [l] (its current latency when [l] is
    its current link). O(1). *)
val latency_on_link : t -> int -> int -> Numeric.Rational.t

(** [best_response_for v i] is the lowest-index link minimising user
    [i]'s post-move latency, paired with that latency. O(m). *)
val best_response_for : t -> int -> int * Numeric.Rational.t

(** [improving_moves v i] lists, in increasing order, the links that
    would strictly lower user [i]'s latency. O(m). *)
val improving_moves : t -> int -> int list

(** [is_defector v i] holds when user [i] has an improving move. O(m). *)
val is_defector : t -> int -> bool

(** [defectors v] lists the users violating the Nash condition, in
    increasing order. O(n·m). *)
val defectors : t -> int list

(** [first_and_last_defector v] returns both ends of {!defectors} in a
    single pass, or [None] at a Nash equilibrium — the one-pass answer
    to the [Last_defector] best-response policy. O(n·m). *)
val first_and_last_defector : t -> (int * int) option

(** [is_nash v] holds when no user can strictly improve by switching
    links. O(n·m); on the packed lane it allocates nothing. *)
val is_nash : t -> bool

(** [social_cost1 v] is [SC1 = Σ_i λ_{i,b_i}] over the active users.
    O(n).  A sealed packed view without initial traffic sums
    [L_{p_i}·K_{i,p_i}] in native ints over the game's
    {!Game.cost_tables} and builds one rational; every other view sums
    the per-user exact latencies.  Both return the same canonical
    rational. *)
val social_cost1 : t -> Numeric.Rational.t

(** [social_cost2 v] is [SC2 = max_i λ_{i,b_i}] over the active users.
    O(n).  On the packed lane (sealed or not, with or without initial
    traffic) the maximum is taken by native cross products, as in
    {!best_response_for}, and one rational is built; on the exact lane
    it is the per-user exact maximum.  Both return the same canonical
    rational. *)
val social_cost2 : t -> Numeric.Rational.t

(** [sweep g ?initial f] calls [f] on a view positioned at every pure
    profile, in exactly the odometer order of
    {!Social.iter_profiles} (last user varies fastest).  Because
    consecutive odometer profiles differ by an amortised O(1) number of
    single-user moves, the whole sweep performs O(m^n) load updates
    total instead of rebuilding loads per profile — the inner loop of
    an exhaustive scan drops from O(n·m) to O(m) amortised per
    profile.  [f] may {!move}/{!undo} on the view as long as every
    move is undone before it returns; do not retain the view. *)
val sweep : Game.t -> ?initial:Numeric.Rational.t array -> (t -> unit) -> unit

(** [sweep_nash g f] calls [f] on a view positioned at every pure Nash
    equilibrium of [g], in {!sweep} order — exactly the profiles where
    [sweep] would find {!is_nash}, without visiting the others.  The
    odometer runs over users [0 .. n-2]; at each prefix one O(m) pass
    finds the last user's best-response links (ties included, decided
    exactly), and only those completions are checked for a defector
    among users [0 .. n-2].  On the packed lane the sweep allocates
    nothing per prefix: its view and one closure, then only what [f]
    allocates.  [f] may {!move}/{!undo} as
    long as it leaves the view as it found it; do not retain the
    view. *)
val sweep_nash : Game.t -> (t -> unit) -> unit

(** [fold ?domains ?initial g ~init ~f ~combine] folds [f] over every
    pure profile in {!sweep} order and reduces with [combine].  With
    [domains <= 1] this is exactly the serial
    [f (… (f init v₀) …) v_last].  With [domains > 1] the odometer
    index space [0, m^n) is cut into [domains] contiguous blocks, each
    folded from [init] by a private view on its own domain, and the
    block results are combined left to right — so the result is
    bit-identical to the serial fold whenever [(init, f, combine)]
    satisfies [combine (f… init xs) (f… init ys) = f… init (xs @ ys)]
    (any associative reduction with unit [init]; first-wins argmin
    folds qualify because earlier blocks combine from the left).  [f]
    must not touch shared mutable state: it runs concurrently on
    distinct views.  Falls back to the serial path when [m^n]
    overflows a native int. *)
val fold :
  ?domains:int ->
  ?initial:Numeric.Rational.t array ->
  Game.t ->
  init:'a ->
  f:('a -> t -> 'a) ->
  combine:('a -> 'a -> 'a) ->
  'a
