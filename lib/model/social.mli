(** Social optimum and coordination ratio (Section 2).

    Because beliefs are subjective there is no objective congestion
    measure; the paper defines the optimum over {e pure} assignments as
    the minimum of the sum (OPT1) or the maximum (OPT2) of individual
    expected costs.  Both are computed exactly by exhaustive search over
    the [m^n] pure profiles, which is the paper's own definition; a
    guard protects against accidentally exponential calls. *)

(** [iter_profiles g f] calls [f] on every pure profile, reusing one
    mutable array (do not retain it across calls). *)
val iter_profiles : Game.t -> (Pure.profile -> unit) -> unit

(** [profile_count g] is [m^n], or [None] on overflow. *)
val profile_count : Game.t -> int option

(** [opt1 g] is [(OPT1, argmin)] — the minimum over pure profiles of
    [Σ_i λ_{i,b_i}(σ)].  The scan walks profiles in odometer order on
    an incremental {!View}, so each profile costs O(n) instead of the
    seed path's O(n²) recompute.  With [~domains > 1] the odometer is
    sharded across that many OCaml domains ({!View.fold}); the result —
    value and argmin profile, first minimum in odometer order — is
    bit-identical to the serial scan.
    @raise Invalid_argument when [m^n] exceeds [limit]
    (default [10_000_000]). *)
val opt1 : ?limit:int -> ?domains:int -> Game.t -> Numeric.Rational.t * Pure.profile

(** [opt2 g] is [(OPT2, argmin)] for the max-cost objective. *)
val opt2 : ?limit:int -> ?domains:int -> Game.t -> Numeric.Rational.t * Pure.profile

(** [ratio1 g p] is [SC1(G,P) / OPT1(G)] for a mixed profile [p]. *)
val ratio1 : ?limit:int -> Game.t -> Mixed.profile -> Numeric.Rational.t

(** [ratio2 g p] is [SC2(G,P) / OPT2(G)]. *)
val ratio2 : ?limit:int -> Game.t -> Mixed.profile -> Numeric.Rational.t

(** [opt1_bb g] / [opt2_bb g] compute the same optima as {!opt1} /
    {!opt2} by a depth-first branch-and-bound, reaching well beyond the
    exhaustive [m^n] range.  Users are placed in decreasing weight
    order (ties by index), each on links [0..m-1] in turn; each placed
    user's latency, at the current loads plus its own bias, only grows
    as later users join its link, so the partial cost lower-bounds
    every completion.  A node is pruned when its bound is not below the
    incumbent, and the incumbent changes only on strict improvement, so
    the argmin is the first strict minimum in that depth-first order.

    A game with cost tables ({!Game.cost_tables}: packed, with every
    latency an integer over one common denominator and every partial
    cost provably below [max_int]) runs the search on native ints with
    an O(1) bound update per node; every other game runs it on exact
    rationals ({!opt1_bb_exact}).  Both paths visit the same nodes and return the
    same value and argmin profile.  Exact on every uncertainty backend
    (loads carry contributions, own latencies carry biases); equality
    with {!opt1}/{!opt2} is property-tested on Bayesian, participation
    and strict games. *)
val opt1_bb : Game.t -> Numeric.Rational.t * Pure.profile

val opt2_bb : Game.t -> Numeric.Rational.t * Pure.profile

(** [opt1_bb_exact g] / [opt2_bb_exact g] run the branch-and-bound of
    {!opt1_bb}/{!opt2_bb} on exact rationals whatever the game: the
    path non-packed games take, and the reference the native path is
    tested against. *)
val opt1_bb_exact : Game.t -> Numeric.Rational.t * Pure.profile

val opt2_bb_exact : Game.t -> Numeric.Rational.t * Pure.profile
