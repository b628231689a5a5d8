open Model

(** Exhaustive enumeration of pure Nash equilibria.

    The ground truth for the existence experiments (E4, E5) and the
    worst-case-equilibrium experiments (E10–E12): exact search over the
    [m^n] pure profiles through {!Model.View.sweep_nash}, which
    completes each of the [m^(n-1)] prefixes of the other users only
    with the last user's best responses and checks those completions
    exactly.  Results come in odometer order (last user fastest). *)

(** [pure_nash g] lists all pure Nash equilibria of [g].
    @raise Invalid_argument when [m^n] exceeds [limit]
    (default [10_000_000]). *)
val pure_nash : ?limit:int -> Game.t -> Pure.profile list

(** [count g] is the number of pure Nash equilibria. *)
val count : ?limit:int -> Game.t -> int

(** [exists g] holds when at least one pure Nash equilibrium exists —
    Conjecture 3.7 asserts this is always true. *)
val exists : ?limit:int -> Game.t -> bool

(** [extremal_nash g ~cost] is [Some (best, worst)] — the equilibria
    minimising and maximising [cost] — or [None] when no pure Nash
    equilibrium exists. *)
val extremal_nash :
  ?limit:int ->
  Game.t ->
  cost:(Game.t -> Pure.profile -> Numeric.Rational.t) ->
  ((Pure.profile * Numeric.Rational.t) * (Pure.profile * Numeric.Rational.t)) option
