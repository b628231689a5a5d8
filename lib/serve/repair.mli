(** Incremental equilibrium repair after a mutation batch.

    Re-solving from scratch after every mutation throws away almost
    all of the work: a small batch perturbs the loads of a handful of
    links, so only users who can {e see} the perturbation — members of
    mutated classes plus users on touched links — can have a changed
    best response.  {!repair_batch} applies a batch to a live
    {!Model.Cview} cursor positioned at an equilibrium and repairs it
    locally:

    - {b Seeding.}  Each mutation dirties its class; arrivals and
      departures touch their link, and a reweight touches every link
      the class occupies (their loads changed).  A capacity revision
      dirties its class only — loads are unaffected, so no other
      class's latencies move.
    - {b Restricted epochs.}  The scan ({!Model.Cview.first_code})
      visits occupied (class, link) pairs in the same class-ascending,
      link-ascending order as {!Algo.Cbr}'s first-defector policy, but
      a {e clean} pair — clean class on an untouched link — only checks
      moves {e into} touched links: starting from an equilibrium, its
      own latency is unchanged, so any new improving move must target a
      link whose load dropped.  Dirty or touched pairs get the full
      defector check.  On the packed lane one O(m) pass per class
      settles every pair of the class (O(k·m) per scan); the exact lane
      checks pair by pair (O(k·m²)).  The scan also names the move's
      target, the best-response link: on the packed lane it is the
      pass's own lowest-cost arrival link, so a block move costs no
      further pass and no rational.  The block is the maximal
      improving one (O(1)).  Each block move marks its source and
      destination links touched ({e frontier expansion}) and re-enters
      the scan from class 0.  (Resuming at the moved class was
      measured and does not pay; see DESIGN.md §17.)
    - {b Allocation.}  Seeding is a plain loop; a packed batch
      allocates only the revisions' undo records and rationals, the
      scan results, the epoch closure and the two seed sets.
    - {b Saturation and fallback.}  When the frontier saturates (every
      link touched) the restricted scan degrades to exactly
      {!Algo.Cbr}'s full first-defector scan, i.e. full best-response
      convergence running in place on the warm profile.  When the move
      budget runs out, or the last restricted scan finds a defector
      outside the frontier (non-equilibrium start), the repair falls
      back to {!Algo.Cbr.converge} on {!Model.Cview.to_cgame} from the
      current profile and re-applies the result to the live view
      through undoable block moves.
    - {b Verification.}  The scan that ends the restricted epochs is
      also the exact Nash check ({!Model.Cview.first_code}'s [-1]):
      the pass that finds no candidate compares every clean source
      that does not defect into a touched link against the untouched
      links too, so together with the full checks of dirty and touched
      pairs it decides each of {!Model.Cview.is_nash}'s inequalities
      once, on the same unmoved view, in the same exact (or packed
      exact) arithmetic.  A repair that took the fallback is checked
      with {!Model.Cview.is_nash} afterwards.  A repair that cannot
      reach equilibrium raises instead of returning.
    - {b Rollback.}  Whatever raises — a rejected mutation, an
      exhausted fallback, a failed verification — the view is first
      undone back to its depth on entry, so a caller that catches the
      exception holds the pre-batch state (profile, loads, revisions
      and history depth) again.

    Starting from a genuine equilibrium the restricted scan is sound —
    a clean scan implies Nash, and the scan's own verdict confirms it.
    From an arbitrary (non-Nash) start the restricted scan may come
    back clean while a defector sits outside the frontier; the same
    pass reports it ([-2]) and routes into the fallback, so the result
    is an equilibrium regardless. *)

type outcome = {
  moves : int;  (** block moves performed (fallback steps included) *)
  users_moved : int;  (** users carried by those moves *)
  seeded_classes : int;  (** classes dirtied by the batch itself *)
  seeded_links : int;  (** links touched by the batch itself *)
  frontier_links : int;  (** touched links when the scan finished *)
  fallback : bool;  (** full re-solve fallback was taken *)
  nash : bool;  (** exact final verdict; [true] on every return *)
}

(** [repair_batch ?domains ?max_steps v batch] applies [batch] to [v]
    (via {!Mutation.apply}, in order) and repairs equilibrium as
    described above.  With [domains > 1] each defector scan shards the
    class range across domains — the view is only read during a scan,
    and the first candidate in shard order equals the serial scan's
    candidate, so the repair is bit-identical for every domain count.
    @raise Invalid_argument when a mutation is rejected, [domains <= 0],
    [max_steps <= 0] (default [1_000_000]), or the fallback fails to
    converge within [max_steps]; the view is then back at its state on
    entry. *)
val repair_batch :
  ?domains:int -> ?max_steps:int -> Model.Cview.t -> Mutation.t list -> outcome

(** [scan ~domains v touched dirty] is {!Model.Cview.first_code} over
    every class, run on [domains] contiguous class shards when
    [domains > 1] and merged in shard order: the first candidate code,
    else [-2] when any shard returned [-2], else [-1].  The result is
    the serial scan's for every domain count.  Read-only on [v];
    [touched] and [dirty] are copied before the shards start. *)
val scan : domains:int -> Model.Cview.t -> bool array -> bool array -> int
