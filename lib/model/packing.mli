(** Native-int packing of a game's numeric data.

    The packed tables are the backing store of the [View]/[Cview] fast
    lanes: link loads as integers scaled by the lcm of the weight
    denominators, capacities as reduced [(num, den)] int pairs.  Under
    the product bound checked by {!admits}, every latency comparison in
    the packed representation is a three-factor native multiply whose
    intermediates provably fit a native int — an exact computation with
    zero allocation and zero per-operation checks.  Construction
    returns [None] whenever any component would spill the native range;
    callers then fall back to the big-rational lane, so packing never
    changes results, only speed. *)

type t = {
  scale : int;  (** lcm of the weight denominators *)
  pw : int array;  (** [pw.(r)] = weight of row [r] · [scale] *)
  cn : int array;  (** [cn.(r*m + l)] = capacity numerator, > 0 *)
  cd : int array;  (** [cd.(r*m + l)] = capacity denominator, > 0 *)
  wsum : int;  (** Σ mult_r · pw.(r): total scaled traffic *)
  maxcn : int;
  maxcd : int;
  base_ok : bool;  (** {!admits} holds at [total = wsum] (no initial traffic) *)
}

(** [build ~mults weights capacities] packs one row per weight, where
    [mults.(r)] is the row's population multiplicity (all ones for
    per-user games, class counts for compressed games).  [None] when
    any scaled component exceeds the native range. *)
val build : mults:int array -> Numeric.Rational.t array -> Numeric.Rational.t array array -> t option

(** Per-user cost coefficients over one common denominator: with [D]
    the lcm of the capacity numerators, [k.(r*m + l) = cd·(D/cn)] for
    row [r] on link [l], so the latency of row [r] on link [l] at
    scaled load [L] is [L·k.(r*m + l) / den] with [den = scale·D]. *)
type costs = { k : int array; den : int }

(** [costs pk] computes the {!costs} of a per-user packing (one row per
    user, every multiplicity one) in overflow-checked native ints.
    [None] when [D], a coefficient or [den] spills, or unless
    [n·wsum·max k < max_int] for [n] rows — the bound under which any
    sum of [n] latencies at scaled loads [≤ wsum], as integers over
    [den], is native. *)
val costs : t -> costs option

(** [sum_latency c ~m ~loads prof] is SC_1 = [Σ_i L·k.(i*m + l) / den]
    over every user [i] of [prof] on its link [l = prof.(i)] at scaled
    load [L = loads.(l)], as one exact rational.  Native and exact when
    every load is at most the packing's [wsum] (the {!costs} bound). *)
val sum_latency : costs -> m:int -> loads:int array -> int array -> Numeric.Rational.t

(** [max_latency ?active ~scale ~cn ~cd ~m ~loads ~users prof] is
    SC_2 = [max_i (L·cd)/(scale·cn)] over users [0 .. users-1] (those
    with [active.(i)] when given), compared by native cross products
    and built as one exact rational; [0] when no user counts.  Exact
    under the {!admits} bound at a total covering every load. *)
val max_latency :
  ?active:bool array ->
  scale:int ->
  cn:int array ->
  cd:int array ->
  m:int ->
  loads:int array ->
  users:int ->
  int array ->
  Numeric.Rational.t

exception Overflow

(** [mul_nn a b] / [add_nn a b] are [a·b] / [a + b] on positive native
    ints.  @raise Overflow when the result would exceed [max_int]. *)
val mul_nn : int -> int -> int

val add_nn : int -> int -> int

(** [admits ~total ~maxcn ~maxcd] holds when
    [2·total·maxcd·maxcn <= max_int] — the single bound under which
    every packed predicate product is exact. *)
val admits : total:int -> maxcn:int -> maxcd:int -> bool

(** [rescale pk initial] extends the scale to cover initial link
    traffic: [(scale, pw, iload0, total)] with the initial loads
    pre-scaled, or [None] on spill or bound failure. *)
val rescale : t -> Numeric.Rational.t array -> (int * int array * int array * int) option
