open Numeric

(* The cursor: current profile, current loads (initial traffic
   included), and a packed move history for [undo].  A history entry
   stores [i * m + old_link] in one native int, so the stack is a flat
   int array that doubles on demand.  Structural deltas (arrivals,
   departures, capacity revisions) push a sentinel entry [-1] paired
   with a variant on the [shist] side stack, keeping the move path at
   its seed cost.

   Loads live in one of two lanes.  The packed lane stores them as
   native ints scaled by a common denominator, with capacities as
   reduced (num, den) int pairs from the game's [Packing] tables; under
   the bound checked at construction every latency comparison is a
   three-factor native product — exact, allocation-free, no per-op
   checks.  The exact lane keeps big-rational loads and is taken
   whenever any packed component would spill the native range, so both
   lanes compute identical answers and callers cannot observe which
   one is active (except through [packed], exposed for benchmarks).
   A structural delta re-checks the packing bound against the revised
   magnitudes and spills to the exact lane in place when it fails; the
   abandoned packed tables ride the undo entry, so reverting the delta
   restores the fast lane.

   Views are born sealed: per-user tables are read straight from the
   immutable [Game.t] and no per-user state is copied, so sweeps and
   per-move costs match the seed exactly.  The first structural delta
   unseals the view, materialising growable view-local tables
   (weights, contributions, biases, capacity rows, backends, active
   flags) in one O(n·m) pass; departures tombstone their slot (the
   [active] flag) rather than renumbering users. *)

type packed_lane = {
  pscale : int; (* common denominator of all loads/weights *)
  mutable ppw : int array; (* scaled weight per user *)
  piload : int array; (* scaled load per link (mutated by shift) *)
  mutable pcn : int array; (* capacity numerators, row-major i*m + l *)
  mutable pcd : int array; (* capacity denominators *)
  mutable powned : bool; (* ppw/pcn/pcd are private copies, safe to mutate/grow *)
  mutable pmaxcn : int; (* monotone upper bounds for the product bound *)
  mutable pmaxcd : int;
  mutable ptotal : int; (* current total scaled traffic, initial included *)
}

type lane = Exact of Rational.t array | Packed of packed_lane

(* Unsealed per-user state: parallel growable arrays of length ≥
   [slots]; slot [i] is live iff [active.(i)]. *)
type ext = {
  mutable slots : int;
  mutable nactive : int;
  mutable weights : Rational.t array;
  mutable contribs : Rational.t array;
  mutable biases : Rational.t array;
  mutable caps : Rational.t array array;
  mutable uncert : Uncertainty.t array;
  mutable active : bool array;
}

type sdelta =
  | Sadd of { restore : lane option }
  | Sremove of { user : int }
  | Scap of { user : int; link : int; cap : Rational.t; pcn : int; pcd : int; restore : lane option }

type t = {
  game : Game.t;
  mutable prof : int array;
  mutable lane : lane;
  mutable ext : ext option;
  mutable hist : int array;
  mutable depth : int;
  mutable shist : sdelta list;
  mutable owner : int; (* creating domain id, for SELFISH_OWNERSHIP *)
}

let game v = v.game

let users v =
  match v.ext with
  | None -> Array.length v.prof
  | Some e -> e.slots

let links v =
  match v.lane with
  | Exact loads -> Array.length loads
  | Packed pk -> Array.length pk.piload

let packed v = match v.lane with Packed _ -> true | Exact _ -> false

let of_profile g ?initial p =
  if Array.length p <> Game.users g then
    invalid_arg "View.of_profile: profile length differs from user count";
  let m = Game.links g in
  (match initial with
   | None -> ()
   | Some t ->
     if Array.length t <> m then
       invalid_arg "View.of_profile: initial traffic length differs from link count";
     Array.iter
       (fun q -> if Rational.sign q < 0 then invalid_arg "View.of_profile: negative initial traffic")
       t);
  Array.iter
    (fun l -> if l < 0 || l >= m then invalid_arg "View.of_profile: link out of range")
    p;
  let lane =
    match Game.packed_tables g with
    | Some pk when (match initial with None -> pk.Packing.base_ok | Some _ -> true) -> begin
      let attempt =
        match initial with
        | None -> Some (pk.Packing.scale, pk.Packing.pw, Array.make m 0, pk.Packing.wsum)
        | Some t -> Packing.rescale pk t
      in
      match attempt with
      | None -> None
      | Some (scale, pw, iload, total) ->
        Array.iteri (fun i l -> iload.(l) <- iload.(l) + pw.(i)) p;
        Some
          (Packed
             {
               pscale = scale;
               ppw = pw;
               piload = iload;
               pcn = pk.Packing.cn;
               pcd = pk.Packing.cd;
               powned = false;
               pmaxcn = pk.Packing.maxcn;
               pmaxcd = pk.Packing.maxcd;
               ptotal = total;
             })
    end
    | _ -> None
  in
  let lane =
    match lane with
    | Some lane -> lane
    | None ->
      let loads =
        match initial with
        | None -> Array.make m Rational.zero
        | Some t -> Array.copy t
      in
      (* Loads sum contributions, not weights: other users only meet
         the presence-discounted traffic of user [i].  For load-linear
         games [contribution] is physically the weight. *)
      Array.iteri (fun i l -> loads.(l) <- Rational.add loads.(l) (Game.contribution g i)) p;
      Exact loads
  in
  {
    game = g;
    prof = Array.copy p;
    lane;
    ext = None;
    hist = Array.make 16 0;
    depth = 0;
    shist = [];
    owner = Parallel.Ownership.record ();
  }

let link v i = v.prof.(i)
let profile v = Array.sub v.prof 0 (users v)
let owner v = v.owner
let unsafe_set_owner v id = v.owner <- id

(* Per-user table reads: straight from the game while sealed, from the
   view-local tables once a structural delta has unsealed the view. *)
let is_active v i = match v.ext with None -> true | Some e -> e.active.(i)
let active_users v = match v.ext with None -> Array.length v.prof | Some e -> e.nactive
let u_weight v i = match v.ext with None -> Game.weight v.game i | Some e -> e.weights.(i)

let u_contrib v i =
  match v.ext with None -> Game.contribution v.game i | Some e -> e.contribs.(i)

let u_bias v i = match v.ext with None -> Game.bias v.game i | Some e -> e.biases.(i)
let u_cap v i l = match v.ext with None -> Game.capacity v.game i l | Some e -> e.caps.(i).(l)

let u_uncertainty v i =
  match v.ext with None -> Game.uncertainty v.game i | Some e -> e.uncert.(i)

(* Packed-lane rationals are rebuilt on demand through [Rational.make],
   whose canonical lowest-terms form makes them structurally identical
   to what the exact lane would have computed — lane choice is
   unobservable in results. *)
let q_of_scaled num scale = Rational.make (Bigint.of_int num) (Bigint.of_int scale)

let q_latency pk total idx =
  Rational.make
    (Bigint.of_int (total * pk.pcd.(idx)))
    (Bigint.mul (Bigint.of_int pk.pscale) (Bigint.of_int pk.pcn.(idx)))

let load v l =
  match v.lane with
  | Exact loads -> loads.(l)
  | Packed pk -> q_of_scaled pk.piload.(l) pk.pscale

let loads v = Array.init (links v) (load v)
let depth v = v.depth

(* Unrecorded reassignment: the O(1) delta shared by [move], [undo] and
   the sweep odometer.  Touches exactly the two affected load entries;
   both lanes are exact, so repeated shifts never drift. *)
let shift v i l =
  let old = v.prof.(i) in
  if l <> old then begin
    (match v.lane with
     | Exact loads ->
       let w = u_contrib v i in
       loads.(old) <- Rational.sub loads.(old) w;
       loads.(l) <- Rational.add loads.(l) w
     | Packed pk ->
       let w = pk.ppw.(i) in
       pk.piload.(old) <- pk.piload.(old) - w;
       pk.piload.(l) <- pk.piload.(l) + w);
    v.prof.(i) <- l
  end

let push v entry =
  if v.depth = Array.length v.hist then begin
    let bigger = Array.make (2 * v.depth) 0 in
    Array.blit v.hist 0 bigger 0 v.depth;
    v.hist <- bigger
  end;
  v.hist.(v.depth) <- entry;
  v.depth <- v.depth + 1

let move v i l =
  if i < 0 || i >= users v then invalid_arg "View.move: user out of range";
  if l < 0 || l >= links v then invalid_arg "View.move: link out of range";
  if not (is_active v i) then invalid_arg "View.move: user has departed";
  Parallel.Ownership.guard "View cursor" v.owner;
  push v ((i * links v) + v.prof.(i));
  shift v i l

(* --- structural deltas ------------------------------------------- *)

(* Copy-on-write for the packed per-user tables (shared with the
   game's [Packing] record while sealed). *)
let own pk =
  if not pk.powned then begin
    pk.ppw <- Array.copy pk.ppw;
    pk.pcn <- Array.copy pk.pcn;
    pk.pcd <- Array.copy pk.pcd;
    pk.powned <- true
  end

(* Abandon the packed lane in place; the record is left untouched so
   an undo entry can reinstate it. *)
let spill v pk =
  let loads =
    Array.map (fun s -> Rational.make (Bigint.of_int s) (Bigint.of_int pk.pscale)) pk.piload
  in
  v.lane <- Exact loads;
  loads

(* [q·scale] as a positive native int, when integral and representable. *)
let scaled_int ~scale q =
  let d, r = Bigint.divmod (Bigint.of_int scale) (Rational.den q) in
  if not (Bigint.is_zero r) then None
  else
    match Bigint.to_int_opt (Bigint.mul (Rational.num q) d) with
    | Some x when x > 0 -> Some x
    | _ -> None

(* Materialise the view-local per-user tables.  O(n·m), paid once at
   the first structural delta; sealed views never allocate any of
   this. *)
let unseal v =
  match v.ext with
  | Some e -> e
  | None ->
    let g = v.game in
    let n = Array.length v.prof in
    let e =
      {
        slots = n;
        nactive = n;
        weights = Array.init n (Game.weight g);
        contribs = Array.init n (Game.contribution g);
        biases = Array.init n (Game.bias g);
        caps = Array.init n (Game.capacity_row g);
        uncert = Array.init n (Game.uncertainty g);
        active = Array.make n true;
      }
    in
    (match v.lane with Packed pk -> own pk | Exact _ -> ());
    v.ext <- Some e;
    e

let grow_array a len fill =
  let b = Array.make len fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(* Ensure room for one more slot, doubling every parallel array
   (including the profile and, on the packed lane, the per-user
   packing tables). *)
let ensure_slot v e =
  let cap = Array.length e.active in
  if e.slots = cap then begin
    let ncap = 2 * cap in
    e.weights <- grow_array e.weights ncap e.weights.(0);
    e.contribs <- grow_array e.contribs ncap e.contribs.(0);
    e.biases <- grow_array e.biases ncap e.biases.(0);
    e.caps <- grow_array e.caps ncap e.caps.(0);
    e.uncert <- grow_array e.uncert ncap e.uncert.(0);
    e.active <- grow_array e.active ncap false;
    v.prof <- grow_array v.prof ncap 0;
    match v.lane with
    | Exact _ -> ()
    | Packed pk ->
      let m = Array.length pk.piload in
      pk.ppw <- grow_array pk.ppw ncap 0;
      pk.pcn <- grow_array pk.pcn (ncap * m) 1;
      pk.pcd <- grow_array pk.pcd (ncap * m) 1
  end

let push_structural v d =
  push v (-1);
  v.shist <- d :: v.shist

(* Reduced capacity row as native int pairs, when every entry fits. *)
let packed_caps_row caps =
  let m = Array.length caps in
  let cn = Array.make m 0 and cd = Array.make m 0 in
  let ok = ref true in
  for l = 0 to m - 1 do
    match
      (Bigint.to_int_opt (Rational.num caps.(l)), Bigint.to_int_opt (Rational.den caps.(l)))
    with
    | Some a, Some b when a > 0 && b > 0 ->
      cn.(l) <- a;
      cd.(l) <- b
    | _ -> ok := false
  done;
  if !ok then Some (cn, cd) else None

let add_user v ~weight ?uncertainty ?capacities ~link () =
  let m = links v in
  if link < 0 || link >= m then invalid_arg "View.add_user: link out of range";
  if Rational.sign weight <= 0 then invalid_arg "View.add_user: weight must be positive";
  let u =
    match (uncertainty, capacities) with
    | Some u, None -> u
    | None, Some caps ->
      if Array.length caps <> m then
        invalid_arg "View.add_user: capacity row length differs from link count";
      Array.iter
        (fun q ->
          if Rational.sign q <= 0 then invalid_arg "View.add_user: capacities must be positive")
        caps;
      Uncertainty.bayesian (Belief.certain (State.make (Array.copy caps)))
    | Some _, Some _ -> invalid_arg "View.add_user: pass either ~uncertainty or ~capacities"
    | None, None -> invalid_arg "View.add_user: one of ~uncertainty or ~capacities is required"
  in
  if Uncertainty.links u <> m then
    invalid_arg "View.add_user: uncertainty backend disagrees on the link count";
  Parallel.Ownership.guard "View cursor" v.owner;
  let e = unseal v in
  ensure_slot v e;
  let i = e.slots in
  let contrib = Rational.mul (Uncertainty.load_factor u) weight in
  let caps_row = Array.init m (Uncertainty.eval_capacity u) in
  e.weights.(i) <- weight;
  e.contribs.(i) <- contrib;
  e.biases.(i) <- Rational.sub weight contrib;
  e.caps.(i) <- caps_row;
  e.uncert.(i) <- u;
  e.active.(i) <- true;
  v.prof.(i) <- link;
  let restore =
    match v.lane with
    | Exact loads ->
      loads.(link) <- Rational.add loads.(link) contrib;
      None
    | Packed pk -> begin
      let fit =
        if not (Uncertainty.is_load_linear u) then None
        else
          match (scaled_int ~scale:pk.pscale weight, packed_caps_row caps_row) with
          | Some pw, Some (cn, cd) ->
            let maxcn = Array.fold_left max pk.pmaxcn cn
            and maxcd = Array.fold_left max pk.pmaxcd cd in
            if
              pw <= max_int - pk.ptotal
              && Packing.admits ~total:(pk.ptotal + pw) ~maxcn ~maxcd
            then Some (pw, cn, cd, maxcn, maxcd)
            else None
          | _ -> None
      in
      match fit with
      | Some (pw, cn, cd, maxcn, maxcd) ->
        pk.ppw.(i) <- pw;
        Array.blit cn 0 pk.pcn (i * m) m;
        Array.blit cd 0 pk.pcd (i * m) m;
        pk.pmaxcn <- maxcn;
        pk.pmaxcd <- maxcd;
        pk.piload.(link) <- pk.piload.(link) + pw;
        pk.ptotal <- pk.ptotal + pw;
        None
      | None ->
        let old = v.lane in
        let loads = spill v pk in
        loads.(link) <- Rational.add loads.(link) contrib;
        Some old
    end
  in
  e.slots <- e.slots + 1;
  e.nactive <- e.nactive + 1;
  push_structural v (Sadd { restore });
  i

let remove_user v i =
  if i < 0 || i >= users v then invalid_arg "View.remove_user: user out of range";
  if not (is_active v i) then invalid_arg "View.remove_user: user already departed";
  if active_users v <= 1 then invalid_arg "View.remove_user: removing the last active user";
  Parallel.Ownership.guard "View cursor" v.owner;
  let e = unseal v in
  let l = v.prof.(i) in
  (match v.lane with
   | Exact loads -> loads.(l) <- Rational.sub loads.(l) e.contribs.(i)
   | Packed pk ->
     let w = pk.ppw.(i) in
     pk.piload.(l) <- pk.piload.(l) - w;
     pk.ptotal <- pk.ptotal - w);
  e.active.(i) <- false;
  e.nactive <- e.nactive - 1;
  push_structural v (Sremove { user = i })

let revise_capacity v ~user ~link cap' =
  let m = links v in
  if user < 0 || user >= users v then invalid_arg "View.revise_capacity: user out of range";
  if link < 0 || link >= m then invalid_arg "View.revise_capacity: link out of range";
  if Rational.sign cap' <= 0 then invalid_arg "View.revise_capacity: capacity must be positive";
  Parallel.Ownership.guard "View cursor" v.owner;
  let e = unseal v in
  let old_cap = e.caps.(user).(link) in
  let restore, old_cn, old_cd =
    match v.lane with
    | Exact _ -> (None, 0, 0)
    | Packed pk -> begin
      let idx = (user * m) + link in
      match (Bigint.to_int_opt (Rational.num cap'), Bigint.to_int_opt (Rational.den cap')) with
      | Some a, Some b
        when a > 0 && b > 0
             && Packing.admits ~total:pk.ptotal ~maxcn:(max pk.pmaxcn a) ~maxcd:(max pk.pmaxcd b) ->
        let ocn = pk.pcn.(idx) and ocd = pk.pcd.(idx) in
        pk.pcn.(idx) <- a;
        pk.pcd.(idx) <- b;
        pk.pmaxcn <- max pk.pmaxcn a;
        pk.pmaxcd <- max pk.pmaxcd b;
        (None, ocn, ocd)
      | _ ->
        let old = v.lane in
        ignore (spill v pk);
        (Some old, 0, 0)
    end
  in
  e.caps.(user).(link) <- cap';
  push_structural v (Scap { user; link; cap = old_cap; pcn = old_cn; pcd = old_cd; restore })

let undo_structural v =
  match v.shist with
  | [] -> assert false (* sentinel in hist implies a side-stack entry *)
  | d :: rest ->
    v.shist <- rest;
    let e = match v.ext with Some e -> e | None -> assert false in
    (match d with
     | Sadd { restore } ->
       let i = e.slots - 1 in
       (match restore with
        | Some lane -> v.lane <- lane
        | None ->
          (match v.lane with
           | Exact loads ->
             let l = v.prof.(i) in
             loads.(l) <- Rational.sub loads.(l) e.contribs.(i)
           | Packed pk ->
             let w = pk.ppw.(i) in
             pk.piload.(v.prof.(i)) <- pk.piload.(v.prof.(i)) - w;
             pk.ptotal <- pk.ptotal - w));
       e.active.(i) <- false;
       e.slots <- i;
       e.nactive <- e.nactive - 1
     | Sremove { user } ->
       (match v.lane with
        | Exact loads ->
          let l = v.prof.(user) in
          loads.(l) <- Rational.add loads.(l) e.contribs.(user)
        | Packed pk ->
          let w = pk.ppw.(user) in
          pk.piload.(v.prof.(user)) <- pk.piload.(v.prof.(user)) + w;
          pk.ptotal <- pk.ptotal + w);
       e.active.(user) <- true;
       e.nactive <- e.nactive + 1
     | Scap { user; link; cap; pcn; pcd; restore } ->
       e.caps.(user).(link) <- cap;
       (match restore with
        | Some lane -> v.lane <- lane
        | None ->
          (match v.lane with
           | Exact _ -> ()
           | Packed pk ->
             let idx = (user * links v) + link in
             pk.pcn.(idx) <- pcn;
             pk.pcd.(idx) <- pcd)))

let undo v =
  if v.depth = 0 then invalid_arg "View.undo: empty history";
  Parallel.Ownership.guard "View cursor" v.owner;
  v.depth <- v.depth - 1;
  let entry = v.hist.(v.depth) in
  if entry < 0 then undo_structural v
  else begin
    let m = links v in
    shift v (entry / m) (entry mod m)
  end

(* --- latencies and predicates ------------------------------------ *)

(* User [i]'s own latency carries its bias (w_i − t_i): it is always
   present for itself, even when others only expect it with probability
   p_i.  The guard keeps load-linear games on the seed's exact code
   path (bias is physically zero there). *)
let biased v i q =
  let b = u_bias v i in
  if Rational.is_zero b then q else Rational.add q b

let latency v i =
  let l = v.prof.(i) in
  match v.lane with
  | Exact loads -> Rational.div (biased v i loads.(l)) (u_cap v i l)
  | Packed pk ->
    let m = Array.length pk.piload in
    q_latency pk pk.piload.(l) ((i * m) + l)

let latency_on_link v i l =
  match v.lane with
  | Exact loads ->
    let base = loads.(l) in
    (* After a deviation the user meets its full weight: contribution +
       bias = w_i, so the moving branch is the seed expression. *)
    let total =
      if v.prof.(i) = l then biased v i base else Rational.add base (u_weight v i)
    in
    Rational.div total (u_cap v i l)
  | Packed pk ->
    let m = Array.length pk.piload in
    let total = pk.piload.(l) + (if v.prof.(i) = l then 0 else pk.ppw.(i)) in
    q_latency pk total ((i * m) + l)

let best_response_for v i =
  match v.lane with
  | Exact _ ->
    let best_link = ref 0 and best = ref (latency_on_link v i 0) in
    for l = 1 to links v - 1 do
      let lat = latency_on_link v i l in
      if Rational.compare lat !best < 0 then begin
        best_link := l;
        best := lat
      end
    done;
    (!best_link, !best)
  | Packed pk ->
    (* Candidate latencies are (load'·cd)/(scale·cn): track the best as
       the int pair (load'·cd, cn) and compare by cross products, all
       within the packed bound. *)
    let m = Array.length pk.piload in
    let base = i * m and cur = v.prof.(i) and w = pk.ppw.(i) in
    let best_link = ref 0 in
    let t0 = pk.piload.(0) + (if cur = 0 then 0 else w) in
    let bnum = ref (t0 * pk.pcd.(base)) and bcn = ref pk.pcn.(base) in
    for l = 1 to m - 1 do
      let t = pk.piload.(l) + (if cur = l then 0 else w) in
      let a = t * pk.pcd.(base + l) in
      if a * !bcn < !bnum * pk.pcn.(base + l) then begin
        best_link := l;
        bnum := a;
        bcn := pk.pcn.(base + l)
      end
    done;
    ( !best_link,
      Rational.make (Bigint.of_int !bnum)
        (Bigint.mul (Bigint.of_int pk.pscale) (Bigint.of_int !bcn)) )

(* The Nash inequality on the exact lane rides the fused kernel:
   (load_l + w)/cap_l < current  ⟺  load_l + w < current·cap_l, i.e.
   [Rational.compare_sum load_l w (current·cap_l) < 0] — no sum is
   materialised and no division happens per candidate link.  On the
   packed lane it is a pure three-factor native product comparison.
   The kernel is backend-agnostic as written: a deviation numerator is
   load + contribution + bias = load + w for every backend, and
   [current] already carries the bias through [latency]. *)
let[@inline] exact_improves v loads i current w l =
  l <> v.prof.(i) && Rational.compare_sum loads.(l) w (Rational.mul current (u_cap v i l)) < 0

(* [cnum/ccn] is the current latency times the scale, [base] user i's
   row in the capacity tables. *)
let[@inline] packed_improves pk base cur w cnum ccn l =
  l <> cur && (pk.piload.(l) + w) * pk.pcd.(base + l) * ccn < cnum * pk.pcn.(base + l)

let improving_moves v i =
  let moves = ref [] in
  (match v.lane with
   | Exact loads ->
     let current = latency v i in
     let w = u_weight v i in
     for l = links v - 1 downto 0 do
       if exact_improves v loads i current w l then moves := l :: !moves
     done
   | Packed pk ->
     let m = Array.length pk.piload in
     let base = i * m and cur = v.prof.(i) and w = pk.ppw.(i) in
     let cnum = pk.piload.(cur) * pk.pcd.(base + cur) and ccn = pk.pcn.(base + cur) in
     for l = m - 1 downto 0 do
       if packed_improves pk base cur w cnum ccn l then moves := l :: !moves
     done);
  !moves

(* Plain loops rather than local recursive functions, which would
   allocate a closure per call: [is_nash] runs once per profile in
   exhaustive sweeps and [is_defector] once per user in each. *)
let[@inline] packed_defector pk prof m i =
  let base = i * m and cur = prof.(i) and w = pk.ppw.(i) in
  let cnum = pk.piload.(cur) * pk.pcd.(base + cur) and ccn = pk.pcn.(base + cur) in
  let l = ref 0 in
  while !l < m && not (packed_improves pk base cur w cnum ccn !l) do
    incr l
  done;
  !l < m

let is_defector v i =
  let m = links v in
  match v.lane with
  | Exact loads ->
    let current = latency v i and w = u_weight v i in
    let l = ref 0 in
    while !l < m && not (exact_improves v loads i current w !l) do
      incr l
    done;
    !l < m
  | Packed pk -> packed_defector pk v.prof m i

let is_nash v =
  let n = users v and i = ref 0 in
  while !i < n && not (is_active v !i && is_defector v !i) do
    incr i
  done;
  !i >= n

let defectors v =
  List.filter (fun i -> is_active v i && is_defector v i) (List.init (users v) Fun.id)

let first_and_last_defector v =
  let first = ref (-1) and last = ref (-1) in
  for i = 0 to users v - 1 do
    if is_active v i && is_defector v i then begin
      if !first < 0 then first := i;
      last := i
    end
  done;
  if !first < 0 then None else Some (!first, !last)

(* On a sealed packed view without initial traffic the lane still reads
   the game's packing unchanged ([ptotal = wsum] rules out initial
   traffic, whose rescale would raise the total), so the game's cost
   tables apply: SC_1 = Σ_i L_{p_i}·K_{i,p_i} / den, one native sum
   bounded by construction of the tables. *)
let social_cost1 v =
  match (v.lane, v.ext, Game.packed_tables v.game, Game.cost_tables v.game) with
  | Packed pk, None, Some gp, Some c when pk.ptotal = gp.Packing.wsum ->
    Packing.sum_latency c ~m:(Array.length pk.piload) ~loads:pk.piload v.prof
  | _ ->
    let acc = ref Rational.zero in
    for i = 0 to users v - 1 do
      if is_active v i then acc := Rational.add !acc (latency v i)
    done;
    !acc

(* On the packed lane the maximum is [Packing.max_latency]'s native
   cross-product scan; every product stays within the packed bound. *)
let social_cost2 v =
  match v.lane with
  | Exact _ ->
    let acc = ref Rational.zero in
    for i = 0 to users v - 1 do
      if is_active v i then acc := Rational.max !acc (latency v i)
    done;
    !acc
  | Packed pk ->
    let active = Option.map (fun e -> e.active) v.ext in
    Packing.max_latency ?active ~scale:pk.pscale ~cn:pk.pcn ~cd:pk.pcd
      ~m:(Array.length pk.piload) ~loads:pk.piload ~users:(users v) v.prof

(* Re-materialise a per-user game over the active slots, in slot
   order, together with the slot index of each new user.  Slots whose
   capacity row is untouched keep their backend; a revised row is
   re-wrapped as the matching certain belief (degenerate interval for
   [Strict]) — exact, since every decision factors through the
   effective capacities. *)
let to_game v =
  match v.ext with
  | None -> (v.game, Array.init (Array.length v.prof) Fun.id)
  | Some e ->
    let idx = Array.of_list (List.filter (fun i -> e.active.(i)) (List.init e.slots Fun.id)) in
    let weights = Array.map (fun i -> e.weights.(i)) idx in
    let uncertainty =
      Array.map
        (fun i ->
          let u = e.uncert.(i) in
          let row = e.caps.(i) in
          let untouched =
            let rec eq l =
              l >= Array.length row
              || (Rational.equal row.(l) (Uncertainty.eval_capacity u l) && eq (l + 1))
            in
            eq 0
          in
          if untouched then u
          else begin
            let certain () = Belief.certain (State.make (Array.copy row)) in
            match Uncertainty.kind u with
            | Uncertainty.Bayesian -> Uncertainty.bayesian (certain ())
            | Uncertainty.Participation ->
              Uncertainty.participation ~presence:(Uncertainty.presence u) (certain ())
            | Uncertainty.Strict ->
              Uncertainty.strict_of_intervals (Array.map (fun q -> (q, q)) row)
          end)
        idx
    in
    (Game.make_uncertain ~weights ~uncertainty, idx)

let weight = u_weight
let capacity = u_cap
let contribution = u_contrib
let uncertainty = u_uncertainty

(* The odometer of [Social.iter_profiles] over users [0 .. k-1],
   expressed as moves: a non-carrying tick is one shift, a carry resets
   a suffix — 1 + 1/m + 1/m² + … ≤ m/(m-1) shifts amortised per
   profile.  Users from [k] on are left where they are.  Returns false
   when the odometer wraps past the last prefix.  A plain loop, so a
   tick allocates nothing. *)
let tick_prefix v k =
  let m = links v in
  let i = ref (k - 1) in
  while !i >= 0 && v.prof.(!i) + 1 >= m do
    shift v !i 0;
    decr i
  done;
  !i >= 0
  && begin
    shift v !i (v.prof.(!i) + 1);
    true
  end

let tick v = tick_prefix v (users v)

let sweep g ?initial f =
  let v = of_profile g ?initial (Array.make (Game.users g) 0) in
  let continue = ref true in
  while !continue do
    f v;
    continue := tick v
  done

(* Best-response pruning.  A pure Nash profile has its last user [z] at
   a best response to the others, and z's deviation latency on link l,
   (prefix load_l + w_z)/c_{z,l}, does not depend on where z currently
   sits.  So the odometer runs over users [0 .. z-1] only; at each
   prefix one O(m) pass finds z's smallest latency, and only the links
   that attain it (ties included, decided exactly) are visited, in
   increasing order — the order [sweep] would reach them.  At each one,
   users [0 .. z-1] are scanned for a defector; z cannot be one.

   [packed_completions] is the native lane: latencies (t·cd)/(scale·cn)
   compare as the pair (t·cd, cn) by cross products, equality included,
   all within the [Packing.admits] bound. *)
let[@inline] deviation_num pk prof z base l =
  (pk.piload.(l) + if prof.(z) = l then 0 else pk.ppw.(z)) * pk.pcd.(base + l)

let packed_completions v pk z f =
  let m = Array.length pk.piload in
  let base = z * m in
  let bnum = ref (deviation_num pk v.prof z base 0) and bcn = ref pk.pcn.(base) in
  for l = 1 to m - 1 do
    let a = deviation_num pk v.prof z base l in
    if a * !bcn < !bnum * pk.pcn.(base + l) then begin
      bnum := a;
      bcn := pk.pcn.(base + l)
    end
  done;
  for l = 0 to m - 1 do
    if deviation_num pk v.prof z base l * !bcn = !bnum * pk.pcn.(base + l) then begin
      shift v z l;
      let i = ref 0 in
      while !i < z && not (packed_defector pk v.prof m !i) do
        incr i
      done;
      if !i >= z then f v
    end
  done

(* The exact lane: the same pruning through [latency_on_link] and
   [is_defector]; [lat] is scratch space of length m. *)
let exact_completions v lat z f =
  let m = Array.length lat in
  for l = 0 to m - 1 do
    lat.(l) <- latency_on_link v z l
  done;
  let best = Array.fold_left Rational.min lat.(0) lat in
  for l = 0 to m - 1 do
    if Rational.compare lat.(l) best = 0 then begin
      shift v z l;
      let i = ref 0 in
      while !i < z && not (is_defector v !i) do
        incr i
      done;
      if !i >= z then f v
    end
  done

let sweep_nash g f =
  let v = of_profile g (Array.make (Game.users g) 0) in
  let z = users v - 1 in
  let completions =
    match v.lane with
    | Packed pk -> fun () -> packed_completions v pk z f
    | Exact _ ->
      let lat = Array.make (links v) Rational.zero in
      fun () -> exact_completions v lat z f
  in
  completions ();
  while tick_prefix v z do
    completions ()
  done

(* [m^n] as a native int, or None on overflow (in which case a sweep
   of that size would never finish anyway and sharding is moot). *)
let profile_space g =
  let n = Game.users g and m = Game.links g in
  let rec go acc k =
    if k = 0 then Some acc
    else begin
      let next = acc * m in
      if next / m <> acc then None else go next (k - 1)
    end
  in
  go 1 n

let fold ?(domains = 1) ?initial g ~init ~f ~combine =
  let serial () =
    let acc = ref init in
    sweep g ?initial (fun v -> acc := f !acc v);
    !acc
  in
  match profile_space g with
  | Some total when domains > 1 && total > 1 ->
    let n = Game.users g and m = Game.links g in
    let workers = min domains total in
    let per = total / workers and extra = total mod workers in
    (* Shard w covers the contiguous odometer index block
       [w·per + min w extra, …) of size per (+1 for the first [extra]
       shards); each worker decodes its start index into a profile,
       builds a private view there and ticks through its block. *)
    let run_shard w =
      let lo = (w * per) + Stdlib.min w extra in
      let size = per + if w < extra then 1 else 0 in
      let p = Array.make n 0 in
      let idx = ref lo in
      for i = n - 1 downto 0 do
        p.(i) <- !idx mod m;
        idx := !idx / m
      done;
      let v = of_profile g ?initial p in
      let acc = ref (f init v) in
      for _ = 2 to size do
        ignore (tick v);
        acc := f !acc v
      done;
      !acc
    in
    let parts = Parallel.map ~domains:workers run_shard (List.init workers Fun.id) in
    List.fold_left combine init parts
  | _ -> serial ()
