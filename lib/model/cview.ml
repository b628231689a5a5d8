open Numeric

(* The cursor: current assignment counts, current loads (initial
   traffic included), and a packed move history for [undo].  A history
   entry is two ints — [(cls * m + src) * m + dst] and [count] — so
   the stack is a flat int array that doubles on demand.  Structural
   deltas (count / weight / capacity revisions) push a sentinel meta
   [-1] paired with a variant on the [shist] side stack, so moves keep
   their two-int cost and [undo] reverts both kinds in LIFO order.

   Like [View], loads live in one of two lanes: a packed native-int
   lane backed by the game's [Packing] tables (loads scaled by a common
   denominator, capacities as reduced int pairs, every predicate a
   three-factor native product) and an exact big-rational lane taken
   whenever packing would spill.  Both lanes produce identical
   canonical rationals.  A structural delta re-checks the [Packing]
   product bound against the revised totals and, when it no longer
   holds, spills the live loads to the exact lane without rebuilding;
   the abandoned packed tables are kept in the undo entry so reverting
   the delta restores the fast lane bit-identically.

   The class tables (weights, contributions, biases, capacity rows)
   are view-local copies: revisions mutate the view, never the
   underlying [Cgame.t], and [to_cgame] re-materialises a game from
   the revised state. *)

type packed_lane = {
  pscale : int;
  mutable ppw : int array; (* scaled weight per class *)
  piload : int array; (* scaled load per link *)
  mutable pcn : int array; (* capacity numerators, row-major c*m + l *)
  mutable pcd : int array;
  mutable powned : bool; (* ppw/pcn/pcd are private copies, safe to mutate *)
  mutable pmaxcn : int; (* monotone upper bounds for the product bound *)
  mutable pmaxcd : int;
  mutable ptotal : int; (* current total scaled traffic, initial included *)
  mutable pd : int; (* report denominator D; 0 while the report state is absent *)
  pnl : int array; (* D·T_l per link, valid while [pd > 0] *)
}

type lane = Exact of Rational.t array | Packed of packed_lane

(* Undo record for one structural delta.  [restore = Some lane] marks
   a delta that spilled the packed lane; reverting it reinstates the
   saved lane (whose tables were snapshotted before the delta touched
   anything, so they still hold the pre-delta values). *)
type sdelta =
  | Scount of { cls : int; link : int; delta : int; restore : lane option }
  | Sweight of {
      cls : int;
      weight : Rational.t;
      contrib : Rational.t;
      bias : Rational.t;
      ppw : int;
      restore : lane option;
    }
  | Scap of { cls : int; link : int; cap : Rational.t; pcn : int; pcd : int; restore : lane option }

type t = {
  game : Cgame.t;
  assign : int array array;
  weights : Rational.t array; (* view-local class tables *)
  contribs : Rational.t array;
  biases : Rational.t array;
  caps : Rational.t array array;
  mutable lane : lane;
  mutable hist : int array;
  mutable depth : int;
  mutable shist : sdelta list;
  mutable nrev : int; (* structural deltas currently applied *)
  mutable users : int; (* Σ of every class count *)
  mutable owner : int; (* creating domain id, for SELFISH_OWNERSHIP *)
}

let game v = v.game
let classes v = Array.length v.assign

let links v =
  match v.lane with
  | Exact loads -> Array.length loads
  | Packed pk -> Array.length pk.piload

let packed v = match v.lane with Packed _ -> true | Exact _ -> false

let of_profile g ?initial x =
  Cgame.validate g x;
  let m = Cgame.links g in
  (match initial with
   | None -> ()
   | Some t ->
     if Array.length t <> m then
       invalid_arg "Cview.of_profile: initial traffic length differs from link count";
     Array.iter
       (fun q ->
         if Rational.sign q < 0 then invalid_arg "Cview.of_profile: negative initial traffic")
       t);
  let k = Cgame.classes g in
  let contribs = Array.init k (Cgame.contribution g) in
  let lane =
    match Cgame.packed_tables g with
    | Some pk when (match initial with None -> pk.Packing.base_ok | Some _ -> true) -> begin
      let attempt =
        match initial with
        | None -> Some (pk.Packing.scale, pk.Packing.pw, Array.make m 0, pk.Packing.wsum)
        | Some t -> Packing.rescale pk t
      in
      match attempt with
      | None -> None
      | Some (scale, pw, iload, total) ->
        Array.iteri
          (fun c row -> Array.iteri (fun l e -> iload.(l) <- iload.(l) + (e * pw.(c))) row)
          x;
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
               pd = 0;
               pnl = Array.make m 0;
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
      (* Loads sum per-user contributions (= weights for load-linear
         classes, presence-discounted under Bernoulli participation). *)
      Array.iteri
        (fun c row ->
          let w = contribs.(c) in
          Array.iteri
            (fun l e ->
              if e > 0 then loads.(l) <- Rational.add loads.(l) (Rational.mul (Rational.of_int e) w))
            row)
        x;
      Exact loads
  in
  {
    game = g;
    assign = Array.map Array.copy x;
    weights = Array.init k (Cgame.weight g);
    contribs;
    biases = Array.init k (Cgame.bias g);
    caps = Array.init k (Cgame.capacity_row g);
    lane;
    hist = Array.make 32 0;
    depth = 0;
    shist = [];
    nrev = 0;
    users = Cgame.users g;
    owner = Parallel.Ownership.record ();
  }

let assigned v c l = v.assign.(c).(l)
let profile v = Array.map Array.copy v.assign
let owner v = v.owner
let unsafe_set_owner v id = v.owner <- id
let weight v c = v.weights.(c)
let capacity v c l = v.caps.(c).(l)
let class_count v c = Array.fold_left ( + ) 0 v.assign.(c)
let users v = v.users
let revised v = v.nrev > 0

let load v l =
  match v.lane with
  | Exact loads -> loads.(l)
  | Packed pk -> Rational.make (Bigint.of_int pk.piload.(l)) (Bigint.of_int pk.pscale)

let loads v = Array.init (links v) (load v)
let depth v = v.depth

(* The SC_1 report's state on the packed lane.  Packed classes are
   load-linear (zero bias), so with [T_l = Σ_c n_cl/c_cl]
     SC_1 = Σ_c Σ_l n_cl·load_l/c_cl = Σ_l load_l·T_l.
   While [pd > 0], [pnl.(l)] holds D·T_l for D = [pd], a common
   multiple of the capacity numerators of every occupied pair: with
   [1/c = pcd/pcn] each term D·n/c = n·pcd·(D/pcn) is a native int.  A
   pair's term follows its users and its capacity in O(1); a numerator
   that does not divide D grows D to their lcm and rescales the m
   links.  Any native overflow drops the state ([pd = 0]), and
   [social_cost1] rebuilds it from scratch on its next call. *)
let report_grow pk a =
  let d = pk.pd in
  let d' = Packing.mul_nn (d / Bignat.gcd_int d a) a in
  let f = d' / d in
  for l = 0 to Array.length pk.pnl - 1 do
    pk.pnl.(l) <- Packing.mul_nn f pk.pnl.(l)
  done;
  pk.pd <- d'

(* Enter [n > 0] users of the pair at table index [idx] on [link]. *)
let report_add pk link n idx =
  if pk.pd > 0 then
    try
      let cn = pk.pcn.(idx) in
      if pk.pd mod cn <> 0 then report_grow pk cn;
      pk.pnl.(link) <-
        Packing.(add_nn pk.pnl.(link) (mul_nn n (mul_nn pk.pcd.(idx) (pk.pd / cn))))
    with Packing.Overflow -> pk.pd <- 0

(* Withdraw [n] users whose term is in the state: their share is at
   most [pnl.(link)], so no product can wrap. *)
let report_sub pk link n idx =
  if pk.pd > 0 then pk.pnl.(link) <- pk.pnl.(link) - (n * pk.pcd.(idx) * (pk.pd / pk.pcn.(idx)))

(* Unrecorded block reassignment shared by [move] and [undo]: one
   exact multiplication and two load updates, whatever [count] is.
   On the packed lane [count·pw] cannot wrap: it is at most the total
   scaled traffic, which fits by construction. *)
let shift v cls src dst count =
  if count > 0 && src <> dst then begin
    (match v.lane with
     | Exact loads ->
       let delta = Rational.mul (Rational.of_int count) v.contribs.(cls) in
       loads.(src) <- Rational.sub loads.(src) delta;
       loads.(dst) <- Rational.add loads.(dst) delta
     | Packed pk ->
       let delta = count * pk.ppw.(cls) in
       pk.piload.(src) <- pk.piload.(src) - delta;
       pk.piload.(dst) <- pk.piload.(dst) + delta;
       let base = cls * Array.length pk.piload in
       report_sub pk src count (base + src);
       report_add pk dst count (base + dst));
    v.assign.(cls).(src) <- v.assign.(cls).(src) - count;
    v.assign.(cls).(dst) <- v.assign.(cls).(dst) + count
  end

let push v meta count =
  if 2 * v.depth = Array.length v.hist then begin
    let bigger = Array.make (4 * v.depth) 0 in
    Array.blit v.hist 0 bigger 0 (2 * v.depth);
    v.hist <- bigger
  end;
  v.hist.(2 * v.depth) <- meta;
  v.hist.((2 * v.depth) + 1) <- count;
  v.depth <- v.depth + 1

let move v ~cls ~src ~dst ~count =
  let k = classes v and m = links v in
  if cls < 0 || cls >= k then invalid_arg "Cview.move: class out of range";
  if src < 0 || src >= m || dst < 0 || dst >= m then invalid_arg "Cview.move: link out of range";
  if count < 0 then invalid_arg "Cview.move: negative count";
  if count > v.assign.(cls).(src) && src <> dst then
    invalid_arg "Cview.move: not enough users of the class on the source link";
  Parallel.Ownership.guard "Cview cursor" v.owner;
  push v (((cls * m) + src) * m + dst) count;
  shift v cls src dst count

(* Copy-on-write: the packed class tables start out shared with the
   game's [Packing] record (and with sibling views); take private
   copies before the first structural write. *)
let own pk =
  if not pk.powned then begin
    pk.ppw <- Array.copy pk.ppw;
    pk.pcn <- Array.copy pk.pcn;
    pk.pcd <- Array.copy pk.pcd;
    pk.powned <- true
  end

(* Abandon the packed lane: materialise the current loads as exact
   rationals (same canonical values the exact lane would have held)
   and switch over.  The packed record is left untouched so an undo
   entry can reinstate it. *)
let spill v pk =
  let loads =
    Array.map
      (fun s -> Rational.make (Bigint.of_int s) (Bigint.of_int pk.pscale))
      pk.piload
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

let push_structural v d =
  push v (-1) 0;
  v.shist <- d :: v.shist;
  v.nrev <- v.nrev + 1

let exact_count_patch loads link delta contrib =
  if delta <> 0 then begin
    let d = Rational.mul (Rational.of_int (abs delta)) contrib in
    loads.(link) <-
      (if delta > 0 then Rational.add loads.(link) d else Rational.sub loads.(link) d)
  end

let report_count pk base link delta =
  if delta > 0 then report_add pk link delta (base + link)
  else if delta < 0 then report_sub pk link (-delta) (base + link)

(* Rewrite the packed capacity pair at [idx], moving the [n] users'
   report term with it. *)
let set_packed_cap pk link n idx cn cd =
  if n > 0 then report_sub pk link n idx;
  pk.pcn.(idx) <- cn;
  pk.pcd.(idx) <- cd;
  if n > 0 then report_add pk link n idx

let revise_count v ~cls ~link ~delta =
  let k = classes v and m = links v in
  if cls < 0 || cls >= k then invalid_arg "Cview.revise_count: class out of range";
  if link < 0 || link >= m then invalid_arg "Cview.revise_count: link out of range";
  if delta < 0 && v.assign.(cls).(link) + delta < 0 then
    invalid_arg "Cview.revise_count: departures exceed the users of the class on the link";
  if delta > 0 && v.users > max_int - delta then
    invalid_arg "Cview.revise_count: arrival count overflows";
  if delta < 0 && class_count v cls + delta <= 0 then
    invalid_arg "Cview.revise_count: revision would empty the class";
  Parallel.Ownership.guard "Cview cursor" v.owner;
  let restore =
    match v.lane with
    | Exact loads ->
      exact_count_patch loads link delta v.contribs.(cls);
      None
    | Packed pk ->
      let pw = pk.ppw.(cls) in
      let fits =
        delta <= 0
        || (delta <= (max_int - pk.ptotal) / pw
            && Packing.admits ~total:(pk.ptotal + (delta * pw)) ~maxcn:pk.pmaxcn
                 ~maxcd:pk.pmaxcd)
      in
      if fits then begin
        let d = delta * pw in
        pk.piload.(link) <- pk.piload.(link) + d;
        pk.ptotal <- pk.ptotal + d;
        report_count pk (cls * m) link delta;
        None
      end
      else begin
        let old = v.lane in
        let loads = spill v pk in
        exact_count_patch loads link delta v.contribs.(cls);
        Some old
      end
  in
  v.assign.(cls).(link) <- v.assign.(cls).(link) + delta;
  v.users <- v.users + delta;
  push_structural v (Scount { cls; link; delta; restore })

let exact_weight_patch v cls contrib' =
  match v.lane with
  | Packed _ -> assert false
  | Exact loads ->
    let d = Rational.sub contrib' v.contribs.(cls) in
    if not (Rational.is_zero d) then
      Array.iteri
        (fun l e -> if e > 0 then loads.(l) <- Rational.add loads.(l) (Rational.mul (Rational.of_int e) d))
        v.assign.(cls)

let set_class_weight v cls w contrib bias =
  v.weights.(cls) <- w;
  v.contribs.(cls) <- contrib;
  v.biases.(cls) <- bias

let revise_weight v ~cls w' =
  let k = classes v in
  if cls < 0 || cls >= k then invalid_arg "Cview.revise_weight: class out of range";
  if Rational.sign w' <= 0 then invalid_arg "Cview.revise_weight: weight must be positive";
  Parallel.Ownership.guard "Cview cursor" v.owner;
  let lf = Uncertainty.load_factor (Cgame.uncertainty v.game cls) in
  let contrib' = Rational.mul lf w' in
  let bias' = Rational.sub w' contrib' in
  let old_w = v.weights.(cls)
  and old_c = v.contribs.(cls)
  and old_b = v.biases.(cls) in
  let restore, old_ppw =
    match v.lane with
    | Exact _ ->
      exact_weight_patch v cls contrib';
      (None, 0)
    | Packed pk -> begin
      let pw = pk.ppw.(cls) in
      let occ = class_count v cls in
      (* The packed lane exists only for load-linear games, where the
         contribution is the weight itself. *)
      match scaled_int ~scale:pk.pscale w' with
      | Some pw'
        when occ <= max_int / pw'
             && pk.ptotal - (occ * pw) <= max_int - (occ * pw')
             && Packing.admits
                  ~total:(pk.ptotal - (occ * pw) + (occ * pw'))
                  ~maxcn:pk.pmaxcn ~maxcd:pk.pmaxcd ->
        own pk;
        Array.iteri
          (fun l e -> if e > 0 then pk.piload.(l) <- pk.piload.(l) + (e * (pw' - pw)))
          v.assign.(cls);
        pk.ptotal <- pk.ptotal - (occ * pw) + (occ * pw');
        pk.ppw.(cls) <- pw';
        (None, pw)
      | _ ->
        let old = v.lane in
        ignore (spill v pk);
        exact_weight_patch v cls contrib';
        (Some old, pw)
    end
  in
  set_class_weight v cls w' contrib' bias';
  push_structural v (Sweight { cls; weight = old_w; contrib = old_c; bias = old_b; ppw = old_ppw; restore })

let revise_capacity v ~cls ~link cap' =
  let k = classes v and m = links v in
  if cls < 0 || cls >= k then invalid_arg "Cview.revise_capacity: class out of range";
  if link < 0 || link >= m then invalid_arg "Cview.revise_capacity: link out of range";
  if Rational.sign cap' <= 0 then invalid_arg "Cview.revise_capacity: capacity must be positive";
  Parallel.Ownership.guard "Cview cursor" v.owner;
  let old_cap = v.caps.(cls).(link) in
  let restore, old_cn, old_cd =
    match v.lane with
    | Exact _ -> (None, 0, 0)
    | Packed pk -> begin
      let idx = (cls * m) + link in
      match (Bigint.to_int_opt (Rational.num cap'), Bigint.to_int_opt (Rational.den cap')) with
      | Some a, Some b
        when a > 0 && b > 0
             && Packing.admits ~total:pk.ptotal ~maxcn:(max pk.pmaxcn a) ~maxcd:(max pk.pmaxcd b) ->
        own pk;
        let ocn = pk.pcn.(idx) and ocd = pk.pcd.(idx) in
        set_packed_cap pk link v.assign.(cls).(link) idx a b;
        pk.pmaxcn <- max pk.pmaxcn a;
        pk.pmaxcd <- max pk.pmaxcd b;
        (None, ocn, ocd)
      | _ ->
        let old = v.lane in
        ignore (spill v pk);
        (Some old, 0, 0)
    end
  in
  v.caps.(cls).(link) <- cap';
  push_structural v (Scap { cls; link; cap = old_cap; pcn = old_cn; pcd = old_cd; restore })

let undo_structural v =
  match v.shist with
  | [] -> assert false (* sentinel in hist implies a side-stack entry *)
  | d :: rest ->
    v.shist <- rest;
    v.nrev <- v.nrev - 1;
    (match d with
     | Scount { cls; link; delta; restore } ->
       v.assign.(cls).(link) <- v.assign.(cls).(link) - delta;
       v.users <- v.users - delta;
       (match restore with
        | Some lane -> v.lane <- lane
        | None ->
          (match v.lane with
           | Exact loads -> exact_count_patch loads link (-delta) v.contribs.(cls)
           | Packed pk ->
             let d = delta * pk.ppw.(cls) in
             pk.piload.(link) <- pk.piload.(link) - d;
             pk.ptotal <- pk.ptotal - d;
             report_count pk (cls * links v) link (-delta)))
     | Sweight { cls; weight; contrib; bias; ppw; restore } ->
       (match restore with
        | Some lane ->
          set_class_weight v cls weight contrib bias;
          v.lane <- lane
        | None ->
          (match v.lane with
           | Exact _ ->
             exact_weight_patch v cls contrib;
             set_class_weight v cls weight contrib bias
           | Packed pk ->
             let pw' = pk.ppw.(cls) in
             let occ = class_count v cls in
             Array.iteri
               (fun l e -> if e > 0 then pk.piload.(l) <- pk.piload.(l) + (e * (ppw - pw')))
               v.assign.(cls);
             pk.ptotal <- pk.ptotal - (occ * pw') + (occ * ppw);
             pk.ppw.(cls) <- ppw;
             set_class_weight v cls weight contrib bias))
     | Scap { cls; link; cap; pcn; pcd; restore } ->
       v.caps.(cls).(link) <- cap;
       (match restore with
        | Some lane -> v.lane <- lane
        | None ->
          (match v.lane with
           | Exact _ -> ()
           | Packed pk ->
             set_packed_cap pk link v.assign.(cls).(link) ((cls * links v) + link) pcn pcd)))

let undo v =
  if v.depth = 0 then invalid_arg "Cview.undo: empty history";
  Parallel.Ownership.guard "Cview cursor" v.owner;
  v.depth <- v.depth - 1;
  let meta = v.hist.(2 * v.depth) and count = v.hist.((2 * v.depth) + 1) in
  if meta < 0 then undo_structural v
  else begin
    let m = links v in
    let dst = meta mod m in
    let src = meta / m mod m in
    let cls = meta / (m * m) in
    shift v cls dst src count
  end

let q_latency pk total idx =
  Rational.make
    (Bigint.of_int (total * pk.pcd.(idx)))
    (Bigint.mul (Bigint.of_int pk.pscale) (Bigint.of_int pk.pcn.(idx)))

(* A class member's own latency carries the class bias w − t (the user
   is always present for itself); zero — and skipped — for load-linear
   classes, keeping the seed's exact code path. *)
let biased v c q =
  let b = v.biases.(c) in
  if Rational.is_zero b then q else Rational.add q b

let latency v c l =
  match v.lane with
  | Exact loads -> Rational.div (biased v c loads.(l)) v.caps.(c).(l)
  | Packed pk ->
    let m = Array.length pk.piload in
    q_latency pk pk.piload.(l) ((c * m) + l)

let latency_after_move v ~cls ~src dst =
  match v.lane with
  | Exact loads ->
    let base = loads.(dst) in
    (* Deviation numerator: contribution + bias = w, the seed form. *)
    let total =
      if dst = src then biased v cls base else Rational.add base v.weights.(cls)
    in
    Rational.div total v.caps.(cls).(dst)
  | Packed pk ->
    let m = Array.length pk.piload in
    let total = pk.piload.(dst) + (if dst = src then 0 else pk.ppw.(cls)) in
    q_latency pk total ((cls * m) + dst)

(* Packed best response as the int pair (load'·cd, cn); candidate l
   beats the incumbent iff a·cn_best < best·cn_l, all within the
   packed product bound. *)
let packed_best pk ~cls ~src =
  let m = Array.length pk.piload in
  let base = cls * m and w = pk.ppw.(cls) in
  let best_link = ref 0 in
  let t0 = pk.piload.(0) + (if src = 0 then 0 else w) in
  let bnum = ref (t0 * pk.pcd.(base)) and bcn = ref pk.pcn.(base) in
  for l = 1 to m - 1 do
    let t = pk.piload.(l) + (if src = l then 0 else w) in
    let a = t * pk.pcd.(base + l) in
    if a * !bcn < !bnum * pk.pcn.(base + l) then begin
      best_link := l;
      bnum := a;
      bcn := pk.pcn.(base + l)
    end
  done;
  (!best_link, !bnum, !bcn)

let best_response_for v ~cls ~src =
  match v.lane with
  | Exact _ ->
    let best_link = ref 0 and best = ref (latency_after_move v ~cls ~src 0) in
    for l = 1 to links v - 1 do
      let lat = latency_after_move v ~cls ~src l in
      if Rational.compare lat !best < 0 then begin
        best_link := l;
        best := lat
      end
    done;
    (!best_link, !best)
  | Packed pk ->
    let best_link, bnum, bcn = packed_best pk ~cls ~src in
    ( best_link,
      Rational.make (Bigint.of_int bnum)
        (Bigint.mul (Bigint.of_int pk.pscale) (Bigint.of_int bcn)) )

(* The Nash inequality rides [Rational.compare_sum] on the exact lane
   ((load_l + w)/cap_l < current ⟺ load_l + w < current·cap_l) and a
   three-factor native product on the packed lane.  Plain loops rather
   than local recursive functions, which would allocate a closure per
   call. *)
let is_defector v ~cls ~src =
  let m = links v and l = ref 0 in
  (match v.lane with
   | Exact loads ->
     let current = latency v cls src and w = v.weights.(cls) and caps = v.caps.(cls) in
     while
       !l < m
       && not
            (!l <> src
             && Rational.compare_sum loads.(!l) w (Rational.mul current caps.(!l)) < 0)
     do
       incr l
     done
   | Packed pk ->
     let base = cls * m and w = pk.ppw.(cls) in
     let cnum = pk.piload.(src) * pk.pcd.(base + src) and ccn = pk.pcn.(base + src) in
     while
       !l < m
       && not
            (!l <> src
             && (pk.piload.(!l) + w) * pk.pcd.(base + !l) * ccn < cnum * pk.pcn.(base + !l))
     do
       incr l
     done);
  !l < m

(* Single-destination restriction of [is_defector]: does moving into
   [dst] strictly improve?  Native three-factor products on the packed
   lane, one [compare_sum] on the exact lane — no rational is built on
   the fast path, so callers may probe candidate links one at a time
   without paying for a full best-response sweep. *)
let improves v ~cls ~src dst =
  dst <> src
  && (match v.lane with
     | Exact loads ->
       let current = latency v cls src in
       Rational.compare_sum loads.(dst) v.weights.(cls)
         (Rational.mul current v.caps.(cls).(dst))
       < 0
     | Packed pk ->
       let m = Array.length pk.piload in
       let base = cls * m and w = pk.ppw.(cls) in
       (pk.piload.(dst) + w) * pk.pcd.(base + dst) * pk.pcn.(base + src)
       < pk.piload.(src) * pk.pcd.(base + src) * pk.pcn.(base + dst))

(* Class-major packed pass.  A user of class [cls] arriving on link l
   costs (L_l + w)·cd_l / (scale·cn_l) whatever its source, so one O(m)
   pass over the links finds the lowest arrival cost, over all links
   and (unless [wide]) over the touched ones, each as the int pair
   (num, cn).  "Some link in S improves on the current cost" holds
   exactly when "the minimum over S is below it", so an occupied source
   s with current cost L_s·cd_s / (scale·cn_s) defects iff it lies above
   the all-links minimum.  The minimum over all links may be s itself,
   which then improves on nothing: its arrival cost (L_s + w)·cd_s/cn_s
   exceeds its current cost, so its users have no cheaper link and the
   compare rightly fails — no second-best is needed.  A defector is a
   candidate when [wide] or s is touched, and otherwise when it also
   lies above the touched minimum (a clean source is untouched, so s is
   not among the touched links).  The touched minimum is no lower than
   the all-links one, so a source that fails the first compare fails
   the second too, and the first alone settles every source that does
   not defect.  Every product is at most 2·total·maxcd·maxcn, within
   the [Packing.admits] bound (w ≤ total as every class is occupied).

   The all-links minimum's lowest index is also the move's target:
   for an improving source s, [packed_best]'s costs are the arrival
   costs off s, and s's own entry there (its current cost) lies above
   the minimum, as does its arrival cost here, so both argmins are the
   lowest link at the minimum value.  Returns the first candidate
   source in link order as [src·m + target]; otherwise -2 when some
   clean source defects only through an untouched link, -1 when no
   source defects.  The tables are mutable fields, so they are read
   into locals once. *)
let packed_class pk occ ~wide touched cls =
  let piload = pk.piload and pcd = pk.pcd and pcn = pk.pcn in
  let m = Array.length piload in
  let base = cls * m and w = pk.ppw.(cls) in
  (* A denominator of 0 marks "no link seen yet". *)
  let an = ref 0 and ad = ref 0 and ai = ref 0 and tn = ref 0 and td = ref 0 in
  for l = 0 to m - 1 do
    let a = (piload.(l) + w) * pcd.(base + l) and cn = pcn.(base + l) in
    if !ad = 0 || a * !ad < !an * cn then begin
      an := a;
      ad := cn;
      ai := l
    end;
    if (not wide) && touched.(l) && (!td = 0 || a * !td < !tn * cn) then begin
      tn := a;
      td := cn
    end
  done;
  let found = ref (-1) and s = ref 0 in
  while !found < 0 && !s < m do
    let src = !s in
    if occ.(src) > 0 then begin
      let cnum = piload.(src) * pcd.(base + src) and ccn = pcn.(base + src) in
      if !an * ccn < cnum * !ad then
        if wide || touched.(src) || (!td > 0 && !tn * ccn < cnum * !td) then
          found := (src * m) + !ai
        else found := -2
    end;
    incr s
  done;
  !found

(* Exact-lane probe: does a link l ≠ [src] with [touched.(l) = side]
   improve on the source's current latency?  The inequality is
   [is_defector]'s, with the current latency computed once. *)
let exact_improves_on v loads ~cls ~src touched side =
  let m = Array.length loads and l = ref 0 in
  let current = latency v cls src and w = v.weights.(cls) and caps = v.caps.(cls) in
  while
    !l < m
    && not
         (Bool.equal touched.(!l) side
          && !l <> src
          && Rational.compare_sum loads.(!l) w (Rational.mul current caps.(!l)) < 0)
  do
    incr l
  done;
  !l < m

(* The exact lane's per-pair form of the same rule: the full defector
   check when [wide] or the source is touched, moves into touched links
   otherwise.  When [verify] holds, a clean source that finds no
   touched link is then probed against the untouched ones — together
   the full defector check, with no link compared twice — and a hit
   there makes the class's result -2.  Returns the first candidate
   source, else -2 or -1 as [packed_class]. *)
let exact_class v loads ~wide ~verify touched cls =
  let m = Array.length loads and occ = v.assign.(cls) in
  let found = ref (-1) and s = ref 0 in
  while !found < 0 && !s < m do
    let src = !s in
    if occ.(src) > 0 then begin
      if wide || touched.(src) then begin
        if is_defector v ~cls ~src then found := src
      end
      else if exact_improves_on v loads ~cls ~src touched true then found := src
      else if verify && !found = -1 && exact_improves_on v loads ~cls ~src touched false then
        found := -2
    end;
    incr s
  done;
  !found

(* Class ascending, source link ascending: the exact order in which
   [Cgame.expand_profile] lays out the users.  The first candidate pair
   with its target as [(cls·m + src)·m + dst]; the exact lane leaves
   [dst] at 0 for [decode] to fill in.  With no candidate, -2 when some
   class hides a defector outside the frontier, else -1: the restricted
   scan and the full Nash check in one pass.  [full] checks every pair
   against every link, reads neither set and never returns -2. *)
let first_pair v ~full touched dirty lo hi =
  let m = links v in
  let p = ref (-1) and c = ref lo in
  while !p < 0 && !c < hi do
    let wide = full || dirty.(!c) in
    (match v.lane with
     | Packed pk ->
       let q = packed_class pk v.assign.(!c) ~wide touched !c in
       if q >= 0 then p := (!c * m * m) + q else if q = -2 then p := -2
     | Exact loads ->
       let q = exact_class v loads ~wide ~verify:(!p = -1) touched !c in
       if q >= 0 then p := ((!c * m) + q) * m else if q = -2 then p := -2);
    incr c
  done;
  !p

(* Decode a [first_pair] result into [(cls, src, dst)]. *)
let decode v p =
  let m = links v in
  let cls = p / (m * m) and src = p / m mod m in
  match v.lane with
  | Packed _ -> (cls, src, p mod m)
  | Exact _ -> (cls, src, fst (best_response_for v ~cls ~src))

let first_code v ~touched ~dirty ~lo ~hi =
  let k = classes v and m = links v in
  if Array.length touched <> m then
    invalid_arg "Cview.first_code: touched length differs from link count";
  if Array.length dirty <> k then
    invalid_arg "Cview.first_code: dirty length differs from class count";
  if lo < 0 || lo > hi || hi > k then invalid_arg "Cview.first_code: class range out of bounds";
  first_pair v ~full:false touched dirty lo hi

let first_defector v =
  let p = first_pair v ~full:true [||] [||] 0 (classes v) in
  if p < 0 then None else Some (decode v p)

let is_nash v = first_pair v ~full:true [||] [||] 0 (classes v) < 0

(* The j-th sequential mover (j ≥ 1) improves iff
     (load_dst + (j-1)·t + w + β)·/c_dst < (load_src - (j-1)·t + β)/c_src
   with t the class contribution and β = w − t its bias (so t = w,
   β = 0 on the seed's load-linear path) ⟺ j < q for
     q = (Δ + t/c_src) / (t·(1/c_dst + 1/c_src)),
   Δ = (load_src + β)/c_src − (load_dst + β)/c_dst.  The valid j form
   a prefix (LHS grows, RHS shrinks), so the maximal block is the
   largest integer strictly below q, clamped to the available users.

   On the packed lane (β = 0, 1/c = cd/cn) multiplying through by
   cn_src·cn_dst gives j·D < N with A = cd_dst·cn_src,
   B = cd_src·cn_dst, N = (L_src + w)·B − L_dst·A and D = w·(A + B),
   so the block is (N − 1)/D for N > 0.  L_src + w ≤ 2·total, L_dst
   and w are ≤ total, and A, B ≤ maxcd·maxcn, so every product fits
   the [Packing.admits] bound. *)
let max_improving_block v ~cls ~src ~dst =
  let k = classes v and m = links v in
  if cls < 0 || cls >= k then invalid_arg "Cview.max_improving_block: class out of range";
  if src < 0 || src >= m || dst < 0 || dst >= m then
    invalid_arg "Cview.max_improving_block: link out of range";
  if src = dst then invalid_arg "Cview.max_improving_block: source and destination coincide";
  let avail = v.assign.(cls).(src) in
  match v.lane with
  | Packed pk ->
    let base = cls * m and w = pk.ppw.(cls) in
    let a = pk.pcd.(base + dst) * pk.pcn.(base + src)
    and b = pk.pcd.(base + src) * pk.pcn.(base + dst) in
    let n = ((pk.piload.(src) + w) * b) - (pk.piload.(dst) * a) in
    if n <= 0 then 0 else min avail ((n - 1) / (w * (a + b)))
  | Exact _ ->
    let t = v.contribs.(cls) in
    let cap_s = v.caps.(cls).(src) and cap_d = v.caps.(cls).(dst) in
    let delta =
      Rational.sub
        (Rational.div (biased v cls (load v src)) cap_s)
        (Rational.div (biased v cls (load v dst)) cap_d)
    in
    let q =
      Rational.div
        (Rational.add delta (Rational.div t cap_s))
        (Rational.mul t (Rational.add (Rational.inv cap_d) (Rational.inv cap_s)))
    in
    if Rational.compare q Rational.one <= 0 then 0
    else if Rational.compare q (Rational.of_int avail) > 0 then avail
    else
      (* q ∈ (1, avail]: ceil(q) − 1 ∈ [1, avail] fits a native int. *)
      Bigint.to_int_exn (Rational.num (Rational.sub (Rational.ceil q) Rational.one))

(* Per-term SC_1: one canonical latency per occupied (class, link)
   pair, weighted by its count.  The exact lane's sum, and the packed
   lane's fallback when a native step would overflow. *)
let social_cost1_terms v =
  let acc = ref Rational.zero in
  for c = 0 to classes v - 1 do
    for l = 0 to links v - 1 do
      let e = v.assign.(c).(l) in
      if e > 0 then acc := Rational.add !acc (Rational.mul (Rational.of_int e) (latency v c l))
    done
  done;
  !acc

(* Build the report state from scratch, with D the lcm of the occupied
   numerators.  [pd] stays 0 when a native step would overflow.
   @raise Packing.Overflow in that case. *)
let report_build v pk =
  pk.pd <- 0;
  let k = classes v and m = Array.length pk.piload in
  let d = ref 1 in
  for c = 0 to k - 1 do
    let occ = v.assign.(c) and base = c * m in
    for l = 0 to m - 1 do
      if occ.(l) > 0 then begin
        let a = pk.pcn.(base + l) in
        if !d mod a <> 0 then d := Packing.mul_nn (!d / Bignat.gcd_int !d a) a
      end
    done
  done;
  let d = !d and nl = pk.pnl in
  Array.fill nl 0 m 0;
  for c = 0 to k - 1 do
    let occ = v.assign.(c) and base = c * m in
    for l = 0 to m - 1 do
      let e = occ.(l) in
      if e > 0 then
        nl.(l) <-
          Packing.(add_nn nl.(l) (mul_nn (mul_nn e pk.pcd.(base + l)) (d / pk.pcn.(base + l))))
    done
  done;
  pk.pd <- d

(* With [load_l = piload_l/pscale],
     SC_1 = Σ_l piload_l·(D·T_l) / (pscale·D):
   m products and one reduction. *)
let report_value pk =
  let num = ref Bigint.zero in
  for l = 0 to Array.length pk.piload - 1 do
    if pk.pnl.(l) > 0 then
      num := Bigint.add !num (Bigint.mul (Bigint.of_int pk.piload.(l)) (Bigint.of_int pk.pnl.(l)))
  done;
  Rational.make !num (Bigint.mul (Bigint.of_int pk.pscale) (Bigint.of_int pk.pd))

let social_cost1 v =
  match v.lane with
  | Exact _ -> social_cost1_terms v
  | Packed pk ->
    Parallel.Ownership.guard "Cview cursor" v.owner;
    if pk.pd = 0 then (try report_build v pk with Packing.Overflow -> ());
    if pk.pd > 0 then report_value pk else social_cost1_terms v

let social_cost2 v =
  let acc = ref Rational.zero in
  for c = 0 to classes v - 1 do
    for l = 0 to links v - 1 do
      if v.assign.(c).(l) > 0 then acc := Rational.max !acc (latency v c l)
    done
  done;
  !acc

(* Re-materialise a class game from the revised state.  Classes whose
   capacity row is untouched keep their original uncertainty backend;
   a revised row is re-wrapped as the matching certain belief (or a
   degenerate interval for [Strict]) — exact, since every decision
   factors through the effective capacities. *)
let to_cgame v =
  if v.nrev = 0 then v.game
  else begin
    let k = classes v in
    let counts = Array.init k (class_count v) in
    let uncertainty =
      Array.init k (fun c ->
        let u = Cgame.uncertainty v.game c in
        let row = v.caps.(c) in
        let original = Cgame.capacity_row v.game c in
        if Array.for_all2 Rational.equal row original then u
        else begin
          let certain = Belief.certain (State.make (Array.copy row)) in
          match Uncertainty.kind u with
          | Uncertainty.Bayesian -> Uncertainty.bayesian certain
          | Uncertainty.Participation ->
            Uncertainty.participation ~presence:(Uncertainty.presence u) certain
          | Uncertainty.Strict ->
            Uncertainty.strict_of_intervals (Array.map (fun q -> (q, q)) row)
        end)
    in
    Cgame.make_uncertain ~counts ~weights:(Array.copy v.weights) ~uncertainty
  end
