(* Differential testing of the incremental evaluation core
   (Model.View) against recompute-from-scratch semantics.  [Seed]
   reimplements the pre-View evaluation path — every query
   re-materialises the loads with a full O(n) scan — and randomized
   move/undo sequences drive both in lockstep: after every operation
   the view's loads and latencies must equal the seed recompute, and
   periodic full checks compare [is_nash], [defectors],
   [improving_moves] and [best_response_for] for every user.  Episodes
   span KP (shared point beliefs), private point beliefs and
   heterogeneous shared-space beliefs, with and without non-zero
   initial traffic.

   The operation budget (>= 50_000 move/undo ops) is what ISSUE.md's
   differential-test acceptance gate refers to; shrink it only with a
   matching change there. *)

open Numeric
open Model
open Experiments
module Rng = Prng.Rng

let episodes = 1_200
let min_total_ops = 50_000

(* ------------------------------------------------------------------ *)
(* Seed reference: recompute everything from scratch on every query.   *)

module Seed = struct
  let loads g ?initial p =
    let t =
      match initial with
      | Some t -> Array.copy t
      | None -> Array.make (Game.links g) Rational.zero
    in
    Array.iteri (fun i l -> t.(l) <- Rational.add t.(l) (Game.weight g i)) p;
    t

  let latency g ?initial p i =
    let loads = loads g ?initial p in
    Rational.div loads.(p.(i)) (Game.capacity g i p.(i))

  let latency_on_link g ?initial p i l =
    let loads = loads g ?initial p in
    let load = if p.(i) = l then loads.(l) else Rational.add loads.(l) (Game.weight g i) in
    Rational.div load (Game.capacity g i l)

  let best_response g ?initial p i =
    let best_link = ref 0 and best = ref (latency_on_link g ?initial p i 0) in
    for l = 1 to Game.links g - 1 do
      let lat = latency_on_link g ?initial p i l in
      if Rational.compare lat !best < 0 then begin
        best_link := l;
        best := lat
      end
    done;
    (!best_link, !best)

  let improving_moves g ?initial p i =
    let current = latency g ?initial p i in
    let moves = ref [] in
    for l = Game.links g - 1 downto 0 do
      if l <> p.(i) && Rational.compare (latency_on_link g ?initial p i l) current < 0 then
        moves := l :: !moves
    done;
    !moves

  let is_defector g ?initial p i = improving_moves g ?initial p i <> []
  let defectors g ?initial p = List.filter (is_defector g ?initial p) (List.init (Array.length p) Fun.id)
  let is_nash g ?initial p = defectors g ?initial p = []
end

(* ------------------------------------------------------------------ *)
(* Random games across the three belief families                       *)

let random_game rng =
  let n = Rng.int_in rng 2 6 and m = Rng.int_in rng 2 4 in
  let weights =
    match Rng.int rng 3 with
    | 0 -> Generators.Unit_weights
    | 1 -> Generators.Integer_weights 5
    | _ -> Generators.Rational_weights 6
  in
  let beliefs =
    match Rng.int rng 3 with
    | 0 -> Generators.Shared_point { cap_bound = 6 } (* KP instance *)
    | 1 -> Generators.Private_point { cap_bound = 6 }
    | _ -> Generators.Shared_space { states = 3; cap_bound = 5; grain = 4 }
  in
  Generators.game rng ~n ~m ~weights ~beliefs

let random_initial rng m =
  if Rng.bool rng then None
  else Some (Array.init m (fun _ -> Rng.rational rng ~den_bound:5))

(* ------------------------------------------------------------------ *)
(* Lockstep comparison                                                 *)

let check_state g ?initial v shadow =
  let m = Game.links g and n = Game.users g in
  let expected = Seed.loads g ?initial shadow in
  for l = 0 to m - 1 do
    if not (Rational.equal (View.load v l) expected.(l)) then
      Alcotest.failf "load(%d) diverged: view=%s seed=%s" l
        (Rational.to_string (View.load v l))
        (Rational.to_string expected.(l))
  done;
  for i = 0 to n - 1 do
    if View.link v i <> shadow.(i) then
      Alcotest.failf "link(%d) diverged: view=%d shadow=%d" i (View.link v i) shadow.(i);
    if not (Rational.equal (View.latency v i) (Seed.latency g ?initial shadow i)) then
      Alcotest.failf "latency(%d) diverged" i
  done

let check_predicates g ?initial v shadow =
  let n = Game.users g and m = Game.links g in
  if View.is_nash v <> Seed.is_nash g ?initial shadow then Alcotest.fail "is_nash diverged";
  let vd = View.defectors v and sd = Seed.defectors g ?initial shadow in
  if vd <> sd then Alcotest.fail "defectors diverged";
  (match View.first_and_last_defector v, sd with
   | None, [] -> ()
   | Some (first, last), (d0 :: _ as ds) ->
     if first <> d0 || last <> List.nth ds (List.length ds - 1) then
       Alcotest.fail "first_and_last_defector disagrees with defectors' ends"
   | Some _, [] | None, _ :: _ -> Alcotest.fail "first_and_last_defector presence diverged");
  for i = 0 to n - 1 do
    if View.improving_moves v i <> Seed.improving_moves g ?initial shadow i then
      Alcotest.failf "improving_moves(%d) diverged" i;
    let vl, vlat = View.best_response_for v i and sl, slat = Seed.best_response g ?initial shadow i in
    if vl <> sl || not (Rational.equal vlat slat) then
      Alcotest.failf "best_response_for(%d) diverged" i;
    for l = 0 to m - 1 do
      if
        not
          (Rational.equal (View.latency_on_link v i l) (Seed.latency_on_link g ?initial shadow i l))
      then Alcotest.failf "latency_on_link(%d,%d) diverged" i l
    done
  done

let test_move_undo_differential () =
  let rng = Rng.create 0x51EE7 in
  let total_ops = ref 0 in
  for _ = 1 to episodes do
    let g = random_game rng in
    let n = Game.users g and m = Game.links g in
    let initial = random_initial rng m in
    let origin = Array.init n (fun _ -> Rng.int rng m) in
    let v = View.of_profile g ?initial origin in
    let shadow = Array.copy origin in
    let stack = ref [] in
    let ops = 42 + Rng.int rng 12 in
    for op = 1 to ops do
      incr total_ops;
      (* Bias towards moves so the history grows, but exercise undo
         (including undo-of-a-no-op-move where l = old link). *)
      if Rng.int rng 3 = 0 && !stack <> [] then begin
        match !stack with
        | (i, old) :: rest ->
          View.undo v;
          shadow.(i) <- old;
          stack := rest
        | [] -> assert false
      end
      else begin
        let i = Rng.int rng n and l = Rng.int rng m in
        stack := (i, shadow.(i)) :: !stack;
        View.move v i l;
        shadow.(i) <- l
      end;
      if View.depth v <> List.length !stack then Alcotest.fail "history depth diverged";
      check_state g ?initial v shadow;
      if op mod 8 = 0 then check_predicates g ?initial v shadow
    done;
    check_predicates g ?initial v shadow;
    (* Unwind the whole history: the view must land exactly on the
       origin profile (exact rational add/sub round-trips). *)
    while View.depth v > 0 do
      match !stack with
      | (i, old) :: rest ->
        View.undo v;
        shadow.(i) <- old;
        stack := rest
      | [] -> assert false
    done;
    if not (Pure.equal (View.profile v) origin) then Alcotest.fail "undo did not restore origin";
    check_state g ?initial v origin
  done;
  if !total_ops < min_total_ops then
    Alcotest.failf "only %d move/undo ops executed (need >= %d)" !total_ops min_total_ops

(* ------------------------------------------------------------------ *)
(* Sweep order and invariants                                          *)

let test_sweep_matches_iter_profiles () =
  let rng = Rng.create 0x5EE9 in
  for _ = 1 to 60 do
    let n = Rng.int_in rng 2 4 and m = Rng.int_in rng 2 3 in
    let weights =
      if Rng.bool rng then Generators.Integer_weights 5 else Generators.Rational_weights 6
    in
    let beliefs =
      if Rng.bool rng then Generators.Private_point { cap_bound = 6 }
      else Generators.Shared_space { states = 3; cap_bound = 5; grain = 4 }
    in
    let g = Generators.game rng ~n ~m ~weights ~beliefs in
    let initial = random_initial rng m in
    let reference = ref [] in
    Social.iter_profiles g (fun p -> reference := Array.copy p :: !reference);
    let swept = ref [] in
    View.sweep g ?initial (fun v ->
        (* A balanced move/undo inside the callback must not disturb
           the enumeration. *)
        if Rng.int rng 4 = 0 then begin
          View.move v (Rng.int rng n) (Rng.int rng m);
          View.undo v
        end;
        if View.depth v <> 0 then Alcotest.fail "sweep leaked history depth";
        check_state g ?initial v (View.profile v);
        swept := View.profile v :: !swept);
    let reference = List.rev !reference and swept = List.rev !swept in
    if List.length reference <> List.length swept then Alcotest.fail "sweep profile count diverged";
    List.iter2
      (fun a b -> if not (Pure.equal a b) then Alcotest.fail "sweep order diverged from iter_profiles")
      reference swept
  done

(* ------------------------------------------------------------------ *)
(* Two-lane agreement: the packed native-int lane and the exact
   big-rational lane must produce identical predicates and
   proportionally identical quantities.  Scaling every weight by 2^100
   leaves all equilibrium predicates invariant (latencies scale
   uniformly) but blows the packing bound, so the same instance can be
   evaluated on both lanes and compared. *)

let test_packed_lane_agreement () =
  let rng = Rng.create 0x9ACED in
  let k = Rational.of_bigint (Bigint.pow (Bigint.of_int 2) 100) in
  let packed_games = ref 0 in
  for _ = 1 to 150 do
    let g = random_game rng in
    match Game.packed_tables g with
    | None -> ()
    | Some _ ->
      incr packed_games;
      let n = Game.users g and m = Game.links g in
      let weights = Array.map (Rational.mul k) (Game.weights g) in
      let gx = Game.of_capacities ~weights (Game.capacity_matrix g) in
      for _ = 1 to 12 do
        let p = Array.init n (fun _ -> Rng.int rng m) in
        let v = View.of_profile g p and vx = View.of_profile gx p in
        if not (View.packed v) then Alcotest.fail "packable game built an exact view";
        if View.packed vx then Alcotest.fail "2^100-scaled game packed anyway";
        if View.is_nash v <> View.is_nash vx then Alcotest.fail "is_nash diverged across lanes";
        if View.defectors v <> View.defectors vx then
          Alcotest.fail "defectors diverged across lanes";
        for l = 0 to m - 1 do
          if not (Rational.equal (Rational.mul k (View.load v l)) (View.load vx l)) then
            Alcotest.failf "load(%d) not k-scaled across lanes" l
        done;
        for i = 0 to n - 1 do
          if View.improving_moves v i <> View.improving_moves vx i then
            Alcotest.failf "improving_moves(%d) diverged across lanes" i;
          let bl, blat = View.best_response_for v i in
          let xl, xlat = View.best_response_for vx i in
          if bl <> xl then Alcotest.failf "best_response_for(%d) link diverged across lanes" i;
          if not (Rational.equal (Rational.mul k blat) xlat) then
            Alcotest.failf "best_response_for(%d) latency not k-scaled" i;
          if not (Rational.equal (Rational.mul k (View.latency v i)) (View.latency vx i)) then
            Alcotest.failf "latency(%d) not k-scaled across lanes" i
        done
      done
  done;
  if !packed_games < 50 then
    Alcotest.failf "only %d of 150 random games packed (wanted >= 50)" !packed_games

let test_initial_spill_falls_back_exactly () =
  (* A packable game whose initial traffic cannot be rescaled into the
     native bound must spill to the exact lane and still agree with the
     seed recompute. *)
  let g =
    Game.kp
      ~weights:[| Rational.one; Rational.of_int 2; Rational.of_ints 1 2 |]
      ~capacities:[| Rational.one; Rational.of_ints 3 2 |]
  in
  let tiny = Rational.make Bigint.one (Bigint.pow (Bigint.of_int 2) 100) in
  let initial = [| tiny; Rational.zero |] in
  let p = [| 0; 1; 0 |] in
  let v = View.of_profile g ~initial p in
  if View.packed v then Alcotest.fail "2^-100 initial traffic packed anyway";
  check_state g ~initial v p;
  check_predicates g ~initial v p;
  (* The same profile without initial traffic packs. *)
  if not (View.packed (View.of_profile g p)) then Alcotest.fail "plain KP instance did not pack"

(* ------------------------------------------------------------------ *)
(* Parallel fold: sharded odometer folds must be bit-identical to the
   serial sweep for first-wins argmin reductions, at every domain
   count (1 = serial path, 2 and 5 = sharded; 5 typically exceeds the
   profile count of the smallest instances, exercising empty shards). *)

let test_fold_domains_bit_identity () =
  let rng = Rng.create 0xF01D in
  let argmin_fold ?initial ~domains g =
    View.fold ~domains ?initial g ~init:None
      ~f:(fun acc v ->
        let c = View.social_cost1 v in
        match acc with
        | Some (b, _) when Rational.compare b c <= 0 -> acc
        | _ -> Some (c, View.profile v))
      ~combine:(fun a b ->
        match a, b with
        | None, x | x, None -> x
        | Some (va, _), Some (vb, _) -> if Rational.compare va vb <= 0 then a else b)
  in
  for _ = 1 to 30 do
    let g = random_game rng in
    let initial = random_initial rng (Game.links g) in
    let count_serial =
      View.fold ?initial g ~init:0 ~f:(fun acc _ -> acc + 1) ~combine:( + )
    in
    (match Social.profile_count g with
     | Some c -> Alcotest.(check int) "fold visits every profile" c count_serial
     | None -> ());
    match argmin_fold ?initial ~domains:1 g with
    | None -> Alcotest.fail "serial fold on a non-empty game returned no argmin"
    | Some (vs, ps) ->
      List.iter
        (fun domains ->
          let count =
            View.fold ~domains ?initial g ~init:0 ~f:(fun acc _ -> acc + 1) ~combine:( + )
          in
          Alcotest.(check int)
            (Printf.sprintf "profile count at %d domains" domains)
            count_serial count;
          match argmin_fold ?initial ~domains g with
          | None -> Alcotest.failf "fold at %d domains returned no argmin" domains
          | Some (vp, pp) ->
            if not (Rational.equal vs vp) then
              Alcotest.failf "argmin value diverged at %d domains" domains;
            if not (Pure.equal ps pp) then
              Alcotest.failf "argmin profile diverged at %d domains (first-wins broken)" domains)
        [ 2; 5 ]
  done

let test_social_opt_domains_bit_identity () =
  let rng = Rng.create 0x50C1A1 in
  for _ = 1 to 15 do
    let g = random_game rng in
    let c1, p1 = Social.opt1 g in
    let c2, p2 = Social.opt2 g in
    List.iter
      (fun domains ->
        let c1', p1' = Social.opt1 ~domains g in
        let c2', p2' = Social.opt2 ~domains g in
        if not (Rational.equal c1 c1' && Pure.equal p1 p1') then
          Alcotest.failf "opt1 diverged at %d domains" domains;
        if not (Rational.equal c2 c2' && Pure.equal p2 p2') then
          Alcotest.failf "opt2 diverged at %d domains" domains)
      [ 2; 5 ]
  done

(* ------------------------------------------------------------------ *)
(* Native social costs: View.social_cost1/2 against the per-user exact
   sum and max, on every kind of view — sealed views reading the
   game's cost tables, views with initial traffic, unsealed views after
   structural deltas, non-load-linear (exact-lane) games and a packed
   game whose cost tables overflow. *)

let reference_costs v =
  let sc1 = ref Rational.zero and sc2 = ref Rational.zero in
  for i = 0 to View.users v - 1 do
    if View.is_active v i then begin
      let lat = View.latency v i in
      sc1 := Rational.add !sc1 lat;
      sc2 := Rational.max !sc2 lat
    end
  done;
  (!sc1, !sc2)

(* Equal values and equal renderings: the native paths must return
   the canonical rational the per-user path builds. *)
let check_costs what v =
  let sc1, sc2 = reference_costs v in
  let same a b = Rational.equal a b && Rational.to_string a = Rational.to_string b in
  if not (same (View.social_cost1 v) sc1) then
    Alcotest.failf "%s: social_cost1 %s, per-user sum %s" what
      (Rational.to_string (View.social_cost1 v)) (Rational.to_string sc1);
  if not (same (View.social_cost2 v) sc2) then
    Alcotest.failf "%s: social_cost2 %s, per-user max %s" what
      (Rational.to_string (View.social_cost2 v)) (Rational.to_string sc2)

(* The cost tables recomputed in Bigint: D = lcm of the capacity
   numerators, K = cd·(D/cn), den = scale·D, kept only when every K
   and den are native and n·wsum·maxK < max_int. *)
let reference_cost_tables g =
  match Game.packed_tables g with
  | None -> None
  | Some pk ->
    let d =
      Array.fold_left
        (fun d c ->
          let c = Bigint.of_int c in
          Bigint.mul d (Bigint.div c (Bigint.gcd d c)))
        Bigint.one pk.Packing.cn
    in
    let k =
      Array.mapi
        (fun r c -> Bigint.mul (Bigint.of_int pk.Packing.cd.(r)) (Bigint.div d (Bigint.of_int c)))
        pk.Packing.cn
    in
    let maxk =
      Array.fold_left (fun a b -> if Bigint.compare a b >= 0 then a else b) Bigint.zero k
    in
    let bound =
      Bigint.mul (Bigint.of_int (Game.users g)) (Bigint.mul (Bigint.of_int pk.Packing.wsum) maxk)
    in
    let den = Bigint.mul (Bigint.of_int pk.Packing.scale) d in
    (match (Bigint.to_int_opt bound, Bigint.to_int_opt den) with
     | Some b, Some den when b < max_int ->
       Some { Packing.k = Array.map Bigint.to_int_exn k; den }
     | _ -> None)

let check_cost_tables what g =
  if Game.cost_tables g <> reference_cost_tables g then
    Alcotest.failf "%s: cost tables differ from the Bigint reference" what

(* KP capacities whose numerators are distinct primes near 2^40: the
   game packs, but the lcm of the numerators spills a native int. *)
let overflowing_game () =
  let p1 = 1099511627791 and p2 = 1099511627803 and p3 = 1099511627831 in
  Game.kp
    ~weights:(Array.map Rational.of_int [| 5; 4; 3; 2; 1 |])
    ~capacities:[| Rational.of_int p1; Rational.of_ints p2 2; Rational.of_ints p3 3 |]

let random_backend_game rng =
  let n = Rng.int_in rng 2 6 and m = Rng.int_in rng 2 4 in
  let weights = Array.init n (fun _ -> Rng.rational rng ~den_bound:4) in
  let weights = Array.map (fun w -> Rational.add w Rational.one) weights in
  let cap () = Rational.of_ints (1 + Rng.int rng 6) (1 + Rng.int rng 3) in
  (* All strict (load-linear, so packed), all participation, or mixed
     (neither is packed). *)
  let kind = Rng.int rng 3 in
  let uncertainty =
    Array.init n (fun _ ->
        if kind = 0 || (kind = 2 && Rng.bool rng) then
          Uncertainty.strict_of_intervals
            (Array.init m (fun _ ->
                 let lo = cap () in
                 (lo, Rational.add lo (Rational.of_int (Rng.int rng 3)))))
        else
          Uncertainty.participation
            ~presence:(Rational.of_ints (1 + Rng.int rng 4) 4)
            (Belief.certain (State.make (Array.init m (fun _ -> cap ())))))
  in
  Game.make_uncertain ~weights ~uncertainty

let test_native_social_costs () =
  let rng = Rng.create 0x5C05 in
  let native_views = ref 0 in
  (* Sealed views over Bayesian games (KP, private and shared-space
     beliefs), half of them with initial traffic, walked by moves. *)
  for _ = 1 to 400 do
    let g = random_game rng in
    check_cost_tables "bayesian game" g;
    let n = Game.users g and m = Game.links g in
    let initial = random_initial rng m in
    let v = View.of_profile g ?initial (Array.init n (fun _ -> Rng.int rng m)) in
    for _ = 1 to 8 do
      if View.packed v && initial = None && Game.cost_tables g <> None then incr native_views;
      check_costs "sealed view" v;
      View.move v (Rng.int rng n) (Rng.int rng m)
    done
  done;
  if !native_views < 1_000 then
    Alcotest.failf "only %d sealed views read the cost tables (wanted >= 1000)" !native_views;
  (* Strict and participation backends. *)
  let strict_tables = ref 0 in
  for _ = 1 to 200 do
    let g = random_backend_game rng in
    check_cost_tables "backend game" g;
    if Game.cost_tables g <> None then incr strict_tables;
    let n = Game.users g and m = Game.links g in
    check_costs "backend game" (View.of_profile g (Array.init n (fun _ -> Rng.int rng m)))
  done;
  if !strict_tables < 50 then
    Alcotest.failf "only %d strict games have cost tables (wanted >= 50)" !strict_tables;
  (* Unsealed views: arrivals, departures and capacity revisions, each
     checked, then undone one by one. *)
  for _ = 1 to 200 do
    let g = random_game rng in
    let n = Game.users g and m = Game.links g in
    let v = View.of_profile g (Array.init n (fun _ -> Rng.int rng m)) in
    let ops = 1 + Rng.int rng 6 in
    for _ = 1 to ops do
      (match Rng.int rng 3 with
       | 0 ->
         ignore
           (View.add_user v ~weight:(Rational.of_ints (1 + Rng.int rng 4) (1 + Rng.int rng 2))
              ~capacities:(Array.init m (fun _ -> Rational.of_int (1 + Rng.int rng 6)))
              ~link:(Rng.int rng m) ())
       | 1 ->
         let i = Rng.int rng (View.users v) in
         if View.is_active v i && View.active_users v > 1 then View.remove_user v i
       | _ ->
         let i = Rng.int rng (View.users v) in
         if View.is_active v i then
           View.revise_capacity v ~user:i ~link:(Rng.int rng m)
             (Rational.of_ints (1 + Rng.int rng 6) (1 + Rng.int rng 2)));
      check_costs "unsealed view" v;
      let g', idx = View.to_game v in
      let v' = View.of_profile g' (Array.map (View.link v) idx) in
      if not (Rational.equal (View.social_cost1 v) (View.social_cost1 v')) then
        Alcotest.fail "unsealed social_cost1 differs from the re-materialised view";
      if not (Rational.equal (View.social_cost2 v) (View.social_cost2 v')) then
        Alcotest.fail "unsealed social_cost2 differs from the re-materialised view"
    done;
    while View.depth v > 0 do
      View.undo v;
      check_costs "undone view" v
    done
  done;
  (* Packed tables without cost tables: every profile of the game. *)
  let g = overflowing_game () in
  if Game.packed_tables g = None then Alcotest.fail "prime-capacity game did not pack";
  if Game.cost_tables g <> None then Alcotest.fail "spilling cost tables were kept";
  check_cost_tables "overflowing game" g;
  View.sweep g (fun v ->
      if not (View.packed v) then Alcotest.fail "prime-capacity view left the packed lane";
      check_costs "overflowing game" v)

(* ------------------------------------------------------------------ *)
(* Best-response-pruned enumeration: View.sweep_nash and Enumerate
   against the full odometer filtered by is_nash, kept here as the
   oracle.  The equilibria, their order, count and exists must agree
   on packed games, on KP games with equal weights and capacities (the
   last user's best responses tie across links), and on exact-lane
   games (participation backends, and 2^100-scaled weights that
   Packing refuses). *)

let oracle_nash g =
  let acc = ref [] in
  View.sweep g (fun v -> if View.is_nash v then acc := View.profile v :: !acc);
  List.rev !acc

let check_pruned_sweep what g =
  let expected = oracle_nash g in
  let swept = ref [] in
  View.sweep_nash g (fun v ->
      if not (View.is_nash v) then Alcotest.failf "%s: sweep_nash visited a non-equilibrium" what;
      if View.depth v <> 0 then Alcotest.failf "%s: sweep_nash leaked history depth" what;
      swept := View.profile v :: !swept);
  let same a b = List.length a = List.length b && List.for_all2 Pure.equal a b in
  if not (same expected (List.rev !swept)) then
    Alcotest.failf "%s: sweep_nash diverged from the sweep+is_nash filter" what;
  if not (same expected (Algo.Enumerate.pure_nash g)) then
    Alcotest.failf "%s: Enumerate.pure_nash diverged from the oracle" what;
  if Algo.Enumerate.count g <> List.length expected then
    Alcotest.failf "%s: Enumerate.count diverged from the oracle" what;
  if Algo.Enumerate.exists g <> (expected <> []) then
    Alcotest.failf "%s: Enumerate.exists diverged from the oracle" what;
  List.length expected

let participation_game rng ~n ~m =
  let cap () = Rational.of_ints (1 + Rng.int rng 6) (1 + Rng.int rng 2) in
  Game.make_uncertain
    ~weights:(Array.init n (fun _ -> Rational.of_int (1 + Rng.int rng 3)))
    ~uncertainty:
      (Array.init n (fun _ ->
           Uncertainty.participation
             ~presence:(Rational.of_ints (1 + Rng.int rng 4) 4)
             (Belief.certain (State.make (Array.init m (fun _ -> cap ()))))))

let test_sweep_nash_matches_oracle () =
  let rng = Rng.create 0x9E5E in
  let lanes = Array.make 2 0 and equilibria = ref 0 in
  let run what g =
    let v = View.of_profile g (Array.make (Game.users g) 0) in
    let lane = if View.packed v then 0 else 1 in
    lanes.(lane) <- lanes.(lane) + 1;
    equilibria := !equilibria + check_pruned_sweep what g
  in
  (* Random packed games over the three belief families. *)
  for _ = 1 to 150 do
    run "random game" (random_game rng)
  done;
  (* Every (n, m) with n in {1, 2} and m in 2..4. *)
  for n = 1 to 2 do
    for m = 2 to 4 do
      for _ = 1 to 10 do
        run "small game"
          (Generators.game rng ~n ~m ~weights:(Generators.Integer_weights 3)
             ~beliefs:(Generators.Private_point { cap_bound = 3 }))
      done
    done
  done;
  (* Equal weights and capacities: every link ties for the last user
     whenever the prefix loads tie. *)
  for n = 1 to 5 do
    for m = 2 to 4 do
      let w = Rational.of_ints (1 + Rng.int rng 3) (1 + Rng.int rng 2) in
      let c = Rational.of_int (1 + Rng.int rng 4) in
      let g = Game.kp ~weights:(Array.make n w) ~capacities:(Array.make m c) in
      let count = check_pruned_sweep "equal KP game" g in
      (* A lone user ties on every link. *)
      if n = 1 && count <> m then Alcotest.fail "equal KP game lost a tied equilibrium"
    done
  done;
  (* Exact lane: participation backends, and weights scaled by 2^100. *)
  let k = Rational.of_bigint (Bigint.pow (Bigint.of_int 2) 100) in
  for _ = 1 to 40 do
    let n = Rng.int_in rng 1 5 and m = Rng.int_in rng 2 4 in
    run "participation game" (participation_game rng ~n ~m);
    let g = random_game rng in
    run "2^100-scaled game"
      (Game.of_capacities
         ~weights:(Array.map (Rational.mul k) (Game.weights g))
         (Game.capacity_matrix g))
  done;
  if lanes.(0) < 100 || lanes.(1) < 60 then
    Alcotest.failf "lane coverage too thin: %d packed, %d exact games" lanes.(0) lanes.(1);
  if !equilibria < 500 then Alcotest.failf "only %d equilibria enumerated" !equilibria

(* The pruned sweep's own work allocates nothing per prefix: on the
   packed lane a no-op sweep over an n = 8, m = 3 game (6,561 profiles)
   allocates about what one over n = 4 (81 profiles) does — the view
   and its arrays, linear in n. *)
let test_sweep_nash_allocation () =
  match Sys.backend_type with
  | Sys.Bytecode | Sys.Other _ -> ()
  | Sys.Native ->
    let m = 3 in
    let game n =
      Game.of_capacities
        ~weights:(Array.init n (fun i -> Rational.of_ints (1 + (i mod 3)) (1 + (i mod 2))))
        (Array.init n (fun i ->
             Array.init m (fun l -> Rational.of_ints (1 + ((i + (2 * l)) mod 5)) (1 + (l mod 2)))))
    in
    let words g =
      let w0 = Gc.minor_words () in
      View.sweep_nash g ignore;
      Gc.minor_words () -. w0
    in
    let small = game 4 and big = game 8 in
    List.iter
      (fun g ->
        if not (View.packed (View.of_profile g (Array.make (Game.users g) 0))) then
          Alcotest.fail "allocation pin game is not packed";
        if Algo.Enumerate.count g = 0 then Alcotest.fail "allocation pin game has no equilibrium")
      [ small; big ];
    ignore (words small);
    let ws = words small and wb = words big in
    if wb -. ws > 64. then
      Alcotest.failf "sweep_nash allocated %.0f minor words at n = 8 against %.0f at n = 4" wb ws

(* ------------------------------------------------------------------ *)
(* Pure.social_cost1/2 against the term-by-term exact sum and maximum
   of Pure.latency: packed games (scored without a view), games with
   initial traffic, non-load-linear games and packed games whose base
   bound fails; then View.social_cost1/2 along a chain of moves. *)

let pure_reference g ?initial p =
  let lats = List.init (Game.users g) (Pure.latency g ?initial p) in
  (List.fold_left Rational.add Rational.zero lats, List.fold_left Rational.max Rational.zero lats)

let check_pure_costs what g ?initial p =
  let sc1, sc2 = pure_reference g ?initial p in
  let same a b = Rational.equal a b && Rational.to_string a = Rational.to_string b in
  if not (same (Pure.social_cost1 g ?initial p) sc1) then
    Alcotest.failf "%s: Pure.social_cost1 differs from the latency sum" what;
  if not (same (Pure.social_cost2 g ?initial p) sc2) then
    Alcotest.failf "%s: Pure.social_cost2 differs from the latency maximum" what

(* Capacities (2^31 - 1)/(2^31 - 3)·j: the game packs, but
   2·wsum·maxcd·maxcn spills, so the base bound fails. *)
let base_refused_game () =
  let a = (1 lsl 31) - 1 and b = (1 lsl 31) - 3 in
  Game.kp
    ~weights:(Array.map Rational.of_int [| 3; 2; 2; 1 |])
    ~capacities:(Array.init 3 (fun j -> Rational.of_ints (a - (2 * j)) b))

let test_pure_social_costs () =
  let rng = Rng.create 0x5C1E in
  let view_free = ref 0 in
  for _ = 1 to 300 do
    let g = random_game rng in
    let n = Game.users g and m = Game.links g in
    let p = Array.init n (fun _ -> Rng.int rng m) in
    (match Game.packed_tables g with
     | Some pk when pk.Packing.base_ok && Game.cost_tables g <> None -> incr view_free
     | _ -> ());
    check_pure_costs "random game" g p;
    let initial = Array.init m (fun _ -> Rng.rational rng ~den_bound:5) in
    check_pure_costs "initial traffic" g ~initial p;
    (* A chain of moves on one view. *)
    let v = View.of_profile g ~initial p in
    let plain = View.of_profile g p in
    for _ = 1 to 10 do
      let i = Rng.int rng n and l = Rng.int rng m in
      View.move v i l;
      View.move plain i l;
      let q = View.profile v in
      let sc1, sc2 = pure_reference g ~initial q in
      if not (Rational.equal (View.social_cost1 v) sc1 && Rational.equal (View.social_cost2 v) sc2)
      then Alcotest.fail "View social costs after moves differ from Pure.latency (initial)";
      let sc1, sc2 = pure_reference g q in
      if
        not
          (Rational.equal (View.social_cost1 plain) sc1
          && Rational.equal (View.social_cost2 plain) sc2)
      then Alcotest.fail "View social costs after moves differ from Pure.latency"
    done
  done;
  if !view_free < 200 then Alcotest.failf "only %d games scored without a view" !view_free;
  for _ = 1 to 100 do
    let n = Rng.int_in rng 1 5 and m = Rng.int_in rng 2 4 in
    let g = participation_game rng ~n ~m in
    check_pure_costs "participation game" g (Array.init n (fun _ -> Rng.int rng m))
  done;
  let g = base_refused_game () in
  (match Game.packed_tables g with
   | Some pk when not pk.Packing.base_ok -> ()
   | _ -> Alcotest.fail "base-refused game does not pack with a failing base bound");
  Social.iter_profiles g (fun p -> check_pure_costs "base-refused game" g (Array.copy p));
  let g = overflowing_game () in
  Social.iter_profiles g (fun p -> check_pure_costs "overflowing game" g (Array.copy p));
  (* Invalid profiles still raise the view's errors. *)
  let g = random_game rng in
  let n = Game.users g and m = Game.links g in
  Alcotest.check_raises "short profile"
    (Invalid_argument "View.of_profile: profile length differs from user count") (fun () ->
      ignore (Pure.social_cost1 g (Array.make (n + 1) 0)));
  Alcotest.check_raises "link out of range" (Invalid_argument "View.of_profile: link out of range")
    (fun () -> ignore (Pure.social_cost2 g (Array.make n m)))

(* ------------------------------------------------------------------ *)
(* Guard rails                                                         *)

let test_validation () =
  let rng = Rng.create 0xFA11 in
  let g = random_game rng in
  let n = Game.users g and m = Game.links g in
  let p = Array.make n 0 in
  Alcotest.check_raises "short profile" (Invalid_argument
    "View.of_profile: profile length differs from user count")
    (fun () -> ignore (View.of_profile g (Array.make (n + 1) 0)));
  Alcotest.check_raises "link out of range" (Invalid_argument
    "View.of_profile: link out of range")
    (fun () -> ignore (View.of_profile g (Array.make n m)));
  Alcotest.check_raises "negative initial" (Invalid_argument
    "View.of_profile: negative initial traffic")
    (fun () ->
      ignore (View.of_profile g ~initial:(Array.make m (Rational.of_int (-1))) p));
  let v = View.of_profile g p in
  Alcotest.check_raises "undo on empty history" (Invalid_argument "View.undo: empty history")
    (fun () -> View.undo v);
  Alcotest.check_raises "move user out of range" (Invalid_argument "View.move: user out of range")
    (fun () -> View.move v n 0);
  Alcotest.check_raises "move link out of range" (Invalid_argument "View.move: link out of range")
    (fun () -> View.move v 0 m)

let test_ownership_guard () =
  (* Under SELFISH_OWNERSHIP, move/undo assert the calling domain is
     the creator.  The owner is forged through the test-only hook so a
     single-domain test can pin the exact failure message. *)
  let module O = Parallel.Ownership in
  let saved = !O.enabled in
  O.enabled := true;
  Fun.protect
    ~finally:(fun () -> O.enabled := saved)
    (fun () ->
      let rng = Rng.create 0x0FFE in
      let g = random_game rng in
      let p = Array.make (Game.users g) 0 in
      let v = View.of_profile g p in
      Alcotest.(check int) "owner is the creating domain" (O.self_id ()) (View.owner v);
      (* Same-domain mutation passes. *)
      View.move v 0 0;
      let expected =
        O.Violation
          (Printf.sprintf
             "SELFISH_OWNERSHIP: View cursor created on domain 12345 mutated from domain %d"
             (O.self_id ()))
      in
      View.unsafe_set_owner v 12345;
      Alcotest.check_raises "foreign-domain move trips the guard" expected (fun () ->
          View.move v 0 0);
      Alcotest.check_raises "foreign-domain undo trips the guard" expected (fun () ->
          View.undo v);
      (* Restoring the owner re-enables mutation; the guarded attempts
         above must not have corrupted the history. *)
      View.unsafe_set_owner v (O.self_id ());
      View.undo v;
      Alcotest.(check int) "history balanced after guarded attempts" 0 (View.depth v))

let () =
  Alcotest.run "view"
    [
      ( "incremental",
        [
          ("move/undo vs seed recompute", `Quick, test_move_undo_differential);
          ("sweep matches iter_profiles", `Quick, test_sweep_matches_iter_profiles);
          ("packed and exact lanes agree", `Quick, test_packed_lane_agreement);
          ("initial-traffic spill stays exact", `Quick, test_initial_spill_falls_back_exactly);
          ("fold is domain-count invariant", `Quick, test_fold_domains_bit_identity);
          ("opt1/opt2 are domain-count invariant", `Quick, test_social_opt_domains_bit_identity);
          ("validation and empty-history errors", `Quick, test_validation);
          ("ownership sanitizer guards move/undo", `Quick, test_ownership_guard);
          ("native social costs match the per-user sum", `Quick, test_native_social_costs);
        ] );
      ( "pruned",
        [
          ("sweep_nash and Enumerate match the is_nash filter", `Quick, test_sweep_nash_matches_oracle);
          ("packed sweep_nash allocation is flat in m^n", `Quick, test_sweep_nash_allocation);
          ("Pure social costs match the latency sum and max", `Quick, test_pure_social_costs);
        ] );
    ]
