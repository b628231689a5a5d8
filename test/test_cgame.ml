(* Differential harness for the class-compressed layer.

   Every class-level quantity must be BIT-IDENTICAL to its per-user
   counterpart through the compress/expand bridge: exact rational
   arithmetic makes re-associated sums canonical, so the class layer is
   not an approximation of the per-user layer but a re-grouping of the
   same computation.  The harness runs tens of thousands of randomized
   games (n ≤ 12) across all belief kinds — KP (shared certain
   capacities), point beliefs (per-user certain rows) and heterogeneous
   beliefs over shared state spaces — and compares:

     - compress/expand round trips (weights, capacity rows, counts)
     - pure-profile loads, latencies, is_nash, SC1/SC2 (Cview vs Pure)
     - the first-defector best-response step (Cview vs Best_response)
     - maximal improving blocks against single-move simulation
     - class-symmetric mixed evaluation (Cmixed.Eval vs Mixed.Eval)
     - FMNE closed forms (Cfully_mixed vs Fully_mixed)
     - LPT schedules (Cuniform_beliefs vs Uniform_beliefs)
     - block best-response convergence (Nash at both levels). *)

open Model
open Numeric

let check_q = Alcotest.testable Rational.pp Rational.equal

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)

(* Small pools make duplicate (weight, row) classes common, so the
   harness exercises real compression, not just k = n. *)
let random_kp rng ~n ~m =
  Game.kp
    ~weights:(Array.init n (fun _ -> Rational.of_int (1 + Prng.Rng.int rng 3)))
    ~capacities:(Array.init m (fun _ -> Rational.of_int (1 + Prng.Rng.int rng 5)))

let random_point rng ~n ~m =
  (* Point (certain) beliefs drawn from a pool of at most three
     (weight, capacity row) pairs: heavy duplication. *)
  let pool_size = 1 + Prng.Rng.int rng 3 in
  let pool_w = Array.init pool_size (fun _ -> Rational.of_int (1 + Prng.Rng.int rng 3)) in
  let pool_row =
    Array.init pool_size (fun _ ->
        Array.init m (fun _ -> Rational.of_int (1 + Prng.Rng.int rng 5)))
  in
  let pick = Array.init n (fun _ -> Prng.Rng.int rng pool_size) in
  Game.of_capacities
    ~weights:(Array.map (fun j -> pool_w.(j)) pick)
    (Array.map (fun j -> Array.copy pool_row.(j)) pick)

let random_heterogeneous rng ~n ~m =
  Experiments.Generators.game rng ~n ~m
    ~weights:(Experiments.Generators.Rational_weights 3)
    ~beliefs:(Experiments.Generators.Shared_space { states = 2; cap_bound = 4; grain = 3 })

let random_game rng ~kind ~n ~m =
  match kind mod 3 with
  | 0 -> random_kp rng ~n ~m
  | 1 -> random_point rng ~n ~m
  | _ -> random_heterogeneous rng ~n ~m

(* Class-block offsets of the expanded (class-major) layout. *)
let offsets cg =
  let k = Cgame.classes cg in
  let off = Array.make k 0 in
  for c = 1 to k - 1 do
    off.(c) <- off.(c - 1) + Cgame.count cg (c - 1)
  done;
  off

(* ------------------------------------------------------------------ *)
(* compress / expand round trips                                       *)

let check_bridge trial g =
  let n = Game.users g and m = Game.links g in
  let cg, class_of = Cgame.compress g in
  if Cgame.users cg <> n then Alcotest.failf "trial %d: user count drifted" trial;
  if Cgame.classes cg > n then Alcotest.failf "trial %d: more classes than users" trial;
  for i = 0 to n - 1 do
    let c = class_of.(i) in
    Alcotest.check check_q "class weight matches user" (Game.weight g i) (Cgame.weight cg c);
    for l = 0 to m - 1 do
      Alcotest.check check_q "class capacity matches user" (Game.capacity g i l)
        (Cgame.capacity cg c l)
    done
  done;
  (* expand is class-major: every user in class c's block carries class
     c's weight and row. *)
  let ex = Cgame.expand cg in
  if Game.users ex <> n then Alcotest.failf "trial %d: expand changed the user count" trial;
  let off = offsets cg in
  for c = 0 to Cgame.classes cg - 1 do
    for u = off.(c) to off.(c) + Cgame.count cg c - 1 do
      Alcotest.check check_q "expanded weight" (Cgame.weight cg c) (Game.weight ex u);
      for l = 0 to m - 1 do
        Alcotest.check check_q "expanded capacity" (Cgame.capacity cg c l) (Game.capacity ex u l)
      done
    done
  done;
  (* Compressing the expansion reproduces the class game exactly (the
     class-major layout makes first-seen order the class order). *)
  let cg', class_of' = Cgame.compress ex in
  if Cgame.classes cg' <> Cgame.classes cg then
    Alcotest.failf "trial %d: expand/compress changed the class count" trial;
  for c = 0 to Cgame.classes cg - 1 do
    if Cgame.count cg' c <> Cgame.count cg c then
      Alcotest.failf "trial %d: expand/compress changed a class count" trial;
    Alcotest.check check_q "expand/compress weight" (Cgame.weight cg c) (Cgame.weight cg' c)
  done;
  for c = 0 to Cgame.classes cg - 1 do
    for u = off.(c) to off.(c) + Cgame.count cg c - 1 do
      if class_of'.(u) <> c then Alcotest.failf "trial %d: class-major map drifted" trial
    done
  done;
  (cg, class_of)

(* ------------------------------------------------------------------ *)
(* Pure layer: Cview vs Pure/View through the bridge                   *)

let check_pure trial g (cg, class_of) p =
  let n = Game.users g and m = Game.links g in
  let x = Cgame.compress_profile cg ~class_of p in
  let v = Cview.of_profile cg x in
  let loads = Pure.loads g p in
  for l = 0 to m - 1 do
    Alcotest.check check_q "link load" loads.(l) (Cview.load v l)
  done;
  for i = 0 to n - 1 do
    Alcotest.check check_q "user latency" (Pure.latency g p i)
      (Cview.latency v class_of.(i) p.(i))
  done;
  if Pure.is_nash g p <> Cview.is_nash v then
    Alcotest.failf "trial %d: is_nash disagrees with Pure" trial;
  Alcotest.check check_q "SC1" (Pure.social_cost1 g p) (Cview.social_cost1 v);
  Alcotest.check check_q "SC2" (Pure.social_cost2 g p) (Cview.social_cost2 v);
  (* The first-defector step: the class move must be exactly the move
     the per-user policy makes on the expanded profile. *)
  let ex = Cgame.expand cg in
  let ex_p = Cgame.expand_profile cg x in
  let off = offsets cg in
  (match
     (Algo.Best_response.step ex ~policy:Algo.Best_response.First_defector ex_p,
      Cview.first_defector v)
   with
  | None, None -> ()
  | None, Some _ -> Alcotest.failf "trial %d: phantom class defector" trial
  | Some _, None -> Alcotest.failf "trial %d: class layer missed a defector" trial
  | Some stepped, Some (cls, src, dst) ->
    (* First user of class [cls] on [src]: users within a class are laid
       out link-ascending, so it sits right after the earlier links'
       blocks. *)
    let rank = ref 0 in
    for l = 0 to src - 1 do
      rank := !rank + x.(cls).(l)
    done;
    let u = off.(cls) + !rank in
    let expected = Array.copy ex_p in
    expected.(u) <- dst;
    if stepped <> expected then
      Alcotest.failf "trial %d: step mismatch (class %d, %d→%d, user %d)" trial cls src dst u);
  (* Nash agreement must also hold on the expanded pair. *)
  if Pure.is_nash ex ex_p <> Cview.is_nash v then
    Alcotest.failf "trial %d: is_nash disagrees on the expanded profile" trial

let test_pure_differential () =
  let rng = Prng.Rng.create 0xC1A5 in
  for trial = 1 to 10_000 do
    let n = 1 + Prng.Rng.int rng 6 and m = Prng.Rng.int_in rng 2 3 in
    let g = random_game rng ~kind:trial ~n ~m in
    let bridge = check_bridge trial g in
    let p = Array.init n (fun _ -> Prng.Rng.int rng m) in
    check_pure trial g bridge p
  done

(* A twelve-user game exercises the issue's n ≤ 12 bound explicitly. *)
let test_twelve_users () =
  let rng = Prng.Rng.create 0x7EA2 in
  for trial = 1 to 200 do
    let n = 12 and m = Prng.Rng.int_in rng 2 4 in
    let g = random_game rng ~kind:trial ~n ~m in
    let bridge = check_bridge trial g in
    let p = Array.init n (fun _ -> Prng.Rng.int rng m) in
    check_pure trial g bridge p
  done

(* ------------------------------------------------------------------ *)
(* Maximal improving blocks vs single-move simulation                  *)

(* Simulates the block one mover at a time: each of the [t] movers must
   improve in turn, the (t+1)-th must not, and undoing the single moves
   must restore the loads.  [improves] evaluates the j-th comparison on
   the view state after j-1 single moves.  Returns [t]. *)
let check_block trial v ~cls ~src ~dst =
  let loads0 = Cview.loads v in
  let t = Cview.max_improving_block v ~cls ~src ~dst in
  let avail = Cview.assigned v cls src in
  if t > avail then Alcotest.failf "trial %d: block exceeds available users" trial;
  let improves () =
    Rational.compare (Cview.latency_after_move v ~cls ~src dst) (Cview.latency v cls src) < 0
  in
  for j = 1 to t do
    if not (improves ()) then Alcotest.failf "trial %d: mover %d of %d does not improve" trial j t;
    Cview.move v ~cls ~src ~dst ~count:1
  done;
  if avail > t && improves () then
    Alcotest.failf "trial %d: block %d is not maximal (%d available)" trial t avail;
  for _ = 1 to t do
    Cview.undo v
  done;
  Array.iteri
    (fun l q0 -> Alcotest.check check_q "undo restores loads" q0 (Cview.load v l))
    loads0;
  t

(* [n] users spread over [m] links in O(m), unevenly. *)
let random_split rng n m =
  let row = Array.make m 0 and left = ref n in
  for l = 0 to m - 2 do
    let e = Prng.Rng.int rng (!left + 1) in
    row.(l) <- e;
    left := !left - e
  done;
  row.(m - 1) <- !left;
  row

let test_max_improving_block () =
  let rng = Prng.Rng.create 0xB10C in
  for trial = 1 to 2_000 do
    let n = Prng.Rng.int_in rng 2 9 and m = Prng.Rng.int_in rng 2 3 in
    let g = random_game rng ~kind:trial ~n ~m in
    let cg, class_of = Cgame.compress g in
    let p = Array.init n (fun _ -> Prng.Rng.int rng m) in
    let x = Cgame.compress_profile cg ~class_of p in
    let v = Cview.of_profile cg x in
    let cls = Prng.Rng.int rng (Cgame.classes cg) in
    let src = Prng.Rng.int rng m in
    let dst = (src + 1 + Prng.Rng.int rng (m - 1)) mod m in
    ignore (check_block trial v ~cls ~src ~dst)
  done;
  (* Class counts up to 10^4, where the closed form rather than the
     clamp to the available users decides the block.  Odd trials run
     the packed lane; even trials take capacities whose numerator and
     denominator are primes near 2^31, which fail the [Packing] bound
     and keep the game on the exact lane. *)
  let p31 = [| 2147483647; 2147483629; 2147483587 |] in
  let interior = ref 0 in
  for trial = 1 to 400 do
    let exact = trial mod 2 = 0 in
    let k = Prng.Rng.int_in rng 1 3 and m = Prng.Rng.int_in rng 2 4 in
    let counts = Array.init k (fun _ -> Prng.Rng.int_in rng 1 10_000) in
    let weights = Array.init k (fun _ -> Rational.of_int (Prng.Rng.int_in rng 1 3)) in
    let cap () =
      if exact then begin
        let i = Prng.Rng.int rng 3 in
        Rational.mul
          (Rational.of_ints p31.(i) p31.((i + 1) mod 3))
          (Rational.of_int (Prng.Rng.int_in rng 1 4))
      end
      else Rational.of_ints (Prng.Rng.int_in rng 1 9) (Prng.Rng.int_in rng 1 3)
    in
    let caps = Array.init k (fun _ -> Array.init m (fun _ -> cap ())) in
    let cg = Cgame.of_capacities ~counts ~weights caps in
    let v = Cview.of_profile cg (Array.map (fun n -> random_split rng n m) counts) in
    if Cview.packed v = exact then Alcotest.failf "large trial %d: unexpected lane" trial;
    let cls = Prng.Rng.int rng k in
    (* Half the trials move out of the class's most crowded link, where
       large improving blocks live. *)
    let src =
      if Prng.Rng.bool rng then Prng.Rng.int rng m
      else begin
        let best = ref 0 in
        for l = 1 to m - 1 do
          if Cview.assigned v cls l > Cview.assigned v cls !best then best := l
        done;
        !best
      end
    in
    let dst = (src + 1 + Prng.Rng.int rng (m - 1)) mod m in
    let t = check_block trial v ~cls ~src ~dst in
    if t > 0 && t < Cview.assigned v cls src then incr interior
  done;
  if !interior < 100 then
    Alcotest.failf "only %d of 400 large blocks fell strictly inside (0, available)" !interior

(* ------------------------------------------------------------------ *)
(* Mixed layer: Cmixed.Eval vs Mixed.Eval                              *)

let test_mixed_differential () =
  let rng = Prng.Rng.create 0x3ED1 in
  for trial = 1 to 2_000 do
    let n = 1 + Prng.Rng.int rng 6 and m = Prng.Rng.int_in rng 2 3 in
    let g = random_game rng ~kind:trial ~n ~m in
    let cg, _ = Cgame.compress g in
    let k = Cgame.classes cg in
    let q =
      Array.init k (fun _ ->
          if Prng.Rng.bool rng then Prng.Rng.positive_simplex rng ~dim:m ~grain:(m + 2)
          else Prng.Rng.simplex rng ~dim:m ~grain:(m + 1))
    in
    let ce = Cmixed.Eval.make cg q in
    let ex = Cgame.expand cg in
    let e = Mixed.Eval.make ex (Cmixed.expand cg q) in
    let off = offsets cg in
    for l = 0 to m - 1 do
      Alcotest.check check_q "expected traffic" (Mixed.Eval.expected_traffic e l)
        (Cmixed.Eval.expected_traffic ce l)
    done;
    for c = 0 to k - 1 do
      let u = off.(c) in
      for l = 0 to m - 1 do
        Alcotest.check check_q "latency on link" (Mixed.Eval.latency_on_link e u l)
          (Cmixed.Eval.latency_on_link ce c l)
      done;
      Alcotest.check check_q "min latency" (Mixed.Eval.min_latency e u)
        (Cmixed.Eval.min_latency ce c)
    done;
    Alcotest.check check_q "SC1" (Mixed.Eval.social_cost1 e) (Cmixed.Eval.social_cost1 ce);
    Alcotest.check check_q "SC2" (Mixed.Eval.social_cost2 e) (Cmixed.Eval.social_cost2 ce);
    if Mixed.Eval.is_nash e <> Cmixed.Eval.is_nash ce then
      Alcotest.failf "trial %d: mixed is_nash disagrees" trial
  done

(* ------------------------------------------------------------------ *)
(* FMNE closed forms: Cfully_mixed vs Fully_mixed                      *)

let test_fmne_differential () =
  let rng = Prng.Rng.create 0xF43E in
  let existed = ref 0 in
  for trial = 1 to 1_500 do
    let n = Prng.Rng.int_in rng 2 7 and m = Prng.Rng.int_in rng 2 3 in
    let g = random_game rng ~kind:trial ~n ~m in
    let cg, _ = Cgame.compress g in
    let ex = Cgame.expand cg in
    let off = offsets cg in
    let class_cand = Algo.Cfully_mixed.candidate cg in
    let user_cand = Algo.Fully_mixed.candidate ex in
    for c = 0 to Cgame.classes cg - 1 do
      Alcotest.check check_q "equilibrium latency"
        (Algo.Fully_mixed.equilibrium_latency ex off.(c))
        (Algo.Cfully_mixed.equilibrium_latency cg c);
      for l = 0 to m - 1 do
        Alcotest.check check_q "candidate row" user_cand.(off.(c)).(l) class_cand.(c).(l)
      done
    done;
    for l = 0 to m - 1 do
      Alcotest.check check_q "FMNE expected traffic"
        (Algo.Fully_mixed.expected_traffic ex l)
        (Algo.Cfully_mixed.expected_traffic cg l)
    done;
    let class_some = Algo.Cfully_mixed.exists cg in
    if class_some <> Algo.Fully_mixed.exists ex then
      Alcotest.failf "trial %d: FMNE existence disagrees" trial;
    (match Algo.Cfully_mixed.compute cg with
    | None -> ()
    | Some p ->
      incr existed;
      if not (Cmixed.is_nash cg p) then
        Alcotest.failf "trial %d: class FMNE fails the class Nash predicate" trial)
  done;
  if !existed = 0 then Alcotest.fail "no FMNE instance was ever exercised"

(* ------------------------------------------------------------------ *)
(* LPT: Cuniform_beliefs vs Uniform_beliefs                            *)

let test_uniform_differential () =
  let rng = Prng.Rng.create 0x14B7 in
  for trial = 1 to 2_000 do
    let n = 1 + Prng.Rng.int rng 8 and m = Prng.Rng.int_in rng 2 4 in
    (* Uniform beliefs: each user sees all links with one capacity
       value; pools keep classes fat. *)
    let g =
      Game.of_capacities
        ~weights:(Array.init n (fun _ -> Rational.of_int (1 + Prng.Rng.int rng 3)))
        (Array.init n (fun _ ->
             let c = Rational.of_int (1 + Prng.Rng.int rng 3) in
             Array.make m c))
    in
    let cg, _ = Cgame.compress g in
    let ex = Cgame.expand cg in
    let off = offsets cg in
    let initial =
      if Prng.Rng.bool rng then None
      else Some (Array.init m (fun _ -> Rational.of_ints (Prng.Rng.int rng 5) 2))
    in
    let x = Algo.Cuniform_beliefs.solve ?initial cg in
    let sigma = Algo.Uniform_beliefs.solve ?initial ex in
    (* Fold the expanded schedule back into class counts. *)
    for c = 0 to Cgame.classes cg - 1 do
      let counts = Array.make m 0 in
      for u = off.(c) to off.(c) + Cgame.count cg c - 1 do
        counts.(sigma.(u)) <- counts.(sigma.(u)) + 1
      done;
      if counts <> x.(c) then
        Alcotest.failf "trial %d: LPT class %d schedules disagree" trial c
    done;
    (* LPT on uniform beliefs is a Nash equilibrium (Theorem 3.6). *)
    let v = Cview.of_profile cg ?initial x in
    if not (Cview.is_nash v) then Alcotest.failf "trial %d: class LPT is not Nash" trial
  done

(* ------------------------------------------------------------------ *)
(* Block best-response dynamics                                        *)

let test_cbr_convergence () =
  let rng = Prng.Rng.create 0xCB12 in
  let converged = ref 0 in
  for trial = 1 to 1_500 do
    let n = 1 + Prng.Rng.int rng 8 and m = Prng.Rng.int_in rng 2 3 in
    let g = random_game rng ~kind:trial ~n ~m in
    let cg, class_of = Cgame.compress g in
    let p = Array.init n (fun _ -> Prng.Rng.int rng m) in
    let x = Cgame.compress_profile cg ~class_of p in
    let o = Algo.Cbr.converge ~max_steps:10_000 cg x in
    if o.converged then begin
      incr converged;
      let v = Cview.of_profile cg o.profile in
      if not (Cview.is_nash v) then
        Alcotest.failf "trial %d: converged to a non-equilibrium" trial;
      let ex = Cgame.expand cg in
      if not (Pure.is_nash ex (Cgame.expand_profile cg o.profile)) then
        Alcotest.failf "trial %d: class equilibrium is not a per-user equilibrium" trial;
      if o.users_moved < o.steps then
        Alcotest.failf "trial %d: %d steps moved only %d users" trial o.steps o.users_moved
    end
  done;
  if !converged < 1_000 then
    Alcotest.failf "block dynamics converged on only %d of 1500 instances" !converged

(* The proportional start is a valid profile and Csymmetric solves
   equal-weight instances end to end. *)
(* The start profile as [Cbr.proportional_start] first computed it, in
   rationals: floor(count·S_l/S) with S_l the capacity prefix sum. *)
let rational_start g =
  Array.init (Cgame.classes g) (fun c ->
      let row = Cgame.capacity_row g c in
      let total = Rational.sum (Array.to_list row) in
      let count = Rational.of_int (Cgame.count g c) in
      let cum = ref Rational.zero and prev = ref 0 in
      Array.map
        (fun cap ->
          cum := Rational.add !cum cap;
          let upto =
            Bigint.to_int_exn
              (Rational.num (Rational.floor (Rational.div (Rational.mul count !cum) total)))
          in
          let here = upto - !prev in
          prev := upto;
          here)
        row)

(* The integer start against the rational formula: integer and
   fractional capacities, denominators of several limbs (products of
   primes near 2^61, 10^40 + 1), counts up to 10^6, and the compressed
   per-user game kinds. *)
let test_proportional_start () =
  let rng = Prng.Rng.create 0x57A7 in
  let big =
    [|
      Bigint.of_string "2305843009213693951";
      Bigint.mul (Bigint.of_string "2305843009213693951") (Bigint.of_string "2305843009213693921");
      Bigint.of_string "10000000000000000000000000000000000000001";
    |]
  in
  let kinds = Array.make 3 0 in
  for trial = 1 to 2_000 do
    let cg =
      if trial mod 4 = 0 then
        fst (Cgame.compress (random_game rng ~kind:trial ~n:(Prng.Rng.int_in rng 2 8) ~m:3))
      else begin
        let k = Prng.Rng.int_in rng 1 4 and m = Prng.Rng.int_in rng 2 6 in
        let kind = trial mod 3 in
        kinds.(kind) <- kinds.(kind) + 1;
        let cap () =
          let num = Bigint.of_int (Prng.Rng.int_in rng 1 1_000_000) in
          match kind with
          | 0 -> Rational.make num Bigint.one
          | 1 -> Rational.make num (Bigint.of_int (Prng.Rng.int_in rng 1 97))
          | _ ->
            Rational.make
              (Bigint.mul num big.(Prng.Rng.int rng 3))
              (Bigint.add big.(Prng.Rng.int rng 3) (Bigint.of_int (Prng.Rng.int rng 5)))
        in
        let counts = Array.init k (fun _ -> Prng.Rng.int_in rng 1 1_000_000) in
        Cgame.of_capacities ~counts ~weights:(Array.make k Rational.one)
          (Array.init k (fun _ -> Array.init m (fun _ -> cap ())))
      end
    in
    let got = Algo.Cbr.proportional_start cg in
    Cgame.validate cg got;
    if got <> rational_start cg then
      Alcotest.failf "trial %d: proportional_start differs from the rational formula" trial
  done;
  if Array.exists (fun n -> n < 400) kinds then Alcotest.fail "capacity kinds too rare"

let test_csymmetric () =
  let rng = Prng.Rng.create 0x5E77 in
  for trial = 1 to 500 do
    let n = Prng.Rng.int_in rng 2 9 and m = Prng.Rng.int_in rng 2 3 in
    (* Equal weights; capacity rows proportional to a common base so a
       weighted potential exists and convergence is guaranteed. *)
    let base = Array.init m (fun _ -> Rational.of_int (1 + Prng.Rng.int rng 4)) in
    let g =
      Game.of_capacities
        ~weights:(Array.make n Rational.one)
        (Array.init n (fun _ ->
             let alpha = Rational.of_int (1 + Prng.Rng.int rng 3) in
             Array.map (Rational.mul alpha) base))
    in
    let cg, _ = Cgame.compress g in
    let start = Algo.Cbr.proportional_start cg in
    Cgame.validate cg start;
    let x = Algo.Csymmetric.solve cg in
    let v = Cview.of_profile cg x in
    if not (Cview.is_nash v) then Alcotest.failf "trial %d: Csymmetric output is not Nash" trial
  done

(* ------------------------------------------------------------------ *)
(* Factored SC1: overflow fallback, bias term, allocation              *)

(* SC1/SC2 of a class view against the per-user engine on the expanded
   game: an independent per-user sum of canonical latencies. *)
let check_social trial cg x =
  let v = Cview.of_profile cg x in
  let ex = Cgame.expand cg and ex_p = Cgame.expand_profile cg x in
  Alcotest.check check_q (Printf.sprintf "trial %d SC1" trial) (Pure.social_cost1 ex ex_p)
    (Cview.social_cost1 v);
  Alcotest.check check_q (Printf.sprintf "trial %d SC2" trial) (Pure.social_cost2 ex ex_p)
    (Cview.social_cost2 v);
  v

(* The three largest primes below 2^31 and the two largest below 2^30.
   Any three of the former as occupied capacity numerators have an lcm
   above max_int, so the packed factored sum must take its per-term
   fallback; the latter two have an lcm near 2^60 that still fits, so
   the factored path itself runs at the edge of the native range. *)
let primes31 = [| 2147483647; 2147483629; 2147483587 |]
let primes30 = [| 1073741789; 1073741783 |]

(* A weight denominator far beyond the native range keeps [Packing]
   from building tables, so the same game runs on the exact lane's
   per-term sum. *)
let huge_den = Rational.make Bigint.one (Bigint.of_string "100000000000000000000")

let random_profile rng counts m =
  Array.map
    (fun n ->
      let row = Array.make m 0 in
      for _ = 1 to n do
        let l = Prng.Rng.int rng m in
        row.(l) <- row.(l) + 1
      done;
      row)
    counts

let test_social_cost_fallback () =
  let rng = Prng.Rng.create 0x5C1F in
  for trial = 1 to 400 do
    let k = 3 + Prng.Rng.int rng 2 and m = Prng.Rng.int_in rng 2 3 in
    let pool = if trial mod 3 = 0 then primes30 else primes31 in
    let counts = Array.init k (fun _ -> 1 + Prng.Rng.int rng 3) in
    let exact = trial mod 2 = 0 in
    let weights =
      Array.init k (fun _ ->
          let w = Rational.of_int (1 + Prng.Rng.int rng 3) in
          if exact then Rational.mul w huge_den else w)
    in
    let caps =
      Array.init k (fun c ->
          Array.init m (fun l ->
              Rational.of_ints pool.((c + l) mod Array.length pool) (1 + Prng.Rng.int rng 3)))
    in
    let cg = Cgame.of_capacities ~counts ~weights caps in
    let v = check_social trial cg (random_profile rng counts m) in
    if Cview.packed v = exact then Alcotest.failf "trial %d: unexpected lane" trial
  done;
  (* Every class on every link: all three primes are occupied, so the
     packed native lcm overflows; the exact lane checks the same game. *)
  List.iter
    (fun w ->
      let counts = [| 2; 2; 2 |] in
      let caps = Array.init 3 (fun c -> Array.init 2 (fun l -> Rational.of_int primes31.((c + l) mod 3))) in
      let cg = Cgame.of_capacities ~counts ~weights:(Array.make 3 w) caps in
      ignore (check_social 0 cg [| [| 1; 1 |]; [| 1; 1 |]; [| 1; 1 |] |]))
    [ Rational.one; huge_den ]

(* Bernoulli participation: every class carries a non-zero bias
   β = (1 − p)·w, which keeps the game off the packed lane and adds to
   every latency SC1 sums. *)
let test_social_cost_bias () =
  let rng = Prng.Rng.create 0xB1A5 in
  for trial = 1 to 2_000 do
    let k = 1 + Prng.Rng.int rng 4 and m = Prng.Rng.int_in rng 2 4 in
    let counts = Array.init k (fun _ -> 1 + Prng.Rng.int rng 3) in
    let weights =
      Array.init k (fun _ -> Rational.of_ints (1 + Prng.Rng.int rng 6) (1 + Prng.Rng.int rng 3))
    in
    let cap () =
      if trial mod 5 = 0 then Rational.of_ints primes31.(Prng.Rng.int rng 3) (1 + Prng.Rng.int rng 2)
      else Rational.of_ints (1 + Prng.Rng.int rng 8) (1 + Prng.Rng.int rng 3)
    in
    let uncertainty =
      Array.init k (fun _ ->
          let p = Rational.of_ints (1 + Prng.Rng.int rng 3) 4 in
          Uncertainty.participation ~presence:p (Belief.certain (State.make (Array.init m (fun _ -> cap ())))))
    in
    let cg = Cgame.make_uncertain ~counts ~weights ~uncertainty in
    let v = check_social trial cg (random_profile rng counts m) in
    if Cview.packed v then Alcotest.failf "trial %d: participation game packed" trial
  done

(* The report state under random cursor chains.  A test-local per-term
   SC1 and the sum of the class counts are the oracles for
   [social_cost1] and [users] after every step of a chain of moves,
   count/weight/capacity revisions and undos, then after each undo back
   to the start.  Capacities draw numerators from a pool whose entries
   rarely divide one another, so revisions often bring a numerator that
   does not divide the occupied ones' lcm (counted as [grown]);
   weights with denominator 3 spill the packed lane and undos restore
   it; near-2^31 primes leave three distinct numerators occupied, whose
   lcm no native int holds, so the per-term sum answers. *)
let per_term_sc1 v =
  let acc = ref Rational.zero in
  for c = 0 to Cview.classes v - 1 do
    for l = 0 to Cview.links v - 1 do
      let e = Cview.assigned v c l in
      if e > 0 then acc := Rational.add !acc (Rational.mul (Rational.of_int e) (Cview.latency v c l))
    done
  done;
  !acc

let sum_counts v =
  let t = ref 0 in
  for c = 0 to Cview.classes v - 1 do
    t := !t + Cview.class_count v c
  done;
  !t

(* Distinct near-2^31 prime numerators among the occupied pairs. *)
let occupied_primes31 v =
  let seen = Array.make (Array.length primes31) false in
  for c = 0 to Cview.classes v - 1 do
    for l = 0 to Cview.links v - 1 do
      if Cview.assigned v c l > 0 then
        Array.iteri
          (fun i p ->
            if Bigint.equal (Rational.num (Cview.capacity v c l)) (Bigint.of_int p) then
              seen.(i) <- true)
          primes31
    done
  done;
  Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 seen

let lcm_occupied v =
  let d = ref Bigint.one in
  for c = 0 to Cview.classes v - 1 do
    for l = 0 to Cview.links v - 1 do
      if Cview.assigned v c l > 0 then begin
        let a = Rational.num (Cview.capacity v c l) in
        d := Bigint.div (Bigint.mul !d a) (Bigint.gcd !d a)
      end
    done
  done;
  !d

let cap_numerators = [| 1; 2; 3; 5; 7; 9; 11; 13; 16; 25 |]

let test_report_state_chains () =
  let rng = Prng.Rng.create 0x5C15 in
  let packed_steps = ref 0 and exact_steps = ref 0 and grown = ref 0 in
  let restored = ref 0 and fallback_steps = ref 0 in
  for trial = 1 to 800 do
    let k = Prng.Rng.int_in rng 1 4 and m = Prng.Rng.int_in rng 2 4 in
    let counts = Array.init k (fun _ -> Prng.Rng.int_in rng 1 6) in
    let exact = trial mod 6 = 0 and primes = trial mod 4 = 1 in
    let weights =
      Array.init k (fun _ ->
          let w = Rational.of_int (Prng.Rng.int_in rng 1 3) in
          if exact then Rational.mul w huge_den else w)
    in
    let cap () =
      if primes && Prng.Rng.int rng 2 = 0 then
        Rational.of_ints primes31.(Prng.Rng.int rng 3) (Prng.Rng.int_in rng 1 3)
      else
        Rational.of_ints
          cap_numerators.(Prng.Rng.int rng (Array.length cap_numerators))
          (Prng.Rng.int_in rng 1 3)
    in
    let cg = Cgame.of_capacities ~counts ~weights (Array.init k (fun _ -> Array.init m (fun _ -> cap ()))) in
    let v = Cview.of_profile cg (random_profile rng counts m) in
    let check what =
      Alcotest.check check_q (Printf.sprintf "trial %d %s: SC1" trial what) (per_term_sc1 v)
        (Cview.social_cost1 v);
      Alcotest.(check int) (Printf.sprintf "trial %d %s: users" trial what) (sum_counts v) (Cview.users v);
      if Cview.packed v then incr packed_steps else incr exact_steps;
      if Cview.packed v && occupied_primes31 v = 3 then incr fallback_steps
    in
    check "start";
    for step = 1 to 30 do
      let cls = Prng.Rng.int rng k in
      (match Prng.Rng.int rng 7 with
       | 0 | 1 ->
         let src = Prng.Rng.int rng m and dst = Prng.Rng.int rng m in
         let count = Prng.Rng.int_in rng 0 (Cview.assigned v cls src) in
         Cview.move v ~cls ~src ~dst ~count
       | 2 ->
         let link = Prng.Rng.int rng m in
         let avail = min (Cview.assigned v cls link) (Cview.class_count v cls - 1) in
         let delta = if avail > 0 && Prng.Rng.int rng 2 = 0 then -Prng.Rng.int_in rng 1 avail else Prng.Rng.int_in rng 1 4 in
         Cview.revise_count v ~cls ~link ~delta
       | 3 ->
         let den = if Prng.Rng.int rng 4 = 0 then 3 else 1 in
         Cview.revise_weight v ~cls (Rational.of_ints (Prng.Rng.int_in rng 1 5) den)
       | 4 | 5 ->
         let link = Prng.Rng.int rng m in
         let before = lcm_occupied v and c' = cap () in
         Cview.revise_capacity v ~cls ~link c';
         if Cview.packed v && Cview.assigned v cls link > 0
            && not (Bigint.is_zero (snd (Bigint.divmod before (Rational.num c'))))
         then incr grown
       | _ ->
         if Cview.depth v > 0 then begin
           let was = Cview.packed v in
           Cview.undo v;
           if Cview.packed v && not was then incr restored
         end);
      check (Printf.sprintf "step %d" step)
    done;
    while Cview.depth v > 0 do
      let was = Cview.packed v in
      Cview.undo v;
      if Cview.packed v && not was then incr restored;
      check "undo"
    done
  done;
  if !packed_steps < 12_000 || !exact_steps < 8_000 || !grown < 600 || !restored < 200
     || !fallback_steps < 800
  then
    Alcotest.failf "coverage too thin: %d packed, %d exact steps, %d grown, %d restored, %d fallback"
      !packed_steps !exact_steps !grown !restored !fallback_steps

(* The serve report's shape: k = 96 classes over m = 8 links, every
   pair occupied, on the packed lane.  The factored SC1 reads the
   packed int tables and builds one rational, so a call allocates a
   small constant number of words. *)
let test_social_cost1_allocation () =
  let rng = Prng.Rng.create 0xA110C in
  let k = 96 and m = 8 in
  let counts = Array.init k (fun _ -> 800 + Prng.Rng.int rng 400) in
  let weights = Array.init k (fun _ -> Rational.of_int (1 + Prng.Rng.int rng 4)) in
  let caps =
    Array.init k (fun _ ->
        Array.init m (fun _ -> Rational.of_ints (1 + Prng.Rng.int rng 12) (1 + Prng.Rng.int rng 3)))
  in
  let cg = Cgame.of_capacities ~counts ~weights caps in
  let x =
    Array.map
      (fun n ->
        let row = Array.make m (n / m) in
        row.(0) <- row.(0) + (n mod m);
        row)
      counts
  in
  let v = Cview.of_profile cg x in
  Alcotest.(check bool) "view is packed" true (Cview.packed v);
  let oracle = ref Rational.zero in
  for c = 0 to k - 1 do
    for l = 0 to m - 1 do
      oracle :=
        Rational.add !oracle (Rational.mul (Rational.of_int x.(c).(l)) (Cview.latency v c l))
    done
  done;
  Alcotest.check check_q "SC1 vs per-term sum" !oracle (Cview.social_cost1 v);
  let w0 = Gc.minor_words () in
  let sc = Sys.opaque_identity (Cview.social_cost1 v) in
  let words = Gc.minor_words () -. w0 in
  Alcotest.check check_q "repeat call" !oracle sc;
  if words >= 256. then Alcotest.failf "packed social_cost1 allocated %.0f minor words" words

(* Minor words per call of [f] over [calls] calls, net of the empty
   loop's own count. *)
let words_per_call ~calls f =
  let run g =
    let w0 = Gc.minor_words () in
    for _ = 1 to calls do
      g ()
    done;
    Gc.minor_words () -. w0
  in
  let idle = run ignore in
  (run f -. idle) /. float_of_int calls

(* The serving shape (k = 96, m = 8, packed): the Nash scans, the
   per-pair predicates and the block size allocate nothing per call,
   both at an equilibrium and away from one.  Only [first_candidate]'s
   [Some] result allocates, so it is pinned where it returns [None].
   The per-batch report and a whole repaired batch are pinned at their
   measured counts.
   Native code only: bytecode boxes what native code keeps in
   registers. *)
let test_packed_zero_allocation () =
  match Sys.backend_type with
  | Sys.Bytecode | Sys.Other _ -> ()
  | Sys.Native ->
    let rng = Prng.Rng.create 0x2E40 in
    let k = 96 and m = 8 in
    let counts = Array.init k (fun _ -> 800 + Prng.Rng.int rng 400) in
    let weights = Array.init k (fun _ -> Rational.of_int (1 + Prng.Rng.int rng 4)) in
    let caps =
      Array.init k (fun _ ->
          Array.init m (fun _ ->
              Rational.of_ints (1 + Prng.Rng.int rng 12) (1 + Prng.Rng.int rng 3)))
    in
    let cg = Cgame.of_capacities ~counts ~weights caps in
    let start = Algo.Cbr.proportional_start cg in
    let o = Algo.Cbr.converge cg start in
    Alcotest.(check bool) "seed converged" true o.Algo.Cbr.converged;
    let nash = Cview.of_profile cg o.Algo.Cbr.profile and away = Cview.of_profile cg start in
    Alcotest.(check bool) "views are packed" true (Cview.packed nash && Cview.packed away);
    Alcotest.(check bool) "equilibrium view" true (Cview.is_nash nash);
    Alcotest.(check bool) "start view is not an equilibrium" false (Cview.is_nash away);
    let touched = Array.init m (fun l -> l mod 3 = 0) in
    let dirty = Array.init k (fun c -> c mod 5 = 0) in
    let pin name f =
      let words = words_per_call ~calls:200 f in
      if words >= 1. then Alcotest.failf "%s allocated %.2f minor words per call" name words
    in
    let pairs v f () =
      for c = 0 to k - 1 do
        for src = 0 to m - 1 do
          if Cview.assigned v c src > 0 then f c src
        done
      done
    in
    List.iter
      (fun v ->
        pin "first_code" (fun () ->
            ignore (Sys.opaque_identity (Cview.first_code v ~touched ~dirty ~lo:0 ~hi:k)));
        pin "is_nash" (fun () -> ignore (Sys.opaque_identity (Cview.is_nash v)));
        pin "is_defector"
          (pairs v (fun cls src -> ignore (Sys.opaque_identity (Cview.is_defector v ~cls ~src))));
        pin "improves"
          (pairs v (fun cls src ->
               for dst = 0 to m - 1 do
                 ignore (Sys.opaque_identity (Cview.improves v ~cls ~src dst))
               done));
        pin "max_improving_block"
          (pairs v (fun cls src ->
               for dst = 0 to m - 1 do
                 if dst <> src then
                   ignore (Sys.opaque_identity (Cview.max_improving_block v ~cls ~src ~dst))
               done)))
      [ nash; away ];
    (* The per-batch report: once the first call has built the report
       state, SC1 is m products and one rational, so its words do not
       grow with k (measured: 89 words per call at both k = 96 and
       k = 12). *)
    let sc1_words v =
      ignore (Cview.social_cost1 v);
      words_per_call ~calls:200 (fun () -> ignore (Sys.opaque_identity (Cview.social_cost1 v)))
    in
    let few = 12 in
    let cg12 =
      Cgame.of_capacities ~counts:(Array.sub counts 0 few) ~weights:(Array.sub weights 0 few)
        (Array.sub caps 0 few)
    in
    let v12 = Cview.of_profile cg12 (Algo.Cbr.converge cg12 (Algo.Cbr.proportional_start cg12)).Algo.Cbr.profile in
    List.iter
      (fun (k, v) ->
        let words = sc1_words v in
        if words >= 96. then Alcotest.failf "packed social_cost1 allocated %.2f words per call at k = %d" words k)
      [ (k, nash); (few, v12) ];
    (* One serving batch of each mutation kind (an arrival, a departure,
       a reweight and a whole-row capacity rescale), repaired on a live
       packed view and rolled back between runs: 597 words per batch
       measured, from the revisions' undo records and rationals, the
       decoded move targets and the seed sets. *)
    let live = Cview.of_profile cg o.Algo.Cbr.profile in
    ignore (Cview.social_cost1 live);
    let busiest cls =
      let best = ref 0 in
      for l = 1 to m - 1 do
        if Cview.assigned live cls l > Cview.assigned live cls !best then best := l
      done;
      !best
    in
    let batch =
      Serve.Mutation.
        [
          Arrive { cls = 3; link = 2; count = 5 };
          Depart { cls = 7; link = busiest 7; count = 4 };
          Reweight { cls = 11; weight = Rational.of_int 3 };
        ]
      @ List.init m (fun link ->
            Serve.Mutation.Revise_capacity
              { cls = 5; link; cap = Rational.mul (Rational.of_ints 9 8) (Cview.capacity live 5 link) })
    in
    let d0 = Cview.depth live and total = ref 0. and runs = 50 in
    for _ = 1 to runs do
      let w0 = Gc.minor_words () in
      let r = Serve.Repair.repair_batch live batch in
      total := !total +. (Gc.minor_words () -. w0);
      if r.Serve.Repair.fallback || not (Cview.packed live) then Alcotest.fail "batch left the packed repair path";
      while Cview.depth live > d0 do
        Cview.undo live
      done
    done;
    let words = !total /. float_of_int runs in
    if words >= 700. then Alcotest.failf "repair_batch allocated %.2f words per batch" words

(* Per-pair oracles from the public [best_response_for] and [latency]:
   a pair defects iff its best response is strictly cheaper than
   staying. *)
let oracle_defects v cls src =
  Rational.compare (snd (Cview.best_response_for v ~cls ~src)) (Cview.latency v cls src) < 0

let oracle_first_defector v =
  let k = Cview.classes v and m = Cview.links v in
  let found = ref None in
  for c = k - 1 downto 0 do
    for l = m - 1 downto 0 do
      if Cview.assigned v c l > 0 && oracle_defects v c l then
        found := Some (c, l, fst (Cview.best_response_for v ~cls:c ~src:l))
    done
  done;
  !found

(* Random class views, mostly off equilibrium, on both lanes: small
   integer capacities and weights make cost ties common, and a huge
   weight denominator keeps every fifth game on the exact lane. *)
let test_scan_oracles () =
  let rng = Prng.Rng.create 0x5CA7 in
  let lanes = [| 0; 0 |] in
  for trial = 1 to 3_000 do
    let k = Prng.Rng.int_in rng 1 6 and m = Prng.Rng.int_in rng 2 5 in
    let counts = Array.init k (fun _ -> Prng.Rng.int_in rng 1 12) in
    let weights =
      Array.init k (fun _ ->
          let w = Rational.of_int (Prng.Rng.int_in rng 1 2) in
          if trial mod 5 = 0 then Rational.mul w huge_den else w)
    in
    let caps =
      Array.init k (fun _ -> Array.init m (fun _ -> Rational.of_int (Prng.Rng.int_in rng 1 3)))
    in
    let cg = Cgame.of_capacities ~counts ~weights caps in
    let x =
      if trial mod 7 = 0 then
        (Algo.Cbr.converge cg (Algo.Cbr.proportional_start cg)).Algo.Cbr.profile
      else random_profile rng counts m
    in
    let v = Cview.of_profile cg x in
    let lane = if Cview.packed v then 0 else 1 in
    lanes.(lane) <- lanes.(lane) + 1;
    for c = 0 to k - 1 do
      for l = 0 to m - 1 do
        if Cview.assigned v c l > 0 && Cview.is_defector v ~cls:c ~src:l <> oracle_defects v c l
        then Alcotest.failf "trial %d: is_defector (%d, %d) disagrees with the oracle" trial c l
      done
    done;
    let first = Cview.first_defector v in
    if first <> oracle_first_defector v then
      Alcotest.failf "trial %d: first_defector disagrees with the per-pair oracle" trial;
    if Cview.is_nash v <> Option.is_none first then
      Alcotest.failf "trial %d: is_nash disagrees with the per-pair oracle" trial
  done;
  if lanes.(0) < 1_000 || lanes.(1) < 300 then
    Alcotest.failf "lane coverage too thin: %d packed, %d exact" lanes.(0) lanes.(1)

let test_ownership_guard () =
  (* Cview mutators carry the same SELFISH_OWNERSHIP guard as View;
     forge the owner to pin the Cview-specific failure message. *)
  let module O = Parallel.Ownership in
  let saved = !O.enabled in
  O.enabled := true;
  Fun.protect
    ~finally:(fun () -> O.enabled := saved)
    (fun () ->
      let g =
        Game.kp
          ~weights:[| Rational.one; Rational.one; Rational.of_int 2 |]
          ~capacities:[| Rational.one; Rational.of_int 2 |]
      in
      let cg, _ = Cgame.compress g in
      let v = Cview.of_profile cg (Algo.Cbr.proportional_start cg) in
      Alcotest.(check int) "owner is the creating domain" (O.self_id ()) (Cview.owner v);
      (* Same-domain recorded no-op move passes. *)
      Cview.move v ~cls:0 ~src:0 ~dst:0 ~count:0;
      let expected =
        O.Violation
          (Printf.sprintf
             "SELFISH_OWNERSHIP: Cview cursor created on domain 777 mutated from domain %d"
             (O.self_id ()))
      in
      Cview.unsafe_set_owner v 777;
      Alcotest.check_raises "foreign-domain move trips the guard" expected (fun () ->
          Cview.move v ~cls:0 ~src:0 ~dst:0 ~count:0);
      Alcotest.check_raises "foreign-domain undo trips the guard" expected (fun () ->
          Cview.undo v);
      (* The packed report state is cursor state too. *)
      Alcotest.(check bool) "view is packed" true (Cview.packed v);
      Alcotest.check_raises "foreign-domain packed social_cost1 trips the guard" expected
        (fun () -> ignore (Cview.social_cost1 v));
      Cview.unsafe_set_owner v (O.self_id ());
      Cview.undo v;
      Alcotest.(check int) "history balanced after guarded attempts" 0 (Cview.depth v))

let () =
  Alcotest.run "cgame"
    [
      ( "bridge+pure",
        [
          Alcotest.test_case "10k-game differential vs Pure/View" `Slow test_pure_differential;
          Alcotest.test_case "twelve-user games" `Quick test_twelve_users;
          Alcotest.test_case "maximal blocks vs single-move simulation" `Quick
            test_max_improving_block;
        ] );
      ( "mixed",
        [
          Alcotest.test_case "2k-game differential vs Mixed.Eval" `Slow test_mixed_differential;
          Alcotest.test_case "FMNE closed forms vs Fully_mixed" `Slow test_fmne_differential;
        ] );
      ( "algo",
        [
          Alcotest.test_case "LPT vs Uniform_beliefs" `Slow test_uniform_differential;
          Alcotest.test_case "block best-response convergence" `Slow test_cbr_convergence;
          Alcotest.test_case "Csymmetric end to end" `Quick test_csymmetric;
          Alcotest.test_case "proportional_start vs the rational formula" `Quick
            test_proportional_start;
        ] );
      ( "social cost",
        [
          Alcotest.test_case "overflow fallback vs Pure" `Quick test_social_cost_fallback;
          Alcotest.test_case "participation bias vs Pure" `Quick test_social_cost_bias;
          Alcotest.test_case "packed SC1 allocation pin" `Quick test_social_cost1_allocation;
          Alcotest.test_case "report state under cursor chains" `Quick test_report_state_chains;
        ] );
      ( "nash scan",
        [
          Alcotest.test_case "is_nash and first_defector vs per-pair oracles" `Quick
            test_scan_oracles;
          Alcotest.test_case "packed zero-allocation pin" `Quick test_packed_zero_allocation;
        ] );
      ( "ownership",
        [ Alcotest.test_case "sanitizer guards Cview mutators" `Quick test_ownership_guard ] );
    ]
