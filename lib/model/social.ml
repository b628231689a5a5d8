open Numeric

let iter_profiles g f =
  let n = Game.users g and m = Game.links g in
  let p = Array.make n 0 in
  (* Odometer enumeration of [m^n] profiles. *)
  let rec next i =
    if i < 0 then false
    else if p.(i) + 1 < m then begin
      p.(i) <- p.(i) + 1;
      true
    end
    else begin
      p.(i) <- 0;
      next (i - 1)
    end
  in
  let continue = ref true in
  while !continue do
    f p;
    continue := next (n - 1)
  done

let profile_count g =
  let n = Game.users g and m = Game.links g in
  let rec go acc i =
    if i = 0 then Some acc
    else if acc > max_int / m then None
    else go (acc * m) (i - 1)
  in
  go 1 n

let guard name limit g =
  match profile_count g with
  | Some c when c <= limit -> ()
  | _ ->
    invalid_arg
      (Printf.sprintf "Social.%s: %d^%d pure profiles exceed the limit %d" name (Game.links g)
         (Game.users g) limit)

(* Exhaustive optimisation walks the profiles in odometer order through
   an incremental [View.fold]: consecutive profiles differ by an
   amortised O(1) number of single-user moves, so the per-profile cost
   is the O(n) cost evaluation against O(1) loads — the seed path
   rebuilt every load with an O(n) scan, i.e. O(n²) per profile.
   With [~domains > 1] the odometer is sharded across domains; the
   first-wins argmin (strict improvement, earlier shard kept on ties)
   makes the parallel result bit-identical to the serial scan. *)
let optimum name cost ?(limit = 10_000_000) ?(domains = 1) g =
  guard name limit g;
  let better a b =
    match a, b with
    | None, x | x, None -> x
    | Some (va, _), Some (vb, _) -> if Rational.compare va vb <= 0 then a else b
  in
  let best =
    View.fold ~domains g ~init:None
      ~f:(fun acc v ->
        let c = cost v in
        match acc with
        | Some (b, _) when Rational.compare b c <= 0 -> acc
        | _ -> Some (c, View.profile v))
      ~combine:better
  in
  match best with
  | Some (v, p) -> (v, p)
  | None -> assert false (* the sweep visits at least one profile *)

let opt1 ?limit ?domains g = optimum "opt1" View.social_cost1 ?limit ?domains g
let opt2 ?limit ?domains g = optimum "opt2" View.social_cost2 ?limit ?domains g

let ratio1 ?limit g p =
  let opt, _ = opt1 ?limit g in
  Rational.div (Mixed.social_cost1 g p) opt

let ratio2 ?limit g p =
  let opt, _ = opt2 ?limit g in
  Rational.div (Mixed.social_cost2 g p) opt

(* Branch-and-bound over users in decreasing weight order (ties by
   index): heavy users first make early partial costs large, so pruning
   bites.  The bound argument: once user [i] is placed on link [ℓ], its
   latency (L_ℓ + β_i)/c^ℓ_i can only grow as later users join ℓ, so
   the partial cost (sum or max over placed users, at current loads)
   lower-bounds every completion.  A node is pruned when its bound is
   no better than the incumbent, which is replaced only on strict
   improvement: the argmin is the first strict minimum in depth-first
   order. *)
type objective = Sum | Max

let search_order g =
  let order = Array.init (Game.users g) Fun.id in
  Array.sort
    (fun a b ->
      let c = Rational.compare (Game.weight g b) (Game.weight g a) in
      if c <> 0 then c else Int.compare a b)
    order;
  order

(* The exact search, for every game.  Loads carry contributions and
   each placed user's own latency adds its bias, as in [View.latency];
   the partial cost is recomputed over the placed users at each node. *)
let exact_bb objective g =
  let n = Game.users g and m = Game.links g in
  let order = search_order g in
  let combine = match objective with Sum -> Rational.add | Max -> Rational.max in
  let loads = Array.make m Rational.zero in
  let assignment = Array.make n 0 in
  let partial placed =
    let acc = ref Rational.zero in
    for d = 0 to placed - 1 do
      let i = order.(d) in
      let l = assignment.(i) and b = Game.bias g i in
      let q = if Rational.is_zero b then loads.(l) else Rational.add loads.(l) b in
      acc := combine !acc (Rational.div q (Game.capacity g i l))
    done;
    !acc
  in
  let best_value = ref None and best_profile = ref [||] in
  let beats_best v =
    match !best_value with Some b -> Rational.compare v b < 0 | None -> true
  in
  let rec place depth =
    if depth = n then begin
      let v = partial depth in
      if beats_best v then begin
        best_value := Some v;
        best_profile := Array.copy assignment
      end
    end
    else begin
      let user = order.(depth) in
      let t = Game.contribution g user in
      for l = 0 to m - 1 do
        loads.(l) <- Rational.add loads.(l) t;
        assignment.(user) <- l;
        if beats_best (partial (depth + 1)) then place (depth + 1);
        loads.(l) <- Rational.sub loads.(l) t
      done
    end
  in
  place 0;
  match !best_value with
  | Some v -> (v, !best_profile)
  | None -> assert false

(* The exact search's twin on native ints, over the game's cost tables
   ([Game.cost_tables]: latency L_l·K_il/den at scaled load L_l, and no
   partial cost reaches max_int): the same order, the same pruning and
   incumbent rules over costs that compare exactly like the rationals,
   hence the same nodes, value and argmin.  [agg.(l)] is
   S_l = Σ K (SC_1) or max K (SC_2) over the users on l, which makes a
   node O(1): placing u on l adds pw_u·S_l + (L_l + pw_u)·K_ul to the
   partial SC_1, and the partial SC_2 is max_l L_l·Kmax_l, where only
   link l moved.  [max_int] stands for "no incumbent yet". *)
let native_bb objective g pw k =
  let n = Game.users g and m = Game.links g in
  let order = search_order g in
  let sum = match objective with Sum -> true | Max -> false in
  let loads = Array.make m 0 and agg = Array.make m 0 in
  let assignment = Array.make n 0 in
  let best = ref max_int and best_profile = ref [||] in
  let rec place depth partial =
    if depth = n then begin
      best := partial;
      best_profile := Array.copy assignment
    end
    else begin
      let u = order.(depth) in
      let w = pw.(u) and row = u * m in
      for l = 0 to m - 1 do
        let load = loads.(l) and a = agg.(l) and kul = k.(row + l) in
        let a' = if sum then a + kul else Int.max a kul in
        let bound =
          if sum then partial + (w * a) + ((load + w) * kul)
          else Int.max partial ((load + w) * a')
        in
        if bound < !best then begin
          assignment.(u) <- l;
          loads.(l) <- load + w;
          agg.(l) <- a';
          place (depth + 1) bound;
          loads.(l) <- load;
          agg.(l) <- a
        end
      done
    end
  in
  place 0 0;
  (!best, !best_profile)

let optimum_bb objective g =
  match (Game.packed_tables g, Game.cost_tables g) with
  | Some pk, Some c ->
    let v, p = native_bb objective g pk.Packing.pw c.Packing.k in
    (Rational.make (Bigint.of_int v) (Bigint.of_int c.Packing.den), p)
  | _ -> exact_bb objective g

let opt1_bb g = optimum_bb Sum g
let opt2_bb g = optimum_bb Max g
let opt1_bb_exact g = exact_bb Sum g
let opt2_bb_exact g = exact_bb Max g
