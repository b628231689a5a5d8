open Model
open Numeric

let require_two_users g =
  if Game.users g < 2 then
    invalid_arg "Fully_mixed: at least two users required (the closed form divides by n-1)"

let capacity_sum g i = Rational.sum (List.init (Game.links g) (Game.capacity g i))

(* λ_i of Lemma 4.1, given the total traffic T. *)
let latency_with g ~total i =
  let m = Game.links g in
  Rational.div
    (Rational.add (Rational.mul (Rational.of_int (m - 1)) (Game.weight g i)) total)
    (capacity_sum g i)

let equilibrium_latency g i =
  require_two_users g;
  latency_with g ~total:(Game.total_traffic g) i

(* Lemma 4.2 in the form the one-pass computation uses: the shares
   d^ℓ_i = c^ℓ_i/S_i meet (m-1)·w_i + T = λ_i·S_i, so
   (m-1)·Σ_i d^ℓ_i·w_i + T·Σ_i d^ℓ_i = Σ_i c^ℓ_i·λ_i and
   W^ℓ = (Σ_i c^ℓ_i·λ_i - T)/(n-1), the same exact value with no share
   formed.  [cl i] is c^ℓ_i·λ_i. *)
let traffic_of ~n ~total cl =
  Rational.div (Rational.sub (Rational.sum (List.init n cl)) total) (Rational.of_int (n - 1))

let expected_traffic g l =
  require_two_users g;
  let total = Game.total_traffic g in
  traffic_of ~n:(Game.users g) ~total (fun i ->
      Rational.mul (Game.capacity g i l) (latency_with g ~total i))

(* The rows shared by [candidate] and [compute]: S_i, λ_i, the
   products c^ℓ_i·λ_i and W^ℓ once per game, then
   p^ℓ_i = (W^ℓ + w_i - c^ℓ_i·λ_i)/w_i (equation 2) row by row.  [keep]
   sees each numerator with its w_i before the division; the first
   numerator it rejects abandons the matrix. *)
let rows g ~keep =
  require_two_users g;
  if not (Game.is_load_linear g) then
    invalid_arg "Fully_mixed.candidate: game must be load-linear (no Bernoulli participation)";
  let n = Game.users g and m = Game.links g in
  let total = Game.total_traffic g in
  let cl =
    Array.init n (fun i ->
        let lambda = latency_with g ~total i in
        Array.init m (fun l -> Rational.mul (Game.capacity g i l) lambda))
  in
  let w_link = Array.init m (fun l -> traffic_of ~n ~total (fun i -> cl.(i).(l))) in
  let exception Outside in
  try
    Some
      (Array.init n (fun i ->
           let w = Game.weight g i in
           Array.init m (fun l ->
               let num = Rational.sub (Rational.add w_link.(l) w) cl.(i).(l) in
               if keep num w then Rational.div num w else raise Outside)))
  with Outside -> None

let candidate g = Option.get (rows g ~keep:(fun _ _ -> true))

(* p = num/w with w > 0 lies in (0,1) iff 0 < num < w: decided before
   dividing, so a failing game stops at its first outside entry. *)
let compute g = rows g ~keep:(fun num w -> Rational.sign num > 0 && Rational.compare num w < 0)
let exists g = compute g <> None
