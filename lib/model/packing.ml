open Numeric

(* Native-int image of a game's numeric data, shared by the packed fast
   lanes of [View] and [Cview].  Loads are stored as integers scaled by
   [scale] (the lcm of the weight denominators) and capacities as
   reduced (numerator, denominator) int pairs, so every latency
   comparison becomes a three-factor native product.  [build] refuses
   (returns [None]) whenever any component spills the native range; the
   views then stay on the exact big-rational lane, so packing is a pure
   optimisation with no semantic surface. *)

type t = {
  scale : int; (* lcm of the weight denominators *)
  pw : int array; (* pw.(r) = weight_r · scale *)
  cn : int array; (* cn.(r*m + l) = num (capacity r l) > 0 *)
  cd : int array; (* cd.(r*m + l) = den (capacity r l) > 0 *)
  wsum : int; (* Σ mult_r · pw.(r): total scaled traffic *)
  maxcn : int;
  maxcd : int;
  base_ok : bool; (* the product bound holds with no initial traffic *)
}

exception Spill
exception Overflow

(* Overflow-checked arithmetic on positive native ints.  Two factors
   below 2^31 multiply within max_int without a division. *)
let mul_nn a b = if a lor b < 1 lsl 31 || b <= max_int / a then a * b else raise Overflow
let add_nn a b = if a <= max_int - b then a + b else raise Overflow

let to_native b =
  match Bigint.to_int_opt b with
  | Some v -> v
  | None -> raise Spill

(* Every packed predicate evaluates products of the shape
   (load + weight)·cden·cnum with load + weight ≤ 2·total, so the one
   bound that makes all of them (and every intermediate) exact is
   2·total·maxcd·maxcn ≤ max_int.  Checked in Bigint once per view
   construction — after which the hot path carries no overflow checks
   at all. *)
let admits ~total ~maxcn ~maxcd =
  total >= 0
  &&
  match
    Bigint.to_int_opt
      (Bigint.mul
         (Bigint.mul (Bigint.of_int 2) (Bigint.of_int total))
         (Bigint.mul (Bigint.of_int maxcd) (Bigint.of_int maxcn)))
  with
  | Some _ -> true
  | None -> false

(* [scale_lcm from dens] extends the Bigint scale [from] to a common
   multiple of every denominator in [dens]. *)
let scale_lcm from dens =
  Array.fold_left (fun acc d -> Bigint.mul acc (Bigint.div d (Bigint.gcd acc d))) from dens

let build ~mults (weights : Rational.t array) (capacities : Rational.t array array) =
  try
    let n = Array.length weights in
    let m = Array.length capacities.(0) in
    let scale_b = scale_lcm Bigint.one (Array.map Rational.den weights) in
    let scale = to_native scale_b in
    let pw =
      Array.map
        (fun w -> to_native (Bigint.mul (Rational.num w) (Bigint.div scale_b (Rational.den w))))
        weights
    in
    let wsum = ref Bigint.zero in
    Array.iteri
      (fun r p ->
        wsum := Bigint.add !wsum (Bigint.mul (Bigint.of_int mults.(r)) (Bigint.of_int p)))
      pw;
    let wsum = to_native !wsum in
    let cn = Array.make (n * m) 0 and cd = Array.make (n * m) 0 in
    let maxcn = ref 1 and maxcd = ref 1 in
    Array.iteri
      (fun r row ->
        Array.iteri
          (fun l c ->
            let a = to_native (Rational.num c) and b = to_native (Rational.den c) in
            if a <= 0 || b <= 0 then raise Spill;
            cn.((r * m) + l) <- a;
            cd.((r * m) + l) <- b;
            if a > !maxcn then maxcn := a;
            if b > !maxcd then maxcd := b)
          row)
      capacities;
    let maxcn = !maxcn and maxcd = !maxcd in
    Some { scale; pw; cn; cd; wsum; maxcn; maxcd; base_ok = admits ~total:wsum ~maxcn ~maxcd }
  with Spill -> None

type costs = { k : int array; den : int }

(* With D the lcm of the capacity numerators and K = cd·(D/cn), a
   latency (L/scale)·(cd/cn) is L·K/(scale·D): one denominator for
   every user and link.  Any sum of n latencies at loads ≤ wsum stays
   below n·wsum·maxK, so that one product, checked here, covers every
   native cost sum a caller forms. *)
let costs pk =
  try
    let d =
      Array.fold_left
        (fun d a -> if d mod a = 0 then d else mul_nn (d / Bignat.gcd_int d a) a)
        1 pk.cn
    in
    let k = Array.mapi (fun r a -> mul_nn pk.cd.(r) (d / a)) pk.cn in
    let maxk = Array.fold_left max 0 k in
    let bound = mul_nn (Array.length pk.pw) (mul_nn pk.wsum maxk) in
    if bound = max_int then None else Some { k; den = mul_nn pk.scale d }
  with Overflow -> None

(* The two social-cost kernels over scaled int loads, shared by
   [View]'s packed lane and [Pure]'s view-free scoring.  SC_1 is one
   native sum over the cost table (bounded by [costs]); SC_2 tracks the
   largest latency (L·cd)/(scale·cn) as the int pair (L·cd, cn) and
   compares by cross products, within the [admits] bound. *)
let sum_latency c ~m ~loads prof =
  let acc = ref 0 in
  for i = 0 to Array.length prof - 1 do
    let l = prof.(i) in
    acc := !acc + (loads.(l) * c.k.((i * m) + l))
  done;
  Rational.make (Bigint.of_int !acc) (Bigint.of_int c.den)

let max_latency ?active ~scale ~cn ~cd ~m ~loads ~users prof =
  let bnum = ref 0 and bcn = ref 1 in
  for i = 0 to users - 1 do
    if match active with None -> true | Some a -> a.(i) then begin
      let l = prof.(i) in
      let idx = (i * m) + l in
      let a = loads.(l) * cd.(idx) in
      if a * !bcn > !bnum * cn.(idx) then begin
        bnum := a;
        bcn := cn.(idx)
      end
    end
  done;
  Rational.make (Bigint.of_int !bnum) (Bigint.mul (Bigint.of_int scale) (Bigint.of_int !bcn))

(* [rescale pk initial] re-derives the per-view scale when a view
   carries initial link traffic: the scale grows to cover the initial
   denominators and the scaled weights grow with it.  Returns
   [(scale, pw, iload0, total)] or [None] on any native spill or when
   the product bound fails at the larger total. *)
let rescale pk initial =
  try
    let scale_b = scale_lcm (Bigint.of_int pk.scale) (Array.map Rational.den initial) in
    let scale = to_native scale_b in
    let factor = scale / pk.scale in
    let pw =
      if factor = 1 then pk.pw
      else
        Array.map
          (fun w -> to_native (Bigint.mul (Bigint.of_int w) (Bigint.of_int factor)))
          pk.pw
    in
    let iload0 =
      Array.map
        (fun q -> to_native (Bigint.mul (Rational.num q) (Bigint.div scale_b (Rational.den q))))
        initial
    in
    let total_b =
      Array.fold_left
        (fun acc v -> Bigint.add acc (Bigint.of_int v))
        (Bigint.mul (Bigint.of_int pk.wsum) (Bigint.of_int factor))
        iload0
    in
    let total = to_native total_b in
    if admits ~total ~maxcn:pk.maxcn ~maxcd:pk.maxcd then Some (scale, pw, iload0, total)
    else None
  with Spill -> None
