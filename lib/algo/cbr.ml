open Model
open Numeric

type outcome = {
  profile : Cgame.profile;
  steps : int;
  users_moved : int;
  converged : bool;
}

(* Cumulative rounding: link l gets floor(count·S_l/S) − floor(count·S_{l−1}/S)
   users, S_l the capacity prefix sum.  Exact, non-negative, sums to
   count, and tracks the capacity proportions within one user.  Scaling
   the row by the lcm of its denominators leaves every ratio S_l/S as
   it is, so the prefix sums are integers and each floor is one
   [Bigint.div] (truncation is the floor: every operand is positive);
   [Bigint]'s small-value fast path keeps the usual row native. *)
let proportional_start g =
  let k = Cgame.classes g and m = Cgame.links g in
  Array.init k (fun c ->
      let row = Cgame.capacity_row g c in
      let lcm =
        Array.fold_left
          (fun acc q ->
            let d = Rational.den q in
            Bigint.mul acc (Bigint.div d (Bigint.gcd acc d)))
          Bigint.one row
      in
      let scaled =
        Array.map (fun q -> Bigint.mul (Rational.num q) (Bigint.div lcm (Rational.den q))) row
      in
      let total = Array.fold_left Bigint.add Bigint.zero scaled in
      let count = Bigint.of_int (Cgame.count g c) in
      let cum = ref Bigint.zero and prev = ref 0 in
      Array.init m (fun l ->
          cum := Bigint.add !cum scaled.(l);
          let upto = Bigint.to_int_exn (Bigint.div (Bigint.mul count !cum) total) in
          let here = upto - !prev in
          prev := upto;
          here))

let converge ?(max_steps = 1_000_000) g x =
  if max_steps <= 0 then invalid_arg "Cbr.converge: max_steps must be positive";
  let v = Cview.of_profile g x in
  let steps = ref 0 and users_moved = ref 0 in
  let rec loop () =
    if !steps >= max_steps then false
    else
      match Cview.first_defector v with
      | None -> true
      | Some (cls, src, dst) ->
        (* first_defector guarantees the first mover improves, so the
           maximal block is ≥ 1 and progress is made every step. *)
        let count = Cview.max_improving_block v ~cls ~src ~dst in
        Cview.move v ~cls ~src ~dst ~count;
        incr steps;
        users_moved := !users_moved + count;
        loop ()
  in
  let converged = loop () in
  { profile = Cview.profile v; steps = !steps; users_moved = !users_moved; converged }
