open Model
open Numeric

let guard name limit g =
  match Social.profile_count g with
  | Some c when c <= limit -> ()
  | _ -> invalid_arg (Printf.sprintf "Enumerate.%s: state space exceeds the limit" name)

(* The exhaustive scans ride [View.sweep_nash]: the odometer runs over
   every user but the last, applying O(1) load deltas between
   consecutive prefixes, and each prefix is completed only with the
   last user's best responses — the only completions that can be
   equilibria.  Each visited completion is checked for a defector among
   the other users in O(n·m), every inequality decided exactly. *)
let pure_nash ?(limit = 10_000_000) g =
  guard "pure_nash" limit g;
  let acc = ref [] in
  View.sweep_nash g (fun v -> acc := View.profile v :: !acc);
  List.rev !acc

let count ?(limit = 10_000_000) g =
  guard "count" limit g;
  let acc = ref 0 in
  View.sweep_nash g (fun _ -> incr acc);
  !acc

let exists ?(limit = 10_000_000) g =
  guard "exists" limit g;
  let exception Found in
  try
    View.sweep_nash g (fun _ -> raise Found);
    false
  with Found -> true

let extremal_nash ?limit g ~cost =
  match pure_nash ?limit g with
  | [] -> None
  | first :: rest ->
    let value = cost g first in
    let better lo hi p =
      let v = cost g p in
      let lo = if Rational.compare v (snd lo) < 0 then (p, v) else lo in
      let hi = if Rational.compare v (snd hi) > 0 then (p, v) else hi in
      (lo, hi)
    in
    let lo, hi =
      List.fold_left (fun (lo, hi) p -> better lo hi p) ((first, value), (first, value)) rest
    in
    Some (lo, hi)
