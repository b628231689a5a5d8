open Model

type outcome = {
  moves : int;
  users_moved : int;
  seeded_classes : int;
  seeded_links : int;
  frontier_links : int;
  fallback : bool;
  nash : bool;
}

let shard_bounds k domains =
  let d = max 1 (min domains k) in
  List.init d (fun i -> ((i * k) / d, ((i + 1) * k) / d))

(* The restricted first-defector scan is [Cview.first_code].  Workers
   receive frozen copies of the seed sets; the view itself is not
   mutated while a scan runs.  Shards are contiguous ascending class
   blocks and each reports its own code, so the first candidate in
   shard order is exactly the serial scan's candidate, and with none,
   a shard's -2 (a defector outside the frontier) is the serial scan's
   -2 — bit-identical for every domain count.  Shards return the bare
   code, so the exact lane resolves one target, after the merge. *)
let scan ~domains v touched dirty =
  let k = Cview.classes v in
  if domains <= 1 then Cview.first_code v ~touched ~dirty ~lo:0 ~hi:k
  else begin
    let tc = Array.copy touched and dc = Array.copy dirty in
    let codes =
      Parallel.map ~domains
        (fun (lo, hi) -> Cview.first_code v ~touched:tc ~dirty:dc ~lo ~hi)
        (shard_bounds k domains)
    in
    match List.find_opt (fun p -> p >= 0) codes with
    | Some p -> p
    | None -> if List.exists (Int.equal (-2)) codes then -2 else -1
  end

(* Re-apply a solved class profile to the live view as undoable block
   moves: per class, drain surplus links into deficit links with a
   two-pointer pass.  Class totals agree by construction, so the pass
   always balances. *)
let apply_profile v target =
  let k = Cview.classes v and m = Cview.links v in
  for cls = 0 to k - 1 do
    let cur = Array.init m (fun l -> Cview.assigned v cls l) in
    let s = ref 0 and d = ref 0 in
    let advance () =
      while !s < m && cur.(!s) <= target.(cls).(!s) do
        incr s
      done;
      while !d < m && cur.(!d) >= target.(cls).(!d) do
        incr d
      done
    in
    advance ();
    while !s < m && !d < m do
      let count = min (cur.(!s) - target.(cls).(!s)) (target.(cls).(!d) - cur.(!d)) in
      Cview.move v ~cls ~src:!s ~dst:!d ~count;
      cur.(!s) <- cur.(!s) - count;
      cur.(!d) <- cur.(!d) + count;
      advance ()
    done
  done

(* Seed after applying: occupancy only shrinks through departures,
   which touch their own link, so each reweight's load changes are
   covered by the class's post-batch occupancy plus the per-mutation
   links.  Capacity revisions leave every load in place — only the
   revised class can see them. *)
let rec seed v touched dirty = function
  | [] -> ()
  | mu :: rest ->
    (match mu with
     | Mutation.Arrive { cls; link; _ } | Mutation.Depart { cls; link; _ } ->
       dirty.(cls) <- true;
       touched.(link) <- true
     | Mutation.Reweight { cls; _ } ->
       dirty.(cls) <- true;
       for l = 0 to Array.length touched - 1 do
         if Cview.assigned v cls l > 0 then touched.(l) <- true
       done
     | Mutation.Revise_capacity { cls; _ } -> dirty.(cls) <- true);
    seed v touched dirty rest

let count_set a = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 a

let repair ~domains ~max_steps v batch =
  let k = Cview.classes v and m = Cview.links v in
  List.iter (Mutation.apply v) batch;
  let touched = Array.make m false and dirty = Array.make k false in
  seed v touched dirty batch;
  let seeded_classes = count_set dirty and seeded_links = count_set touched in
  let moves = ref 0 and users_moved = ref 0 in
  (* [true] when the last restricted scan came back clean and, in the
     same pass, certified the profile Nash (code -1); [false] when the
     budget ran out or a defector hides outside the frontier (code -2,
     a non-equilibrium start).  Once the frontier saturates (every link
     touched) the restricted scan IS the full first-defector scan, i.e.
     exactly Cbr's policy running in place on the warm profile — no
     rebuild. *)
  let rec epochs () =
    if !moves >= max_steps then false
    else begin
      let p = scan ~domains v touched dirty in
      if p < 0 then p = -1
      else begin
        let cls, src, dst = Cview.decode v p in
        let count = Cview.max_improving_block v ~cls ~src ~dst in
        Cview.move v ~cls ~src ~dst ~count;
        touched.(src) <- true;
        touched.(dst) <- true;
        dirty.(cls) <- true;
        incr moves;
        users_moved := !users_moved + count;
        epochs ()
      end
    end
  in
  let fallback = not (epochs ()) in
  if fallback then begin
    let g = Cview.to_cgame v in
    let oc = Algo.Cbr.converge ~max_steps g (Cview.profile v) in
    if not oc.Algo.Cbr.converged then
      invalid_arg "Repair.repair_batch: fallback did not converge within max_steps";
    apply_profile v oc.Algo.Cbr.profile;
    moves := !moves + oc.Algo.Cbr.steps;
    users_moved := !users_moved + oc.Algo.Cbr.users_moved;
    if not (Cview.is_nash v) then
      invalid_arg "Repair.repair_batch: repaired profile is not a Nash equilibrium"
  end;
  {
    moves = !moves;
    users_moved = !users_moved;
    seeded_classes;
    seeded_links;
    frontier_links = count_set touched;
    fallback;
    nash = true;
  }

(* Any exception — a rejected mutation, an exhausted fallback, a failed
   verification — rolls the view back to its entry depth first, so the
   caller that catches it holds the last equilibrium again. *)
let repair_batch ?(domains = 1) ?(max_steps = 1_000_000) v batch =
  if domains <= 0 then invalid_arg "Repair.repair_batch: domains must be positive";
  if max_steps <= 0 then invalid_arg "Repair.repair_batch: max_steps must be positive";
  let d0 = Cview.depth v in
  match repair ~domains ~max_steps v batch with
  | r -> r
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    while Cview.depth v > d0 do
      Cview.undo v
    done;
    Printexc.raise_with_backtrace e bt
