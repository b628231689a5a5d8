(* The paper_sweep workload: the research user's pipeline over seeded
   per-user games read from Game_io text files.  No Cview or Serve
   code runs here. *)

open Numeric
open Model

type sizes = { games : int; setups : int; engine_games : int }

let default_sizes = { games = 1000; setups = 2; engine_games = 200 }

(* What one game produced: a canonical rendering of every exact output
   (for the digest) and the failed checks. *)
type outcome = {
  exact : string;
  failures : string list;
  kp : bool;
  emc : bool;  (* expected_max_congestion ran *)
  profiles : int;  (* pure equilibria enumerated *)
  br_steps : int;
}

let profile_string p = String.concat "," (Array.to_list (Array.map string_of_int p))
let q = Rational.to_string

(* A seeded best-response start for game [i]. *)
let start ~seed i g =
  let rng = Prng.Rng.of_path seed [ 3; i ] in
  Array.init (Game.users g) (fun _ -> Prng.Rng.int rng (Game.links g))

(* The pipeline, in the paper's order; every step is a span.  The
   checks that follow it are the benchmark's and are not timed. *)
let pipeline ~seed i text =
  let s = Trace.enter "model.game_io.parse" in
  let g = Game_io.parse text in
  Trace.leave s;
  let s = Trace.enter "algo.enumerate" in
  let nes = Algo.Enumerate.pure_nash g in
  Trace.leave s;
  let s = Trace.enter "algo.best_response" in
  let br = Algo.Best_response.converge g ~max_steps:100_000 (start ~seed i g) in
  Trace.leave s;
  let s = Trace.enter "model.social.opt_bb" in
  let opt1, _ = Social.opt1_bb g in
  let opt2, _ = Social.opt2_bb g in
  Trace.leave s;
  let s = Trace.enter "algo.fully_mixed" in
  let fm =
    Option.map
      (fun p ->
        let e = Mixed.Eval.make g p in
        (p, e, Mixed.Eval.social_cost1 e, Mixed.Eval.social_cost2 e))
      (Algo.Fully_mixed.compute g)
  in
  Trace.leave s;
  (* Theorem 4.14 bounds SC_i/OPT_i of every equilibrium; Theorem 4.13
     applies when the game has uniform beliefs. *)
  let s = Trace.enter "model.bounds" in
  let bound = Bounds.theorem_4_14 g in
  let bound =
    if Game.has_uniform_beliefs g then Rational.min bound (Bounds.theorem_4_13 g) else bound
  in
  let costs =
    List.map (fun ne -> (Pure.social_cost1 g ne, Pure.social_cost2 g ne)) nes
    @ (match fm with Some (_, _, sc1, sc2) -> [ (sc1, sc2) ] | None -> [])
  in
  let violations =
    List.filter
      (fun (sc1, sc2) ->
        Rational.compare (Rational.div sc1 opt1) bound > 0
        || Rational.compare (Rational.div sc2 opt2) bound > 0)
      costs
  in
  Trace.leave s;
  let emc =
    match fm with
    | Some (p, _, _, _) when Game.is_kp g ->
      let s = Trace.enter "model.congestion.emc" in
      let x = Congestion.expected_max_congestion g p in
      Trace.leave s;
      Some x
    | _ -> None
  in
  (g, nes, br, opt1, opt2, fm, bound, violations, emc)

let check (g, nes, br, opt1, opt2, fm, bound, violations, emc) =
  let fails = ref [] in
  let fail msg = fails := msg :: !fails in
  List.iter (fun ne -> if not (Pure.is_nash g ne) then fail "enumerated profile not Nash") nes;
  if not (br.Algo.Best_response.converged && Pure.is_nash g br.Algo.Best_response.profile) then
    fail "best response did not reach a Nash equilibrium";
  (match fm with
   | Some (_, e, _, _) -> if not (Mixed.Eval.is_nash e) then fail "fully mixed profile not Nash"
   | None -> ());
  if violations <> [] then fail "Theorem 4.13/4.14 bound violated";
  let b = Buffer.create 256 in
  List.iter (fun ne -> Printf.bprintf b "ne %s;" (profile_string ne)) nes;
  Printf.bprintf b "br %s/%d;opt %s %s;bound %s;" (profile_string br.profile) br.steps (q opt1)
    (q opt2) (q bound);
  (match fm with
   | Some (p, _, sc1, sc2) ->
     Array.iter (fun row -> Printf.bprintf b "%s|" (Format.asprintf "%a" Qvec.pp row)) p;
     Printf.bprintf b "sc %s %s;" (q sc1) (q sc2)
   | None -> Buffer.add_string b "no-fmne;");
  Option.iter (fun x -> Printf.bprintf b "emc %s;" (q x)) emc;
  {
    exact = Buffer.contents b;
    failures = !fails;
    kp = Game.is_kp g;
    emc = emc <> None;
    profiles = List.length nes;
    br_steps = br.steps;
  }

let run_game ~seed i text = check (pipeline ~seed i text)

(* ------------------------------------------------------------------ *)
(* One benchmark run                                                   *)

type pass = { latency_ns : float array; outcomes : outcome array; digest : string }

let pass ~seed texts =
  let latency_ns = Array.make (Array.length texts) 0.0 in
  let outcomes =
    Array.mapi
      (fun i text ->
        Trace.set_group i;
        let t0 = Clock.now_ns () in
        let root = Trace.enter "game" in
        let r = pipeline ~seed i text in
        Trace.leave root;
        latency_ns.(i) <- float_of_int (Clock.now_ns () - t0);
        check r)
      texts
  in
  let exact = Array.to_list (Array.map (fun o -> o.exact) outcomes) in
  let digest = Digest.to_hex (Digest.string (String.concat "\n" exact)) in
  { latency_ns; outcomes; digest }

let load ~dir ~games =
  Array.init games (fun i ->
      let text = Gen.read_file (Gen.sweep_file dir i) in
      ignore (Game_io.parse text);
      text)

let us_of_ns x = x /. 1e3

(* One run: passes over all games until [seconds] have passed, with
   set-ups (parse every file) between them.  As in {!Stream.run}, each
   game's latency is its fastest over the passes, which keeps a slow
   stretch of the host out of the figures. *)
let run ~dir ~seed ~seconds ~sizes ~trace =
  Gen.write_sweep ~dir ~games:sizes.games ~seed;
  let setups = Quantile.create () in
  let timed_setups () =
    for _ = 1 to sizes.setups do
      let t0 = Clock.now_ns () in
      ignore (load ~dir ~games:sizes.games);
      Quantile.add setups (Clock.seconds_since t0)
    done
  in
  timed_setups ();
  let texts = load ~dir ~games:sizes.games in
  let games = Array.length texts in
  let attempted = ref 0 and failed = ref 0 and problems = ref [] in
  let digests = ref [] and passes = ref 0 in
  let account p =
    attempted := !attempted + games;
    Array.iter
      (fun o ->
        if o.failures <> [] then begin
          incr failed;
          problems := o.failures @ !problems
        end)
      p.outcomes;
    digests := p.digest :: !digests
  in
  let best = Array.make games infinity in
  let deadline = Clock.now_ns () + int_of_float (seconds *. 1e9) in
  let gc = ref (Gc.quick_stat (), Gc.quick_stat ()) in
  let last = ref None in
  while !passes = 0 || ((not trace) && Clock.now_ns () < deadline) do
    incr passes;
    let gc0 = Gc.quick_stat () in
    let p = pass ~seed texts in
    gc := (gc0, Gc.quick_stat ());
    Array.iteri (fun i t -> best.(i) <- Float.min best.(i) t) p.latency_ns;
    account p;
    last := Some p;
    timed_setups ()
  done;
  let p = Option.get !last in
  let gc0, gc1 = !gc in
  let lat_ns = best in
  Metrics.set "setup_s" (Quantile.median (Quantile.to_array setups));
  (* games per second of pipeline time; the checks are not counted *)
  Metrics.set "throughput_per_s" (float_of_int games /. (Quantile.total best *. 1e-9));
  Metrics.set "latency_p50_us" (us_of_ns (Quantile.percentile 0.5 lat_ns));
  Metrics.set "latency_p98_us" (us_of_ns (Quantile.percentile 0.98 lat_ns));
  let per_game x = x /. float_of_int games in
  Metrics.set "gc.minor_words" (per_game (gc1.Gc.minor_words -. gc0.Gc.minor_words));
  Metrics.set "gc.major_collections"
    (1000.0 *. per_game (float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections)));
  let count f = Array.fold_left (fun a o -> if f o then a + 1 else a) 0 p.outcomes in
  let emc_games = count (fun o -> o.emc) and kp_games = count (fun o -> o.kp) in
  Metrics.set "model.congestion.emc_games" (float_of_int emc_games);
  Metrics.set "algo.enumerate.profiles"
    (per_game (float_of_int (Array.fold_left (fun a o -> a + o.profiles) 0 p.outcomes)));
  Metrics.set "algo.best_response.steps"
    (per_game (float_of_int (Array.fold_left (fun a o -> a + o.br_steps) 0 p.outcomes)));
  if List.exists (fun d -> d <> p.digest) !digests then
    problems := "exact outputs differ between passes" :: !problems;
  if emc_games = 0 then problems := "expected_max_congestion never ran on a KP game" :: !problems;
  Printf.printf "games: %d (%d KP, %d with EMC); %d passes; digest %s\n" games kp_games emc_games
    !passes p.digest;
  Printf.printf
    "inst_per_s = %.2f 1/s; game_p50_us = %.1f us, game_p98_us = %.1f us (%d games, each its \
     fastest of %d passes)\n"
    (Metrics.get "throughput_per_s") (Metrics.get "latency_p50_us") (Metrics.get "latency_p98_us")
    games !passes;
  Printf.printf "setup_s = %.6f s (median of %d set-ups)\n" (Metrics.get "setup_s")
    (Quantile.length setups);
  if trace then begin
    Trace.on := true;
    let tp = pass ~seed texts in
    Trace.on := false;
    account tp;
    let durs name = Trace.durations name in
    let mean name = Quantile.average (durs name) in
    Metrics.set "model.game_io.parse_us" (us_of_ns (mean "model.game_io.parse"));
    Metrics.set "algo.enumerate.ms" (mean "algo.enumerate" /. 1e6);
    Metrics.set "algo.best_response.us" (us_of_ns (mean "algo.best_response"));
    Metrics.set "model.social.opt_bb_ms" (mean "model.social.opt_bb" /. 1e6);
    Metrics.set "algo.fully_mixed.us" (us_of_ns (mean "algo.fully_mixed"));
    Metrics.set "model.congestion.emc_ms" (mean "model.congestion.emc" /. 1e6);
    Metrics.set "trace.overhead_share"
      ((Quantile.percentile 0.5 (durs "game") /. Quantile.percentile 0.5 lat_ns) -. 1.0);
    Metrics.set "trace.root_self_us"
      (match List.assoc_opt "game" (Trace.summary ()) with
       | Some (c, _, self) -> us_of_ns (float_of_int self /. float_of_int c)
       | None -> 0.0);
    (* The same games through Engine.map_tasks at one and two domains. *)
    let sub = Array.sub texts 0 (min games sizes.engine_games) in
    let timed domains =
      let t0 = Clock.now_ns () in
      let out =
        Engine.map_tasks ~domains ~seed ~tasks:(Array.length sub) (fun _ i ->
            (run_game ~seed i sub.(i)).exact)
      in
      (Clock.seconds_since t0, out)
    in
    let t1, o1 = timed 1 in
    let t2, o2 = timed 2 in
    let serial = Array.map (fun o -> o.exact) (Array.sub tp.outcomes 0 (Array.length sub)) in
    if o1 <> serial || o2 <> serial then
      problems := "Engine.map_tasks results differ across domain counts" :: !problems;
    Metrics.set "engine.domains2_speedup" (t1 /. t2)
  end;
  List.iter
    (fun m -> Printf.printf "CHECK FAILED: %s\n" m)
    (List.sort_uniq String.compare !problems);
  { Metrics.correct = !problems = [] && !failed = 0; attempted = !attempted; failed = !failed }
