(* The stream workloads: the `selfish_routing serve` process timed as a
   child on the generated wire files, and an in-process replay of the
   same calls timed per batch.  The two never run at the same time. *)

open Numeric
open Model

type sizes = { batches : int; setups : int }

let default_sizes = { batches = 500; setups = 10 }

type ready = {
  game : Cgame.t;
  log : Serve.Mutation.t list array;
  start : Algo.Cbr.outcome;  (* the first equilibrium *)
}

(* Set-up: read and decode the wire files, reach the first equilibrium
   and position a view on it — what `serve` does before its first
   batch. *)
let setup ~game_file ~log_file =
  let s = Trace.enter "setup" in
  let d = Trace.enter "serve.wire.decode" in
  let game = Serve.Wire.decode_cgame (Gen.read_file game_file) in
  let log = Array.of_list (Serve.Wire.decode_log (Gen.read_file log_file)) in
  Trace.leave d;
  let c = Trace.enter "algo.cbr.converge" in
  let start = Algo.Cbr.converge game (Algo.Cbr.proportional_start game) in
  Trace.leave c;
  let p = Trace.enter "model.cview.of_profile" in
  ignore (Sys.opaque_identity (Cview.of_profile game start.Algo.Cbr.profile));
  Trace.leave p;
  Trace.leave s;
  if not start.Algo.Cbr.converged then failwith "Stream: initial solve did not converge";
  { game; log; start }

(* ------------------------------------------------------------------ *)
(* In-process replay                                                   *)

type replay = {
  latency_ns : float array;  (* per batch: repair through formatted line *)
  sc1 : string array;  (* per batch, exact *)
  packed : bool array;  (* lane after each batch *)
  failed : int;  (* batches that raised or ended non-Nash *)
  moves : int;
  users_moved : int;
  saturated : int;  (* batches whose frontier reached every link *)
  fallbacks : int;
  mutations : int;
  final : Cview.t;
  repair_words : float array;  (* traced runs only *)
}

let report_line idx batch (r : Serve.Repair.outcome) users sc1 =
  Printf.sprintf
    "{\"batch\":%d,\"mutations\":%d,\"moves\":%d,\"users_moved\":%d,\"seeded_classes\":%d,\
     \"seeded_links\":%d,\"frontier_links\":%d,\"fallback\":%b,\"nash\":%b,\"users\":%d,\
     \"sc1\":\"%s\"}"
    (idx + 1) (List.length batch) r.moves r.users_moved r.seeded_classes r.seeded_links
    r.frontier_links r.fallback r.nash users sc1

(* The traced run's probes, run after a batch's report: the full Nash
   check, one [improves] probe per occupied (class, source, target)
   triple, and [Rational.compare] over the view's occupied latencies.
   At an equilibrium no probe may improve. *)
type probe_totals = {
  mutable probes : int;
  mutable probe_words : float;
  mutable compares : int;
  mutable failures : int;
}

let totals = { probes = 0; probe_words = 0.0; compares = 0; failures = 0 }

let probe v =
  let k = Cview.classes v and m = Cview.links v in
  let s = Trace.enter "model.cview.is_nash" in
  let nash = Cview.is_nash v in
  Trace.leave s;
  if not nash then totals.failures <- totals.failures + 1;
  let w0 = Gc.minor_words () in
  let s = Trace.enter "model.cview.improves" in
  let n = ref 0 and better = ref 0 in
  for c = 0 to k - 1 do
    for src = 0 to m - 1 do
      if Cview.assigned v c src > 0 then
        for dst = 0 to m - 1 do
          if dst <> src then begin
            incr n;
            if Cview.improves v ~cls:c ~src dst then incr better
          end
        done
    done
  done;
  Trace.leave s;
  let w1 = Gc.minor_words () in
  if !better > 0 then totals.failures <- totals.failures + 1;
  let lat = ref [] in
  for c = k - 1 downto 0 do
    for l = m - 1 downto 0 do
      if Cview.assigned v c l > 0 then lat := Cview.latency v c l :: !lat
    done
  done;
  let lat = Array.of_list !lat in
  let p = Array.length lat in
  let s = Trace.enter "numeric.rational.compare" in
  let acc = ref 0 in
  for i = 0 to p - 1 do
    acc := !acc + Rational.compare lat.(i) lat.((i + 1) mod p);
    acc := !acc + Rational.compare lat.(i) lat.((i + (p / 2)) mod p)
  done;
  Trace.leave s;
  ignore (Sys.opaque_identity !acc);
  totals.probes <- totals.probes + !n;
  totals.probe_words <- totals.probe_words +. (w1 -. w0);
  totals.compares <- totals.compares + (2 * p)

(* With [probes], every batch is followed by {!probe}, traced; run it
   with tracing otherwise off, so the probes' allocations do not
   disturb the traced batch spans. *)
let replay ?(probes = false) r =
  let v = Cview.of_profile r.game r.start.Algo.Cbr.profile in
  let n = Array.length r.log and m = Cview.links v in
  let latency_ns = Array.make n 0.0 and sc1 = Array.make n "" and packed = Array.make n false in
  let repair_words = Array.make (if !Trace.on then n else 0) 0.0 in
  let failed = ref 0 and moves = ref 0 and users_moved = ref 0 and saturated = ref 0 in
  let fallbacks = ref 0 and mutations = ref 0 in
  Array.iteri
    (fun i batch ->
      Trace.set_group i;
      let t0 = Clock.now_ns () in
      let b = Trace.enter "batch" in
      (match
         let s = Trace.enter "serve.repair" in
         let w0 = if !Trace.on then Gc.minor_words () else 0.0 in
         let o = Serve.Repair.repair_batch v batch in
         if !Trace.on then repair_words.(i) <- Gc.minor_words () -. w0;
         Trace.leave s;
         let s = Trace.enter "model.cview.class_count" in
         let users = Gen.class_users v in
         Trace.leave s;
         let s = Trace.enter "model.cview.social_cost1" in
         let cost = Cview.social_cost1 v in
         Trace.leave s;
         let s = Trace.enter "numeric.rational.to_string" in
         let text = Rational.to_string cost in
         Trace.leave s;
         let s = Trace.enter "report.format" in
         let line = report_line i batch o users text in
         Trace.leave s;
         (o, text, line)
       with
       | o, text, line ->
         Trace.leave b;
         latency_ns.(i) <- float_of_int (Clock.now_ns () - t0);
         ignore (Sys.opaque_identity line);
         sc1.(i) <- text;
         if not o.nash then incr failed;
         moves := !moves + o.moves;
         users_moved := !users_moved + o.users_moved;
         if o.frontier_links = m then incr saturated;
         if o.fallback then incr fallbacks
       | exception e ->
         Trace.leave b;
         Printf.eprintf "batch %d raised %s\n%!" (i + 1) (Printexc.to_string e);
         incr failed);
      packed.(i) <- Cview.packed v;
      mutations := !mutations + List.length batch;
      if probes then begin
        Trace.on := true;
        probe v;
        Trace.on := false
      end)
    r.log;
  {
    latency_ns; sc1; packed; failed = !failed; moves = !moves; users_moved = !users_moved;
    saturated = !saturated; fallbacks = !fallbacks; mutations = !mutations; final = v;
    repair_words;
  }

(* ------------------------------------------------------------------ *)
(* The serve process                                                   *)

type served = { wall_s : float; sc1 : string array; failed : int }

(* Runs [exe serve game log] with its standard output in [out], then
   reads the JSON lines by field name.  A batch fails when its line is
   missing, out of order or reports [nash: false]. *)
let serve ~exe ~game_file ~log_file ~out ~batches =
  let fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let t0 = Clock.now_ns () in
  let status =
    Fun.protect
      ~finally:(fun () -> Unix.close fd; Unix.close devnull)
      (fun () ->
        let pid =
          Unix.create_process exe [| exe; "serve"; game_file; log_file |] devnull fd Unix.stderr
        in
        snd (Unix.waitpid [] pid))
  in
  let wall_s = Clock.seconds_since t0 in
  let sc1 = Array.make batches "" in
  let seen = ref 0 and bad = ref 0 in
  if status = Unix.WEXITED 0 then
    String.split_on_char '\n' (Gen.read_file out)
    |> List.iter (fun line ->
           if String.length line > 0 && line.[0] = '{' then
             match Json.parse line with
             | j ->
               let idx = Json.to_int (Json.field "batch" j) in
               if idx = !seen + 1 && idx <= batches && Json.to_bool (Json.field "nash" j) then
                 sc1.(idx - 1) <- Json.to_string (Json.field "sc1" j)
               else incr bad;
               incr seen
             | exception Json.Error msg ->
               Printf.eprintf "serve output: %s\n%!" msg;
               incr bad);
  let failed = if status <> Unix.WEXITED 0 then batches else !bad + max 0 (batches - !seen) in
  if status <> Unix.WEXITED 0 then prerr_endline "serve: the process did not exit with 0";
  { wall_s; sc1; failed }

(* ------------------------------------------------------------------ *)
(* Checks on a finished replay                                         *)

(* Per-class counts of the final view against the initial counts plus
   the log's arrivals minus its departures. *)
let counts_match r (rep : replay) =
  let k = Cgame.classes r.game in
  let expect = Array.init k (Cgame.count r.game) in
  Array.iter
    (List.iter (function
      | Serve.Mutation.Arrive { cls; count; _ } -> expect.(cls) <- expect.(cls) + count
      | Serve.Mutation.Depart { cls; count; _ } -> expect.(cls) <- expect.(cls) - count
      | _ -> ()))
    r.log;
  let ok = ref true in
  Array.iteri (fun c e -> if Cview.class_count rep.final c <> e then ok := false) expect;
  !ok

(* The lane each stream must hold: packed throughout for denominator
   4; for denominator 7, packed exactly until the first batch with a
   reweight and exact from that batch on. *)
let lane_ok r (rep : replay) ~den =
  let has_reweight b = List.exists (function Serve.Mutation.Reweight _ -> true | _ -> false) b in
  let ok = ref true and spilled = ref false in
  Array.iteri
    (fun i b ->
      if den <> 4 && has_reweight b then spilled := true;
      if rep.packed.(i) = !spilled then ok := false)
    r.log;
  !ok && (den = 4 || !spilled)

let packed_share (rep : replay) =
  let p = Array.fold_left (fun a b -> if b then a + 1 else a) 0 rep.packed in
  float_of_int p /. float_of_int (max 1 (Array.length rep.packed))

(* Every check of one replay; returns the failure messages. *)
let check r (rep : replay) ~den =
  List.filter_map
    (fun (ok, msg) -> if ok then None else Some msg)
    [
      (rep.failed = 0, Printf.sprintf "%d batches raised or ended non-Nash" rep.failed);
      (Cview.is_nash rep.final, "final view is not Nash");
      (counts_match r rep, "class counts differ from arrivals minus departures");
      (lane_ok r rep ~den, "numeric lane differs from the workload's regime");
    ]

(* ------------------------------------------------------------------ *)
(* One benchmark run                                                   *)

let us_of_ns x = x /. 1e3

(* Compares the process's per-batch SC_1 with the in-process replay's;
   returns the number of batches that differ. *)
let sc1_mismatches (s : served) (rep : replay) =
  let bad = ref 0 in
  Array.iteri (fun i x -> if s.sc1.(i) <> "" && x <> s.sc1.(i) then incr bad) rep.sc1;
  !bad

(* One run.  The serve process and the in-process replay alternate,
   never overlapping, until [seconds] have passed; a block of set-ups
   follows each replay, so that their median samples the whole run
   (and never a processor just woken from waiting on the child).  A shared host's speed drifts by tens of percent over seconds, so
   the process figure is the fastest of its runs and each batch's
   latency is its fastest over the replays: a slow stretch of the host
   then costs a run nothing as long as one repetition missed it. *)
let run ~dir ~exe ~seed ~seconds ~den ~sizes ~trace =
  Gen.write_stream ~dir ~den ~batches:sizes.batches ~seed;
  let game_file, log_file = Gen.stream_files dir in
  let out = Filename.concat dir "serve.jsonl" in
  let attempted = ref 0 and failed = ref 0 and problems = ref [] in
  let note msgs = problems := !problems @ msgs in
  let setups = Quantile.create () in
  let timed_setups () =
    let r = ref None in
    for i = 1 to sizes.setups do
      Trace.set_group (-i);
      let t0 = Clock.now_ns () in
      let x = setup ~game_file ~log_file in
      Quantile.add setups (Clock.seconds_since t0);
      r := Some x
    done;
    Option.get !r
  in
  Trace.on := trace;
  let r = timed_setups () in
  Trace.on := false;
  let batches = Array.length r.log in
  let mutations = Array.fold_left (fun a b -> a + List.length b) 0 r.log in
  let serve_once () =
    let s = serve ~exe ~game_file ~log_file ~out ~batches in
    attempted := !attempted + batches;
    failed := !failed + s.failed;
    s
  in
  let replay_once () =
    let gc0 = Gc.quick_stat () in
    let rep = replay r in
    let gc1 = Gc.quick_stat () in
    attempted := !attempted + batches;
    failed := !failed + rep.failed;
    note (check r rep ~den);
    (rep, gc0, gc1)
  in
  let compare_sc1 s rep =
    let bad = sc1_mismatches s rep in
    if bad > 0 then note [ Printf.sprintf "%d batches: serve SC_1 differs from the replay's" bad ]
  in
  let best = Array.make batches infinity and walls = Quantile.create () in
  let last = ref None and rounds = ref 0 in
  let deadline = Clock.now_ns () + int_of_float (seconds *. 1e9) in
  while !rounds = 0 || ((not trace) && Clock.now_ns () < deadline) do
    incr rounds;
    let s = serve_once () in
    Quantile.add walls s.wall_s;
    let ((rep, _, _) as x) = replay_once () in
    compare_sc1 s rep;
    Array.iteri (fun i t -> best.(i) <- Float.min best.(i) t) rep.latency_ns;
    ignore (timed_setups ());
    last := Some x
  done;
  let rep, gc0, gc1 = Option.get !last in
  let final_sc1 = Rational.to_string (Cview.social_cost1 rep.final) in
  if final_sc1 <> rep.sc1.(batches - 1) then note [ "final SC_1 differs from the last report" ];
  let setup_s = Quantile.median (Quantile.to_array setups) in
  let wall_s = Array.fold_left Float.min infinity (Quantile.to_array walls) in
  Metrics.set "setup_s" setup_s;
  Metrics.set "throughput_per_s" (float_of_int mutations /. wall_s);
  let lat_ns = best in
  Metrics.set "latency_p50_us" (us_of_ns (Quantile.percentile 0.5 lat_ns));
  Metrics.set "latency_p98_us" (us_of_ns (Quantile.percentile 0.98 lat_ns));
  Metrics.set "serve.repair.moves" (float_of_int rep.moves);
  Metrics.set "serve.repair.users_moved" (float_of_int rep.users_moved);
  Metrics.set "serve.repair.saturated_share" (float_of_int rep.saturated /. float_of_int batches);
  Metrics.set "serve.repair.fallbacks" (float_of_int rep.fallbacks);
  Metrics.set "model.cview.packed_share" (packed_share rep);
  let per_k x = 1000.0 *. x /. float_of_int batches in
  Metrics.set "gc.major_collections"
    (per_k (float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections)));
  Metrics.set "gc.minor_words" ((gc1.Gc.minor_words -. gc0.Gc.minor_words) /. float_of_int batches);
  let replay_s = Quantile.total best *. 1e-9 in
  Metrics.set "bin.serve.outside_share" (1.0 -. ((setup_s +. replay_s) /. wall_s));
  Printf.printf "log: %d batches, %d mutations; final SC_1 %s\n" batches mutations final_sc1;
  Printf.printf "serve_mut_per_s = %.1f 1/s (fastest of %d process runs)\n"
    (Metrics.get "throughput_per_s") !rounds;
  Printf.printf
    "batch_p50_us = %.1f us, batch_p98_us = %.1f us (%d batches, each its fastest of %d replays; \
     closed loop, one caller)\n"
    (Metrics.get "latency_p50_us") (Metrics.get "latency_p98_us") batches !rounds;
  Printf.printf "setup_s = %.6f s (median of %d set-ups)\n" setup_s (Quantile.length setups);
  Printf.printf "fallbacks %d, packed share %.4f, saturated share %.4f\n" rep.fallbacks
    (packed_share rep) (float_of_int rep.saturated /. float_of_int batches);
  if trace then begin
    (* Traced pass: spans around every layer call, then the probes. *)
    Trace.on := true;
    let traced = replay r in
    Trace.on := false;
    let probed = replay ~probes:true r in
    attempted := !attempted + (2 * batches);
    failed := !failed + traced.failed + probed.failed + totals.failures;
    note (check r traced ~den);
    note (check r probed ~den);
    let durs name = Trace.durations name in
    let mean_us name = us_of_ns (Quantile.average (durs name)) in
    Metrics.set "serve.wire.decode_ms" (Quantile.median (durs "serve.wire.decode") /. 1e6);
    Metrics.set "algo.cbr.converge_ms" (Quantile.median (durs "algo.cbr.converge") /. 1e6);
    Metrics.set "algo.cbr.steps" (float_of_int r.start.Algo.Cbr.steps);
    Metrics.set "model.cview.of_profile_us"
      (us_of_ns (Quantile.median (durs "model.cview.of_profile")));
    let repair = durs "serve.repair" in
    Metrics.set "serve.repair.p50_us" (us_of_ns (Quantile.percentile 0.5 repair));
    Metrics.set "serve.repair.p98_us" (us_of_ns (Quantile.percentile 0.98 repair));
    Metrics.set "serve.repair.minor_words" (Quantile.average traced.repair_words);
    Metrics.set "model.cview.social_cost1_us" (mean_us "model.cview.social_cost1");
    Metrics.set "numeric.rational.to_string_us" (mean_us "numeric.rational.to_string");
    Metrics.set "model.cview.is_nash_us" (mean_us "model.cview.is_nash");
    let total name = Quantile.total (durs name) in
    Metrics.set "model.cview.improves_ns"
      (total "model.cview.improves" /. float_of_int (max 1 totals.probes));
    Metrics.set "model.cview.improves_words"
      (totals.probe_words /. float_of_int (max 1 totals.probes));
    Metrics.set "numeric.rational.compare_ns"
      (total "numeric.rational.compare" /. float_of_int (max 1 totals.compares));
    let traced_p50 = Quantile.percentile 0.5 (durs "batch") in
    Metrics.set "trace.overhead_share" ((traced_p50 /. Quantile.percentile 0.5 lat_ns) -. 1.0);
    Metrics.set "trace.root_self_us"
      (match List.assoc_opt "batch" (Trace.summary ()) with
       | Some (c, _, self) -> us_of_ns (float_of_int self /. float_of_int c)
       | None -> 0.0)
  end;
  List.iter (fun m -> Printf.printf "CHECK FAILED: %s\n" m) !problems;
  { Metrics.correct = !problems = [] && !failed = 0; attempted = !attempted; failed = !failed }
