(* Seeded workload generators.  The program under test only ever sees
   the files written here: SRWF wire files for the streams, Game_io
   text files for the paper sweep. *)

open Numeric
open Model

(* ------------------------------------------------------------------ *)
(* Streams: a rolling k = 96, m = 8, ~10^5-user class game             *)

let k = 96
let m = 8
let population_floor = 100_000

(* Every capacity row is a rational multiple of [base], so block best
   response keeps a weighted potential and repairs converge.  Initial
   weights carry denominator 4, which fixes the packed lane's scale. *)
let base = Array.init m (fun l -> Rational.of_int (m + 1 - l))
let row_scale c = Rational.of_ints ((c mod 5) + 2) 2
let weight_band c = (c mod 16) + 1

let stream_game () =
  let counts = Array.make k 1050 in
  let weights = Array.init k (fun c -> Rational.of_ints ((4 * weight_band c) + 1) 4) in
  let caps = Array.init k (fun c -> Array.map (Rational.mul (row_scale c)) base) in
  Cgame.of_capacities ~counts ~weights caps

(* The equilibrium `selfish_routing serve` starts from. *)
let initial_equilibrium g =
  let o = Algo.Cbr.converge g (Algo.Cbr.proportional_start g) in
  if not o.Algo.Cbr.converged then failwith "Gen: initial solve did not converge";
  o

let class_users v =
  let t = ref 0 in
  for c = 0 to Cview.classes v - 1 do
    t := !t + Cview.class_count v c
  done;
  !t

(* One batch of the given kind, drawn against the live view [v]:
   departures name an occupied link and never empty a class, and at
   the population floor (plus one batch of slack) the batch is forced
   to be an arrival.  Reweights keep the class's magnitude (band +
   r/den, r in 1..3); capacity revisions rescale a whole row by a
   factor in [3/4, 5/4]. *)
let stream_batch rng v ~den ~users kind =
  match if users <= population_floor + 100 then 0 else kind with
  | 0 ->
    let cls = Prng.Rng.int rng k and link = Prng.Rng.int rng m in
    [ Serve.Mutation.Arrive { cls; link; count = 1 + Prng.Rng.int rng 8 } ]
  | 1 ->
    let cls = Prng.Rng.int rng k in
    let off = Prng.Rng.int rng m in
    let link = ref (-1) in
    for i = m - 1 downto 0 do
      let l = (off + i) mod m in
      if Cview.assigned v cls l > 0 then link := l
    done;
    let l = !link in
    let avail = min 8 (min (Cview.assigned v cls l) (Cview.class_count v cls - 1)) in
    if avail <= 0 then [ Serve.Mutation.Arrive { cls; link = l; count = 1 } ]
    else [ Serve.Mutation.Depart { cls; link = l; count = 1 + Prng.Rng.int rng avail } ]
  | 2 ->
    let cls = Prng.Rng.int rng k in
    let num = (den * weight_band cls) + 1 + Prng.Rng.int rng 3 in
    [ Serve.Mutation.Reweight { cls; weight = Rational.of_ints num den } ]
  | _ ->
    let cls = Prng.Rng.int rng k in
    let scale = Rational.mul (row_scale cls) (Rational.of_ints (6 + Prng.Rng.int rng 5) 8) in
    List.init m (fun link ->
        Serve.Mutation.Revise_capacity { cls; link; cap = Rational.mul scale base.(link) })

let user_delta batch =
  List.fold_left
    (fun acc -> function
      | Serve.Mutation.Arrive { count; _ } -> acc + count
      | Serve.Mutation.Depart { count; _ } -> acc - count
      | _ -> acc)
    0 batch

(* [stream_log ~den ~batches ~seed] shadow-replays every generated
   batch through [Repair.repair_batch] on a live view, so each batch is
   drawn against the profile the service will actually hold.  The two
   stream workloads differ only in [den]: 4 divides the packing scale
   (the view stays packed), 7 does not (the first reweight spills). *)
let stream_log ~den ~batches ~seed =
  let g = stream_game () in
  let o = initial_equilibrium g in
  let v = Cview.of_profile g o.Algo.Cbr.profile in
  let rng = Prng.Rng.of_path seed [ 1 ] in
  let users = ref (Cgame.users g) in
  (* Each block of four batches holds one batch of each kind, in a
     seeded order: every log has the same mix (and, away from the
     floor, the same number of mutations), so seeds differ in detail
     and not in composition. *)
  let kinds = [| 0; 1; 2; 3 |] in
  List.init batches (fun i ->
      if i mod 4 = 0 then Prng.Rng.shuffle rng kinds;
      let batch = stream_batch rng v ~den ~users:!users kinds.(i mod 4) in
      ignore (Serve.Repair.repair_batch v batch);
      users := !users + user_delta batch;
      batch)

(* ------------------------------------------------------------------ *)
(* Paper sweep: per-user games, n in 4..8, m = 3                       *)

let sweep_links = 3

(* Game [i] of a sweep: sizes cycle through n = 4..8; even blocks of
   five are KP games (one shared certain state), odd blocks share a
   three-state space over which each user holds a private belief. *)
let sweep_game ~seed i =
  let n = 4 + (i mod 5) in
  let kp = (i / 5) mod 2 = 0 in
  let rng = Prng.Rng.of_path seed [ 2; i ] in
  let beliefs =
    if kp then Experiments.Generators.Shared_point { cap_bound = 4 }
    else Experiments.Generators.Shared_space { states = 3; cap_bound = 6; grain = 4 }
  in
  Experiments.Generators.game rng ~n ~m:sweep_links
    ~weights:(Experiments.Generators.Integer_weights 3) ~beliefs

let sweep_texts ~games ~seed =
  List.init games (fun i -> Game_io.to_generative_string (sweep_game ~seed i))

(* ------------------------------------------------------------------ *)
(* Files                                                               *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path data =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc data)

let stream_files dir = (Filename.concat dir "game.srwf", Filename.concat dir "log.srwf")

let write_stream ~dir ~den ~batches ~seed =
  let game, log = stream_files dir in
  write_file game (Serve.Wire.encode_cgame (stream_game ()));
  write_file log (Serve.Wire.encode_log (stream_log ~den ~batches ~seed))

let sweep_file dir i = Filename.concat dir (Printf.sprintf "game%04d.game" i)

let write_sweep ~dir ~games ~seed =
  List.iteri (fun i text -> write_file (sweep_file dir i) text) (sweep_texts ~games ~seed)
