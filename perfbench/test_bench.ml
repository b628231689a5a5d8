(* The benchmark's own tests: generators, replays, the serve CLI and
   the metric contract with BENCHMARK.json.  Small sizes throughout. *)

open Perfbench

let exe = "../bin/selfish_routing.exe"
let spec = "../BENCHMARK.json"

let fresh_dir name =
  let root = "perfbench_test_work" in
  if not (Sys.file_exists root) then Sys.mkdir root 0o755;
  let d = Filename.concat root name in
  if not (Sys.file_exists d) then Sys.mkdir d 0o755;
  d

let read_all dir =
  let files = List.sort compare (Array.to_list (Sys.readdir dir)) in
  List.map (fun f -> (f, Gen.read_file (Filename.concat dir f))) files

let stream_bytes ~name ~den ~seed =
  let dir = fresh_dir name in
  Gen.write_stream ~dir ~den ~batches:40 ~seed;
  read_all dir

let sweep_bytes ~name ~seed =
  let dir = fresh_dir name in
  Gen.write_sweep ~dir ~games:20 ~seed;
  read_all dir

let test_generators_deterministic () =
  List.iter
    (fun den ->
      let a = stream_bytes ~name:(Printf.sprintf "s%d_a" den) ~den ~seed:5 in
      let b = stream_bytes ~name:(Printf.sprintf "s%d_b" den) ~den ~seed:5 in
      let c = stream_bytes ~name:(Printf.sprintf "s%d_c" den) ~den ~seed:6 in
      Alcotest.(check bool) "same seed, same stream files" true (a = b);
      Alcotest.(check bool) "other seed, other log" false
        (List.assoc "log.srwf" a = List.assoc "log.srwf" c))
    [ 4; 7 ];
  let a = sweep_bytes ~name:"g_a" ~seed:5 in
  let b = sweep_bytes ~name:"g_b" ~seed:5 in
  let c = sweep_bytes ~name:"g_c" ~seed:6 in
  Alcotest.(check int) "twenty game files" 20 (List.length a);
  Alcotest.(check bool) "same seed, same game files" true (a = b);
  Alcotest.(check bool) "other seed, other game files" false (a = c)

(* The exact outputs of a sweep, and so their digest, repeat exactly. *)
let test_sweep_digest () =
  let dir = fresh_dir "digest" in
  Gen.write_sweep ~dir ~games:15 ~seed:4;
  let texts = Sweep.load ~dir ~games:15 in
  let a = Sweep.pass ~seed:4 texts and b = Sweep.pass ~seed:4 texts in
  Alcotest.(check string) "digest" a.digest b.digest;
  Array.iter (fun o -> Alcotest.(check (list string)) "checks pass" [] o.Sweep.failures) a.outcomes

(* Up to the first reweight the two streams are the same batches; that
   reweight names the same class and differs only in its denominator. *)
let test_streams_differ_in_denominator () =
  let log den =
    let files = stream_bytes ~name:(Printf.sprintf "d%d" den) ~den ~seed:9 in
    Serve.Wire.decode_log (List.assoc "log.srwf" files)
  in
  let packed = Array.of_list (log 4) and exact = Array.of_list (log 7) in
  let is_reweight = List.exists (function Serve.Mutation.Reweight _ -> true | _ -> false) in
  let rec first i = if is_reweight packed.(i) then i else first (i + 1) in
  let r = first 0 in
  Alcotest.(check bool) "identical before the first reweight" true
    (Array.sub packed 0 r = Array.sub exact 0 r);
  match (packed.(r), exact.(r)) with
  | [ Serve.Mutation.Reweight a ], [ Serve.Mutation.Reweight b ] ->
    Alcotest.(check int) "same class" a.cls b.cls;
    let den w = Numeric.Bigint.to_string (Numeric.Rational.den w) in
    Alcotest.(check string) "denominator 4" "4" (den a.weight);
    Alcotest.(check string) "denominator 7" "7" (den b.weight)
  | _ -> Alcotest.fail "first reweight batches differ in shape"

let stream_ready ~name ~den ~batches =
  let dir = fresh_dir name in
  Gen.write_stream ~dir ~den ~batches ~seed:3;
  let game_file, log_file = Gen.stream_files dir in
  let r = Stream.setup ~game_file ~log_file in
  (dir, r)

let test_replays_clean () =
  List.iter
    (fun (den, lane) ->
      let _, r = stream_ready ~name:(Printf.sprintf "r%d" den) ~den ~batches:150 in
      let rep = Stream.replay r in
      Alcotest.(check int) "no failed batch" 0 rep.failed;
      Alcotest.(check (list string)) "every check passes" [] (Stream.check r rep ~den);
      Alcotest.(check bool) "lane" true (lane (Stream.packed_share rep)))
    [ (4, fun s -> s = 1.0); (7, fun s -> s < 0.05) ]

let test_serve_matches_replay () =
  List.iter
    (fun den ->
      let dir, r = stream_ready ~name:(Printf.sprintf "c%d" den) ~den ~batches:40 in
      let game_file, log_file = Gen.stream_files dir in
      let s =
        Stream.serve ~exe ~game_file ~log_file ~out:(Filename.concat dir "serve.jsonl") ~batches:40
      in
      let rep = Stream.replay r in
      Alcotest.(check int) "every serve line present and Nash" 0 s.failed;
      Alcotest.(check (array string)) "per-batch SC_1" rep.sc1 s.sc1)
    [ 4; 7 ]

(* Runs each workload at toy size, traced and not, and reads the
   result line back: its metric names and units are BENCHMARK.json's. *)
let test_metric_names () =
  let j = Json.parse (Gen.read_file spec) in
  let declared key =
    List.map
      (fun m -> (Json.to_string (Json.field "name" m), Json.to_string (Json.field "unit" m)))
      (Json.to_list (Json.field key j))
  in
  let workloads =
    List.map
      (fun w -> Json.to_string (Json.field "name" w))
      (Json.to_list (Json.field "workloads" j))
  in
  Alcotest.(check (list string)) "workloads"
    [ "stream_packed"; "paper_sweep" ]
    workloads;
  let printed ~trace =
    let line = Metrics.result_line ~trace ~correct:true ~attempted:1 ~failed:0 in
    match Json.field "metrics" (Json.parse line) with
    | Json.Object fs -> List.map (fun (n, m) -> (n, Json.to_string (Json.field "unit" m))) fs
    | _ -> Alcotest.fail "metrics is not an object"
  in
  List.iter
    (fun trace ->
      let dir = fresh_dir "m_stream" in
      let r =
        Stream.run ~dir ~exe ~seed:2 ~seconds:0.0 ~den:4
          ~sizes:{ Stream.batches = 30; setups = 1 } ~trace
      in
      Alcotest.(check bool) "stream run correct" true r.correct;
      let dir = fresh_dir "m_sweep" in
      let r =
        Sweep.run ~dir ~seed:2 ~seconds:0.0
          ~sizes:{ Sweep.games = 10; setups = 1; engine_games = 4 } ~trace
      in
      Alcotest.(check bool) "sweep run correct" true r.correct;
      Alcotest.(check (list (pair string string)))
        (if trace then "per_layer" else "end_to_end")
        (declared (if trace then "per_layer" else "end_to_end"))
        (printed ~trace))
    [ false; true ]

let () =
  Alcotest.run "perfbench"
    [
      ( "generators",
        [
          Alcotest.test_case "seeded and byte-identical" `Quick test_generators_deterministic;
          Alcotest.test_case "streams differ only in denominator" `Quick
            test_streams_differ_in_denominator;
        ] );
      ( "replay",
        [
          Alcotest.test_case "both logs replay cleanly" `Quick test_replays_clean;
          Alcotest.test_case "serve SC_1 equals replay" `Quick test_serve_matches_replay;
          Alcotest.test_case "sweep digest repeats" `Quick test_sweep_digest;
        ] );
      ( "contract",
        [ Alcotest.test_case "metric names match BENCHMARK.json" `Quick test_metric_names ] );
    ]
