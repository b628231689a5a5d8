(* The metrics the benchmark reports, and the one-line JSON result.

   These lists are the benchmark's contract: BENCHMARK.json declares
   the same names and units (the self-tests and run.py both check it).
   Every metric is reported on every workload; a per-layer metric
   whose layer a workload never calls reads 0 there. *)

let end_to_end =
  [
    ("setup_s", "s");
    ("throughput_per_s", "1/s");
    ("latency_p50_us", "us");
    ("latency_p98_us", "us");
    ("heap_peak_mb", "MB");
  ]

let per_layer =
  [
    (* stream set-up *)
    ("serve.wire.decode_ms", "ms");
    ("algo.cbr.converge_ms", "ms");
    ("algo.cbr.steps", "count");
    ("model.cview.of_profile_us", "us");
    (* stream batches *)
    ("serve.repair.p50_us", "us");
    ("serve.repair.p98_us", "us");
    ("serve.repair.minor_words", "words");
    ("serve.repair.moves", "count");
    ("serve.repair.users_moved", "count");
    ("serve.repair.saturated_share", "share");
    ("serve.repair.fallbacks", "count");
    ("model.cview.social_cost1_us", "us");
    ("numeric.rational.to_string_us", "us");
    ("model.cview.is_nash_us", "us");
    ("model.cview.improves_ns", "ns");
    ("model.cview.improves_words", "words");
    ("model.cview.packed_share", "share");
    ("numeric.rational.compare_ns", "ns");
    ("bin.serve.outside_share", "share");
    (* paper sweep *)
    ("model.game_io.parse_us", "us");
    ("algo.enumerate.ms", "ms");
    ("algo.enumerate.profiles", "count");
    ("algo.best_response.us", "us");
    ("algo.best_response.steps", "count");
    ("model.social.opt_bb_ms", "ms");
    ("algo.fully_mixed.us", "us");
    ("model.congestion.emc_ms", "ms");
    ("model.congestion.emc_games", "count");
    (* both *)
    ("gc.minor_words", "words");
    ("gc.major_collections", "count/1k");
    ("trace.root_self_us", "us");
    ("trace.overhead_share", "share");
    ("parallel.calib_speedup", "x");
    ("engine.domains2_speedup", "x");
  ]

(* What a run reports besides its metrics. *)
type result = { correct : bool; attempted : int; failed : int }

let values : (string, float) Hashtbl.t = Hashtbl.create 64
let set name v = Hashtbl.replace values name v
let get name = Option.value (Hashtbl.find_opt values name) ~default:0.0

(* "name value unit" lines for a human reader. *)
let print_table ~trace =
  let list = if trace then per_layer else end_to_end in
  List.iter (fun (name, unit) -> Printf.printf "  %-34s %16.6f %s\n" name (get name) unit) list

(* The result object, printed as the last line of standard output. *)
let result_line ~trace ~correct ~attempted ~failed =
  let list = if trace then per_layer else end_to_end in
  let finite = List.for_all (fun (name, _) -> Float.is_finite (get name)) list in
  let fields =
    List.map
      (fun (name, unit) ->
        let v = get name in
        Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name
          (if Float.is_finite v then Printf.sprintf "%.17g" v else "0")
          unit)
      list
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (correct && finite) attempted failed (String.concat ", " fields)
