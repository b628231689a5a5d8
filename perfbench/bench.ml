(* The benchmark harness.  Usually started by run.py, which builds it
   and `selfish_routing` first:

     bench.exe --workload W --seed N --seconds S --trace 0|1
               --work DIR --serve PATH/TO/selfish_routing.exe

   The last line of standard output is the JSON result. *)

open Perfbench

(* Two-domain speedup of a kernel that does not allocate: how much
   parallelism the host gives at all. *)
let calib_speedup () =
  let kernel () =
    let x = ref 1 in
    for _ = 1 to 100_000_000 do
      x := ((!x * 1103515245) + 12345) land 0x3fffffff
    done;
    !x
  in
  let t0 = Clock.now_ns () in
  let a = kernel () + kernel () in
  let serial = Clock.seconds_since t0 in
  let t0 = Clock.now_ns () in
  let b = Array.fold_left ( + ) 0 (Parallel.fork_join ~workers:2 (fun _ -> kernel ())) in
  let par = Clock.seconds_since t0 in
  if a <> b then failwith "calibration kernel disagrees across domains";
  serial /. par

let self_times () =
  Printf.printf "layer self time (traced pass):\n  %-28s %8s %12s %12s\n" "span" "count"
    "mean_us" "self_us";
  List.iter
    (fun (name, (count, total, self)) ->
      let per x = float_of_int x /. float_of_int count /. 1e3 in
      Printf.printf "  %-28s %8d %12.3f %12.3f\n" name count (per total) (per self))
    (Trace.summary ())

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let work = ref ".bench_work" and serve = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME stream_packed | stream_exact | paper_sweep");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measurement time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
      ("--work", Arg.Set_string work, "DIR where inputs, outputs and spans go");
      ("--serve", Arg.Set_string serve, "PATH the selfish_routing executable");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload W --seed N --seconds S --trace 0|1 --work DIR --serve EXE";
  let traced = !trace = 1 in
  let dir = Filename.concat !work !workload in
  let run =
    match !workload with
    | "stream_packed" | "stream_exact" ->
      if !serve = "" then (prerr_endline "bench: --serve is required"; exit 2);
      let den = if !workload = "stream_packed" then 4 else 7 in
      fun () ->
        Stream.run ~dir ~exe:!serve ~seed:!seed ~seconds:!seconds ~den
          ~sizes:Stream.default_sizes ~trace:traced
    | "paper_sweep" ->
      fun () ->
        Sweep.run ~dir ~seed:!seed ~seconds:!seconds ~sizes:Sweep.default_sizes ~trace:traced
    | w ->
      Printf.eprintf "bench: unknown workload %S\n" w;
      exit 2
  in
  if not (Sys.file_exists !work) then Sys.mkdir !work 0o755;
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  Printf.printf "workload %s, seed %d, %.0f s, trace %d\n%!" !workload !seed !seconds !trace;
  let r = run () in
  let top = (Gc.quick_stat ()).Gc.top_heap_words in
  Metrics.set "heap_peak_mb" (float_of_int (top * (Sys.word_size / 8)) /. 1048576.0);
  if traced then begin
    Metrics.set "parallel.calib_speedup" (calib_speedup ());
    self_times ();
    Trace.write (Filename.concat dir "spans.tsv")
  end;
  Metrics.print_table ~trace:traced;
  print_endline
    (Metrics.result_line ~trace:traced ~correct:r.Metrics.correct ~attempted:r.attempted
       ~failed:r.failed)
