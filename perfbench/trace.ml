(* In-memory span recorder for the traced run.

   A span is a name, a start and an end (monotonic ns), the span that
   caused it (its parent, -1 for a root) and a group id shared by all
   spans of one batch or game.  Spans live in parallel arrays and are
   written out once, after the run; with tracing off [enter] returns
   -1 without touching the clock. *)

let on = ref false

type buf = {
  mutable name : string array;
  mutable start : int array;
  mutable stop : int array;
  mutable parent : int array;
  mutable group : int array;
  mutable len : int;
}

let spans = { name = [||]; start = [||]; stop = [||]; parent = [||]; group = [||]; len = 0 }
let current = ref (-1)
let current_group = ref 0

let grow () =
  let cap = max 4096 (2 * spans.len) in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 spans.len;
    b
  in
  spans.name <- extend spans.name "";
  spans.start <- extend spans.start 0;
  spans.stop <- extend spans.stop 0;
  spans.parent <- extend spans.parent 0;
  spans.group <- extend spans.group 0

let set_group g = current_group := g

let enter name =
  if not !on then -1
  else begin
    if spans.len = Array.length spans.start then grow ();
    let id = spans.len in
    spans.len <- id + 1;
    spans.name.(id) <- name;
    spans.parent.(id) <- !current;
    spans.group.(id) <- !current_group;
    current := id;
    spans.start.(id) <- Clock.now_ns ();
    id
  end

let leave id =
  if id >= 0 then begin
    spans.stop.(id) <- Clock.now_ns ();
    current := spans.parent.(id)
  end

let duration id = spans.stop.(id) - spans.start.(id)

(* Per span name: (count, total ns, self ns).  A span's self time is
   its duration minus the durations of its direct children, which
   never overlap (one thread). *)
let summary () =
  let child = Array.make spans.len 0 in
  for id = 0 to spans.len - 1 do
    let p = spans.parent.(id) in
    if p >= 0 then child.(p) <- child.(p) + duration id
  done;
  let tbl = Hashtbl.create 32 in
  for id = 0 to spans.len - 1 do
    let c, tot, self =
      Option.value (Hashtbl.find_opt tbl spans.name.(id)) ~default:(0, 0, 0)
    in
    Hashtbl.replace tbl spans.name.(id) (c + 1, tot + duration id, self + duration id - child.(id))
  done;
  Hashtbl.fold (fun name v acc -> (name, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* Durations (ns) of every span called [name], in recording order. *)
let durations name =
  let q = Quantile.create () in
  for id = 0 to spans.len - 1 do
    if spans.name.(id) = name then Quantile.add q (float_of_int (duration id))
  done;
  Quantile.to_array q

let write path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc "id\tname\tstart_ns\tend_ns\tparent\tgroup\n";
      for id = 0 to spans.len - 1 do
        Printf.fprintf oc "%d\t%s\t%d\t%d\t%d\t%d\n" id spans.name.(id) spans.start.(id)
          spans.stop.(id) spans.parent.(id) spans.group.(id)
      done)
