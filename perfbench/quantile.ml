(* Growable sample buffers and nearest-rank quantiles. *)

type t = { mutable data : float array; mutable len : int }

let create () = { data = Array.make 1024 0.0; len = 0 }

let add t x =
  if t.len = Array.length t.data then begin
    let bigger = Array.make (2 * t.len) 0.0 in
    Array.blit t.data 0 bigger 0 t.len;
    t.data <- bigger
  end;
  t.data.(t.len) <- x;
  t.len <- t.len + 1

let length t = t.len
let to_array t = Array.sub t.data 0 t.len
let total xs = Array.fold_left ( +. ) 0.0 xs
let average xs = if Array.length xs = 0 then 0.0 else total xs /. float_of_int (Array.length xs)

(* [percentile p xs] is the nearest-rank [p]-quantile, [p] in (0, 1]:
   the smallest sample with at least [p·n] samples at or below it. *)
let percentile p xs =
  let n = Array.length xs in
  if n = 0 then 0.0
  else begin
    let s = Array.copy xs in
    Array.sort Float.compare s;
    let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
    s.(max 0 (min (n - 1) (rank - 1)))
  end

let median xs = percentile 0.5 xs
