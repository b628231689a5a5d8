(* A small JSON reader, enough for the `serve` output lines and
   BENCHMARK.json.  Fields are looked up by name, so later additions to
   a line never break a reader. *)

type t =
  | Null
  | Bool of bool
  | Number of string  (* kept verbatim; convert with [to_int]/[to_float] *)
  | String of string
  | List of t list
  | Object of (string * t) list

exception Error of string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail what = raise (Error (Printf.sprintf "JSON: offset %d: %s" !pos what)) in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let rec skip_ws () =
    if !pos < n && (s.[!pos] = ' ' || s.[!pos] = '\n' || s.[!pos] = '\t' || s.[!pos] = '\r')
    then (incr pos; skip_ws ())
  in
  let expect c = if peek () = c then incr pos else fail (Printf.sprintf "expected '%c'" c) in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then (pos := !pos + l; v)
    else fail "bad literal"
  in
  let string_lit () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> incr pos
      | '\\' ->
        if !pos + 1 >= n then fail "bad escape";
        (match s.[!pos + 1] with
         | ('"' | '\\' | '/') as c -> Buffer.add_char b c
         | 'n' -> Buffer.add_char b '\n'
         | 't' -> Buffer.add_char b '\t'
         | 'r' -> Buffer.add_char b '\r'
         | _ -> fail "unsupported escape");
        pos := !pos + 2;
        go ()
      | c ->
        Buffer.add_char b c;
        incr pos;
        go ()
    in
    go ();
    Buffer.contents b
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | '{' ->
      incr pos;
      skip_ws ();
      if peek () = '}' then (incr pos; Object [])
      else
        let rec fields acc =
          skip_ws ();
          let k = string_lit () in
          skip_ws ();
          expect ':';
          let v = value () in
          skip_ws ();
          match peek () with
          | ',' -> incr pos; fields ((k, v) :: acc)
          | '}' -> incr pos; Object (List.rev ((k, v) :: acc))
          | _ -> fail "expected ',' or '}'"
        in
        fields []
    | '[' ->
      incr pos;
      skip_ws ();
      if peek () = ']' then (incr pos; List [])
      else
        let rec items acc =
          let v = value () in
          skip_ws ();
          match peek () with
          | ',' -> incr pos; items (v :: acc)
          | ']' -> incr pos; List (List.rev (v :: acc))
          | _ -> fail "expected ',' or ']'"
        in
        items []
    | '"' -> String (string_lit ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | '-' | '0' .. '9' ->
      let start = !pos in
      while
        !pos < n
        && match s.[!pos] with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
      do
        incr pos
      done;
      Number (String.sub s start (!pos - start))
    | _ -> fail "unexpected character"
  in
  let v = value () in
  skip_ws ();
  if !pos <> n then fail "trailing characters";
  v

let field name = function
  | Object fs -> (
    match List.assoc_opt name fs with
    | Some v -> v
    | None -> raise (Error ("JSON: missing field " ^ name)))
  | _ -> raise (Error ("JSON: not an object looking up " ^ name))

let to_bool = function Bool b -> b | _ -> raise (Error "JSON: not a boolean")
let to_string = function String s -> s | _ -> raise (Error "JSON: not a string")
let to_int = function Number s -> int_of_string s | _ -> raise (Error "JSON: not a number")
let to_list = function List l -> l | _ -> raise (Error "JSON: not a list")
