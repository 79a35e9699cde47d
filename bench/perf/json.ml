(* A minimal JSON value type with a printer and a reader — enough for
   BENCHMARK.json, the benchmark's own result files and the records a
   workload child hands back to its parent. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

let escape s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* integers print without a fraction; other floats with round-trip
   precision, so a value read back is bit-identical *)
let number x =
  if not (Float.is_finite x) then "null"
  else if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

let rec to_string = function
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Num x -> number x
  | Str s -> escape s
  | List l -> "[" ^ String.concat ", " (List.map to_string l) ^ "]"
  | Obj kvs ->
    "{"
    ^ String.concat ", "
        (List.map (fun (k, v) -> escape k ^ ": " ^ to_string v) kvs)
    ^ "}"

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail what = failwith (Printf.sprintf "JSON: %s at offset %d" what !pos) in
  let rec skip () =
    if !pos < n && String.contains " \t\r\n" s.[!pos] then (
      incr pos;
      skip ())
  in
  let expect c =
    skip ();
    if !pos < n && s.[!pos] = c then incr pos
    else fail (Printf.sprintf "expected %C" c)
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then (
      pos := !pos + String.length word;
      v)
    else fail "bad literal"
  in
  let string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      incr pos;
      match c with
      | '"' -> ()
      | '\\' ->
        if !pos >= n then fail "unterminated escape";
        let e = s.[!pos] in
        incr pos;
        (match e with
        | 'n' -> Buffer.add_char b '\n'
        | 't' -> Buffer.add_char b '\t'
        | 'r' -> Buffer.add_char b '\r'
        | 'b' -> Buffer.add_char b '\b'
        | 'f' -> Buffer.add_char b '\012'
        | 'u' ->
          if !pos + 4 > n then fail "short \\u escape";
          let code = int_of_string ("0x" ^ String.sub s !pos 4) in
          pos := !pos + 4;
          if code < 0x80 then Buffer.add_char b (Char.chr code)
          else Buffer.add_utf_8_uchar b (Uchar.of_int code)
        | c -> Buffer.add_char b c);
        go ()
      | c ->
        Buffer.add_char b c;
        go ()
    in
    go ();
    Buffer.contents b
  in
  let rec value () =
    skip ();
    if !pos >= n then fail "unexpected end";
    match s.[!pos] with
    | '{' ->
      incr pos;
      skip ();
      if !pos < n && s.[!pos] = '}' then (
        incr pos;
        Obj [])
      else
        let rec members acc =
          let k = string () in
          expect ':';
          let v = value () in
          skip ();
          if !pos < n && s.[!pos] = ',' then (
            incr pos;
            members ((k, v) :: acc))
          else (
            expect '}';
            Obj (List.rev ((k, v) :: acc)))
        in
        members []
    | '[' ->
      incr pos;
      skip ();
      if !pos < n && s.[!pos] = ']' then (
        incr pos;
        List [])
      else
        let rec items acc =
          let v = value () in
          skip ();
          if !pos < n && s.[!pos] = ',' then (
            incr pos;
            items (v :: acc))
          else (
            expect ']';
            List (List.rev (v :: acc)))
        in
        items []
    | '"' -> Str (string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ ->
      let start = !pos in
      while !pos < n && String.contains "+-0123456789.eE" s.[!pos] do
        incr pos
      done;
      (match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some x -> Num x
      | None -> fail "bad number")
  in
  let v = value () in
  skip ();
  if !pos <> n then fail "trailing characters";
  v

let read_file path =
  In_channel.with_open_bin path In_channel.input_all |> of_string

let member k = function
  | Obj kvs -> List.assoc_opt k kvs
  | _ -> None

let member_exn k v =
  match member k v with
  | Some x -> x
  | None -> failwith (Printf.sprintf "JSON: missing key %S" k)

let to_float = function
  | Num x -> x
  | Null -> Float.nan
  | _ -> failwith "JSON: expected a number"

let to_str = function Str s -> s | _ -> failwith "JSON: expected a string"
let to_list = function List l -> l | _ -> failwith "JSON: expected an array"
let to_obj = function Obj kvs -> kvs | _ -> failwith "JSON: expected an object"
