(* The one JSON value type, string escaper and printer (see json.mli). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let opt f = function None -> Null | Some x -> f x
let strings xs = List (List.map (fun s -> String s) xs)

let add_quoted b s =
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

(* The shortest of %.15g .. %.17g that reads back exactly, with a ".0"
   kept on integral values so a float stays a float ("1.0", not "1" or
   OCaml's "1."). *)
let number f =
  let rec digits p =
    let s = Printf.sprintf "%.*g" p f in
    if p = 17 || float_of_string s = f then s else digits (p + 1)
  in
  if not (Float.is_finite f) then "null"
  else
    let s = digits 15 in
    if String.exists (fun c -> c = '.' || c = 'e') s then s else s ^ ".0"

let scalar = function List _ | Obj _ -> false | _ -> true

let print ~indent v =
  let b = Buffer.create 256 in
  let rec value depth = function
    | Null -> Buffer.add_string b "null"
    | Bool x -> Buffer.add_string b (string_of_bool x)
    | Int n -> Buffer.add_string b (string_of_int n)
    | Float f -> Buffer.add_string b (number f)
    | String s -> add_quoted b s
    | List xs -> container depth '[' ']' (List.map (fun x -> (None, x)) xs)
    | Obj kvs ->
        container depth '{' '}' (List.map (fun (k, x) -> (Some k, x)) kvs)
  and container depth o c members =
    let broken =
      indent && members <> []
      && (depth = 0 || not (List.for_all (fun (_, x) -> scalar x) members))
    in
    let newline d =
      if broken then Buffer.add_string b ("\n" ^ String.make (2 * d) ' ')
    in
    Buffer.add_char b o;
    List.iteri
      (fun i (k, x) ->
        if i > 0 then Buffer.add_string b (if broken then "," else ", ");
        newline (depth + 1);
        Option.iter (fun k -> add_quoted b k; Buffer.add_string b ": ") k;
        value (depth + 1) x)
      members;
    newline depth;
    Buffer.add_char b c
  in
  value 0 v;
  Buffer.contents b

let compact v = print ~indent:false v
let indented v = print ~indent:true v
let quote s = compact (String s)
let member k v = quote k ^ ": " ^ compact v
