(** Minimal JSON tree, writer and reader — see json.mli. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list
  | Raw of string

(* ------------------------------------------------------------------ *)
(* Writing *)

(* The C primitive that Printf's %g and %f conversions end in: the same
   bytes as [Printf.sprintf "%.12g"] and friends, without the format
   interpreter *)
external format_float : string -> float -> string = "caml_format_float"

(* An integral float below 1e15 as %.1f; any other finite float as
   %.12g when that text parses back to it, else as %.17g, which always
   does *)
let add_float buf x =
  if not (Float.is_finite x) then Buffer.add_string buf "null"
  else if Float.is_integer x && Float.abs x < 1e15 then
    Buffer.add_string buf (format_float "%.1f" x)
  else
    let s = format_float "%.12g" x in
    Buffer.add_string buf
      (if float_of_string s = x then s else format_float "%.17g" x)

let hex_digit = "0123456789abcdef"

let add_escape buf c =
  match c with
  | '"' -> Buffer.add_string buf "\\\""
  | '\\' -> Buffer.add_string buf "\\\\"
  | '\n' -> Buffer.add_string buf "\\n"
  | '\r' -> Buffer.add_string buf "\\r"
  | '\t' -> Buffer.add_string buf "\\t"
  | c ->
    (* the other control characters, as \u00XX *)
    Buffer.add_string buf "\\u00";
    Buffer.add_char buf hex_digit.[Char.code c lsr 4];
    Buffer.add_char buf hex_digit.[Char.code c land 0xf]

(* runs of bytes that need no escape are copied whole *)
let escape_string buf s =
  Buffer.add_char buf '"';
  let n = String.length s in
  let run = ref 0 in
  for i = 0 to n - 1 do
    let c = String.unsafe_get s i in
    if c = '"' || c = '\\' || Char.code c < 0x20 then begin
      Buffer.add_substring buf s !run (i - !run);
      add_escape buf c;
      run := i + 1
    end
  done;
  Buffer.add_substring buf s !run (n - !run);
  Buffer.add_char buf '"'

let newline buf ~minify depth =
  if not minify then begin
    Buffer.add_char buf '\n';
    for _ = 1 to depth do
      Buffer.add_string buf "  "
    done
  end

let rec write buf ~minify depth = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float x -> add_float buf x
  | Str s -> escape_string buf s
  | Raw text -> Buffer.add_string buf text
  | List [] -> Buffer.add_string buf "[]"
  | List (item :: items) ->
    Buffer.add_char buf '[';
    newline buf ~minify (depth + 1);
    write buf ~minify (depth + 1) item;
    write_items buf ~minify (depth + 1) items;
    newline buf ~minify depth;
    Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj (field :: fields) ->
    Buffer.add_char buf '{';
    newline buf ~minify (depth + 1);
    write_field buf ~minify (depth + 1) field;
    write_fields buf ~minify (depth + 1) fields;
    newline buf ~minify depth;
    Buffer.add_char buf '}'

and write_items buf ~minify depth = function
  | [] -> ()
  | item :: items ->
    Buffer.add_char buf ',';
    newline buf ~minify depth;
    write buf ~minify depth item;
    write_items buf ~minify depth items

and write_field buf ~minify depth (key, v) =
  escape_string buf key;
  Buffer.add_string buf (if minify then ":" else ": ");
  write buf ~minify depth v

and write_fields buf ~minify depth = function
  | [] -> ()
  | field :: fields ->
    Buffer.add_char buf ',';
    newline buf ~minify depth;
    write_field buf ~minify depth field;
    write_fields buf ~minify depth fields

let to_string ?(minify = false) (j : t) =
  let buf = Buffer.create 1024 in
  write buf ~minify 0 j;
  Buffer.contents buf

(* Trees render alike exactly when their shapes, strings and scalar
   texts agree; only scalars can render alike across constructors (a
   non-finite float as null, an integral float of 1e15 or more as an
   integer's digits), so those compare by their short texts *)
let rec equal_minified a b =
  match (a, b) with
  | Str x, Str y | Raw x, Raw y -> String.equal x y
  | Bool x, Bool y -> Bool.equal x y
  | Int x, Int y -> Int.equal x y
  | List xs, List ys -> List.equal equal_minified xs ys
  | Obj xs, Obj ys ->
    List.equal
      (fun (k, v) (k', v') -> String.equal k k' && equal_minified v v')
      xs ys
  | (Null | Int _ | Float _), (Null | Int _ | Float _) ->
    String.equal (to_string a) (to_string b)
  | _ -> false

(* strings and shape decide; every scalar adds the same constant, since
   scalars of different constructors may be equal *)
let hash_minified j =
  let mix h x = ((h * 31) + x) land max_int in
  let rec go h = function
    | Str s | Raw s -> mix h (Hashtbl.hash s)
    | Null | Bool _ | Int _ | Float _ -> mix h 1
    | List items -> List.fold_left go (mix h 2) items
    | Obj fields ->
      List.fold_left (fun h (k, v) -> go (mix h (Hashtbl.hash k)) v) (mix h 3) fields
  in
  go 0 j

let to_file path j =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (to_string j);
      output_char oc '\n')

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let prepend field = function
  | Obj fields -> Obj (field :: fields)
  | other -> other

let set ((key, _) as field) = function
  | Obj fields ->
    if List.mem_assoc key fields then
      Obj (List.map (fun (k, v) -> if String.equal k key then field else (k, v)) fields)
    else Obj (fields @ [ field ])
  | other -> other

(* ------------------------------------------------------------------ *)
(* Reading: recursive descent *)

let max_depth = 512

exception Fail of int * string

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Fail (!pos, msg)) in
  let at c = !pos < n && String.unsafe_get s !pos = c in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && match String.unsafe_get s !pos with
         | ' ' | '\t' | '\n' | '\r' -> true
         | _ -> false
    do
      advance ()
    done
  in
  let expect c = if at c then advance () else fail (Printf.sprintf "expected %C" c) in
  let literal word value =
    let l = String.length word in
    let rec matches i = i = l || (s.[!pos + i] = word.[i] && matches (i + 1)) in
    if !pos + l <= n && matches 0 then begin
      pos := !pos + l;
      value
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  (* move [pos] to the next quote or backslash, or to the end *)
  let skip_plain () =
    while
      !pos < n
      && match String.unsafe_get s !pos with '"' | '\\' -> false | _ -> true
    do
      advance ()
    done
  in
  (* the rest of a string from an escape (or the end) on, copied into
     [buf] a run of plain bytes at a time *)
  let rec escaped buf =
    if !pos >= n then fail "unterminated string";
    let c = s.[!pos] in
    advance ();
    if c = '"' then Buffer.contents buf
    else begin
      if !pos >= n then fail "unterminated escape";
      let e = s.[!pos] in
      advance ();
      (match e with
      | '"' | '\\' | '/' -> Buffer.add_char buf e
      | 'n' -> Buffer.add_char buf '\n'
      | 't' -> Buffer.add_char buf '\t'
      | 'r' -> Buffer.add_char buf '\r'
      | 'b' -> Buffer.add_char buf '\b'
      | 'f' -> Buffer.add_char buf '\012'
      | 'u' ->
        if !pos + 4 > n then fail "truncated \\u escape";
        let code =
          try int_of_string ("0x" ^ String.sub s !pos 4)
          with _ -> fail "bad \\u escape"
        in
        pos := !pos + 4;
        (* encode the code point as UTF-8 (surrogates left as-is) *)
        if code < 0x80 then Buffer.add_char buf (Char.chr code)
        else if code < 0x800 then begin
          Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
          Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
        end
        else begin
          Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
          Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
          Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
        end
      | _ -> fail "bad escape");
      let run = !pos in
      skip_plain ();
      Buffer.add_substring buf s run (!pos - run);
      escaped buf
    end
  in
  (* a string with no escape is one [String.sub] *)
  let parse_string () =
    expect '"';
    let start = !pos in
    skip_plain ();
    if at '"' then begin
      advance ();
      String.sub s start (!pos - 1 - start)
    end
    else begin
      let buf = Buffer.create (2 * (!pos - start) + 16) in
      Buffer.add_substring buf s start (!pos - start);
      escaped buf
    end
  in
  let parse_number () =
    let start = !pos in
    while
      !pos < n
      && match String.unsafe_get s !pos with
         | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
         | _ -> false
    do
      advance ()
    done;
    let tok = String.sub s start (!pos - start) in
    match int_of_string_opt tok with
    | Some i -> Int i
    | None -> (
      match float_of_string_opt tok with
      | Some x -> Float x
      | None -> fail (Printf.sprintf "bad number %S" tok))
  in
  (* [depth] containers enclose the value; one more may open unless
     that makes [max_depth] + 1 *)
  let enter depth =
    if depth >= max_depth then
      fail (Printf.sprintf "nesting deeper than %d" max_depth);
    advance ();
    skip_ws ();
    depth + 1
  in
  let rec parse_value depth =
    skip_ws ();
    if !pos >= n then fail "unexpected end of input";
    match String.unsafe_get s !pos with
    | '{' ->
      let depth = enter depth in
      if at '}' then begin
        advance ();
        Obj []
      end
      else Obj (parse_fields depth [])
    | '[' ->
      let depth = enter depth in
      if at ']' then begin
        advance ();
        List []
      end
      else List (parse_items depth [])
    | '"' -> Str (parse_string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ -> parse_number ()
  and parse_fields depth acc =
    skip_ws ();
    let key = parse_string () in
    skip_ws ();
    expect ':';
    let acc = (key, parse_value depth) :: acc in
    skip_ws ();
    if at ',' then begin
      advance ();
      parse_fields depth acc
    end
    else if at '}' then begin
      advance ();
      List.rev acc
    end
    else fail "expected ',' or '}'"
  and parse_items depth acc =
    let acc = parse_value depth :: acc in
    skip_ws ();
    if at ',' then begin
      advance ();
      parse_items depth acc
    end
    else if at ']' then begin
      advance ();
      List.rev acc
    end
    else fail "expected ',' or ']'"
  in
  match
    let v = parse_value 0 in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Fail (at, msg) -> Error (Printf.sprintf "at byte %d: %s" at msg)
