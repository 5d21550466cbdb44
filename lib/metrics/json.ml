type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Assoc of (string * t) list

(* ----------------------------------------------------------- serializer *)

let escape_string s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* Shortest decimal spelling that parses back to the same bits, so a
   serialize/parse round trip is the identity on finite floats. *)
let float_repr f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.1f" f
  else
    let s15 = Printf.sprintf "%.15g" f in
    if float_of_string s15 = f then s15
    else
      let s16 = Printf.sprintf "%.16g" f in
      if float_of_string s16 = f then s16 else Printf.sprintf "%.17g" f

let to_string ?(minify = false) j =
  let buf = Buffer.create 256 in
  let nl indent =
    if not minify then begin
      Buffer.add_char buf '\n';
      Buffer.add_string buf (String.make indent ' ')
    end
  in
  let rec go indent = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f ->
      if Float.is_finite f then Buffer.add_string buf (float_repr f)
      else Buffer.add_string buf "null"
    | String s ->
      Buffer.add_char buf '"';
      Buffer.add_string buf (escape_string s);
      Buffer.add_char buf '"'
    | List [] -> Buffer.add_string buf "[]"
    | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          nl (indent + 2);
          go (indent + 2) item)
        items;
      nl indent;
      Buffer.add_char buf ']'
    | Assoc [] -> Buffer.add_string buf "{}"
    | Assoc fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          nl (indent + 2);
          Buffer.add_char buf '"';
          Buffer.add_string buf (escape_string k);
          Buffer.add_string buf (if minify then "\":" else "\": ");
          go (indent + 2) v)
        fields;
      nl indent;
      Buffer.add_char buf '}'
  in
  go 0 j;
  Buffer.contents buf

(* --------------------------------------------------------------- parser *)

exception Parse_error of int * string

(* Arrays and objects nest at most this deep. Each level is one frame of
   [parse_value]'s recursion on the parsing domain's stack, so without a
   bound a request of nothing but ['['] would exhaust it. *)
let max_depth = 512

(* The one parser, over the first [n] bytes of [s]: it only reads [s],
   and every string it returns is a fresh copy, so the tree never aliases
   the caller's buffer. *)
let parse s n =
  let pos = ref 0 in
  let fail msg = raise (Parse_error (!pos, msg)) in
  let peek () = if !pos < n then Some (Bytes.get s !pos) else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && match Bytes.get s !pos with
         | ' ' | '\t' | '\n' | '\r' -> true
         | _ -> false
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | Some c' -> fail (Printf.sprintf "expected '%c', found '%c'" c c')
    | None -> fail (Printf.sprintf "expected '%c', found end of input" c)
  in
  let literal word value =
    let k = String.length word in
    let rec matches i =
      i = k || (Bytes.get s (!pos + i) = word.[i] && matches (i + 1))
    in
    if !pos + k <= n && matches 0 then begin
      pos := !pos + k;
      value
    end
    else fail (Printf.sprintf "invalid literal (expected %s)" word)
  in
  (* UTF-8-encode one code point from a \uXXXX escape (surrogate pairs are
     combined by the caller). *)
  let add_utf8 buf cp =
    if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
    else if cp < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else if cp < 0x10000 then begin
      Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
  in
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let digit c =
      match c with
      | '0' .. '9' -> Char.code c - Char.code '0'
      | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
      | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
      | c -> fail (Printf.sprintf "invalid hex digit '%c' in \\u escape" c)
    in
    let v = ref 0 in
    for i = 0 to 3 do
      v := (!v lsl 4) lor digit (Bytes.get s (!pos + i))
    done;
    pos := !pos + 4;
    !v
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec loop () =
      if !pos >= n then fail "unterminated string";
      let c = Bytes.get s !pos in
      advance ();
      match c with
      | '"' -> Buffer.contents buf
      | '\\' -> (
        if !pos >= n then fail "unterminated escape";
        let e = Bytes.get s !pos in
        advance ();
        match e with
        | '"' -> Buffer.add_char buf '"'; loop ()
        | '\\' -> Buffer.add_char buf '\\'; loop ()
        | '/' -> Buffer.add_char buf '/'; loop ()
        | 'n' -> Buffer.add_char buf '\n'; loop ()
        | 't' -> Buffer.add_char buf '\t'; loop ()
        | 'r' -> Buffer.add_char buf '\r'; loop ()
        | 'b' -> Buffer.add_char buf '\b'; loop ()
        | 'f' -> Buffer.add_char buf '\012'; loop ()
        | 'u' ->
          let cp = hex4 () in
          let cp =
            if cp >= 0xD800 && cp <= 0xDBFF && !pos + 6 <= n
               && Bytes.get s !pos = '\\' && Bytes.get s (!pos + 1) = 'u'
            then begin
              pos := !pos + 2;
              let lo = hex4 () in
              0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00)
            end
            else cp
          in
          add_utf8 buf cp;
          loop ()
        | c -> fail (Printf.sprintf "invalid escape '\\%c'" c))
      | c -> Buffer.add_char buf c; loop ()
    in
    loop ()
  in
  let parse_number () =
    let start = !pos in
    let is_float = ref false in
    if peek () = Some '-' then advance ();
    while
      !pos < n
      && match Bytes.get s !pos with
         | '0' .. '9' -> true
         | '.' | 'e' | 'E' | '+' | '-' ->
           is_float := true;
           true
         | _ -> false
    do
      advance ()
    done;
    let text = Bytes.sub_string s start (!pos - start) in
    if !is_float then
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> fail (Printf.sprintf "invalid number %S" text)
    else
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> (
        (* Out of int range: fall back to float. *)
        match float_of_string_opt text with
        | Some f -> Float f
        | None -> fail (Printf.sprintf "invalid number %S" text))
  in
  (* [depth] counts the arrays and objects around the value. *)
  let rec parse_value depth =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('[' | '{') when depth >= max_depth ->
      fail (Printf.sprintf "nesting deeper than %d" max_depth)
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        List []
      end
      else begin
        let items = ref [ parse_value (depth + 1) ] in
        skip_ws ();
        while peek () = Some ',' do
          advance ();
          items := parse_value (depth + 1) :: !items;
          skip_ws ()
        done;
        expect ']';
        List (List.rev !items)
      end
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Assoc []
      end
      else begin
        let field () =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value (depth + 1) in
          (k, v)
        in
        let fields = ref [ field () ] in
        skip_ws ();
        while peek () = Some ',' do
          advance ();
          fields := field () :: !fields;
          skip_ws ()
        done;
        expect '}';
        Assoc (List.rev !fields)
      end
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail (Printf.sprintf "unexpected character '%c'" c)
  in
  match
    let v = parse_value 0 in
    skip_ws ();
    if !pos <> n then fail "trailing garbage after document";
    v
  with
  | v -> Ok v
  | exception Parse_error (at, msg) ->
    Error (Printf.sprintf "at byte %d: %s" at msg)

let of_bytes b ~len =
  if len < 0 || len > Bytes.length b then invalid_arg "Json.of_bytes: len";
  parse b len

(* [parse] never writes to its input, so the string can be read in place. *)
let of_string s = parse (Bytes.unsafe_of_string s) (String.length s)

(* ------------------------------------------------------------ accessors *)

let member k = function
  | Assoc fields -> List.assoc_opt k fields
  | _ -> None

let to_int_opt = function Int i -> Some i | _ -> None

let to_float_opt = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None

let to_string_opt = function String s -> Some s | _ -> None

let to_list_opt = function List l -> Some l | _ -> None

let rec equal a b =
  match (a, b) with
  | Null, Null -> true
  | Bool x, Bool y -> x = y
  | Int x, Int y -> x = y
  | Float x, Float y -> x = y
  | String x, String y -> x = y
  | List x, List y ->
    List.length x = List.length y && List.for_all2 equal x y
  | Assoc x, Assoc y ->
    let sort = List.sort (fun (k, _) (k', _) -> compare k k') in
    let x = sort x and y = sort y in
    List.length x = List.length y
    && List.for_all2 (fun (k, v) (k', v') -> k = k' && equal v v') x y
  | _ -> false
