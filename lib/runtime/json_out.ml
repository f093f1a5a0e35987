(** The runtime's one JSON encoder: append-to-buffer helpers for the
    flat objects of journal, decision, metrics, what-if report and error
    lines (DESIGN.md §10.2).

    An object opens with a literal prefix (["{\"seq\":N"] or
    ["{\"type\":\"...\""]); [int], [string], [decimal] and [num] each
    append one [,"key":value] member, and the caller closes the brace.
    Keys are literals from this library and are written as given; only
    string values are escaped.

    Decimals come from [caml_format_float], the C primitive behind
    [Printf]'s ["%.12g"]: the same bytes, without interpreting a
    format string on every call. A decimal that is not finite is
    written [null]: JSON has no literal for inf or nan.

    The solver's pretty-printed report ([Driver.to_json], behind
    [solve --json]) renders its numbers and strings with {!number} and
    {!add_escaped} too. *)

external format_float : string -> float -> string = "caml_format_float"

(** [,"k":] *)
let key b k =
  Buffer.add_string b ",\"";
  Buffer.add_string b k;
  Buffer.add_string b "\":"

(** A decimal rendering, exactly [Printf.sprintf "%.12g" x]. *)
let decimal_string x = format_float "%.12g" x

(** A JSON number: {!decimal_string} of a finite [x], and [null] for
    inf and nan, which JSON has no literal for. A [_repr] member beside
    it keeps the exact value. *)
let number x = if Float.is_finite x then decimal_string x else "null"

let hex_digit = "0123456789abcdef"

(** The body of a JSON string (no quotes), escaped as RFC 8259 asks:
    a backslash before each quote and backslash; [\n], [\r] and [\t];
    [\u00XX] for the rest of U+0000–U+001F. Runs that need no escape
    are copied in one piece. *)
let add_escaped b s =
  let n = String.length s in
  let start = ref 0 in
  for i = 0 to n - 1 do
    let c = String.unsafe_get s i in
    if c = '"' || c = '\\' || Char.code c < 0x20 then begin
      Buffer.add_substring b s !start (i - !start);
      (match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c ->
        Buffer.add_string b "\\u00";
        Buffer.add_char b hex_digit.[Char.code c lsr 4];
        Buffer.add_char b hex_digit.[Char.code c land 15]);
      start := i + 1
    end
  done;
  Buffer.add_substring b s !start (n - !start)

(** [,"k":n] *)
let int b k n =
  key b k;
  Buffer.add_string b (string_of_int n)

(** [,"k":<number>] — a decimal-only number (wall-clock gauges). *)
let decimal b k x =
  key b k;
  Buffer.add_string b (number x)

(** [,"k":"<escaped s>"] *)
let string b k s =
  key b k;
  Buffer.add_char b '"';
  add_escaped b s;
  Buffer.add_char b '"'

(** The dual number field, [,"k":<number>,"k_repr":"<repr>"]: a
    [%.12g] decimal ([null] when not finite) for tooling beside the
    field's exact rendering ({!Mwct_field.Field.S.repr}), which is what
    readers parse. *)
let num b k x repr =
  decimal b k x;
  Buffer.add_string b ",\"";
  Buffer.add_string b k;
  Buffer.add_string b "_repr\":\"";
  add_escaped b repr;
  Buffer.add_char b '"'
