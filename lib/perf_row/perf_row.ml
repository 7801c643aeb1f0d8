(* The BENCH_PERF.json format: one row type, its writer, a small JSON
   reader and the table of gated metrics. Stdlib only, so the gate stays
   dependency-free; the experiment registry (lib/workloads/experiments.ml)
   builds rows, bench/main.exe writes them and bench/perf_gate.exe reads
   them.

   A file is one JSON object: ["schema"], ["mode"], then one array per
   row family (["experiments"], ["phases"], ["bigmachine"], ...). Every
   row is an object with a string ["key"] (unique in its family) and
   numeric-or-null metrics. Numbers are written in the shortest form that
   reads back to the same float, so simulated values round-trip exactly. *)

let schema = 8

type row = { family : string; key : string; metrics : (string * float option) list }

let row family key metrics = { family; key; metrics }
let int name v = (name, Some (float_of_int v))
let float name v = (name, Some v)

(* ----- writer ----- *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | ('"' | '\\') as c ->
          Buffer.add_char b '\\';
          Buffer.add_char b c
      | c when Char.code c < 32 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_number = function
  | Some v when Float.is_integer v && Float.abs v < 1e15 -> Printf.sprintf "%.0f" v
  | Some v when Float.is_finite v ->
      let shortest p = Printf.sprintf "%.*g" p v in
      List.find
        (fun s -> Float.equal (float_of_string s) v)
        [ shortest 15; shortest 16; shortest 17 ]
  | Some _ | None -> "null"

(* Families appear in the order of their first row; rows keep their order. *)
let write path ~mode rows =
  let families =
    List.fold_left
      (fun acc r -> if List.mem r.family acc then acc else r.family :: acc)
      [] rows
    |> List.rev
  in
  let row_json r =
    String.concat ", "
      (("\"key\": " ^ json_string r.key)
      :: List.map (fun (m, v) -> json_string m ^ ": " ^ json_number v) r.metrics)
  in
  let family_json f =
    let rs = List.filter (fun r -> String.equal r.family f) rows in
    Printf.sprintf "  %s: [\n    {%s}\n  ]" (json_string f)
      (String.concat "},\n    {" (List.map row_json rs))
  in
  let members =
    Printf.sprintf "  \"schema\": %d" schema
    :: ("  \"mode\": " ^ json_string mode)
    :: List.map family_json families
  in
  let oc = open_out_bin path in
  Printf.fprintf oc "{\n%s\n}\n" (String.concat ",\n" members);
  close_out oc

(* ----- gated metrics ----- *)

type direction = Lower | Higher

(* [Normalized] divides by the same metric of the file's ("total", "run")
   row, which cancels host speed: it only moves when one experiment slows
   down relative to the rest of the run. *)
type kind = Raw | Normalized

type gate = {
  family : string;
  metric : string;
  better : direction;
  kind : kind;
  needs : (string * float) list;  (** row metrics that must be [>=] their bound *)
}

let min_ops = 100_000

let gates =
  let own_work = [ ("own_runs", 1.0); ("engine_ops", float_of_int min_ops) ] in
  let shot = [ ("shootdowns", 1.0) ] in
  let g family metric better kind needs = { family; metric; better; kind; needs } in
  [
    g "experiments" "engine_ops_per_s" Higher Normalized own_work;
    g "experiments" "minor_words_per_engine_op" Lower Raw own_work;
    g "phases" "p50" Lower Raw [ ("count", 1.0) ];
    g "phases" "p99" Lower Raw [ ("count", 1.0) ];
    g "bigmachine" "cycles_per_shootdown" Lower Raw shot;
    g "shootout" "initiator_mean" Lower Raw shot;
    g "workloads" "throughput" Higher Raw shot;
    g "workloads" "cycles_per_shootdown" Lower Raw shot;
  ]

let is_gated family metric =
  List.exists
    (fun g -> String.equal g.family family && String.equal g.metric metric)
    gates

(* ----- reader ----- *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of (int * json) list  (** elements with their byte offsets *)
  | Obj of (string * int * json) list  (** members with their values' offsets *)

exception Bad of int * string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad (!pos, msg)) in
  let peek () = if !pos < n then s.[!pos] else fail "unexpected end of file" in
  let rec ws () =
    match if !pos < n then s.[!pos] else 'x' with
    | ' ' | '\t' | '\n' | '\r' ->
        incr pos;
        ws ()
    | _ -> ()
  in
  let expect c =
    if Char.equal (peek ()) c then incr pos else fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.equal (String.sub s !pos l) word then begin
      pos := !pos + l;
      v
    end
    else fail "invalid literal"
  in
  let string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | '"' -> incr pos
      | '\\' ->
          incr pos;
          let c = peek () in
          incr pos;
          (match c with
          | '"' | '\\' | '/' -> Buffer.add_char b c
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | 'r' -> Buffer.add_char b '\r'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'u' -> (
              match
                if !pos + 4 <= n then int_of_string_opt ("0x" ^ String.sub s !pos 4)
                else None
              with
              | Some u when Uchar.is_valid u ->
                  pos := !pos + 4;
                  Buffer.add_utf_8_uchar b (Uchar.of_int u)
              | _ -> fail "bad \\u escape")
          | _ -> fail "bad escape");
          go ()
      | c when Char.code c < 32 -> fail "control character in string"
      | c ->
          Buffer.add_char b c;
          incr pos;
          go ()
    in
    go ();
    Buffer.contents b
  in
  let number () =
    let start = !pos in
    while
      !pos < n
      && match s.[!pos] with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
    do
      incr pos
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some v -> Num v
    | None ->
        pos := start;
        fail "invalid number"
  in
  let rec value () =
    ws ();
    match peek () with
    | '{' ->
        incr pos;
        Obj
          (seq '}' (fun () ->
               ws ();
               let k = string () in
               ws ();
               expect ':';
               ws ();
               let at = !pos in
               (k, at, value ())))
    | '[' ->
        incr pos;
        Arr
          (seq ']' (fun () ->
               ws ();
               let at = !pos in
               (at, value ())))
    | '"' -> Str (string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | '-' | '0' .. '9' -> number ()
    | _ -> fail "unexpected character"
  (* Comma-separated items up to [close]; the opening bracket is consumed. *)
  and seq : 'a. char -> (unit -> 'a) -> 'a list =
   fun close item ->
    ws ();
    if Char.equal (peek ()) close then begin
      incr pos;
      []
    end
    else
      let rec go acc =
        let acc = item () :: acc in
        ws ();
        match peek () with
        | ',' ->
            incr pos;
            go acc
        | c when Char.equal c close ->
            incr pos;
            List.rev acc
        | _ -> fail (Printf.sprintf "expected ',' or '%c'" close)
      in
      go []
  in
  let v = value () in
  ws ();
  if !pos < n then fail "trailing data after the top-level value";
  v

type file = { file_schema : int; rows : row list }

let row_of_json family (at, v) =
  let bad at fmt = Printf.ksprintf (fun msg -> raise (Bad (at, msg))) fmt in
  match v with
  | Obj members -> (
      match List.find_opt (fun (k, _, _) -> String.equal k "key") members with
      | Some (_, _, Str key) ->
          let metric (name, at, v) =
            match v with
            | _ when String.equal name "key" -> None
            | Num f -> Some (name, Some f)
            | Null -> Some (name, None)
            | _ when is_gated family name ->
                bad at "%s/%s: gated metric %S is neither a number nor null" family key
                  name
            | _ -> None
          in
          row family key (List.filter_map metric members)
      | _ -> bad at "row in %S has no string \"key\"" family)
  | _ -> bad at "row in %S is not an object" family

(* [Error] names the file and the byte offset of the first problem. A
   file older than [schema] is an error too: its rows have no "key". *)
let read path =
  let s = In_channel.with_open_bin path In_channel.input_all in
  try
    match parse s with
    | Obj members ->
        let file_schema =
          match List.find_opt (fun (k, _, _) -> String.equal k "schema") members with
          | Some (_, _, Num v) -> int_of_float v
          | Some (_, at, _) -> raise (Bad (at, "\"schema\" is not a number"))
          | None -> 0
        in
        if file_schema < schema then
          Error
            (Printf.sprintf "%s declares schema %d, older than %d: regenerate it" path
               file_schema schema)
        else
          let rows =
            List.concat_map
              (function
                | family, _, Arr elems -> List.map (row_of_json family) elems | _ -> [])
              members
          in
          Ok { file_schema; rows }
    | _ -> Error (Printf.sprintf "%s: byte 0: top level is not an object" path)
  with Bad (at, msg) -> Error (Printf.sprintf "%s: byte %d: %s" path at msg)
