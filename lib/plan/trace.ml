type src = Disk | Memory

type event =
  | Step_begin of { step : int; stmt : string; instance : (string * int) list }
  | Step_end of { step : int }
  | Read of { step : int; array : string; index : int list; src : src }
  | Write of { step : int; array : string; index : int list; elided : bool }
  | Pin_open of { step : int; array : string; index : int list }
  | Pin_close of { step : int; array : string; index : int list }
  | Drop of { step : int; array : string; index : int list }
  | Evict of { step : int; array : string; index : int list; flushed : bool }

let step_of = function
  | Step_begin { step; _ } | Step_end { step } | Read { step; _ } | Write { step; _ }
  | Pin_open { step; _ } | Pin_close { step; _ } | Drop { step; _ } | Evict { step; _ } ->
      step

type sink = { emit : event -> unit }

let collector () =
  let events = ref [] in
  ({ emit = (fun e -> events := e :: !events) }, fun () -> List.rev !events)

let tee a b = { emit = (fun e -> a.emit e; b.emit e) }

(* --- Text ------------------------------------------------------------------- *)

let pp_index ppf index =
  Format.fprintf ppf "[%s]" (String.concat "," (List.map string_of_int index))

let pp_event ppf = function
  | Step_begin { step; stmt; instance } ->
      Format.fprintf ppf "step %d begin %s (%s)" step stmt
        (String.concat ", "
           (List.map (fun (v, x) -> Printf.sprintf "%s=%d" v x) instance))
  | Step_end { step } -> Format.fprintf ppf "step %d end" step
  | Read { step; array; index; src } ->
      Format.fprintf ppf "step %d read %s%a <- %s" step array pp_index index
        (match src with Disk -> "disk" | Memory -> "memory")
  | Write { step; array; index; elided } ->
      Format.fprintf ppf "step %d write %s%a -> %s" step array pp_index index
        (if elided then "elided" else "disk")
  | Pin_open { step; array; index } ->
      Format.fprintf ppf "step %d pin %s%a" step array pp_index index
  | Pin_close { step; array; index } ->
      Format.fprintf ppf "step %d unpin %s%a" step array pp_index index
  | Drop { step; array; index } ->
      Format.fprintf ppf "step %d drop %s%a" step array pp_index index
  | Evict { step; array; index; flushed } ->
      Format.fprintf ppf "step %d evict %s%a%s" step array pp_index index
        (if flushed then " (flushed)" else "")

let text ppf = { emit = (fun e -> Format.fprintf ppf "%a@." pp_event e) }

(* --- JSONL ------------------------------------------------------------------ *)

(* Events carry only identifiers (array and statement names, loop variables),
   which never need escaping; emit rejects anything that would. *)
let json_string s =
  String.iter
    (fun c ->
      if c = '"' || c = '\\' || Char.code c < 0x20 then
        invalid_arg "Trace.to_json: name needs escaping")
    s;
  "\"" ^ s ^ "\""

let json_index index = "[" ^ String.concat "," (List.map string_of_int index) ^ "]"

let block_fields step array index =
  Printf.sprintf "\"step\":%d,\"array\":%s,\"index\":%s" step (json_string array)
    (json_index index)

let to_json = function
  | Step_begin { step; stmt; instance } ->
      Printf.sprintf "{\"ev\":\"step_begin\",\"step\":%d,\"stmt\":%s,\"instance\":{%s}}"
        step (json_string stmt)
        (String.concat ","
           (List.map
              (fun (v, x) -> Printf.sprintf "%s:%d" (json_string v) x)
              instance))
  | Step_end { step } -> Printf.sprintf "{\"ev\":\"step_end\",\"step\":%d}" step
  | Read { step; array; index; src } ->
      Printf.sprintf "{\"ev\":\"read\",%s,\"src\":%s}" (block_fields step array index)
        (json_string (match src with Disk -> "disk" | Memory -> "memory"))
  | Write { step; array; index; elided } ->
      Printf.sprintf "{\"ev\":\"write\",%s,\"elided\":%b}" (block_fields step array index)
        elided
  | Pin_open { step; array; index } ->
      Printf.sprintf "{\"ev\":\"pin_open\",%s}" (block_fields step array index)
  | Pin_close { step; array; index } ->
      Printf.sprintf "{\"ev\":\"pin_close\",%s}" (block_fields step array index)
  | Drop { step; array; index } ->
      Printf.sprintf "{\"ev\":\"drop\",%s}" (block_fields step array index)
  | Evict { step; array; index; flushed } ->
      Printf.sprintf "{\"ev\":\"evict\",%s,\"flushed\":%b}" (block_fields step array index)
        flushed

let jsonl write_line = { emit = (fun e -> write_line (to_json e)) }

(* A minimal JSON reader covering exactly what [to_json] emits: one object
   per line; values are strings, integers, booleans, arrays of integers, or
   one level of nested object with integer values. *)

type jv = S of string | I of int | B of bool | L of int list | O of (string * jv) list

exception Parse_error of string

let of_json line =
  let n = String.length line in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at %d in %s" msg !pos line)) in
  let peek () = if !pos < n then line.[!pos] else '\000' in
  let advance () = incr pos in
  let expect c = if peek () = c then advance () else fail (Printf.sprintf "expected %c" c) in
  let skip_ws () = while peek () = ' ' do advance () done in
  let parse_string () =
    expect '"';
    let b = Buffer.create 8 in
    while peek () <> '"' && peek () <> '\000' do
      if peek () = '\\' then fail "escape unsupported";
      Buffer.add_char b (peek ());
      advance ()
    done;
    expect '"';
    Buffer.contents b
  in
  let parse_int () =
    let start = !pos in
    if peek () = '-' then advance ();
    while peek () >= '0' && peek () <= '9' do advance () done;
    match int_of_string_opt (String.sub line start (!pos - start)) with
    | Some i -> i
    | None -> fail "expected integer"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | '"' -> S (parse_string ())
    | '[' ->
        advance ();
        skip_ws ();
        if peek () = ']' then begin advance (); L [] end
        else begin
          let xs = ref [ parse_int () ] in
          skip_ws ();
          while peek () = ',' do
            advance ();
            skip_ws ();
            xs := parse_int () :: !xs;
            skip_ws ()
          done;
          expect ']';
          L (List.rev !xs)
        end
    | '{' -> O (parse_object ())
    | 't' ->
        if !pos + 4 <= n && String.sub line !pos 4 = "true" then begin
          pos := !pos + 4;
          B true
        end
        else fail "expected true"
    | 'f' ->
        if !pos + 5 <= n && String.sub line !pos 5 = "false" then begin
          pos := !pos + 5;
          B false
        end
        else fail "expected false"
    | c when c = '-' || (c >= '0' && c <= '9') -> I (parse_int ())
    | _ -> fail "unexpected character"
  and parse_object () =
    expect '{';
    skip_ws ();
    if peek () = '}' then begin advance (); [] end
    else begin
      let field () =
        skip_ws ();
        let k = parse_string () in
        skip_ws ();
        expect ':';
        let v = parse_value () in
        skip_ws ();
        (k, v)
      in
      let fields = ref [ field () ] in
      while peek () = ',' do
        advance ();
        fields := field () :: !fields
      done;
      expect '}';
      List.rev !fields
    end
  in
  let fields = parse_object () in
  skip_ws ();
  if !pos <> n then fail "trailing characters";
  let str k = match List.assoc_opt k fields with Some (S s) -> s | _ -> fail ("missing string " ^ k) in
  let int k = match List.assoc_opt k fields with Some (I i) -> i | _ -> fail ("missing int " ^ k) in
  let bool k = match List.assoc_opt k fields with Some (B b) -> b | _ -> fail ("missing bool " ^ k) in
  let index () = match List.assoc_opt "index" fields with Some (L l) -> l | _ -> fail "missing index" in
  let block () = (int "step", str "array", index ()) in
  match str "ev" with
  | "step_begin" ->
      let instance =
        match List.assoc_opt "instance" fields with
        | Some (O kvs) ->
            List.map
              (fun (k, v) -> match v with I i -> (k, i) | _ -> fail "instance value")
              kvs
        | _ -> fail "missing instance"
      in
      Step_begin { step = int "step"; stmt = str "stmt"; instance }
  | "step_end" -> Step_end { step = int "step" }
  | "read" ->
      let step, array, index = block () in
      let src =
        match str "src" with
        | "disk" -> Disk
        | "memory" -> Memory
        | _ -> fail "bad src"
      in
      Read { step; array; index; src }
  | "write" ->
      let step, array, index = block () in
      Write { step; array; index; elided = bool "elided" }
  | "pin_open" ->
      let step, array, index = block () in
      Pin_open { step; array; index }
  | "pin_close" ->
      let step, array, index = block () in
      Pin_close { step; array; index }
  | "drop" ->
      let step, array, index = block () in
      Drop { step; array; index }
  | "evict" ->
      let step, array, index = block () in
      Evict { step; array; index; flushed = bool "flushed" }
  | ev -> fail ("unknown event " ^ ev)
