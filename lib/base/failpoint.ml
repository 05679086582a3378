type trigger =
  | Always
  | Nth of int
  | Every of int
  | Prob of float * int

type site = {
  trigger : trigger;
  rng : Random.State.t option;  (* only for Prob *)
  mutable hits : int;
  mutable fired : int;
}

let sites : (string, site) Hashtbl.t = Hashtbl.create 8

(* Cached so the common (nothing armed) path in [should_fail] is one load
   and one comparison. *)
let armed_count = ref 0

let armed () = !armed_count > 0
let is_armed name = Hashtbl.mem sites name

let disarm name =
  if Hashtbl.mem sites name then begin
    Hashtbl.remove sites name;
    decr armed_count
  end

let arm name trigger =
  disarm name;
  let rng =
    match trigger with
    | Prob (_, seed) -> Some (Random.State.make [| seed; 0x4641494C |])
    | _ -> None
  in
  Hashtbl.add sites name { trigger; rng; hits = 0; fired = 0 };
  incr armed_count

let reset () =
  Hashtbl.reset sites;
  armed_count := 0

let should_fail name =
  !armed_count > 0
  &&
  match Hashtbl.find_opt sites name with
  | None -> false
  | Some s ->
      s.hits <- s.hits + 1;
      let fire =
        match s.trigger with
        | Always -> true
        | Nth n -> s.hits = n
        | Every k -> k > 0 && s.hits mod k = 0
        | Prob (p, _) -> (
            match s.rng with
            | Some st -> Random.State.float st 1.0 < p
            | None -> false)
      in
      if fire then s.fired <- s.fired + 1;
      fire

let hits name =
  match Hashtbl.find_opt sites name with Some s -> s.hits | None -> 0

let fired name =
  match Hashtbl.find_opt sites name with Some s -> s.fired | None -> 0

let total_fired () = Hashtbl.fold (fun _ s acc -> acc + s.fired) sites 0

let list () =
  Hashtbl.fold (fun name s acc -> (name, s.trigger, s.hits, s.fired) :: acc) sites []
  |> List.sort (fun (a, _, _, _) (b, _, _, _) -> compare a b)

let trigger_to_string = function
  | Always -> "always"
  | Nth n -> Printf.sprintf "nth:%d" n
  | Every k -> Printf.sprintf "every:%d" k
  | Prob (p, seed) -> Printf.sprintf "prob:%g:%d" p seed

let bad spec reason =
  invalid_arg (Printf.sprintf "Failpoint.parse_spec: %s in %S" reason spec)

let parse_trigger spec s =
  match String.split_on_char ':' (String.trim s) with
  | [ "always" ] -> Always
  | [ "nth"; n ] -> (
      match int_of_string_opt n with
      | Some n when n >= 1 -> Nth n
      | _ -> bad spec "nth wants a positive integer")
  | [ "every"; k ] -> (
      match int_of_string_opt k with
      | Some k when k >= 1 -> Every k
      | _ -> bad spec "every wants a positive integer")
  | [ "prob"; p ] | [ "prob"; p; "" ] -> (
      match float_of_string_opt p with
      | Some p when p >= 0. && p <= 1. -> Prob (p, 0)
      | _ -> bad spec "prob wants a probability in [0,1]")
  | [ "prob"; p; seed ] -> (
      match (float_of_string_opt p, int_of_string_opt seed) with
      | Some p, Some seed when p >= 0. && p <= 1. -> Prob (p, seed)
      | _ -> bad spec "prob wants a probability in [0,1] and an integer seed")
  | _ -> bad spec "unknown trigger"

let parse_spec spec =
  String.split_on_char ',' spec
  |> List.concat_map (String.split_on_char ';')
  |> List.filter_map (fun entry ->
         let entry = String.trim entry in
         if entry = "" then None
         else
           match String.index_opt entry '=' with
           | None -> bad spec "entry without '='"
           | Some i ->
               let name = String.trim (String.sub entry 0 i) in
               if name = "" then bad spec "empty failpoint name"
               else
                 let trig =
                   String.sub entry (i + 1) (String.length entry - i - 1)
                 in
                 Some (name, parse_trigger spec trig))

let arm_spec spec = List.iter (fun (n, t) -> arm n t) (parse_spec spec)

let env_var = "RIOT_FAILPOINTS"

let env_spec () =
  match Sys.getenv_opt env_var with
  | Some spec when String.trim spec <> "" -> Some spec
  | _ -> None

let arm_from_env () =
  match env_spec () with
  | Some spec ->
      arm_spec spec;
      true
  | None -> false
