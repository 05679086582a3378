module B = Riot_ir.Build
module Array_info = Riot_ir.Array_info
module Program = Riot_ir.Program
module Config = Riot_ir.Config
module Kernel = Riot_ir.Kernel
module Access = Riot_ir.Access

let nval = 3
let ref_params = [ ("n", nval) ]
let seed_env_var = "RIOT_TEST_SEED"

let master_seed () =
  match Option.bind (Sys.getenv_opt seed_env_var) int_of_string_opt with
  | Some s -> s
  | None -> 77

(* Subscripts stay inside the [0, n) grid: the loop variable itself, the
   reversed n-1-v, or the constant 0. *)
let sub_of vars rng =
  match vars with
  | [] -> B.cst 0
  | _ -> (
      let v = List.nth vars (Random.State.int rng (List.length vars)) in
      match Random.State.int rng 4 with
      | 0 | 1 -> B.var v
      | 2 -> B.(cst (-1) + var "n" - var v)
      | _ -> B.cst 0)

let gen rng =
  let n_arrays = 2 + Random.State.int rng 2 in
  let arrays =
    List.init n_arrays (fun i ->
        let kind =
          match Random.State.int rng 3 with
          | 0 -> Array_info.Input
          | 1 -> Array_info.Intermediate
          | _ -> Array_info.Output
        in
        Array_info.make ~kind (Printf.sprintf "R%d" i) ~ndims:2)
  in
  let array_name i = Printf.sprintf "R%d" (i mod n_arrays) in
  let n_nests = 2 + Random.State.int rng 2 in
  let counter = ref 0 in
  let nest ni =
    let depth = 1 + Random.State.int rng 2 in
    let vars = List.init depth (fun d -> Printf.sprintf "v%d_%d" ni d) in
    incr counter;
    let sname = Printf.sprintf "s%d" !counter in
    let acc typ ai =
      let s1 = sub_of vars rng and s2 = sub_of vars rng in
      (typ, array_name ai, [ s1; s2 ], [])
    in
    let w = acc Access.Write (Random.State.int rng n_arrays) in
    let reads =
      List.init
        (1 + Random.State.int rng 2)
        (fun _ -> acc Access.Read (Random.State.int rng n_arrays))
    in
    let stmt = B.stmt sname ~kernel:(Kernel.Opaque "rand") ~accs:(w :: reads) in
    let rec wrap vars body =
      match vars with
      | [] -> body
      | v :: rest -> [ B.for_ v ~lo:(B.cst 0) ~hi:(B.var "n") (wrap rest body) ]
    in
    List.hd (wrap vars [ stmt ])
  in
  B.program ~name:"random" ~params:[ "n" ] ~arrays (List.init n_nests nest)

(* Chain programs for the vectorized executor: named element-wise kernels
   wired producer-to-consumer through intermediate arrays with identity
   subscripts, so that plans realizing the W->R sharing yield fusable runs
   (and plans that don't exercise the singles path on the same kernels). *)
(* Program sizes stay gen-like (2-5 statements): the Farkas schedule search
   behind [Search.enumerate] is super-linear in statement count, and both
   the fault campaign and the differential tests enumerate these. *)
let gen_ew rng =
  let n_chains = 1 in
  let counter = ref 0 in
  let fresh () =
    incr counter;
    Printf.sprintf "s%d" !counter
  in
  let inputs = [ "A"; "B" ] in
  let input rng = List.nth inputs (Random.State.int rng 2) in
  let t_name ni k = Printf.sprintf "T%d_%d" ni k in
  let chain_arrays = ref [] in
  let chain ni =
    let vars = [ Printf.sprintf "v%d_0" ni; Printf.sprintf "v%d_1" ni ] in
    let ids = List.map B.var vars in
    let len = 2 + Random.State.int rng 3 in
    let out = Printf.sprintf "O%d" ni in
    let rss = Random.State.int rng 3 = 0 in
    (* Intermediates T<ni>_1 .. T<ni>_<len-1> carry the chain; the last
       statement lands in O<ni>. *)
    chain_arrays :=
      Array_info.make ~kind:Array_info.Output out ~ndims:2
      :: List.init (len - 1) (fun k ->
             Array_info.make ~kind:Array_info.Intermediate (t_name ni (k + 1))
               ~ndims:2)
      @ !chain_arrays;
    let unary prev dst =
      let kernel =
        match Random.State.int rng 3 with
        | 0 -> Kernel.Copy
        | 1 -> Kernel.Filter
        | _ -> Kernel.Foreach
      in
      B.stmt (fresh ()) ~kernel
        ~accs:[ (Access.Write, dst, ids, []); (Access.Read, prev, ids, []) ]
    in
    let binary prev dst =
      let kernel =
        if Random.State.bool rng then Kernel.Assign_add else Kernel.Assign_sub
      in
      let other = input rng in
      let os = [ sub_of vars rng; sub_of vars rng ] in
      B.stmt (fresh ()) ~kernel
        ~accs:
          [ (Access.Write, dst, ids, []);
            (Access.Read, prev, ids, []);
            (Access.Read, other, os, []) ]
    in
    let stage prev dst =
      if Random.State.int rng 2 = 0 then unary prev dst else binary prev dst
    in
    let first = stage (input rng) (t_name ni 1) in
    let middle =
      List.init (len - 2) (fun k -> stage (t_name ni (k + 1)) (t_name ni (k + 2)))
    in
    let last =
      let prev = t_name ni (len - 1) in
      if rss then
        let v0 = List.nth vars 0 and v1 = List.nth vars 1 in
        B.stmt (fresh ()) ~kernel:Kernel.Rss_acc
          ~accs:
            [ (Access.Write, out, [ B.cst 0; B.cst 0 ], []);
              ( Access.Read,
                out,
                [ B.cst 0; B.cst 0 ],
                [ B.(var v0 + var v1 - cst 1) ] );
              (Access.Read, prev, ids, []) ]
      else stage prev out
    in
    let body = (first :: middle) @ [ last ] in
    List.fold_right
      (fun v acc -> [ B.for_ v ~lo:(B.cst 0) ~hi:(B.var "n") acc ])
      vars body
    |> List.hd
  in
  let chains = List.init n_chains chain in
  (* Occasionally mix in an opaque nest over the shared inputs, so the
     differential harness also crosses fused and single steps in one
     plan. *)
  let opaque =
    if Random.State.int rng 3 = 0 then begin
      chain_arrays :=
        Array_info.make ~kind:Array_info.Output "OP" ~ndims:2 :: !chain_arrays;
      let vars = [ "w0" ] in
      [ B.for_ "w0" ~lo:(B.cst 0) ~hi:(B.var "n")
          [ B.stmt (fresh ()) ~kernel:(Kernel.Opaque "mix")
              ~accs:
                [ (Access.Write, "OP", [ sub_of vars rng; sub_of vars rng ], []);
                  (Access.Read, "A", [ sub_of vars rng; sub_of vars rng ], []);
                  (Access.Read, "B", [ sub_of vars rng; sub_of vars rng ], [])
                ] ] ]
    end
    else []
  in
  let arrays =
    List.map (fun nm -> Array_info.make ~kind:Array_info.Input nm ~ndims:2) inputs
    @ List.rev !chain_arrays
  in
  B.program ~name:"random_ew" ~params:[ "n" ] ~arrays (chains @ opaque)

let with_program seed f =
  let rng = Random.State.make [| seed; master_seed () |] in
  f (gen rng)

let with_ew_program seed f =
  let rng = Random.State.make [| seed; master_seed () |] in
  f (gen_ew rng)

let config_for (prog : Program.t) =
  Config.make ~params:ref_params
    ~layouts:
      (List.map
         (fun (a : Array_info.t) ->
           ( a.Array_info.name,
             { Config.grid = [| nval; nval |];
               block_elems = [| 4; 4 |];
               elem_size = 8 } ))
         prog.Program.arrays)
