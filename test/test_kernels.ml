module Dense = Riot_kernels.Dense

let check_bool = Alcotest.(check bool)

let close ?(eps = 1e-9) a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> abs_float (x -. y) <= eps *. (1. +. abs_float x)) a b

(* Naive reference multiply with explicit index arithmetic. *)
let ref_gemm ~ta ~tb ~m ~n ~k a b =
  let c = Array.make (m * n) 0. in
  for i = 0 to m - 1 do
    for j = 0 to n - 1 do
      let acc = ref 0. in
      for l = 0 to k - 1 do
        let av = if ta then a.((l * m) + i) else a.((i * k) + l) in
        let bv = if tb then b.((j * k) + l) else b.((l * n) + j) in
        acc := !acc +. (av *. bv)
      done;
      c.((i * n) + j) <- !acc
    done
  done;
  c

let rand_array st n = Array.init n (fun _ -> Random.State.float st 2. -. 1.)

let test_gemm_all_transposes () =
  let st = Random.State.make [| 42 |] in
  List.iter
    (fun (ta, tb) ->
      let m = 3 and n = 4 and k = 5 in
      let a = rand_array st (m * k) and b = rand_array st (k * n) in
      let c = Array.make (m * n) 0. in
      Dense.gemm ~accumulate:false ~ta ~tb ~m ~n ~k ~a ~b ~c;
      check_bool
        (Printf.sprintf "gemm ta=%b tb=%b" ta tb)
        true
        (close c (ref_gemm ~ta ~tb ~m ~n ~k a b)))
    [ (false, false); (true, false); (false, true); (true, true) ]

let test_gemm_accumulate () =
  let st = Random.State.make [| 7 |] in
  let m = 2 and n = 3 and k = 4 in
  let a = rand_array st (m * k) and b = rand_array st (k * n) in
  let c = Array.make (m * n) 1. in
  Dense.gemm ~accumulate:true ~ta:false ~tb:false ~m ~n ~k ~a ~b ~c;
  let expected =
    Array.map (fun v -> v +. 1.) (ref_gemm ~ta:false ~tb:false ~m ~n ~k a b)
  in
  check_bool "accumulates" true (close c expected)

let test_elementwise () =
  let a = [| 1.; 2.; 3. |] and b = [| 10.; 20.; 30. |] in
  let c = Array.make 3 0. in
  Dense.add a b c;
  check_bool "add" true (c = [| 11.; 22.; 33. |]);
  Dense.sub b a c;
  check_bool "sub" true (c = [| 9.; 18.; 27. |]);
  Dense.copy ~src:a ~dst:c;
  check_bool "copy" true (c = a);
  Dense.scale 2. c;
  check_bool "scale" true (c = [| 2.; 4.; 6. |]);
  Dense.fill c 0.;
  check_bool "fill" true (c = [| 0.; 0.; 0. |])

let test_invert () =
  let st = Random.State.make [| 11 |] in
  let n = 6 in
  (* Diagonally dominant: always invertible. *)
  let a =
    Array.init (n * n) (fun i ->
        let r = i / n and c = i mod n in
        if r = c then 10. +. Random.State.float st 1. else Random.State.float st 1.)
  in
  let inv = Array.make (n * n) 0. in
  Dense.invert ~n a inv;
  let prod = Array.make (n * n) 0. in
  Dense.gemm ~accumulate:false ~ta:false ~tb:false ~m:n ~n ~k:n ~a ~b:inv ~c:prod;
  let identity = Array.init (n * n) (fun i -> if i / n = i mod n then 1. else 0.) in
  check_bool "A * A^-1 = I" true (close ~eps:1e-8 prod identity)

let test_invert_singular () =
  let a = [| 1.; 2.; 2.; 4. |] in
  let dst = Array.make 4 0. in
  check_bool "singular raises" true
    (try Dense.invert ~n:2 a dst; false with Failure _ -> true)

let test_invert_tiny_scale () =
  (* A fixed absolute pivot cutoff used to reject this well-conditioned
     matrix: every entry sits below 1e-12 even though it is just 1e-13 * I
     (up to a swap). *)
  let s = 1e-13 in
  let a = [| 0.; s; s; 0. |] in
  let inv = Array.make 4 0. in
  Dense.invert ~n:2 a inv;
  let prod = Array.make 4 0. in
  Dense.gemm ~accumulate:false ~ta:false ~tb:false ~m:2 ~n:2 ~k:2 ~a ~b:inv
    ~c:prod;
  check_bool "tiny-scale residual" true
    (close ~eps:1e-8 prod [| 1.; 0.; 0.; 1. |])

let test_invert_ill_conditioned () =
  (* Nearly singular but not singular: the scale-relative threshold keeps it
     invertible; verify with a loose residual check. *)
  let e = 1e-10 in
  let a = [| 1.; 1.; 1.; 1. +. e |] in
  let inv = Array.make 4 0. in
  Dense.invert ~n:2 a inv;
  let prod = Array.make 4 0. in
  Dense.gemm ~accumulate:false ~ta:false ~tb:false ~m:2 ~n:2 ~k:2 ~a ~b:inv
    ~c:prod;
  check_bool "ill-conditioned residual" true
    (close ~eps:1e-4 prod [| 1.; 0.; 0.; 1. |])

let test_invert_pivoting () =
  (* Zero on the diagonal forces a row swap. *)
  let a = [| 0.; 1.; 1.; 0. |] in
  let inv = Array.make 4 0. in
  Dense.invert ~n:2 a inv;
  check_bool "swap inverse" true (close inv [| 0.; 1.; 1.; 0. |])

let test_rss () =
  let e = [| 1.; 2.; 3.; 4. |] in
  (* 2 x 2: columns (1,3) and (2,4). *)
  let acc = [| 0.; 100. |] in
  Dense.rss_acc ~rows:2 ~cols:2 ~e ~acc;
  check_bool "rss" true (acc = [| 10.; 120. |])

(* --- Fused chain edge cases -------------------------------------------------

   The vectorized executor's correctness contract is that a compiled chain is
   bit-identical (Int64.bits_of_float, so NaN payloads and signed zeros
   count) to running the standalone kernels one step at a time through
   separate buffers.  These cases pin the boundaries QCheck rarely lands on:
   non-finite inputs, zero-length tiles, tile sizes that don't divide the
   block, and a destination aliasing an operand. *)

let bits_equal a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

(* Reference: each stage through the standalone kernel into a fresh buffer. *)
let stepwise stages ~len ~bufs =
  let prev = ref (Array.make len 0.) in
  Array.iter
    (fun st ->
      let out = Array.make len 0. in
      let r = function
        | Dense.Prev -> !prev
        | Dense.Buf i -> Array.sub bufs.(i) 0 len
      in
      (match st with
      | Dense.Fadd (x, y) -> Dense.add (r x) (r y) out
      | Dense.Fsub (x, y) -> Dense.sub (r x) (r y) out
      | Dense.Fcopy x -> Dense.copy ~src:(r x) ~dst:out
      | Dense.Ffilter x -> Dense.filter_pos ~src:(r x) ~dst:out
      | Dense.Fforeach x -> Dense.foreach_affine ~src:(r x) ~dst:out);
      prev := out)
    stages;
  !prev

let specials =
  [| Float.nan; Float.infinity; Float.neg_infinity; -0.; 0.; 1e-310;
     -1e-310; Float.max_float; -.Float.max_float; 1.5; -2.25; 3. |]

let special_array st len =
  Array.init len (fun _ ->
      specials.(Random.State.int st (Array.length specials)))

let chain_stages =
  [| Dense.Fadd (Buf 0, Buf 1);
     Dense.Fforeach Prev;
     Dense.Fsub (Prev, Buf 2);
     Dense.Ffilter Prev;
     Dense.Fcopy Prev |]

let test_chain_nan_inf () =
  let st = Random.State.make [| 101 |] in
  let len = 12 in
  let bufs = Array.init 3 (fun _ -> special_array st len) in
  let ch = Dense.compile_chain ~tile:len chain_stages in
  let dst = Array.make len 0. in
  Dense.run_chain ch ~bufs ~dst;
  check_bool "NaN/inf bit-identical to stepwise" true
    (bits_equal dst (stepwise chain_stages ~len ~bufs))

let test_chain_zero_len () =
  let ch = Dense.compile_chain ~tile:0 chain_stages in
  let bufs = Array.init 3 (fun _ -> [||]) in
  let dst = [||] in
  Dense.run_chain ch ~bufs ~dst;
  check_bool "zero-length tile runs" true (Dense.stage_count ch = 5);
  check_bool "zero-length stages" true
    (Array.length (Dense.run_stages ch ~bufs) = 0)

let test_chain_ragged () =
  (* A chain compiled for a full tile must still be exact on the short last
     tile of a block: the final stage loops over [dst], not the scratch. *)
  let st = Random.State.make [| 202 |] in
  let tile = 17 in
  let ch = Dense.compile_chain ~tile chain_stages in
  List.iter
    (fun len ->
      let bufs = Array.init 3 (fun _ -> special_array st tile) in
      let dst = Array.make len 0. in
      Dense.run_chain ch ~bufs ~dst;
      let full = stepwise chain_stages ~len:tile ~bufs in
      check_bool
        (Printf.sprintf "ragged len=%d" len)
        true
        (bits_equal dst (Array.sub full 0 len)))
    [ 1; 7; 17 ]

let test_chain_aliased_dst () =
  (* dst aliases an operand of the final stage; every stage reads element i
     before writing it, so aliasing must not change the result. *)
  let st = Random.State.make [| 303 |] in
  let len = 9 in
  let stages = [| Dense.Fadd (Buf 0, Buf 1); Dense.Fsub (Prev, Buf 2) |] in
  let bufs = Array.init 3 (fun _ -> special_array st len) in
  let saved = Array.map Array.copy bufs in
  let ch = Dense.compile_chain ~tile:len stages in
  let dst = bufs.(2) in
  Dense.run_chain ch ~bufs ~dst;
  check_bool "aliased dst matches stepwise" true
    (bits_equal dst (stepwise stages ~len ~bufs:saved))

let test_chain_rss_terminal () =
  (* run_stages + rss_acc (the fused path for a chain ending in a reduction)
     against standalone kernels + rss_acc. *)
  let st = Random.State.make [| 404 |] in
  let rows = 3 and cols = 4 in
  let len = rows * cols in
  let stages = [| Dense.Fadd (Buf 0, Buf 1); Dense.Fforeach Prev |] in
  let bufs = Array.init 2 (fun _ -> special_array st len) in
  let ch = Dense.compile_chain ~tile:len stages in
  let acc_fused = Array.init cols (fun j -> float_of_int j) in
  let acc_ref = Array.copy acc_fused in
  Dense.rss_acc ~rows ~cols ~e:(Dense.run_stages ch ~bufs) ~acc:acc_fused;
  Dense.rss_acc ~rows ~cols ~e:(stepwise stages ~len ~bufs) ~acc:acc_ref;
  check_bool "rss terminal bit-identical" true (bits_equal acc_fused acc_ref)

(* --- gemm bit-identity -------------------------------------------------------

   Dense.gemm's contract is a per-element summation order: c.(i,j) starts
   from its prior value and adds a(i,l) * b(l,j) for l ascending, skipping
   the terms whose a(i,l) is zero.  [seq_gemm] is a frozen copy of the plain
   triple loop that contract was first written against (zero-skip included);
   any kernel revision must match it bit for bit, NaN payloads, infinities
   and signed zeros included. *)

let seq_gemm ~accumulate ~ta ~tb ~m ~n ~k ~a ~b ~c =
  if not accumulate then Array.fill c 0 (m * n) 0.;
  let ai i l = if ta then (l * m) + i else (i * k) + l in
  let bi l j = if tb then (j * k) + l else (l * n) + j in
  for i = 0 to m - 1 do
    for l = 0 to k - 1 do
      let av = a.(ai i l) in
      if av <> 0. then begin
        let crow = i * n and brow_f = bi l in
        for j = 0 to n - 1 do
          c.(crow + j) <- c.(crow + j) +. (av *. b.(brow_f j))
        done
      end
    done
  done

(* Finite values with a [p_special] share of NaN, +-inf, +-0 and friends. *)
let gemm_operand st ~p_special len =
  Array.init len (fun _ ->
      if Random.State.float st 1. < p_special then
        specials.(Random.State.int st (Array.length specials))
      else Random.State.float st 4. -. 2.)

let transposes = [ (false, false); (true, false); (false, true); (true, true) ]

let gemm_matches_seq ?(gemm = Dense.gemm) st ~accumulate ~ta ~tb ~m ~n ~k =
  let p_special = [| 0.; 0.1; 0.5 |].(Random.State.int st 3) in
  let a = gemm_operand st ~p_special (m * k)
  and b = gemm_operand st ~p_special (k * n)
  and c0 = gemm_operand st ~p_special (m * n) in
  let c = Array.copy c0 and c_ref = Array.copy c0 in
  gemm ~accumulate ~ta ~tb ~m ~n ~k ~a ~b ~c;
  seq_gemm ~accumulate ~ta ~tb ~m ~n ~k ~a ~b ~c:c_ref;
  bits_equal c c_ref

(* Each of these gemm tests takes the kernel to run, [Dense.gemm] (the tile
   dispatch picks) by default; [per_tile] below runs them on every tile. *)
let test_gemm_bit_identity ?(gemm = Dense.gemm) () =
  let st = Random.State.make [| 1414 |] in
  List.iter
    (fun (ta, tb) ->
      List.iter
        (fun accumulate ->
          let case m n k =
            if not (gemm_matches_seq ~gemm st ~accumulate ~ta ~tb ~m ~n ~k) then
              Alcotest.failf
                "gemm differs from seq_gemm: m=%d n=%d k=%d ta=%b tb=%b \
                 accumulate=%b"
                m n k ta tb accumulate
          in
          for m = 0 to 9 do
            for n = 0 to 11 do
              for k = 0 to 7 do
                case m n k
              done
            done
          done;
          (* The twomm and linreg U += X'X block shapes of the benchmark
             workloads (run under every transpose pair here). *)
          case 160 60 140;
          case 80 80 1200)
        [ false; true ])
    transposes

(* The packed kernel keeps its panels in growing per-domain buffers.  A
   smaller call after a larger one leaves a stale tail in them, which must
   never reach a result; neither may a k = 0 call made while they are
   allocated. *)
let test_gemm_buffer_reuse ?(gemm = Dense.gemm) () =
  let st = Random.State.make [| 2718 |] in
  List.iter
    (fun (ta, tb) ->
      List.iter
        (fun (m, n, k) ->
          let accumulate = Random.State.bool st in
          if not (gemm_matches_seq ~gemm st ~accumulate ~ta ~tb ~m ~n ~k) then
            Alcotest.failf "gemm differs from seq_gemm: m=%d n=%d k=%d ta=%b tb=%b"
              m n k ta tb)
        [ (38, 44, 300); (6, 8, 0); (5, 7, 3); (4, 4, 17); (38, 44, 300) ])
    transposes

(* Odd m (a scalar last row) with n mod 4 in {1,2,3} (scalar edge columns)
   around packed tiles, up to the benchmark's k = 1200. *)
let test_gemm_ragged_edges ?(gemm = Dense.gemm) () =
  let st = Random.State.make [| 1729 |] in
  List.iter
    (fun (ta, tb) ->
      List.iter
        (fun m ->
          List.iter
            (fun n ->
              List.iter
                (fun k ->
                  let accumulate = Random.State.bool st in
                  if not (gemm_matches_seq ~gemm st ~accumulate ~ta ~tb ~m ~n ~k) then
                    Alcotest.failf
                      "gemm differs from seq_gemm: m=%d n=%d k=%d ta=%b tb=%b"
                      m n k ta tb)
                [ 1; 2; 65; 1200 ])
            [ 5; 6; 7; 13 ])
        [ 1; 3; 17 ])
    transposes

(* Two domains calling gemm at once, each with its own sequence of shapes:
   a packing buffer shared between domains would mix their panels. *)
let test_gemm_two_domains ?(gemm = Dense.gemm) () =
  let st = Random.State.make [| 31415 |] in
  let cases =
    List.init 16 (fun i ->
        let ta, tb = List.nth transposes (i mod 4) in
        let m, n, k = if i mod 2 = 0 then (48, 40, 400) else (30, 52, 250) in
        let p_special = 0.1 in
        ( (ta, tb, m, n, k),
          gemm_operand st ~p_special (m * k),
          gemm_operand st ~p_special (k * n),
          gemm_operand st ~p_special (m * n) ))
  in
  let results =
    Riot_base.Pool.parallel_map ~jobs:2
      (fun ((ta, tb, m, n, k), a, b, c0) ->
        let c = Array.copy c0 and c_ref = Array.copy c0 in
        gemm ~accumulate:true ~ta ~tb ~m ~n ~k ~a ~b ~c;
        seq_gemm ~accumulate:true ~ta ~tb ~m ~n ~k ~a ~b ~c:c_ref;
        bits_equal c c_ref)
      cases
  in
  List.iteri
    (fun i ok -> check_bool (Printf.sprintf "case %d bit-identical" i) true ok)
    results

(* A shape error must leave c exactly as it was: the check runs before the
   accumulate:false zero-fill. *)
let test_gemm_shape_error () =
  let m = 3 and n = 5 and k = 4 in
  let sized (da, db, dc) =
    ( Array.make ((m * k) - da) 1.,
      Array.make ((k * n) - db) 1.,
      Array.init ((m * n) - dc) float_of_int )
  in
  List.iter
    (fun (name, short) ->
      List.iter
        (fun (ta, tb) ->
          let a, b, c = sized short in
          let before = Array.copy c in
          let raised =
            try
              Dense.gemm ~accumulate:false ~ta ~tb ~m ~n ~k ~a ~b ~c;
              false
            with Invalid_argument msg ->
              check_bool
                (Printf.sprintf "message names %s: %s" name msg)
                true
                (String.starts_with ~prefix:("Dense.gemm: " ^ name) msg);
              true
          in
          check_bool (Printf.sprintf "short %s raises" name) true raised;
          check_bool (Printf.sprintf "short %s leaves c unchanged" name) true
            (bits_equal c before))
        transposes)
    [ ("a", (1, 0, 0)); ("b", (0, 1, 0)); ("c", (0, 0, 1)) ];
  List.iter
    (fun (m, n, k) ->
      check_bool
        (Printf.sprintf "negative dimension m=%d n=%d k=%d raises" m n k)
        true
        (try
           Dense.gemm ~accumulate:true ~ta:false ~tb:false ~m ~n ~k ~a:[||]
             ~b:[||] ~c:[||];
           false
         with Invalid_argument _ -> true))
    [ (-1, 0, 0); (0, -1, 0); (0, 0, -1) ];
  (* Oversized operands are fine: only the leading elements are used. *)
  let a = Array.make 20 1. and b = Array.make 30 1. and c = Array.make 20 0. in
  Dense.gemm ~accumulate:false ~ta:false ~tb:false ~m ~n ~k ~a ~b ~c;
  check_bool "oversized operands" true
    (bits_equal c
       (Array.init 20 (fun i -> if i < m * n then float_of_int k else 0.)))

(* NaNs of two payloads and both signs, and a signalling one, in a, b and c:
   when both operands of a multiply or an add are NaNs, the result must
   carry the same one as the triple loop's (the accumulator's, then a's),
   payload and sign included. *)
let nan_of bits = Int64.float_of_bits bits

let nans =
  [| nan_of 0x7FF8_0000_0000_0001L; nan_of 0xFFF8_0000_0000_0001L;
     nan_of 0x7FF8_0000_0000_BEEFL; nan_of 0xFFF8_0000_0000_BEEFL;
     nan_of 0x7FF0_0000_0000_0ABCL |]

let nan_operand st len =
  Array.init len (fun _ ->
      match Random.State.int st 4 with
      | 0 -> nans.(Random.State.int st (Array.length nans))
      | 1 -> specials.(Random.State.int st (Array.length specials))
      | _ -> Random.State.float st 4. -. 2.)

let test_gemm_nan_payloads ?(gemm = Dense.gemm) () =
  let st = Random.State.make [| 5151 |] in
  List.iter
    (fun (ta, tb) ->
      List.iter
        (fun (m, n, k) ->
          List.iter
            (fun accumulate ->
              let a = nan_operand st (m * k)
              and b = nan_operand st (k * n)
              and c0 = nan_operand st (m * n) in
              let c = Array.copy c0 and c_ref = Array.copy c0 in
              gemm ~accumulate ~ta ~tb ~m ~n ~k ~a ~b ~c;
              seq_gemm ~accumulate ~ta ~tb ~m ~n ~k ~a ~b ~c:c_ref;
              if not (bits_equal c c_ref) then
                Alcotest.failf
                  "NaN payloads differ from seq_gemm: m=%d n=%d k=%d ta=%b tb=%b \
                   accumulate=%b"
                  m n k ta tb accumulate)
            [ false; true ])
        [ (4, 8, 1); (4, 8, 6); (5, 9, 3); (9, 17, 12); (13, 22, 40) ])
    transposes

(* Each product and sum rounds on its own: with a = 1 + 2^-30 and
   b = 1 - 2^-30, a * b rounds to 1, so c = -1 accumulates to exactly 0,
   where a fused multiply-add would leave -2^-60. *)
let test_gemm_no_fma ?(gemm = Dense.gemm) () =
  let av = 1. +. ldexp 1. (-30) and bv = 1. -. ldexp 1. (-30) in
  check_bool "fma differs from a*b+c" true (Float.fma av bv (-1.) <> (av *. bv) -. 1.);
  List.iter
    (fun (m, n) ->
      let k = 1 in
      let a = Array.make (m * k) av and b = Array.make (k * n) bv in
      let c = Array.make (m * n) (-1.) in
      gemm ~accumulate:true ~ta:false ~tb:false ~m ~n ~k ~a ~b ~c;
      check_bool
        (Printf.sprintf "%dx%d: every c is exactly 0" m n)
        true
        (bits_equal c (Array.make (m * n) 0.)))
    [ (4, 8); (5, 13); (12, 24) ]

(* Every m x n up to past twice the C kernel's 4 x 8 tile, so each count of
   edge rows and edge columns meets full tiles on both sides. *)
let test_gemm_tile_sweep ?(gemm = Dense.gemm) () =
  let st = Random.State.make [| 8080 |] in
  List.iter
    (fun (ta, tb) ->
      for m = 0 to 10 do
        for n = 0 to 18 do
          List.iter
            (fun k ->
              let accumulate = Random.State.bool st in
              if not (gemm_matches_seq ~gemm st ~accumulate ~ta ~tb ~m ~n ~k) then
                Alcotest.failf "gemm differs from seq_gemm: m=%d n=%d k=%d ta=%b tb=%b"
                  m n k ta tb)
            [ 0; 1; 5 ]
        done
      done)
    transposes

(* --- Tiles by ISA ---------------------------------------------------------------

   The gemm tests above run on whichever tile dispatch picked; [per_tile]
   runs them again on each tile the library knows, through [gemm_par]'s
   [~isa], so a tile dispatch does not pick on this host is still held to
   [seq_gemm].  A tile this CPU lacks is reported skipped, not passed. *)

let per_tile =
  List.concat_map
    (fun isa ->
      List.map
        (fun (what, test) ->
          Alcotest.test_case
            (Printf.sprintf "%s, %s tile" what (Dense.isa_name isa))
            `Quick
            (fun () ->
              if List.mem isa Dense.supported_isas then
                test ?gemm:(Some (Dense.gemm_par ~isa Dense.sequential)) ()
              else Alcotest.skip ()))
        [ ("gemm bit-identical to seq_gemm", test_gemm_bit_identity);
          ("gemm packing buffer reuse", test_gemm_buffer_reuse);
          ("gemm ragged edges", test_gemm_ragged_edges);
          ("gemm from two domains", test_gemm_two_domains);
          ("gemm NaN payloads bit-identical to seq_gemm", test_gemm_nan_payloads);
          ("gemm rounds each multiply and add", test_gemm_no_fma);
          ("gemm m x n sweep past two tiles", test_gemm_tile_sweep) ])
    Dense.all_isas

(* The words of the x86 "flags" line of /proc/cpuinfo, if there is one. *)
let cpuinfo_flags () =
  match open_in "/proc/cpuinfo" with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let rec scan () =
            match input_line ic with
            | exception End_of_file -> None
            | line -> (
                match String.index_opt line ':' with
                | Some i when String.trim (String.sub line 0 i) = "flags" ->
                    Some
                      (String.split_on_char ' '
                         (String.sub line (i + 1) (String.length line - i - 1)))
                | _ -> scan ())
          in
          scan ())

(* Dispatch picks the widest tile the CPU runs, never one it lacks, and a
   tile the CPU lacks is refused before anything is written. *)
let test_gemm_dispatch () =
  let supported = Dense.supported_isas in
  check_bool "the baseline tile comes first" true (List.hd supported = Dense.Baseline);
  check_bool "supported tiles are known tiles, in order" true
    (List.filter (fun isa -> List.mem isa supported) Dense.all_isas = supported);
  check_bool "dispatch picks the last supported tile" true
    (Dense.isa = List.nth supported (List.length supported - 1));
  (match cpuinfo_flags () with
   | Some flags ->
       check_bool "avx2 supported exactly when the CPU lists avx2"
         (List.mem "avx2" flags) (List.mem Dense.Avx2 supported)
   | None -> ());
  List.iter
    (fun isa ->
      if not (List.mem isa supported) then begin
        let c = Array.make 4 7. in
        check_bool
          (Printf.sprintf "the %s tile is refused" (Dense.isa_name isa))
          true
          (try
             Dense.gemm_par ~isa Dense.sequential ~accumulate:false ~ta:false ~tb:false
               ~m:2 ~n:2 ~k:2 ~a:(Array.make 4 1.) ~b:(Array.make 4 1.) ~c;
             false
           with Invalid_argument _ -> true);
        check_bool "c unchanged" true (bits_equal c (Array.make 4 7.))
      end)
    Dense.all_isas

(* --- Row-split gemm -------------------------------------------------------------

   Dense.gemm_par cuts the rows of c into chunks and runs each through the
   caller's parallel-for, here a real pool of [jobs] domains.  Every chunk
   count must match [seq_gemm] bit for bit: chunks = jobs, and more chunks
   than row pairs, so some chunks are empty.  The shapes cover odd m (the
   last chunk's scalar row), m below twice the chunk count, n < 4 (no
   packed tile at all) and k = 0. *)

let pool_par pool =
  { Dense.jobs = Riot_base.Pool.jobs pool;
    run = (fun ~n body -> Riot_base.Pool.parallel_for pool ~n body) }

let split_shapes =
  [ (1, 5, 3); (2, 8, 5); (3, 8, 5); (5, 9, 6); (7, 4, 7); (9, 1, 4); (8, 2, 5);
    (9, 3, 6); (7, 9, 0); (6, 8, 0); (17, 13, 65); (38, 44, 30) ]

let test_gemm_split () =
  let st = Random.State.make [| 4242 |] in
  List.iter
    (fun jobs ->
      Riot_base.Pool.with_pool ~jobs (fun pool ->
          let par = pool_par pool in
          let case ?chunks ~ta ~tb (m, n, k) =
            let accumulate = Random.State.bool st in
            if
              not
                (gemm_matches_seq ~gemm:(Dense.gemm_par ?chunks par) st ~accumulate ~ta
                   ~tb ~m ~n ~k)
            then
              Alcotest.failf
                "split gemm differs from seq_gemm: jobs=%d chunks=%s m=%d n=%d \
                 k=%d ta=%b tb=%b accumulate=%b"
                jobs
                (match chunks with Some q -> string_of_int q | None -> "default")
                m n k ta tb accumulate
          in
          List.iter
            (fun (ta, tb) ->
              List.iter
                (fun shape ->
                  case ~chunks:jobs ~ta ~tb shape;
                  case ~chunks:((2 * jobs) + 1) ~ta ~tb shape)
                split_shapes;
              (* The default chunking at the benchmark's twomm block, which
                 clears the grain. *)
              case ~ta ~tb (160, 60, 140))
            transposes))
    [ 1; 2; 3; 4 ]

(* Chunk bounds are row pairs, so a chunk may start two rows into one of the
   C kernel's 4-row tiles.  Each of these splits has such a chunk. *)
let test_gemm_split_odd_lo () =
  let st = Random.State.make [| 6262 |] in
  let starts m chunks =
    let pairs = m / 2 in
    List.init chunks (fun q -> 2 * (q * pairs / chunks))
  in
  List.iter
    (fun (m, n, k, chunks) ->
      check_bool
        (Printf.sprintf "m=%d chunks=%d has a chunk starting at 2 mod 4" m chunks)
        true
        (List.exists (fun lo -> lo mod 4 = 2) (starts m chunks));
      List.iter
        (fun (ta, tb) ->
          let accumulate = Random.State.bool st in
          if
            not
              (gemm_matches_seq ~gemm:(Dense.gemm_par ~chunks Dense.sequential) st
                 ~accumulate ~ta ~tb ~m ~n ~k)
          then
            Alcotest.failf
              "split gemm differs from seq_gemm: m=%d n=%d k=%d chunks=%d ta=%b tb=%b"
              m n k chunks ta tb)
        transposes)
    [ (14, 9, 7, 2); (6, 17, 5, 3); (22, 13, 30, 4); (13, 8, 3, 2); (30, 25, 64, 5) ]

(* A shape error raises on the caller before any chunk is dispatched, and
   leaves c as it was; so does a chunk count below one. *)
let test_gemm_split_shape_error () =
  let dispatched = ref 0 in
  let par =
    { Dense.jobs = 2;
      run =
        (fun ~n body ->
          incr dispatched;
          for i = 0 to n - 1 do
            body i
          done) }
  in
  let m = 6 and n = 5 and k = 4 in
  List.iter
    (fun (what, chunks, (da, db, dc)) ->
      let a = Array.make ((m * k) - da) 1.
      and b = Array.make ((k * n) - db) 1.
      and c = Array.init ((m * n) - dc) float_of_int in
      let before = Array.copy c in
      let raised =
        try
          Dense.gemm_par ~chunks par ~accumulate:false ~ta:false ~tb:false ~m ~n ~k ~a ~b
            ~c;
          false
        with Invalid_argument _ -> true
      in
      check_bool (what ^ " raises") true raised;
      check_bool (what ^ " leaves c unchanged") true (bits_equal c before))
    [ ("short a", 2, (1, 0, 0)); ("short b", 2, (0, 1, 0)); ("short c", 2, (0, 0, 1));
      ("zero chunks", 0, (0, 0, 0)) ];
  Alcotest.(check int) "no chunk dispatched" 0 !dispatched

let qcheck_kernels =
  let open QCheck in
  let dims = Gen.(triple (int_range 1 5) (int_range 1 5) (int_range 1 5)) in
  let gen =
    Gen.(
      dims >>= fun (m, n, k) ->
      let arr len = array_size (return len) (float_range (-2.) 2.) in
      map2 (fun a b -> (m, n, k, a, b)) (arr (m * k)) (arr (k * n)))
  in
  [ Test.make ~name:"gemm matches reference" ~count:100
      (make gen)
      (fun (m, n, k, a, b) ->
        let c = Array.make (m * n) 0. in
        Dense.gemm ~accumulate:false ~ta:false ~tb:false ~m ~n ~k ~a ~b ~c;
        close c (ref_gemm ~ta:false ~tb:false ~m ~n ~k a b));
    Test.make ~name:"transpose flags consistent" ~count:100
      (make gen)
      (fun (m, n, k, a, b) ->
        (* op(A) with ta on a k x m layout equals plain A on m x k, when the
           data is transposed accordingly. *)
        let at = Array.init (k * m) (fun i -> a.(((i mod m) * k) + (i / m))) in
        let c1 = Array.make (m * n) 0. and c2 = Array.make (m * n) 0. in
        Dense.gemm ~accumulate:false ~ta:false ~tb:false ~m ~n ~k ~a ~b ~c:c1;
        Dense.gemm ~accumulate:false ~ta:true ~tb:false ~m ~n ~k ~a:at ~b ~c:c2;
        close c1 c2);
    (let gen_chain =
       let open Gen in
       let src ~first =
         if first then map (fun i -> Dense.Buf i) (int_range 0 2)
         else
           int_range 0 3 >|= function
           | 0 -> Dense.Prev
           | i -> Dense.Buf (i - 1)
       in
       let stage ~first =
         int_range 0 4 >>= fun tag ->
         src ~first >>= fun x ->
         match tag with
         | 0 -> src ~first >|= fun y -> Dense.Fadd (x, y)
         | 1 -> src ~first >|= fun y -> Dense.Fsub (x, y)
         | 2 -> return (Dense.Fcopy x)
         | 3 -> return (Dense.Ffilter x)
         | _ -> return (Dense.Fforeach x)
       in
       int_range 1 6 >>= fun n_stages ->
       stage ~first:true >>= fun s0 ->
       list_size (return (n_stages - 1)) (stage ~first:false) >>= fun rest ->
       int_range 1 17 >>= fun len ->
       let cell = oneofl (Array.to_list specials) in
       list_size (return (3 * len)) cell >|= fun cells ->
       (Array.of_list (s0 :: rest), len, Array.of_list cells)
     in
     Test.make ~name:"random chain bit-identical to stepwise" ~count:300
       (make gen_chain)
       (fun (stages, len, cells) ->
         let bufs = Array.init 3 (fun i -> Array.sub cells (i * len) len) in
         let ch = Dense.compile_chain ~tile:len stages in
         let dst = Array.make len 0. in
         Dense.run_chain ch ~bufs ~dst;
         bits_equal dst (stepwise stages ~len ~bufs))) ]

let suite =
  ( "kernels",
    [ Alcotest.test_case "gemm transposes" `Quick test_gemm_all_transposes;
      Alcotest.test_case "gemm accumulate" `Quick test_gemm_accumulate;
      Alcotest.test_case "elementwise" `Quick test_elementwise;
      Alcotest.test_case "invert" `Quick test_invert;
      Alcotest.test_case "invert singular" `Quick test_invert_singular;
      Alcotest.test_case "invert pivoting" `Quick test_invert_pivoting;
      Alcotest.test_case "invert tiny scale" `Quick test_invert_tiny_scale;
      Alcotest.test_case "invert ill-conditioned" `Quick test_invert_ill_conditioned;
      Alcotest.test_case "rss" `Quick test_rss;
      Alcotest.test_case "chain NaN/inf" `Quick test_chain_nan_inf;
      Alcotest.test_case "chain zero-length tile" `Quick test_chain_zero_len;
      Alcotest.test_case "chain ragged boundaries" `Quick test_chain_ragged;
      Alcotest.test_case "chain aliased dst" `Quick test_chain_aliased_dst;
      Alcotest.test_case "chain rss terminal" `Quick test_chain_rss_terminal;
      Alcotest.test_case "gemm bit-identical to seq_gemm" `Quick
        test_gemm_bit_identity;
      Alcotest.test_case "gemm shape error leaves c" `Quick
        test_gemm_shape_error;
      Alcotest.test_case "gemm packing buffer reuse" `Quick
        test_gemm_buffer_reuse;
      Alcotest.test_case "gemm ragged edges" `Quick test_gemm_ragged_edges;
      Alcotest.test_case "gemm from two domains" `Quick test_gemm_two_domains;
      Alcotest.test_case "split gemm bit-identical to seq_gemm" `Quick test_gemm_split;
      Alcotest.test_case "split gemm shape error runs no chunk" `Quick
        test_gemm_split_shape_error;
      Alcotest.test_case "gemm NaN payloads bit-identical to seq_gemm" `Quick
        test_gemm_nan_payloads;
      Alcotest.test_case "gemm rounds each multiply and add" `Quick test_gemm_no_fma;
      Alcotest.test_case "gemm m x n sweep past two tiles" `Quick test_gemm_tile_sweep;
      Alcotest.test_case "split gemm chunk starting inside a tile" `Quick
        test_gemm_split_odd_lo;
      Alcotest.test_case "gemm dispatch picks a tile the CPU runs" `Quick
        test_gemm_dispatch ]
    @ per_tile
    @ List.map QCheck_alcotest.to_alcotest qcheck_kernels )
