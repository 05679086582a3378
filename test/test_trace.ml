(* Execution-trace tests: the two-matmuls plan yields a stable, well-formed
   event stream (balanced step boundaries and pins, no read-after-drop, event
   counts equal to the plan's aggregate I/O), every event survives a
   JSONL round-trip through the parser, and a run narrates exactly the
   plan's predicted stream ([Cplan.events]).  The last is one of the
   contracts Riotshare.Differential checks; the cases for it here are thin
   calls into the harness (test_differential.ml). *)

module Api = Riotshare.Api
module Programs = Riot_ops.Programs
module Cplan = Riot_plan.Cplan
module Trace = Riot_plan.Trace
module Backend = Riot_storage.Backend
module Block_store = Riot_storage.Block_store
module Fuse = Riot_plan.Fuse
module Differential = Riotshare.Differential

let sim_backend () =
  Backend.sim ~retain_data:false ~read_bw:96e6 ~write_bw:60e6 ~request_overhead:1e-3 ()

let traced_best_run () =
  let config = Programs.scale_down ~factor:1000 Programs.table3_config_a in
  let opt = Api.optimize (Programs.two_matmuls ()) ~config in
  let best = Api.best opt in
  let sink, collected = Trace.collector () in
  let backend = sim_backend () in
  ignore (Api.execute ~compute:false ~trace:sink best ~backend ~format:Block_store.Daf_format);
  (best, collected ())

let events = lazy (traced_best_run ())

(* Two identical runs must narrate identically (the trace is a function of
   the plan, not of pool state or timing). *)
let test_deterministic () =
  let _, a = traced_best_run () in
  let _, b = Lazy.force events in
  Alcotest.(check int) "same length" (List.length b) (List.length a);
  Alcotest.(check bool) "same sequence" true (a = b)

let test_step_boundaries () =
  let _, evs = Lazy.force events in
  let cur = ref None and next = ref 0 in
  List.iter
    (fun e ->
      match (e, !cur) with
      | Trace.Step_begin { step; _ }, None ->
          Alcotest.(check int) "steps in order" !next step;
          cur := Some step
      | Trace.Step_begin _, Some _ -> Alcotest.fail "nested step_begin"
      | Trace.Step_end { step }, Some s ->
          Alcotest.(check int) "end matches begin" s step;
          cur := None;
          incr next
      | Trace.Step_end _, None -> Alcotest.fail "step_end without begin"
      | (Trace.Read { step; _ } | Trace.Write { step; _ } | Trace.Pin_open { step; _ }
        | Trace.Pin_close { step; _ } | Trace.Drop { step; _ }
        | Trace.Evict { step; _ }), Some s ->
          Alcotest.(check int) "event inside its step" s step
      | _, None -> Alcotest.fail "event outside any step")
    evs;
  Alcotest.(check bool) "last step closed" true (!cur = None);
  Alcotest.(check bool) "at least one step" true (!next > 0)

let test_pins_balanced () =
  let _, evs = Lazy.force events in
  let depth = Hashtbl.create 16 in
  let get k = Option.value ~default:0 (Hashtbl.find_opt depth k) in
  List.iter
    (fun e ->
      match e with
      | Trace.Pin_open { array; index; _ } ->
          Hashtbl.replace depth (array, index) (get (array, index) + 1)
      | Trace.Pin_close { array; index; _ } ->
          let d = get (array, index) in
          Alcotest.(check bool) "unpin of a pinned block" true (d > 0);
          Hashtbl.replace depth (array, index) (d - 1)
      | _ -> ())
    evs;
  Hashtbl.iter
    (fun (array, _) d ->
      Alcotest.(check int) (Printf.sprintf "pins on %s balanced" array) 0 d)
    depth

(* Replay residency: memory reads only hit resident blocks, drops only
   release resident ones, and nothing is read after being dropped without an
   intervening disk read or write re-materialising it. *)
let test_no_read_after_drop () =
  let _, evs = Lazy.force events in
  let resident = Hashtbl.create 16 in
  List.iter
    (fun e ->
      match e with
      | Trace.Read { array; index; src = Trace.Disk; _ }
      | Trace.Write { array; index; _ } ->
          Hashtbl.replace resident (array, index) ()
      | Trace.Read { array; index; src = Trace.Memory; _ } ->
          Alcotest.(check bool)
            (Printf.sprintf "memory read of resident %s" array)
            true
            (Hashtbl.mem resident (array, index))
      | Trace.Drop { array; index; _ } | Trace.Evict { array; index; _ } ->
          Alcotest.(check bool)
            (Printf.sprintf "drop of resident %s" array)
            true
            (Hashtbl.mem resident (array, index));
          Hashtbl.remove resident (array, index)
      | _ -> ())
    evs

(* The trace's event counts are the plan's aggregate I/O: the narrated
   execution is the costed execution. *)
let test_counts_match_plan () =
  let best, evs = Lazy.force events in
  let count f = List.length (List.filter f evs) in
  Alcotest.(check int) "disk reads"
    best.Api.cplan.Cplan.read_ops
    (count (function Trace.Read { src = Trace.Disk; _ } -> true | _ -> false));
  Alcotest.(check int) "disk writes"
    best.Api.cplan.Cplan.write_ops
    (count (function Trace.Write { elided = false; _ } -> true | _ -> false));
  Alcotest.(check int) "steps"
    (Array.length best.Api.cplan.Cplan.steps)
    (count (function Trace.Step_begin _ -> true | _ -> false))

(* Golden prefix for add_mul's best plan: the opening events are pinned down
   exactly, so an accidental reordering of the engine's actions is caught
   even if every invariant above still holds. *)
let test_golden_prefix () =
  let config = Programs.scale_down ~factor:1000 Programs.table2 in
  let opt = Api.optimize (Programs.add_mul ()) ~config in
  let best = Api.best opt in
  let sink, collected = Trace.collector () in
  let backend = sim_backend () in
  ignore (Api.execute ~compute:false ~trace:sink best ~backend ~format:Block_store.Daf_format);
  let prefix n l = List.filteri (fun i _ -> i < n) l in
  let expected =
    [ Trace.Step_begin { step = 0; stmt = "s1"; instance = [ ("s1.i", 0); ("s1.j", 0) ] };
      Trace.Read { step = 0; array = "A"; index = [ 0; 0 ]; src = Trace.Disk };
      Trace.Read { step = 0; array = "B"; index = [ 0; 0 ]; src = Trace.Disk };
      Trace.Pin_open { step = 0; array = "C"; index = [ 0; 0 ] };
      Trace.Write { step = 0; array = "C"; index = [ 0; 0 ]; elided = true };
      Trace.Drop { step = 0; array = "A"; index = [ 0; 0 ] };
      Trace.Drop { step = 0; array = "B"; index = [ 0; 0 ] };
      Trace.Step_end { step = 0 } ]
  in
  let check_prefix what events =
    List.iteri
      (fun i (exp, got) ->
        Alcotest.(check string)
          (Printf.sprintf "%s event %d" what i)
          (Trace.to_json exp) (Trace.to_json got))
      (List.combine expected (prefix (List.length expected) events))
  in
  check_prefix "measured" (collected ());
  check_prefix "predicted" (List.of_seq (Cplan.events best.Api.cplan))

(* --- JSONL round-trip --------------------------------------------------------- *)

let test_jsonl_roundtrip () =
  let _, evs = Lazy.force events in
  List.iter
    (fun e ->
      let j = Trace.to_json e in
      Alcotest.(check bool) (Printf.sprintf "round-trip %s" j) true
        (Trace.of_json j = e))
    evs;
  (* And through the jsonl sink itself: emitted lines parse back to the
     original stream. *)
  let buf = Buffer.create 4096 in
  let sink = Trace.jsonl (fun line -> Buffer.add_string buf line; Buffer.add_char buf '\n') in
  List.iter sink.Trace.emit evs;
  let lines =
    String.split_on_char '\n' (Buffer.contents buf)
    |> List.filter (fun l -> l <> "")
  in
  Alcotest.(check int) "one line per event" (List.length evs) (List.length lines);
  Alcotest.(check bool) "stream parses back" true
    (List.map Trace.of_json lines = evs)

let test_jsonl_rejects_malformed () =
  List.iter
    (fun line ->
      Alcotest.check_raises ("rejects " ^ line)
        (Trace.Parse_error "")
        (fun () ->
          try ignore (Trace.of_json line)
          with Trace.Parse_error _ -> raise (Trace.Parse_error "")))
    [ "";
      "{}";
      "{\"ev\":\"bogus\",\"step\":0}";
      "{\"ev\":\"read\",\"step\":0}";
      "{\"ev\":\"step_end\",\"step\":1} trailing";
      "{\"ev\":\"read\",\"step\":0,\"array\":\"A\",\"index\":[0,0],\"src\":\"warp\"}";
      "{\"ev\":\"step_end\",\"step\":-}";
      "{\"ev\":\"step_end\",\"step\":99999999999999999999}";
      "{\"ev\":\"read\",\"step\":0,\"array\":\"A\",\"index\":[0,-],\"src\":\"disk\"}" ]

(* --- Predicted trace = measured trace ------------------------------------------ *)

(* Every plan of a case runs phantom, unfused and fused on a simulated DAF
   disk with the pool capped at its [peak_memory]; the harness diffs each
   trace against [Cplan.events] (a fused run without its link blocks' pins
   and drops), and checks there is no [Evict] and that an unfused pool peak
   equals [peak_memory], naming the first diverging step.  Random programs:
   opaque nests on even seeds, element-wise chains on odd ones, under their
   direct plans, plus optimizer-found plans on every tenth seed. *)
let prop_trace_equals_prediction =
  QCheck.Test.make ~name:"random programs: measured trace = Cplan.events" ~count:400
    Test_differential.seed_gen Test_differential.holds

let test_trace_equals_prediction_pinned () =
  (* The paper programs' best plans, too. *)
  let cases =
    List.map Differential.case_of_seed [ 0; 7; 10; 31; 40 ] @ Test_differential.paper_cases ()
  in
  let fuses cplan = List.exists (fun (g : Fuse.group) -> g.Fuse.links <> []) (Fuse.analyze cplan) in
  Alcotest.(check bool) "pinned seeds include fused runs" true
    (List.exists (fun (c : Differential.case) -> List.exists fuses c.Differential.plans) cases);
  Test_differential.pinned ~cases []

let suite =
  ( "trace",
    [ Alcotest.test_case "deterministic" `Quick test_deterministic;
      Alcotest.test_case "step boundaries" `Quick test_step_boundaries;
      Alcotest.test_case "pins balanced" `Quick test_pins_balanced;
      Alcotest.test_case "no read after drop" `Quick test_no_read_after_drop;
      Alcotest.test_case "counts match plan" `Quick test_counts_match_plan;
      Alcotest.test_case "golden prefix (add_mul)" `Quick test_golden_prefix;
      Alcotest.test_case "jsonl round-trip" `Quick test_jsonl_roundtrip;
      Alcotest.test_case "jsonl rejects malformed" `Quick test_jsonl_rejects_malformed;
      Alcotest.test_case "measured trace = Cplan.events (pinned seeds)" `Quick
        test_trace_equals_prediction_pinned;
      QCheck_alcotest.to_alcotest prop_trace_equals_prediction ] )
