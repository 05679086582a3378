module Config = Riot_ir.Config
module Program = Riot_ir.Program
module Cplan = Riot_plan.Cplan
module Cost_check = Riot_plan.Cost_check
module Fuse = Riot_plan.Fuse
module Engine = Riot_exec.Engine
module Journal = Riot_exec.Journal
module Backend = Riot_storage.Backend
module Block_store = Riot_storage.Block_store
module Rand_prog = Riot_ops.Rand_prog

(* Every block subscript of a layout's grid, row-major. *)
let blocks (l : Config.layout) =
  Array.fold_right
    (fun g acc -> List.concat_map (fun i -> List.map (List.cons i) acc) (List.init g Fun.id))
    l.grid [ [] ]

let load_inputs (prog : Program.t) config stores =
  List.iter
    (fun (a : Riot_ir.Array_info.t) ->
      if a.kind = Input then
        let l = Config.layout config a.name in
        List.iter
          (fun idx ->
            Block_store.write_floats (List.assoc a.name stores) idx
              (Array.init (Config.block_elems_total l) (fun e ->
                   float_of_int (Hashtbl.hash (a.name, idx, e) land 0xFF))))
          (blocks l))
    prog.arrays

let snapshot stores =
  List.sort compare
    (List.map
       (fun (name, st) ->
         let bs = List.map (Block_store.read_block st) (blocks (Block_store.layout st)) in
         (name, Bytes.concat Bytes.empty bs))
       stores)

let select_plans k l =
  let n = List.length l in
  let want = List.init k (fun c -> c * (n - 1) / max 1 (k - 1)) in
  List.filteri (fun i _ -> n <= k || List.mem i want) l

type disk = Sim | File
type fault = Clean | Crash of int | Transient

type point = {
  fused : bool;
  async : bool;
  format : Block_store.format;
  disk : disk;
  fault : fault;
}

let reference = { fused = false; async = false; format = Daf_format; disk = Sim; fault = Clean }
let fused_sim = { reference with fused = true }

let name ?(kind = false) p =
  Printf.sprintf "%s/%s/%s/%s/%s" (if p.fused then "fused" else "unfused")
    (if p.async then "async" else "sync") (if p.format = Daf_format then "daf" else "lab")
    (if p.disk = Sim then "sim" else "file")
    (match p.fault with
    | Clean -> "clean"
    | Transient -> "transient"
    | Crash k -> if kind then "crash" else Printf.sprintf "crash@%d" k)

(* The base points, each clean and transient, the DAF ones also crashing. *)
let with_faults ks =
  let ( let* ) l f = List.concat_map f l in
  let* fused = [ false; true ] in
  let* async = [ false; true ] in
  let* format = [ Block_store.Daf_format; Lab_format ] in
  let* disk = [ Sim; File ] in
  let p = { fused; async; format; disk; fault = Clean } in
  p :: { p with fault = Transient }
  :: (if format = Daf_format then List.map (fun k -> { p with fault = Crash k }) ks else [])

(* Crash points spread over a journalled run's backend operations: the data
   requests, the header, and a sync and a record per safe boundary. *)
let product n (cplan : Cplan.t) =
  let safe = List.filter Fun.id (Array.to_list (Journal.analyze cplan).safe) in
  let ops = 1 + cplan.read_ops + cplan.write_ops + (2 * List.length safe) in
  with_faults (List.sort_uniq compare (List.init n (fun c -> 1 + (c * (ops - 1) / max 1 (n - 1)))))

type case = {
  name : string;
  prog : Program.t;
  config : Config.t;
  opaque : bool;
  plans : Cplan.t list;
}

(* Any subset of the sharing is realizable under the original schedule: a
   co-access extent only holds pairs the original execution orders.  Chain
   links are adjacent there, so their writes elide and fusion fires. *)
let case_of_seed seed =
  let opaque = seed mod 2 = 0 and ref_params = Rand_prog.ref_params in
  (if opaque then Rand_prog.with_program else Rand_prog.with_ew_program) seed (fun prog ->
      let config = Rand_prog.config_for prog in
      let analysis = Riot_analysis.Deps.extract prog ~ref_params in
      let writes = List.filter (fun (c : Riot_analysis.Coaccess.t) -> c.src_typ = Write) analysis.sharing in
      let build sched realized = Cplan.build prog ~config ~sched ~realized in
      let searched =
        if seed mod 10 <> 0 then []
        else
          fst (Riot_optimizer.Search.enumerate ~max_size:2 prog ~analysis ~ref_params)
          |> select_plans 2 |> List.map (fun (p : Riot_optimizer.Search.plan) -> build p.sched p.q)
      in
      let direct =
        ([] :: (if writes = [] then [] else [ writes ]))
        @ if List.compare_lengths analysis.sharing writes = 0 then [] else [ analysis.sharing ]
      in
      let name = Printf.sprintf "seed=%d (%s=%d)" seed Rand_prog.seed_env_var (Rand_prog.master_seed ()) in
      { name; prog; config; opaque; plans = List.map (build prog.original) direct @ searched })

type tally = {
  mutable programs : int;
  mutable plans : int;
  mutable verified_plans : int;
  mutable crash_cases : int;
  mutable recoveries : int;
  mutable faults_injected : int;
  mutable retries : int;
  mutable runs : (string * int) list;
  mutable mismatches : string list;
}

let tally () =
  { programs = 0; plans = 0; verified_plans = 0; crash_cases = 0; recoveries = 0;
    faults_injected = 0; retries = 0; runs = []; mismatches = [] }

let count t key =
  let n = Option.value ~default:0 (List.assoc_opt key t.runs) in
  t.runs <- List.sort compare ((key, n + 1) :: List.remove_assoc key t.runs)

let broken fmt = Printf.ksprintf failwith fmt

(* A fresh disk, and a [restart] modelling process death: a real-file disk
   is closed and its directory reopened; the simulated disk survives. *)
let with_disk disk f =
  if disk = Sim then f (Backend.sim ~read_bw:96e6 ~write_bw:60e6 ~request_overhead:0. ()) Fun.id
  else
    let root = Filename.temp_file "riot_diff" "" in
    Sys.remove root;
    let cur = ref (Backend.file ~root) in
    let restart (b : Backend.t) = b.close (); cur := Backend.file ~root; !cur in
    Fun.protect (fun () -> f !cur restart) ~finally:(fun () ->
        !cur.close ();
        Array.iter (fun f -> Sys.remove (Filename.concat root f)) (Sys.readdir root);
        Sys.rmdir root)

(* One run at [p] on [backend], the disk or a fault wrapper over it. *)
let exec c (cplan : Cplan.t) p ?(compute = true) ?trace ?(journal = false) ?(resume = false)
    ?(arm = ignore) backend =
  let go (b : Backend.t) =
    let stores = Engine.stores_for b ~format:p.format ~config:c.config in
    if compute && not resume then load_inputs c.prog c.config stores;
    if p.async then b.sync ();
    arm b;
    let mode = if p.fused then Engine.Vector else Interpret in
    Engine.run ~compute ~stores ?trace ~journal ~resume ~mode cplan ~backend:b ~format:p.format
      ~mem_cap:cplan.peak_memory
  in
  Fun.protect ~finally:Riot_base.Failpoint.reset (fun () ->
      if p.async then Backend.with_async backend go else go backend)

let output c disk format = snapshot (Engine.stores_for disk ~format ~config:c.config)

let check_io ~loose cplan (r : Engine.result) =
  let short (d : Cost_check.divergence) =
    loose && d.d_counter = "bytes_read" && d.d_actual <= d.d_predicted
  in
  match List.filter (Fun.negate short) (Cost_check.check cplan ~actual:r.per_array).divergences with
  | [] -> ()
  | d :: _ ->
      broken "I/O: %s.%s predicted %d measured %d" d.d_array d.d_counter d.d_predicted d.d_actual

let check_trace (cplan : Cplan.t) ~fused (r : Engine.result) events =
  let groups = if fused then Fuse.analyze cplan else [] in
  let links = List.concat_map (fun (g : Fuse.group) -> g.links) groups in
  Option.iter
    (fun d -> broken "trace: %s" (Format.asprintf "%a" Cplan.pp_divergence d))
    (Cplan.diff_trace ~links cplan (List.to_seq events));
  if List.exists (function Riot_plan.Trace.Evict _ -> true | _ -> false) events then
    broken "evicted";
  if (not fused) && r.pool_peak_bytes <> cplan.peak_memory then
    broken "pool peak %d bytes, peak_memory %d" r.pool_peak_bytes cplan.peak_memory

let check_same_io ~loose ~base_name (r : Engine.result) (base : Engine.result) =
  let mask (a : Cost_check.actual) = if loose then { a with a_read_bytes = 0 } else a in
  let vr = r.virtual_io_seconds and vb = base.virtual_io_seconds in
  if List.map mask r.per_array <> List.map mask base.per_array then
    broken "per-array I/O differs from the %s run" base_name;
  if Float.abs (vr -. vb) > 1e-9 *. Float.max 1. vb then
    broken "virtual I/O %g s, %s run %g s" vr base_name vb

let check_static c cplan =
  let vr = Engine.verify cplan in
  let tolerated (d : Riot_plan.Plan_verify.diag) =
    c.opaque && d.code = "DF003" && d.severity = Warning
  in
  if not (List.for_all tolerated vr.diags) then
    broken "%s" (Format.asprintf "@[<v>%a@]" Riot_plan.Plan_verify.pp_report vr);
  let rp = Journal.analyze cplan and groups = Fuse.analyze cplan in
  Array.iteri
    (fun i safe ->
      let r = rp.restart.(i) in
      if safe && List.exists (fun (g : Fuse.group) -> r > g.lo && r <= g.hi) groups then
        broken "safe boundary %d restarts at %d inside a fused group" i r)
    rp.safe

(* Does a disk read of a non-input block precede every write of it?  A real
   file serves it EOF-short, and charges only the bytes served. *)
let reads_unwritten c (cplan : Cplan.t) =
  let written = Bytes.make (Array.length cplan.blocks) '\000' in
  let unwritten (_, k, src) =
    src = Cplan.From_disk && Bytes.get written k = '\000'
    && (Program.find_array c.prog cplan.blocks.(k).array).kind <> Input
  in
  Array.exists
    (fun (st : Cplan.step) ->
      let early = List.exists unwritten st.reads in
      List.iter (fun (_, k, _) -> Bytes.set written k '\001') st.writes;
      early)
    cplan.steps

let arm_transient (b : Backend.t) =
  Riot_storage.Io_stats.reset b.stats;
  Riot_base.Failpoint.arm Backend.fp_read_error (Every 3);
  Riot_base.Failpoint.arm Backend.fp_write_error (Every 4);
  Riot_base.Failpoint.arm Backend.fp_read_short (Nth 2)

(* Checks one plan at the reference, the phantom run(s), the fused sync DAF
   sim point and [points]; returns the reference output. *)
let check_plan t ~where c cplan points =
  let guard what f =
    try f () with e ->
      let m = match e with Failure m -> m | e -> "raised " ^ Printexc.to_string e in
      t.mismatches <- t.mismatches @ [ Printf.sprintf "%s %s: %s" where what m ]
  in
  guard "static" (fun () -> check_static c cplan; t.verified_plans <- t.verified_plans + 1);
  let dirty = reads_unwritten c cplan in
  (* Clean and transient runs; the unfused sync clean ones are kept as the
     baselines of the fused, async and transient runs at their point. *)
  let runs = Hashtbl.create 8 in
  let rec run p =
    match Hashtbl.find_opt runs p with
    | Some r -> r
    | None ->
        let sink, events = Riot_plan.Trace.collector () in
        let r, out, s =
          with_disk p.disk (fun b _ ->
              let r =
                if p.fault = Clean then exec c cplan p ~trace:sink b
                else
                  let policy = { Backend.default_retry_policy with attempts = 8; sleep = ignore } in
                  Backend.retrying ~policy (Backend.faulty b)
                  |> exec c cplan p ~trace:sink ~arm:arm_transient
              in
              (r, output c b p.format, b.stats))
        in
        count t (name ~kind:true p);
        Hashtbl.add runs p (r, out);
        t.faults_injected <- t.faults_injected + s.faults_injected;
        t.retries <- t.retries + s.retries;
        if s.retries <> s.faults_injected then
          broken "%d faults, %d retries" s.faults_injected s.retries;
        if out <> snd (run reference) then broken "output differs from the reference";
        if p.format = Daf_format then begin
          check_io ~loose:(p.disk = File && dirty) cplan r;
          check_trace cplan ~fused:p.fused r (events ())
        end;
        let base = { p with fused = false; async = false; fault = Clean } in
        if p <> base then
          check_same_io ~loose:(p.disk = File && dirty && p.async) ~base_name:(name base) r
            (fst (run base));
        (r, out)
  in
  let phantom disk =
    let sink, events = Riot_plan.Trace.collector () in
    let r = with_disk disk (fun b _ -> exec c cplan reference ~compute:false ~trace:sink b) in
    count t (if disk = Sim then "phantom/sim" else "phantom/file");
    check_io ~loose:false cplan r;
    check_trace cplan ~fused:false r (events ())
  in
  (* The crashing run uses [p]'s mode and the resume the other: a journal
     written under either mode must resume under either. *)
  let crash p k =
    count t (name ~kind:true p);
    let out =
      with_disk p.disk (fun b restart ->
          let arm _ = Riot_base.Failpoint.arm Backend.fp_crash (Nth k) in
          match exec c cplan p ~journal:true ~arm (Backend.faulty b) with
          | (_ : Engine.result) -> output c b p.format
          | exception Backend.Crash _ ->
              t.crash_cases <- t.crash_cases + 1;
              let faults = b.stats.faults_injected in
              t.faults_injected <- t.faults_injected + faults;
              if faults <> 1 then broken "crash counted %d faults" faults;
              (match Journal.recover b ~fingerprint:(Journal.fingerprint cplan) with
              | Some { watermark = w; _ } when w >= 0 && not (Journal.analyze cplan).safe.(w) ->
                  broken "journalled watermark %d is not a safe boundary" w
              | _ -> ());
              let b = restart b in
              ignore (exec c cplan { p with fused = not p.fused } ~journal:true ~resume:true b);
              let out = output c b p.format in
              if out = snd (run reference) then t.recoveries <- t.recoveries + 1;
              out)
    in
    if out <> snd (run reference) then broken "resumed output differs from the reference"
  in
  guard (name reference) (fun () -> ignore (run reference));
  List.iter
    (fun disk -> guard ("phantom " ^ name { reference with disk }) (fun () -> phantom disk))
    (Sim :: (if List.exists (fun p -> p.disk = File && p.format = Daf_format) points then [ File ] else []));
  List.iter
    (fun p ->
      guard (name p) (fun () -> match p.fault with Crash k -> crash p k | _ -> ignore (run p)))
    (fused_sim :: List.filter (fun p -> p <> reference && p <> fused_sim) points);
  Option.map snd (Hashtbl.find_opt runs reference)

let check_case t c points =
  t.programs <- t.programs + 1;
  let is_output (name, _) = (Program.find_array c.prog name).kind = Output in
  let outputs =
    List.mapi
      (fun i cplan ->
        t.plans <- t.plans + 1;
        check_plan t ~where:(Printf.sprintf "%s plan=%d" c.name i) c cplan (points i cplan)
        |> Option.map (List.filter is_output))
      c.plans
  in
  match List.filter_map Fun.id outputs with
  | first :: rest when List.exists (( <> ) first) rest ->
      t.mismatches <- t.mismatches @ [ c.name ^ ": plans disagree on the Output arrays" ]
  | _ -> ()

let campaign ?(seed = 0) ?(min_crash_cases = 200) ?(plans_per_program = 2) ?(crash_points = 12) () =
  let t = tally () in
  let s = ref seed in
  while t.crash_cases < min_crash_cases && t.programs < max 4 (min_crash_cases / 2) do
    let c = case_of_seed !s in
    incr s;
    check_case t { c with plans = select_plans plans_per_program c.plans } (fun _ cplan ->
        product crash_points cplan)
  done;
  t
