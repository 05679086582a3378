(* Cross-domain optimizer profiling.  Counters are atomics; float
   accumulators use a CAS loop on the boxed value (compare_and_set is
   physical equality, so the freshly-read box is a valid witness).  Per-domain
   busy time lands in a slot indexed by the domain id, so utilization can be
   reported per worker without any registration protocol. *)

type t = {
  tried : int Atomic.t;  (* candidate sets examined (incl. pruned) *)
  pruned_bound : int Atomic.t;  (* cut by the I/O lower bound *)
  pruned_apriori : int Atomic.t;  (* cut by an infeasible subset *)
  rejected_verify : int Atomic.t;  (* Farkas found no schedule / check failed *)
  costed : int Atomic.t;  (* full Cplan builds *)
  fm_components : int Atomic.t;  (* components decided by Fourier-Motzkin *)
  fm_giveups : int Atomic.t;  (* of those, answered by the budget give-up *)
  samples_drawn : int Atomic.t;  (* (component, window) samples drawn *)
  bound_s : float Atomic.t;
  find_s : float Atomic.t;
  verify_s : float Atomic.t;
  cost_s : float Atomic.t;
  domain_busy : float Atomic.t array;
  mutable waves : int;
  mutable wall : float;
}

let slots = 64

let create () =
  { tried = Atomic.make 0;
    pruned_bound = Atomic.make 0;
    pruned_apriori = Atomic.make 0;
    rejected_verify = Atomic.make 0;
    costed = Atomic.make 0;
    fm_components = Atomic.make 0;
    fm_giveups = Atomic.make 0;
    samples_drawn = Atomic.make 0;
    bound_s = Atomic.make 0.;
    find_s = Atomic.make 0.;
    verify_s = Atomic.make 0.;
    cost_s = Atomic.make 0.;
    domain_busy = Array.init slots (fun _ -> Atomic.make 0.);
    waves = 0;
    wall = 0. }

let add_float a dt =
  let rec go () =
    let old = Atomic.get a in
    if not (Atomic.compare_and_set a old (old +. dt)) then go ()
  in
  go ()

type phase = Bound | Find | Verify | Cost

let phase_acc t = function
  | Bound -> t.bound_s
  | Find -> t.find_s
  | Verify -> t.verify_s
  | Cost -> t.cost_s

let time t phase f =
  let t0 = Unix.gettimeofday () in
  Fun.protect f ~finally:(fun () ->
      let dt = Unix.gettimeofday () -. t0 in
      add_float (phase_acc t phase) dt;
      add_float t.domain_busy.((Domain.self () :> int) mod slots) dt)

let utilization t =
  let busy =
    Array.to_list t.domain_busy
    |> List.map Atomic.get
    |> List.filter (fun s -> s > 0.)
    |> List.sort (fun a b -> compare b a)
  in
  if t.wall <= 0. then List.map (fun _ -> 0.) busy
  else List.map (fun s -> s /. t.wall) busy

let pp ppf t =
  let c a = Atomic.get a in
  Format.fprintf ppf
    "@[<v>candidates tried:   %d@,pruned by bound:    %d@,pruned by apriori:  %d@,rejected by verify: %d@,plans costed:       %d@,fm components:      %d@,fm give-ups:        %d@,samples drawn:      %d@,waves:              %d@,phase seconds:      bound=%.3f find=%.3f verify=%.3f cost=%.3f@,wall seconds:       %.3f@,domain utilization: %s@]"
    (c t.tried) (c t.pruned_bound) (c t.pruned_apriori) (c t.rejected_verify)
    (c t.costed) (c t.fm_components) (c t.fm_giveups) (c t.samples_drawn) t.waves
    (Atomic.get t.bound_s) (Atomic.get t.find_s) (Atomic.get t.verify_s)
    (Atomic.get t.cost_s) t.wall
    (match utilization t with
    | [] -> "(idle)"
    | us ->
        String.concat " "
          (List.map (fun u -> Printf.sprintf "%.0f%%" (100. *. u)) us))
