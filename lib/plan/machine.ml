type t = {
  read_bw : float;
  write_bw : float;
  request_overhead : float;
  gemm_flops : float;
  elementwise_bw : float;
  dispatch_interp : float;
  dispatch_vector : float;
}

let mb x = x *. 1048576.

let paper =
  { read_bw = mb 96.;
    write_bw = mb 60.;
    request_overhead = 0.012;
    gemm_flops = 45e9;
    elementwise_bw = 3e9;
    (* Per-step dispatch, calibrated against the cpubound benchmark on the
       reference build (see EXPERIMENTS.md).  [dispatch_interp] was fitted
       to an IR-walking interpreter since replaced by unfused compiled
       execution; it has not been re-fitted. *)
    dispatch_interp = 2.8e-6;
    dispatch_vector = 3.5e-7 }

let io_seconds t ~read_bytes ~write_bytes =
  (float_of_int read_bytes /. t.read_bw) +. (float_of_int write_bytes /. t.write_bw)

let io_seconds_actual t ~read_bytes ~write_bytes ~requests =
  io_seconds t ~read_bytes ~write_bytes +. (float_of_int requests *. t.request_overhead)
