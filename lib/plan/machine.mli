(** Machine cost model.

    The paper's optimizer predicts I/O time as a linear function of read and
    write volume, calibrated on its test machine (sustained 96 MB/s reads and
    60 MB/s writes on a WD Caviar Black behind ext2 with O_DIRECT).  The CPU
    model substitutes for GotoBLAS2 on the paper's quad-core i7-2600:
    compute-bound kernels run at a sustained flop rate, element-wise kernels
    at a memory bandwidth. *)

type t = {
  read_bw : float;  (** bytes/second *)
  write_bw : float;  (** bytes/second *)
  request_overhead : float;  (** seconds per I/O request (simulated disk) *)
  gemm_flops : float;  (** sustained flop/s for matrix multiplication *)
  elementwise_bw : float;  (** bytes/second for element-wise kernels *)
  dispatch_interp : float;
      (** seconds of per-step overhead when the engine runs the compiled
          plan unfused ([Interpret] mode: one closure call and one pool
          round trip per step).  Still the value fitted against the
          IR-walking interpreter that unfused execution replaced, so it
          overestimates. *)
  dispatch_vector : float;
      (** seconds of per-step overhead when the compiled plan runs fused
          ([Vector] mode, the default) *)
}

val paper : t
(** The configuration measured in Section 6, extended with per-step
    dispatch constants calibrated on the [cpubound] benchmark (see
    EXPERIMENTS.md). *)

val mb : float -> float
(** Megabytes (2^20) to bytes. *)

val io_seconds : t -> read_bytes:int -> write_bytes:int -> float
(** The optimizer's linear prediction. *)

val io_seconds_actual : t -> read_bytes:int -> write_bytes:int -> requests:int -> float
(** The simulated-disk "actual": linear volume plus per-request overhead. *)
