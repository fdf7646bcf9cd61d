(* What every workload provides to the benchmark loop in [Gcbench]. *)

type metric = { name : string; value : float; unit : string; exact : bool }
(** A workload-only end-to-end metric; [exact] ones are deterministic
    counts that the determinism self-test compares. *)

type inst = {
  batch : unit -> int;
      (** Run the next batch of ops; returns how many were attempted.
          Failed ops are added to {!failed}. *)
  batch_ops : int;  (** ops per batch, so [--ops] can stop on a batch boundary *)
  finish : unit -> (string * bool) list;
      (** End-of-run oracle checks, outside the timed region. *)
  report : unit -> metric list;  (** after the run *)
  counters : unit -> (string * int) list;
      (** Workload-only cumulative work counters; cheap to read, so the
          traced run can take deltas over its traced slices. *)
  layer : unit -> (string * float) list;
      (** Workload-only per-layer values, read after the run. *)
}

type t = { name : string; setup : seed:int -> traced:bool -> inst }

let failed = ref 0

let fail_if b = if b then incr failed
