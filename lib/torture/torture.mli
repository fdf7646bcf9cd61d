(** Deterministic GC torture harness.

    A seed expands to a program over the runtime API — an allocation mix of
    pairs, weak pairs, ephemerons, vectors, boxes, tconcs and guardians;
    guardian register/poll/drop (including guardian-of-guardian chains);
    mutation storms that exercise the card-marking write barrier;
    checkpoint ops that serialize the heap to a {!Gbc_image.Image} and
    swap in the restored copy mid-episode — interleaved with forced
    collections of seed-chosen target generations.
    After {e every} collection the harness runs the {!Verify} invariant
    checker and compares the heap against the {!Oracle} semispace model:
    per-object liveness, structure, weak/ephemeron breaking, guardian
    pending queues (as multisets) and generation placement.  After every
    full collection the {!Census} must also account for every allocated
    word.

    A run is split into {e episodes}: each episode replays part of the op
    budget against a fresh heap under a seed-chosen configuration profile,
    including extremes (one card per segment, a single generation, tiny
    segments, a hard heap ceiling).  With faults enabled, episodes also arm
    a one-shot segment-allocation failure ({!Heap.faults}) and must recover
    gracefully; with the seeded bug enabled
    ([Config.corrupt_forward_period]), the harness must {e detect} the
    corruption and shrink the failing trace.

    Everything — op generation, interpretation, comparison, reporting — is
    a pure function of the seed, so [run_seed] is bit-for-bit reproducible
    and failures replay exactly. *)

type op
(** One step of a torture program.  Operand selectors are raw integers
    resolved against the driver's current live set, so a trace remains
    interpretable after the shrinker deletes ops. *)

val pp_op : Format.formatter -> op -> unit

type failure = {
  episode : int;
  profile : string;  (** configuration profile of the failing episode *)
  op_index : int;
  reason : string;
  shrunk_ops : int;  (** ops left after trace minimization *)
  shrunk_trace : string;  (** the minimized trace, one op per line *)
}

type episode_summary = {
  profile : string;
  ops_run : int;
  collections : int;
  verify_checks : int;
  comparisons : int;
  oom_recoveries : int;
  checkpoints : int;
      (** mid-episode heap-image save/restore round-trips, each asserting
          save → load → save byte-identity and full oracle agreement on
          the restored heap *)
  faults_injected : int;
}

type report = {
  seed : int;
  ops_requested : int;
  episodes : episode_summary list;
  failure : failure option;
}

type opts = {
  ops : int;  (** total op budget across the seed's episodes *)
  faults : bool;  (** arm segment-allocation faults and heap pressure *)
  inject_bug : bool;
      (** run with the seeded forward-corruption bug; the expected outcome
          is a detected, shrunk failure *)
}

val default_opts : opts

val run_seed : seed:int -> opts:opts -> report
(** Deterministic: equal arguments give structurally equal reports. *)

val shrink : test:(op array -> bool) -> op array -> op array
(** Delta-debugging minimization: greedily remove chunks while [test]
    (run to a bounded budget) still fails.  Exposed for the test suite. *)

val gen_ops : seed:int -> int -> op array
(** The op stream a seed expands to (exposed for the test suite). *)

val json_of_reports : report list -> string
(** The [gbc-torture/1] JSON document for [--json-out]: per-seed episode
    summaries, totals, and any failures.  Contains no timestamps, so equal
    runs serialize identically. *)
