(* Differential model checking of the collector + guardian + weak-pair
   semantics against the one reference model, the torture harness's
   semispace oracle (exact including floating garbage).  After every
   collection of a fixed seed's episodes the harness runs Verify and
   compares every object's liveness, structure, weak/ephemeron breaking,
   guardian queue and generation; after every full collection the census
   must account for every allocated word. *)

module Torture = Gbc_torture.Torture

let run_clean ~ops seeds =
  List.iter
    (fun seed ->
      let r = Torture.run_seed ~seed ~opts:{ Torture.default_opts with ops } in
      match r.Torture.failure with
      | None -> ()
      | Some f ->
          Alcotest.failf "seed %d failed at op %d (%s): %s\nshrunk trace:\n%s" seed
            f.Torture.op_index f.Torture.profile f.Torture.reason f.Torture.shrunk_trace)
    seeds

let test_model () = run_clean ~ops:800 (List.init 24 (fun i -> 100 + i))
let test_long_run () = run_clean ~ops:4000 [ 0xBEEF ]

let () =
  Alcotest.run "model"
    [
      ( "differential",
        [
          Alcotest.test_case "heap agrees with the shadow model" `Quick test_model;
          Alcotest.test_case "long deterministic run" `Slow test_long_run;
        ] );
    ]
