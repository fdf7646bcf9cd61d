(* Verification infrastructure: the heap verifier must catch deliberately
   injected corruption; the trace ring records collections; independent
   heaps do not interfere. *)

open Gbc_runtime

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let cfg = Config.v ~segment_words:128 ~max_generation:2 ()
let heap () = Heap.create ~config:cfg ()
let fx = Word.of_fixnum
let full_collect h = ignore (Collector.collect h ~gen:(Heap.max_generation h))

let has_error errs what =
  List.exists (fun e -> e.Verify.what = what) errs

(* --- verifier: clean heaps pass ------------------------------------- *)

let test_clean_heap_verifies () =
  let h = heap () in
  let _l = Handle.create h (Obj.list_of h (List.map fx [ 1; 2; 3 ])) in
  let _v = Handle.create h (Obj.make_vector h ~len:5 ~init:(Obj.string_of_ocaml h "x")) in
  let _w = Handle.create h (Weak_pair.cons h (fx 1) Word.nil) in
  Alcotest.(check int) "no errors" 0 (List.length (Verify.verify h));
  full_collect h;
  Alcotest.(check int) "no errors after gc" 0 (List.length (Verify.verify h))

(* --- verifier: injected corruptions are caught ----------------------- *)

let test_catches_dangling_pointer () =
  let h = heap () in
  let p = Handle.create h (Obj.cons h (fx 1) Word.nil) in
  (* Fabricate a pointer into an unused segment region; stored raw, since
     the write barrier itself would (rightly) choke on it. *)
  let bogus = Word.pair_ptr ((1 lsl Heap.stride_bits) * 1000) in
  Heap.store h (Word.addr (Handle.get p)) bogus;
  check "dangling caught" true
    (has_error (Verify.verify h) "pointer to unknown segment")

let test_catches_interior_pointer () =
  let h = heap () in
  let v = Handle.create h (Obj.make_vector h ~len:4 ~init:Word.nil) in
  (* Point into the middle of the vector (a field, not the header). *)
  let interior = Word.typed_ptr (Word.addr (Handle.get v) + 2) in
  let holder = Handle.create h (Obj.cons h Word.nil Word.nil) in
  Obj.set_car h (Handle.get holder) interior;
  check "interior caught" true
    (has_error (Verify.verify h) "pointer to object interior")

let test_catches_wrong_tag () =
  let h = heap () in
  let pair = Obj.cons h (fx 1) (fx 2) in
  let holder = Handle.create h (Obj.cons h Word.nil Word.nil) in
  (* A typed-object pointer aimed at a pair cell. *)
  Obj.set_car h (Handle.get holder) (Word.typed_ptr (Word.addr pair));
  check "tag mismatch caught" true
    (has_error (Verify.verify h) "typed pointer into pair space")

let test_catches_remembered_set_violation () =
  let h = heap () in
  let v = Handle.create h (Obj.make_vector h ~len:2 ~init:Word.nil) in
  full_collect h;
  full_collect h;
  (* Old vector now; store a young pointer bypassing the write barrier. *)
  let young = Obj.cons h (fx 1) Word.nil in
  Heap.store h (Word.addr (Handle.get v) + 1) young;
  check "unremembered old-to-young caught" true
    (has_error (Verify.verify h) "old-to-young pointer not remembered")

let test_catches_smashed_header () =
  let h = heap () in
  let v = Handle.create h (Obj.make_vector h ~len:3 ~init:(fx 0)) in
  (* Overwrite the header with a non-fixnum word. *)
  Heap.store h (Word.addr (Handle.get v)) Word.true_;
  check "smashed header caught" true (has_error (Verify.verify h) "malformed header")

(* Each defect the shared object parse reports, planted in a fresh heap. *)
let test_catches_parse_defects () =
  let header len code h w = Heap.store h (Word.addr w) (Obj.header ~len ~code) in
  List.iter
    (fun (what, mk, corrupt) ->
      let h = heap () in
      let w = Handle.get (Handle.create h (mk h)) in
      corrupt h w;
      check what true (has_error (Verify.verify h) what))
    [
      ( "object overruns segment",
        (fun h -> Obj.make_vector h ~len:3 ~init:(fx 0)),
        header 1000 Obj.code_vector );
      ( "unknown type code",
        (fun h -> Obj.make_vector h ~len:3 ~init:(fx 0)),
        header 3 200 );
      ( "odd used count in pair segment",
        (fun h -> Obj.cons h (fx 1) Word.nil),
        fun h w ->
          let si = Heap.info_of_word h w in
          si.Heap.used <- si.Heap.used + 1 );
    ]

let test_catches_bad_crossing_entry () =
  (* Small cards, so an old vector spans several: the crossing entry of a
     card that starts inside the vector names the vector's header. *)
  let config = Config.v ~segment_words:128 ~card_words:16 ~max_generation:2 () in
  let h = Heap.create ~config () in
  let v = Handle.create h (Obj.make_vector h ~len:40 ~init:(fx 0)) in
  full_collect h;
  full_collect h;
  let addr = Word.addr (Handle.get v) in
  let seg = Heap.seg_of_addr addr and off = Heap.off_of_addr addr in
  let card = Heap.card_of_off h (off + 20) in
  check_int "entry names the header" off (Heap.card_object_start h ~seg ~card);
  check_int "clean before corruption" 0 (List.length (Verify.verify h));
  (Heap.info h seg).Heap.crossing.(card) <- off + 1;
  check "interior crossing entry caught" true
    (has_error (Verify.verify h)
       "crossing-map entry is not an object start at or before its card")

let test_catches_stored_forward_marker () =
  let h = heap () in
  let p = Handle.create h (Obj.cons h (fx 1) Word.nil) in
  Heap.store h (Word.addr (Handle.get p)) Word.forward_marker;
  check "marker caught" true
    (List.length (Verify.verify h) > 0)

let test_checks_every_traced_slot () =
  let h = heap () in
  let v = Handle.create h (Obj.make_vector h ~len:4 ~init:Word.nil) in
  let p = Handle.create h (Obj.cons h Word.nil Word.nil) in
  let interior = Word.typed_ptr (Word.addr (Handle.get v) + 2) in
  (* The vector's last field and the pair's cdr, stored raw. *)
  Heap.store h (Word.addr (Handle.get v) + 4) interior;
  Heap.store h (Word.addr (Handle.get p) + 1) interior;
  check_int "both slots reported" 2
    (List.length
       (List.filter (fun e -> e.Verify.what = "pointer to object interior") (Verify.verify h)))

(* --- telemetry ring --------------------------------------------------- *)

let traced_heap () =
  let h = heap () in
  Telemetry.set_enabled (Heap.telemetry h) true;
  h

let test_trace_records () =
  let h = traced_heap () in
  let tr = Telemetry.Ring.attach ~capacity:8 (Heap.telemetry h) in
  let keep = Handle.create h (Obj.list_of h (List.map fx [ 1; 2; 3 ])) in
  ignore (Collector.collect h ~gen:0);
  ignore (Collector.collect h ~gen:1);
  let recs = Telemetry.Ring.records tr in
  check_int "two records" 2 (List.length recs);
  let r1 = List.nth recs 0 and r2 = List.nth recs 1 in
  check_int "gen of first" 0 r1.Telemetry.Ring.generation;
  check_int "gen of second" 1 r2.Telemetry.Ring.generation;
  check "ordinals increase" true (r2.Telemetry.Ring.ordinal > r1.Telemetry.Ring.ordinal);
  check "copied something" true (r1.Telemetry.Ring.counters.Stats.words_copied > 0);
  check "live recorded" true (r1.Telemetry.Ring.live_words_after > 0);
  ignore keep;
  Telemetry.Ring.detach tr;
  ignore (Collector.collect h ~gen:0);
  check_int "no records after detach" 2 (List.length (Telemetry.Ring.records tr))

let test_trace_ring_bounded () =
  let h = traced_heap () in
  let tr = Telemetry.Ring.attach ~capacity:4 (Heap.telemetry h) in
  for _ = 1 to 10 do
    ignore (Collector.collect h ~gen:0)
  done;
  let recs = Telemetry.Ring.records tr in
  check_int "bounded" 4 (List.length recs);
  check_int "total counted" 10 (Telemetry.Ring.total_recorded tr);
  (* The retained ones are the most recent, in order. *)
  let ords = List.map (fun r -> r.Telemetry.Ring.ordinal) recs in
  Alcotest.(check (list int)) "latest four" [ 7; 8; 9; 10 ] ords;
  Telemetry.Ring.detach tr

let test_trace_guardian_counters () =
  let h = traced_heap () in
  let tr = Telemetry.Ring.attach (Heap.telemetry h) in
  let g = Handle.create h (Guardian.make h) in
  Guardian.register h (Handle.get g) (Obj.cons h (fx 1) Word.nil);
  full_collect h;
  let r = List.hd (List.rev (Telemetry.Ring.records tr)) in
  check_int "resurrection recorded" 1
    r.Telemetry.Ring.counters.Stats.guardian_resurrections;
  Telemetry.Ring.detach tr

(* --- heap isolation --------------------------------------------------- *)

let test_two_heaps_do_not_interfere () =
  let h1 = heap () and h2 = heap () in
  let a = Handle.create h1 (Obj.cons h1 (fx 1) Word.nil) in
  let b = Handle.create h2 (Obj.cons h2 (fx 2) Word.nil) in
  (* Guardians in both; collect only h1. *)
  let g1 = Handle.create h1 (Guardian.make h1) in
  let g2 = Handle.create h2 (Guardian.make h2) in
  Guardian.register h1 (Handle.get g1) (Obj.cons h1 (fx 10) Word.nil);
  Guardian.register h2 (Handle.get g2) (Obj.cons h2 (fx 20) Word.nil);
  full_collect h1;
  check "h1 guardian fired" true (Guardian.retrieve h1 (Handle.get g1) <> None);
  check "h2 guardian untouched" true (Guardian.pending_count h2 (Handle.get g2) = 0);
  check_int "h2 no collections" 0 (Heap.stats h2).Stats.total.Stats.collections;
  full_collect h2;
  check "h2 fires later" true (Guardian.retrieve h2 (Handle.get g2) <> None);
  check_int "h1 value" 1 (Word.to_fixnum (Obj.car h1 (Handle.get a)));
  check_int "h2 value" 2 (Word.to_fixnum (Obj.car h2 (Handle.get b)))

(* --- allocation edge cases -------------------------------------------- *)

let test_objects_straddle_segments () =
  (* Objects sized to leave awkward tails: every segment boundary must be
     handled and everything must survive collection. *)
  let h = Heap.create ~config:(Config.v ~segment_words:32 ~max_generation:1 ()) () in
  let keep = Handle.create h Word.nil in
  for i = 1 to 200 do
    let v = Obj.make_vector h ~len:(1 + (i mod 13)) ~init:(fx i) in
    Handle.set keep (Obj.cons h v (Handle.get keep))
  done;
  Verify.check_exn h;
  full_collect h;
  Verify.check_exn h;
  let rec walk l i =
    if not (Word.is_nil l) then begin
      let v = Obj.car h l in
      let expect = 200 - i in
      check "contents" true
        (Word.to_fixnum (Obj.vector_ref h v 0) = expect);
      walk (Obj.cdr h l) (i + 1)
    end
  in
  walk (Handle.get keep) 0

(* --- census ----------------------------------------------------------- *)

let test_census_matches_live_after_full_gc () =
  let h = heap () in
  let keep = Handle.create h Word.nil in
  for i = 0 to 99 do
    let v = Obj.make_vector h ~len:(i mod 5) ~init:(fx i) in
    let s = Obj.string_of_ocaml h (string_of_int i) in
    let wp = Weak_pair.cons h v s in
    Handle.set keep (Obj.cons h wp (Handle.get keep))
  done;
  let g = Handle.create h (Guardian.make h) in
  Guardian.register h (Handle.get g) (Obj.cons h (fx 1) Word.nil);
  full_collect h;
  let census = Census.run h in
  check_int "census equals live words" (Heap.live_words h) census.Census.reachable.Census.words;
  check_int "no slack after full gc" 0 (Census.slack census)

let test_census_slack_tracks_garbage () =
  let h = heap () in
  let _keep = Handle.create h (Obj.cons h (fx 1) Word.nil) in
  let c0 = Census.run h in
  check_int "fresh heap: no slack" 0 (Census.slack c0);
  for i = 0 to 499 do
    ignore (Obj.cons h (fx i) Word.nil)
  done;
  let c1 = Census.run h in
  check_int "garbage words are slack" 1000 (Census.slack c1);
  full_collect h;
  check_int "collected away" 0 (Census.slack (Census.run h))

let test_census_weak_semantics () =
  let h = heap () in
  (* The target is reachable only through a weak car: census must not count
     it. *)
  let target = Handle.create h (Obj.make_vector h ~len:10 ~init:Word.nil) in
  let wp = Handle.create h (Weak_pair.cons h (Handle.get target) Word.nil) in
  let c_with = Census.run h in
  Handle.free target;
  let c_without = Census.run h in
  check "weak-only target not counted" true
    (c_without.Census.reachable.Census.words < c_with.Census.reachable.Census.words);
  check_int "weak pair itself counted" 1 c_without.Census.reachable.Census.weak_pairs;
  Handle.free wp

let test_census_ephemeron_semantics () =
  let h = heap () in
  let key = Handle.create h (Obj.cons h (fx 1) Word.nil) in
  let payload = Obj.make_vector h ~len:20 ~init:Word.nil in
  let e = Handle.create h (Ephemeron.cons h (Handle.get key) payload) in
  let c_live = Census.run h in
  check "value counted while key live" true
    (c_live.Census.reachable.Census.typed.(Gbc_runtime.Obj.code_vector) >= 1);
  Handle.free key;
  let c_dead = Census.run h in
  (* Key now unreachable: the value must not be counted either. *)
  check "value hidden once key unreachable" true
    (c_dead.Census.reachable.Census.words < c_live.Census.reachable.Census.words);
  check_int "ephemeron counted" 1 c_dead.Census.reachable.Census.ephemerons;
  Handle.free e

let () =
  Alcotest.run "infra"
    [
      ( "verifier",
        [
          Alcotest.test_case "clean heap" `Quick test_clean_heap_verifies;
          Alcotest.test_case "dangling pointer" `Quick test_catches_dangling_pointer;
          Alcotest.test_case "interior pointer" `Quick test_catches_interior_pointer;
          Alcotest.test_case "wrong tag" `Quick test_catches_wrong_tag;
          Alcotest.test_case "remembered-set violation" `Quick
            test_catches_remembered_set_violation;
          Alcotest.test_case "smashed header" `Quick test_catches_smashed_header;
          Alcotest.test_case "parse defects" `Quick test_catches_parse_defects;
          Alcotest.test_case "bad crossing entry" `Quick test_catches_bad_crossing_entry;
          Alcotest.test_case "stored marker" `Quick test_catches_stored_forward_marker;
          Alcotest.test_case "every traced slot" `Quick test_checks_every_traced_slot;
        ] );
      ( "trace",
        [
          Alcotest.test_case "records" `Quick test_trace_records;
          Alcotest.test_case "ring bounded" `Quick test_trace_ring_bounded;
          Alcotest.test_case "guardian counters" `Quick test_trace_guardian_counters;
        ] );
      ( "isolation",
        [
          Alcotest.test_case "two heaps" `Quick test_two_heaps_do_not_interfere;
          Alcotest.test_case "segment boundaries" `Quick test_objects_straddle_segments;
        ] );
      ( "census",
        [
          Alcotest.test_case "matches live after full gc" `Quick
            test_census_matches_live_after_full_gc;
          Alcotest.test_case "slack tracks garbage" `Quick test_census_slack_tracks_garbage;
          Alcotest.test_case "weak semantics" `Quick test_census_weak_semantics;
          Alcotest.test_case "ephemeron semantics" `Quick test_census_ephemeron_semantics;
        ] );
    ]
