(* Card-marked remembered set: config edge cases, card-granular
   dirty-scan precision, write-barrier counters, the worklist guardian
   fixpoint, and a differential property test pitting fine-grained
   cards against a segment-granular oracle heap. *)

open Gbc_runtime

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let fx = Word.of_fixnum
let full_collect h = ignore (Collector.collect h ~gen:(Heap.max_generation h))

(* ------------------------------------------------------------------ *)
(* Config edge cases                                                   *)

let test_card_words_validation () =
  Alcotest.check_raises "too small" (Invalid_argument "Config.v: card_words too small")
    (fun () -> ignore (Config.v ~card_words:4 ()));
  Alcotest.check_raises "not a power of two"
    (Invalid_argument "Config.v: card_words must be a power of two")
    (fun () -> ignore (Config.v ~card_words:48 ()));
  Alcotest.check_raises "max_generation too large for a card byte"
    (Invalid_argument "Config.v: max_generation must be <= 254")
    (fun () -> ignore (Config.v ~max_generation:255 ()))

(* Exercise an edge configuration end to end: allocate into old
   segments, store young pointers, and make sure collections keep the
   edges alive. *)
let exercise_edges config =
  let h = Heap.create ~config () in
  let vc = Heap.new_cell h (Obj.make_vector h ~len:8 ~init:Word.nil) in
  ignore (Collector.collect h ~gen:1);
  ignore (Collector.collect h ~gen:1);
  let v = Heap.read_cell h vc in
  check_int "vector is old" 2 (Heap.generation_of_word h v);
  Obj.vector_set h v 3 (Obj.cons h (fx 7) Word.nil);
  Obj.vector_set h v 7 (Obj.cons h (fx 8) Word.nil);
  ignore (Collector.collect h ~gen:0);
  let v = Heap.read_cell h vc in
  check_int "edge 3 survives" 7 (Word.to_fixnum (Obj.car h (Obj.vector_ref h v 3)));
  check_int "edge 7 survives" 8 (Word.to_fixnum (Obj.car h (Obj.vector_ref h v 7)));
  h

let test_card_bigger_than_segment () =
  (* card_words >= segment_words degenerates to one card per segment:
     the pre-card segment-granular behaviour. *)
  let config = Config.v ~segment_words:64 ~max_generation:3 ~card_words:1024 () in
  let h = exercise_edges config in
  (* Every live segment is covered by a single card. *)
  Vec.Int.iter (Heap.live_segments_of_gen h 2) ~f:(fun seg ->
      check "one card per segment" true (Heap.cards_in_use h seg <= 1))

let test_minimum_card_size () =
  let config = Config.v ~segment_words:64 ~max_generation:3 ~card_words:8 () in
  let h = exercise_edges config in
  check_int "effective card size" 8 (Heap.card_words h)

(* ------------------------------------------------------------------ *)
(* Dirty-scan precision and barrier counters                           *)

let test_dirty_scan_visits_cards_not_segments () =
  let config = Config.v ~segment_words:2048 ~max_generation:3 ~card_words:64 () in
  let h = Heap.create ~config () in
  (* One vector nearly filling its segment, promoted old. *)
  let vc = Heap.new_cell h (Obj.make_vector h ~len:2000 ~init:(fx 0)) in
  ignore (Collector.collect h ~gen:1);
  ignore (Collector.collect h ~gen:1);
  let v = Heap.read_cell h vc in
  check_int "vector old" 2 (Heap.generation_of_word h v);
  let calls0 = (Heap.stats h).Stats.barrier_calls in
  let hits0 = (Heap.stats h).Stats.barrier_hits in
  (* One old-to-young store into the middle of the vector. *)
  Obj.vector_set h v 1000 (Obj.cons h (fx 42) Word.nil);
  let st = Heap.stats h in
  check "barrier called" true (st.Stats.barrier_calls > calls0);
  check_int "one old-to-young hit" (hits0 + 1) st.Stats.barrier_hits;
  (* Young noise, then the minor collection under test. *)
  for i = 0 to 99 do
    ignore (Obj.cons h (fx i) Word.nil)
  done;
  ignore (Collector.collect h ~gen:0);
  let last = (Heap.stats h).Stats.last in
  check_int "one dirty segment" 1 last.Stats.dirty_segments_scanned;
  check "at most 2 cards visited" true (last.Stats.cards_scanned <= 2);
  check "scan work bounded by cards, not segment" true
    (last.Stats.card_words_swept <= 2 * Heap.card_words h);
  check "candidate words cover the whole segment" true
    (last.Stats.dirty_candidate_words >= 2000);
  (* The edge survived the card-granular scan. *)
  let v = Heap.read_cell h vc in
  check_int "edge intact" 42 (Word.to_fixnum (Obj.car h (Obj.vector_ref h v 1000)))

let test_clean_old_segment_not_rescanned () =
  let config = Config.v ~segment_words:2048 ~max_generation:3 ~card_words:64 () in
  let h = Heap.create ~config () in
  let vc = Heap.new_cell h (Obj.make_vector h ~len:2000 ~init:(fx 0)) in
  ignore (Collector.collect h ~gen:1);
  ignore (Collector.collect h ~gen:1);
  let v = Heap.read_cell h vc in
  Obj.vector_set h v 5 (Obj.cons h (fx 1) Word.nil);
  ignore (Collector.collect h ~gen:0);
  (* The stored pair was promoted to generation 1; a second minor
     collection must find the (now gen-1-referencing) card but sweep no
     more than before, and once the referent ages out the segment drops
     off the dirty list entirely. *)
  ignore (Collector.collect h ~gen:1);
  ignore (Collector.collect h ~gen:1);
  ignore (Collector.collect h ~gen:0);
  let last = (Heap.stats h).Stats.last in
  check_int "no dirty segments left" 0 last.Stats.dirty_segments_scanned;
  check_int "no cards scanned" 0 last.Stats.cards_scanned

(* ------------------------------------------------------------------ *)
(* Worklist guardian fixpoint                                          *)

let test_chained_guardians_pend_checks () =
  (* A chain of guardians each registered with the previous one: the
     old quadratic re-scan checked O(n^2) pend entries; the worklist
     must check each entry O(1) times (once to classify, once when its
     tconc's forward wakes it). *)
  let n = 48 in
  let config = Config.v ~segment_words:256 ~max_generation:3 () in
  let h = Heap.create ~config () in
  let gs = Array.init (n + 1) (fun _ -> Handle.create h Word.nil) in
  Handle.set gs.(0) (Guardian.make h);
  for i = 1 to n do
    Handle.set gs.(i) (Guardian.make h);
    Guardian.register h (Handle.get gs.(i - 1)) (Handle.get gs.(i))
  done;
  (* Drop every guardian but the root of the chain. *)
  for i = 1 to n do
    Handle.set gs.(i) Word.nil;
    Handle.free gs.(i)
  done;
  full_collect h;
  let last = (Heap.stats h).Stats.last in
  check_int "all resurrected" n last.Stats.guardian_resurrections;
  check "pend checks O(1) amortized" true
    (last.Stats.guardian_pend_checks <= (2 * n) + 4);
  check "every entry classified" true (last.Stats.guardian_pend_checks >= n);
  (* The chain is retrievable link by link. *)
  let count = ref 0 in
  let rec walk g =
    match Guardian.retrieve h g with
    | None -> ()
    | Some g' ->
        check "link is a guardian" true (Guardian.is_guardian h g');
        incr count;
        walk g'
  in
  walk (Handle.get gs.(0));
  check_int "chain fully retrieved" n !count

(* ------------------------------------------------------------------ *)
(* Differential property test: cards vs segment-granular oracle        *)

type op =
  | Alloc of int
  | Link of int * int  (* cdr of root a's pair := root b's pair *)
  | Vlink of int * int  (* slot i of the long vector := root b's pair *)
  | Drop of int
  | Collect of int

let nroots = 12

(* The long vector spans several 8-word cards and sits behind a spacer
   object, so its cards start mid-object: storing through its slots
   drives the dirty scan's crossing-map lookup and field clamping. *)
let vlen = 40

let pp_op = function
  | Alloc i -> Printf.sprintf "Alloc(%d)" i
  | Link (a, b) -> Printf.sprintf "Link(%d,%d)" a b
  | Vlink (i, b) -> Printf.sprintf "Vlink(%d,%d)" i b
  | Drop i -> Printf.sprintf "Drop(%d)" i
  | Collect g -> Printf.sprintf "Collect(%d)" g

let op_gen =
  let open QCheck.Gen in
  let slot = int_range 0 (nroots - 1) in
  frequency
    [
      (4, map (fun i -> Alloc i) slot);
      (4, map2 (fun a b -> Link (a, b)) slot slot);
      (3, map2 (fun i b -> Vlink (i, b)) (int_range 0 (vlen - 1)) slot);
      (2, map (fun i -> Drop i) slot);
      (3, map (fun g -> Collect g) (int_range 0 2));
    ]

(* Serialize the list hanging off a root, depth-capped so cyclic links
   terminate identically on both heaps. *)
let serialize h w =
  let buf = Buffer.create 64 in
  let rec go d w =
    if d = 0 then Buffer.add_char buf '#'
    else if Word.equal w Word.nil then Buffer.add_string buf "()"
    else begin
      Buffer.add_string buf (string_of_int (Word.to_fixnum (Obj.car h w)));
      Buffer.add_char buf ';';
      go (d - 1) (Obj.cdr h w)
    end
  in
  go 64 w;
  Buffer.contents buf

let apply_op h roots vec ids = function
  | Alloc i ->
      Handle.set roots.(i) (Obj.cons h (fx !ids) Word.nil);
      incr ids
  | Link (a, b) ->
      let wa = Handle.get roots.(a) in
      if not (Word.equal wa Word.nil) then Obj.set_cdr h wa (Handle.get roots.(b))
  | Vlink (i, b) -> Obj.vector_set h (Handle.get vec) i (Handle.get roots.(b))
  | Drop i -> Handle.set roots.(i) Word.nil
  | Collect g -> ignore (Collector.collect h ~gen:g)

let prop_no_lost_edges =
  QCheck.Test.make ~name:"cards never lose an old-to-young edge" ~count:150
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map pp_op ops))
       QCheck.Gen.(list_size (int_range 10 80) op_gen))
    (fun ops ->
      (* Fine-grained cards vs a one-card-per-segment oracle (the
         pre-card segment-granular remembered set), driven by the same
         operation sequence.  Both must preserve the same structure. *)
      let fine =
        Heap.create ~config:(Config.v ~segment_words:64 ~max_generation:2 ~card_words:8 ())
          ()
      in
      let oracle =
        Heap.create
          ~config:(Config.v ~segment_words:64 ~max_generation:2 ~card_words:1024 ())
          ()
      in
      let roots_f = Array.init nroots (fun _ -> Handle.create fine Word.nil) in
      let roots_o = Array.init nroots (fun _ -> Handle.create oracle Word.nil) in
      let long_vector h =
        ignore (Handle.create h (Obj.make_vector h ~len:3 ~init:Word.nil));
        Handle.create h (Obj.make_vector h ~len:vlen ~init:Word.nil)
      in
      let vec_f = long_vector fine and vec_o = long_vector oracle in
      let ids_f = ref 0 and ids_o = ref 0 in
      let compare_roots () =
        for i = 0 to nroots - 1 do
          let sf = serialize fine (Handle.get roots_f.(i)) in
          let so = serialize oracle (Handle.get roots_o.(i)) in
          if sf <> so then
            QCheck.Test.fail_reportf "root %d diverged: cards=%s oracle=%s" i sf so
        done;
        for i = 0 to vlen - 1 do
          let sf = serialize fine (Obj.vector_ref fine (Handle.get vec_f) i) in
          let so = serialize oracle (Obj.vector_ref oracle (Handle.get vec_o) i) in
          if sf <> so then
            QCheck.Test.fail_reportf "vector slot %d diverged: cards=%s oracle=%s" i sf so
        done
      in
      List.iter
        (fun op ->
          apply_op fine roots_f vec_f ids_f op;
          apply_op oracle roots_o vec_o ids_o op;
          match op with Collect _ -> compare_roots () | _ -> ())
        ops;
      full_collect fine;
      full_collect oracle;
      compare_roots ();
      true)

let () =
  Alcotest.run "cards"
    [
      ( "config",
        [
          Alcotest.test_case "card_words validation" `Quick test_card_words_validation;
          Alcotest.test_case "card >= segment" `Quick test_card_bigger_than_segment;
          Alcotest.test_case "minimum card size" `Quick test_minimum_card_size;
        ] );
      ( "dirty-scan",
        [
          Alcotest.test_case "cards not segments" `Quick
            test_dirty_scan_visits_cards_not_segments;
          Alcotest.test_case "clean segment skipped" `Quick
            test_clean_old_segment_not_rescanned;
        ] );
      ( "guardians",
        [
          Alcotest.test_case "worklist pend checks" `Quick
            test_chained_guardians_pend_checks;
        ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_no_lost_edges ] );
    ]
