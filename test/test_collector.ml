(* The generational collector: promotion, remembered sets, garbage
   retention behaviour, policy, and a random-graph preservation property. *)

open Gbc_runtime

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let cfg = Config.v ~segment_words:128 ~max_generation:3 ()

let fx = Word.of_fixnum

let test_promotion_ladder () =
  let h = Heap.create ~config:cfg () in
  let c = Heap.new_cell h (Obj.cons h (fx 1) (fx 2)) in
  let gen () = Heap.generation_of_word h (Heap.read_cell h c) in
  check_int "born in 0" 0 (gen ());
  ignore (Collector.collect h ~gen:0);
  check_int "promoted to 1" 1 (gen ());
  ignore (Collector.collect h ~gen:0);
  check_int "gen-0 collection leaves gen 1 alone" 1 (gen ());
  ignore (Collector.collect h ~gen:1);
  check_int "promoted to 2" 2 (gen ());
  ignore (Collector.collect h ~gen:3);
  check_int "capped at max" 3 (gen ());
  ignore (Collector.collect h ~gen:3);
  check_int "stays at max" 3 (gen ());
  check_int "still intact" 1 (Word.to_fixnum (Obj.car h (Heap.read_cell h c)))

let test_uncollected_generations_untouched () =
  let h = Heap.create ~config:cfg () in
  let c = Heap.new_cell h (Obj.cons h (fx 1) (fx 2)) in
  ignore (Collector.collect h ~gen:0);
  let old_addr = Heap.read_cell h c in
  ignore (Collector.collect h ~gen:0);
  check "old object did not move" true (Word.equal old_addr (Heap.read_cell h c))

let test_garbage_in_old_generation () =
  let h = Heap.create ~config:cfg () in
  let c = Heap.new_cell h (Obj.cons h (fx 1) Word.nil) in
  (* Promote garbage along with the live pair. *)
  let g = Heap.new_cell h (Obj.make_vector h ~len:50 ~init:Word.nil) in
  ignore (Collector.collect h ~gen:0);
  ignore (Collector.collect h ~gen:1);
  Heap.free_cell h g;
  let live_before = Heap.live_words h in
  ignore (Collector.collect h ~gen:2);
  let live_after = Heap.live_words h in
  check "old garbage reclaimed" true (live_after < live_before);
  check_int "live pair kept" 1 (Word.to_fixnum (Obj.car h (Heap.read_cell h c)))

let test_old_to_young_chain () =
  let h = Heap.create ~config:cfg () in
  (* old vector -> young pair -> younger pair *)
  let vc = Heap.new_cell h (Obj.make_vector h ~len:2 ~init:Word.nil) in
  ignore (Collector.collect h ~gen:1);
  ignore (Collector.collect h ~gen:1);
  let v = Heap.read_cell h vc in
  check_int "vector old" 2 (Heap.generation_of_word h v);
  let inner = Obj.cons h (fx 42) Word.nil in
  let outer = Obj.cons h (fx 41) inner in
  Obj.vector_set h v 0 outer;
  ignore (Collector.collect h ~gen:0);
  let v = Heap.read_cell h vc in
  let outer = Obj.vector_ref h v 0 in
  check_int "outer" 41 (Word.to_fixnum (Obj.car h outer));
  check_int "inner" 42 (Word.to_fixnum (Obj.car h (Obj.cdr h outer)));
  (* The chain was promoted to generation 1. *)
  check_int "chain promoted" 1 (Heap.generation_of_word h outer)

let test_dirty_segment_recomputed () =
  let h = Heap.create ~config:cfg () in
  let vc = Heap.new_cell h (Obj.make_vector h ~len:1 ~init:Word.nil) in
  ignore (Collector.collect h ~gen:1);
  ignore (Collector.collect h ~gen:1);
  let v = Heap.read_cell h vc in
  Obj.vector_set h v 0 (Obj.cons h (fx 1) Word.nil);
  (* First minor GC scans the dirty segment... *)
  ignore (Collector.collect h ~gen:0);
  let first = (Heap.stats h).Stats.last.Stats.dirty_segments_scanned in
  check "dirty scanned" true (first >= 1);
  (* ...after which the segment no longer refers to generation 0 (the pair
     moved up), so the next minor GC does not scan it again. *)
  ignore (Collector.collect h ~gen:0);
  let second = (Heap.stats h).Stats.last.Stats.dirty_segments_scanned in
  check_int "clean after recompute" 0 second

let test_sharing_preserved () =
  let h = Heap.create ~config:cfg () in
  let shared = Obj.cons h (fx 7) Word.nil in
  let a = Obj.cons h shared shared in
  let c = Heap.new_cell h a in
  ignore (Collector.collect h ~gen:0);
  let a = Heap.read_cell h c in
  check "sharing preserved (eq)" true (Word.equal (Obj.car h a) (Obj.cdr h a))

let test_cycle_preserved () =
  let h = Heap.create ~config:cfg () in
  let a = Obj.cons h (fx 1) Word.nil in
  let b = Obj.cons h (fx 2) a in
  Obj.set_cdr h a b;
  let c = Heap.new_cell h a in
  ignore (Collector.collect h ~gen:0);
  ignore (Collector.collect h ~gen:1);
  let a = Heap.read_cell h c in
  let b = Obj.cdr h a in
  check_int "a" 1 (Word.to_fixnum (Obj.car h a));
  check_int "b" 2 (Word.to_fixnum (Obj.car h b));
  check "cycle closed" true (Word.equal (Obj.cdr h b) a)

let test_in_place_promotion_policy () =
  (* A policy that keeps generation 0 objects in generation 0. *)
  let config = Config.v ~max_generation:2 ~promote:(fun ~gen ~max_generation:_ -> gen) () in
  let h = Heap.create ~config () in
  let c = Heap.new_cell h (Obj.cons h (fx 5) Word.nil) in
  ignore (Collector.collect h ~gen:0);
  check_int "stayed in gen 0" 0 (Heap.generation_of_word h (Heap.read_cell h c));
  check_int "still readable" 5 (Word.to_fixnum (Obj.car h (Heap.read_cell h c)))

let test_copy_work_proportional_to_live () =
  (* E7 foundation: the same live set with 10x the garbage costs the same
     copying work. *)
  let run ~garbage =
    let h = Heap.create ~config:cfg () in
    let keep = Heap.new_cell h Word.nil in
    for i = 0 to 99 do
      Heap.write_cell h keep (Obj.cons h (fx i) (Heap.read_cell h keep))
    done;
    for i = 0 to garbage - 1 do
      ignore (Obj.cons h (fx i) Word.nil)
    done;
    ignore (Collector.collect h ~gen:0);
    (Heap.stats h).Stats.last.Stats.words_copied
  in
  let small = run ~garbage:100 and large = run ~garbage:10000 in
  check_int "copy work independent of garbage" small large

let test_stats_accumulate () =
  let h = Heap.create ~config:cfg () in
  ignore (Collector.collect h ~gen:0);
  ignore (Collector.collect h ~gen:0);
  ignore (Collector.collect h ~gen:1);
  check_int "three collections" 3 (Heap.stats h).Stats.total.Stats.collections

let test_collect_auto_schedule () =
  check_int "count 1 -> gen 0" 0 (Runtime.scheduled_generation ~radix:4 ~max_generation:3 1);
  check_int "count 4 -> gen 1" 1 (Runtime.scheduled_generation ~radix:4 ~max_generation:3 4);
  check_int "count 8 -> gen 1" 1 (Runtime.scheduled_generation ~radix:4 ~max_generation:3 8);
  check_int "count 16 -> gen 2" 2 (Runtime.scheduled_generation ~radix:4 ~max_generation:3 16);
  check_int "count 64 -> gen 3" 3 (Runtime.scheduled_generation ~radix:4 ~max_generation:3 64);
  check_int "count 17 -> gen 0" 0 (Runtime.scheduled_generation ~radix:4 ~max_generation:3 17)

let test_safepoint_triggers () =
  let config = Config.v ~gen0_trigger_words:256 () in
  let h = Heap.create ~config () in
  let before = (Heap.stats h).Stats.total.Stats.collections in
  for i = 0 to 999 do
    ignore (Obj.cons h (fx i) Word.nil);
    Runtime.safepoint h
  done;
  check "collections happened" true ((Heap.stats h).Stats.total.Stats.collections > before)

let test_collect_request_handler () =
  let config = Config.v ~gen0_trigger_words:256 () in
  let h = Heap.create ~config () in
  let calls = ref 0 in
  Runtime.set_collect_request_handler h
    (Some
       (fun h ->
         incr calls;
         ignore (Runtime.collect_auto h)));
  for i = 0 to 999 do
    ignore (Obj.cons h (fx i) Word.nil);
    Runtime.safepoint h
  done;
  check "handler invoked" true (!calls > 0);
  check_int "handler controls collection count" !calls
    (Heap.stats h).Stats.total.Stats.collections

let test_segment_reuse () =
  let h = Heap.create ~config:cfg () in
  for _round = 0 to 9 do
    for i = 0 to 999 do
      ignore (Obj.cons h (fx i) Word.nil)
    done;
    ignore (Collector.collect h ~gen:0)
  done;
  (* Freed segments are recycled rather than accumulating. *)
  check "bounded segment count" true (Heap.live_segments h < 100)

(* ------------------------------------------------------------------ *)
(* Pinned work counters                                                *)

(* One fixed scenario touching every collector path that bumps a C1/C2
   work counter: pairs, weak pairs, ephemerons and vectors; an old vector
   straddling a dirty card; a weak car in a dirty old weak card; a
   three-link guardian-of-guardian chain; and a guardian dropped while it
   still holds registrations.  Every field of the lifetime totals is
   pinned, so a refactor of the collector's inner loops that moves any
   counter fails here. *)
let pinned_scenario () =
  let config = Config.v ~segment_words:256 ~max_generation:3 ~card_words:8 () in
  let h = Heap.create ~config () in
  let hd w = Handle.create h w in
  let _spacer = hd (Obj.make_vector h ~len:3 ~init:(fx 0)) in
  let vec = hd (Obj.make_vector h ~len:60 ~init:(fx 0)) in
  let list = hd Word.nil in
  for i = 0 to 19 do
    Handle.set list (Obj.cons h (fx i) (Handle.get list))
  done;
  let weak = hd Word.nil in
  for i = 0 to 5 do
    Handle.set weak (Weak_pair.cons h (fx i) (Handle.get weak))
  done;
  (* Age the vectors, the list and the weak list into generation 2. *)
  ignore (Collector.collect h ~gen:1);
  ignore (Collector.collect h ~gen:1);
  let v = Handle.get vec in
  (* Young stores into two cards of the old vector, neither at the card
     holding its header. *)
  Obj.vector_set h v 10 (Obj.cons h (fx 100) Word.nil);
  Obj.vector_set h v 50 (Obj.vector_of_list h [ fx 1; fx 2 ]);
  (* Weak cars in a dirty old weak card: one young referent survives
     through a strong root, the other dies. *)
  let kept = hd (Obj.cons h (fx 200) Word.nil) in
  let w0 = Handle.get weak in
  Weak_pair.set_car h w0 (Handle.get kept);
  Weak_pair.set_car h (Weak_pair.cdr h w0) (Obj.cons h (fx 201) Word.nil);
  (* Ephemerons: one with a live key, one whose key dies. *)
  let _eph_live = hd (Ephemeron.cons h (Handle.get kept) (Obj.cons h (fx 3) Word.nil)) in
  let _eph_dead =
    hd (Ephemeron.cons h (Obj.cons h (fx 4) Word.nil) (Obj.cons h (fx 5) Word.nil))
  in
  (* Guardian chain: root <- g1 <- g2 <- g3, with a dead object on g3. *)
  let root = hd (Guardian.make h) in
  let g1 = Guardian.make h in
  Guardian.register h (Handle.get root) g1;
  let g2 = Guardian.make h in
  Guardian.register h g1 g2;
  let g3 = Guardian.make h in
  Guardian.register h g2 g3;
  Guardian.register h g3 (Obj.cons h (fx 300) Word.nil);
  (* A live registration that is promoted on every collection. *)
  Guardian.register h (Handle.get root) (Handle.get kept);
  (* A guardian dropped while holding one live and one dead registration. *)
  let dropped = Guardian.make h in
  Guardian.register h dropped (Handle.get kept);
  Guardian.register h dropped (Obj.cons h (fx 400) Word.nil);
  for i = 0 to 199 do
    ignore (Obj.cons h (fx i) Word.nil)
  done;
  List.iter
    (fun g ->
      ignore (Collector.collect h ~gen:g);
      Verify.check_exn h)
    [ 0; 0; 1; 3 ];
  (* Sanity: the scenario did what it says. *)
  let v = Handle.get vec in
  check_int "vector slot 10" 100 (Word.to_fixnum (Obj.car h (Obj.vector_ref h v 10)));
  let chain = ref 0 in
  let rec walk g =
    match Guardian.retrieve h g with
    | Some g' when Guardian.is_guardian h g' ->
        incr chain;
        walk g'
    | _ -> ()
  in
  walk (Handle.get root);
  check_int "chain retrieved" 3 !chain;
  h

let test_pinned_counters () =
  let h = pinned_scenario () in
  let t = (Heap.stats h).Stats.total in
  List.iter
    (fun (name, want, got) -> check_int name want got)
    [
      ("collections", 6, t.Stats.collections);
      ("objects_copied", 121, t.Stats.objects_copied);
      ("words_copied", 379, t.Stats.words_copied);
      ("words_swept", 435, t.Stats.words_swept);
      ("root_words", 40, t.Stats.root_words);
      ("dirty_segments_scanned", 4, t.Stats.dirty_segments_scanned);
      ("cards_scanned", 6, t.Stats.cards_scanned);
      ("card_words_swept", 48, t.Stats.card_words_swept);
      ("dirty_candidate_words", 154, t.Stats.dirty_candidate_words);
      ("guardian_pend_checks", 8, t.Stats.guardian_pend_checks);
      ("protected_entries_visited", 9, t.Stats.protected_entries_visited);
      ("guardian_resurrections", 4, t.Stats.guardian_resurrections);
      ("guardian_entries_promoted", 3, t.Stats.guardian_entries_promoted);
      ("guardian_entries_dropped", 2, t.Stats.guardian_entries_dropped);
      ("weak_pairs_scanned", 20, t.Stats.weak_pairs_scanned);
      ("weak_pointers_broken", 1, t.Stats.weak_pointers_broken);
      ("ephemerons_scanned", 6, t.Stats.ephemerons_scanned);
      ("ephemerons_broken", 1, t.Stats.ephemerons_broken);
      ("segments_freed", 16, t.Stats.segments_freed);
      ("segments_allocated", 13, t.Stats.segments_allocated);
    ]

(* A collection's record is its own: mutator segment acquisitions
   between collections leave it alone, and the lifetime totals count the
   same work as before the record was frozen (values captured from the
   pre-freeze collector, which bumped [last] on every acquisition). *)
let test_last_frozen () =
  let h = Heap.create () in
  let _keep = Heap.new_cell h (Obj.list_of h (List.map fx [ 1; 2; 3 ])) in
  ignore (Collector.collect h ~gen:0);
  let s = Heap.stats h in
  let values () = List.map (fun (_, get, _) -> get s.Stats.last) Stats.fields in
  let before = values () in
  for i = 1 to 200_000 do
    ignore (Obj.cons h (fx i) Word.nil)
  done;
  let _young = Heap.new_cell h (Obj.list_of h (List.init 1000 fx)) in
  Alcotest.(check (list int)) "last unchanged by the mutator" before (values ());
  ignore (Collector.collect h ~gen:0);
  check_int "total segments_allocated" 5 s.Stats.total.Stats.segments_allocated;
  check_int "total segments_freed" 787 s.Stats.total.Stats.segments_freed

(* A raising root scanner, weak scanner or after-GC hook: the collection
   still completes (other callbacks run, the counters close), [collect]
   re-raises, and the heap is usable and consistent afterwards. *)
exception Boom

let test_raising_callback () =
  List.iter
    (fun (kind, cb) ->
      let h = Heap.create ~config:cfg () in
      let c = Heap.new_cell h (Obj.cons h (fx 1) (fx 2)) in
      let hook_runs = ref 0 in
      ignore (Heap.add_callback h (Heap.After_gc (fun _ -> incr hook_runs)));
      let id = Heap.add_callback h cb in
      (match Collector.collect h ~gen:0 with
      | _ -> Alcotest.failf "%s: collect did not raise" kind
      | exception Boom -> ());
      check (kind ^ ": collection closed") false h.Heap.in_collection;
      check_int (kind ^ ": other hook ran") 1 !hook_runs;
      check_int (kind ^ ": counted") 1 (Heap.stats h).Stats.total.Stats.collections;
      check (kind ^ ": verify clean") true (Verify.verify h = []);
      Heap.remove_callback h id;
      ignore (Collector.collect h ~gen:(Heap.max_generation h));
      check (kind ^ ": verify clean after next collect") true (Verify.verify h = []);
      check_int (kind ^ ": root intact") 1 (Word.to_fixnum (Obj.car h (Heap.read_cell h c))))
    [
      ("root scanner", Heap.Root_scanner (fun _ -> raise Boom));
      ("weak scanner", Heap.Weak_scanner (fun _ -> raise Boom));
      ("after-GC hook", Heap.After_gc (fun _ -> raise Boom));
    ]

(* ------------------------------------------------------------------ *)
(* Random graph preservation                                           *)

type shape =
  | Leaf of int
  | SChar of char
  | SNil
  | SBool of bool
  | SCons of shape * shape
  | SVec of shape list
  | SStr of string

let shape_gen =
  let open QCheck.Gen in
  sized (fun n ->
      fix
        (fun self n ->
          if n <= 0 then
            oneof
              [
                map (fun i -> Leaf i) small_signed_int;
                map (fun c -> SChar c) printable;
                return SNil;
                map (fun b -> SBool b) bool;
                map (fun s -> SStr s) (small_string ~gen:printable);
              ]
          else
            frequency
              [
                (3, map2 (fun a b -> SCons (a, b)) (self (n / 2)) (self (n / 2)));
                (2, map (fun l -> SVec l) (list_size (int_bound 5) (self (n / 3))));
                (1, map (fun i -> Leaf i) small_signed_int);
              ])
        n)

let rec build h = function
  | Leaf i -> Word.of_fixnum i
  | SChar c -> Word.of_char c
  | SNil -> Word.nil
  | SBool b -> Word.of_bool b
  | SStr s -> Obj.string_of_ocaml h s
  | SCons (a, d) ->
      let dw = build h d in
      Heap.with_cell h dw (fun c ->
          let aw = build h a in
          Obj.cons h aw (Heap.read_cell h c))
  | SVec parts ->
      let v = Obj.make_vector h ~len:(List.length parts) ~init:Word.nil in
      Heap.with_cell h v (fun c ->
          List.iteri
            (fun i p ->
              let w = build h p in
              Obj.vector_set h (Heap.read_cell h c) i w)
            parts;
          Heap.read_cell h c)

let rec matches h shape w =
  match shape with
  | Leaf i -> Word.is_fixnum w && Word.to_fixnum w = i
  | SChar c -> Word.is_char w && Word.to_char w = c
  | SNil -> Word.is_nil w
  | SBool b -> Word.equal w (Word.of_bool b)
  | SStr s -> Obj.is_string h w && Obj.string_to_ocaml h w = s
  | SCons (a, d) ->
      Word.is_pair_ptr w && matches h a (Obj.car h w) && matches h d (Obj.cdr h w)
  | SVec parts ->
      Obj.is_vector h w
      && Obj.vector_length h w = List.length parts
      && List.for_all2 (fun p i -> matches h p (Obj.vector_ref h w i))
           parts
           (List.init (List.length parts) Fun.id)

let prop_graph_preserved =
  QCheck.Test.make ~name:"random graphs survive arbitrary collections" ~count:100
    (QCheck.make
       QCheck.Gen.(pair (list_size (int_bound 6) shape_gen) (list_size (int_bound 8) (int_bound 3))))
    (fun (shapes, gens) ->
      let h = Heap.create ~config:cfg () in
      let cells = List.map (fun s -> Heap.new_cell h (build h s)) shapes in
      (* Interleave garbage and collections of random generations. *)
      List.iter
        (fun g ->
          for i = 0 to 99 do
            ignore (Obj.cons h (fx i) Word.nil)
          done;
          ignore (Collector.collect h ~gen:g);
          Verify.check_exn h)
        gens;
      List.for_all2 (fun s c -> matches h s (Heap.read_cell h c)) shapes cells)

let prop_garbage_fully_reclaimed =
  QCheck.Test.make ~name:"full collection reclaims everything unreachable" ~count:50
    QCheck.(int_range 1 500)
    (fun n ->
      let h = Heap.create ~config:cfg () in
      for i = 0 to n - 1 do
        ignore (Obj.make_vector h ~len:(1 + (i mod 7)) ~init:Word.nil)
      done;
      ignore (Collector.collect h ~gen:3);
      ignore (Collector.collect h ~gen:3);
      Heap.live_words h = 0)

(* The guardian pass allocates no host memory per entry: its worklists
   belong to the heap and are reused.  Once a first collection has grown
   them, a minor collection over 10k protected entries (half resurrected,
   half held) allocates well under one host minor word per entry. *)
let test_guardian_pass_no_host_alloc () =
  let h = Heap.create ~config:(Config.v ~max_generation:3 ()) () in
  let n = 10_000 in
  let g = Handle.create h (Guardian.make h) in
  let round () =
    let keep = Handle.create h (Obj.make_vector h ~len:(n / 2) ~init:Word.nil) in
    for i = 0 to n - 1 do
      let x = Obj.cons h (fx i) Word.nil in
      if i land 1 = 0 then Obj.vector_set h (Handle.get keep) (i / 2) x;
      Guardian.register h (Handle.get g) x
    done;
    let before = Gc.minor_words () in
    ignore (Collector.collect h ~gen:0);
    let words = Gc.minor_words () -. before in
    let last = (Heap.stats h).Stats.last in
    check_int "entries visited" n last.Stats.protected_entries_visited;
    check_int "half resurrected" (n / 2) last.Stats.guardian_resurrections;
    check_int "half held" (n / 2) last.Stats.guardian_entries_promoted;
    let got = ref 0 in
    while Guardian.retrieve h (Handle.get g) <> None do
      incr got
    done;
    check_int "resurrections retrieved" (n / 2) !got;
    Handle.free keep;
    words
  in
  ignore (round ());
  let words = round () in
  check
    (Printf.sprintf "%.0f host minor words for %d entries" words n)
    true
    (words < float_of_int n)

(* The collector's tconc append is collector work, not a mutator store:
   linking young resurrected objects into an old tconc marks the old
   cells' cards (so a later collection of the young generation still
   finds them) but counts no write-barrier call. *)
let test_collector_tconc_append () =
  let h = Heap.create ~config:cfg () in
  let g = Handle.create h (Guardian.make h) in
  ignore (Runtime.collect ~gen:3 h);
  check_int "guardian in the oldest generation" 3
    (Heap.generation_of_word h (Handle.get g));
  for i = 0 to 9 do
    Guardian.register h (Handle.get g) (Obj.cons h (fx i) Word.nil)
  done;
  let st = Heap.stats h in
  let calls = st.Stats.barrier_calls and dirtied = st.Stats.cards_dirtied in
  ignore (Runtime.collect h);
  check_int "all ten resurrected" 10 st.Stats.last.Stats.guardian_resurrections;
  check_int "no barrier calls during the collection" calls st.Stats.barrier_calls;
  (* One card, as before the appends bypassed the barrier: the first
     append links into the tconc's old spare cell, which shares a card
     with the old header; every later cell is young. *)
  check_int "cards dirtied by the appends" 1 (st.Stats.cards_dirtied - dirtied);
  Verify.check_exn h;
  (* The resurrected objects now live in generation 1, reachable only
     through old tconc cells: collecting generation 1 must keep them. *)
  ignore (Runtime.collect ~gen:1 h);
  Verify.check_exn h;
  let rec drain acc =
    match Guardian.retrieve h (Handle.get g) with
    | None -> List.rev acc
    | Some w -> drain (Word.to_fixnum (Obj.car h w) :: acc)
  in
  (* The pass queues resurrections in reverse visit order. *)
  Alcotest.(check (list int))
    "queued in reverse registration order"
    (List.init 10 (fun i -> 9 - i))
    (drain [])

let () =
  Alcotest.run "collector"
    [
      ( "generations",
        [
          Alcotest.test_case "promotion ladder" `Quick test_promotion_ladder;
          Alcotest.test_case "old gens untouched" `Quick test_uncollected_generations_untouched;
          Alcotest.test_case "old garbage" `Quick test_garbage_in_old_generation;
          Alcotest.test_case "old-to-young chain" `Quick test_old_to_young_chain;
          Alcotest.test_case "dirty recompute" `Quick test_dirty_segment_recomputed;
          Alcotest.test_case "in-place policy" `Quick test_in_place_promotion_policy;
        ] );
      ( "structure",
        [
          Alcotest.test_case "sharing" `Quick test_sharing_preserved;
          Alcotest.test_case "cycles" `Quick test_cycle_preserved;
        ] );
      ( "policy",
        [
          Alcotest.test_case "copy work ∝ live" `Quick test_copy_work_proportional_to_live;
          Alcotest.test_case "stats accumulate" `Quick test_stats_accumulate;
          Alcotest.test_case "schedule" `Quick test_collect_auto_schedule;
          Alcotest.test_case "safepoint trigger" `Quick test_safepoint_triggers;
          Alcotest.test_case "collect-request handler" `Quick test_collect_request_handler;
          Alcotest.test_case "segment reuse" `Quick test_segment_reuse;
          Alcotest.test_case "pinned work counters" `Quick test_pinned_counters;
          Alcotest.test_case "last record frozen" `Quick test_last_frozen;
          Alcotest.test_case "raising callback" `Quick test_raising_callback;
          Alcotest.test_case "guardian pass host allocation" `Quick
            test_guardian_pass_no_host_alloc;
          Alcotest.test_case "collector tconc append" `Quick test_collector_tconc_append;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_graph_preserved; prop_garbage_fully_reclaimed ] );
    ]
