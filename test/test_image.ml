(* Heap images: gbc-image/1 round-trips.

   The contract under test: save -> load rebuilds an equivalent heap
   (structure, sharing, identity, generations, guardian and weak state,
   allocation cursors, collection schedule), a reloaded heap is
   Verify-clean and collects correctly, save -> load -> save is
   byte-identical, and every corrupt/truncated/mismatched image is
   rejected with Image.Error — never a crash, never a silent misload. *)

open Gbc_runtime
open Gbc_image

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let cfg = Config.v ~segment_words:128 ~max_generation:3 ()
let heap () = Heap.create ~config:cfg ()
let fx = Word.of_fixnum

let full_collect h = ignore (Collector.collect h ~gen:(Heap.max_generation h))

let retrieve_all h g =
  let rec loop acc =
    match Guardian.retrieve h g with
    | None -> List.rev acc
    | Some w -> loop (w :: acc)
  in
  loop []

(* Save [h] carrying [words] along as an extra section, reload, and
   return (bytes, loaded, relocated words). *)
let roundtrip ?(symbols = []) ?(words = []) h =
  let extras =
    [ ("t", { Image.xwords = Array.of_list words; xbytes = "" }) ]
  in
  let s = Image.save_string ~symbols ~extras h in
  let l = Image.load_string ~config:(Heap.config h) s in
  let words' = Array.to_list (List.assoc "t" l.Image.extras).xwords in
  (s, l, words')

(* The canonical-form claim: re-serializing the restored heap (with the
   restored sections) reproduces the original bytes. *)
let check_canonical name s (l : Image.loaded) =
  let s2 =
    Image.save_string ~symbols:l.Image.symbols ~extras:l.Image.extras
      l.Image.heap
  in
  check (name ^ ": save->load->save byte-identical") true (String.equal s s2)

let test_empty_heap () =
  let h = heap () in
  let s, l, _ = roundtrip h in
  check_int "no segments" 0 l.Image.restored_segments;
  check "verify clean" true (Verify.verify l.Image.heap = []);
  check_canonical "empty" s l

let test_structure_and_sharing () =
  let h = heap () in
  let shared = Obj.cons h (fx 1) (fx 2) in
  let a = Obj.cons h shared shared in
  let cyc = Obj.cons h (fx 9) Word.nil in
  Obj.set_cdr h cyc cyc;
  let v = Obj.vector_of_list h [ a; cyc; fx 3 ] in
  let str = Obj.string_of_ocaml h "hello image" in
  let fl = Obj.make_flonum h 3.14159 in
  let box = Obj.make_box h v in
  let s, l, words = roundtrip h ~words:[ a; cyc; v; str; fl; box ] in
  let h' = l.Image.heap in
  (match words with
  | [ a'; cyc'; v'; str'; fl'; box' ] ->
      (* Sharing: both fields of [a] are the same cell. *)
      check "sharing preserved" true
        (Word.equal (Obj.car h' a') (Obj.cdr h' a'));
      check_int "through shared cell" 1
        (Word.to_fixnum (Obj.car h' (Obj.car h' a')));
      (* The cycle still closes. *)
      check "cycle preserved" true (Word.equal (Obj.cdr h' cyc') cyc');
      (* Vector slots point at the same relocated objects. *)
      check "vector slot identity" true
        (Word.equal (Obj.vector_ref h' v' 0) a');
      check "vector slot identity (cycle)" true
        (Word.equal (Obj.vector_ref h' v' 1) cyc');
      check_str "string contents" "hello image" (Obj.string_to_ocaml h' str');
      Alcotest.(check (float 0.)) "flonum bits" 3.14159 (Obj.flonum_value h' fl');
      check "box contents" true (Word.equal (Obj.box_ref h' box') v')
  | _ -> Alcotest.fail "extra words lost");
  check "verify clean" true (Verify.verify h' = []);
  check_canonical "structure" s l

let test_restored_heap_collects () =
  let h = heap () in
  let keep = Obj.cons h (fx 42) Word.nil in
  for i = 0 to 199 do
    ignore (Obj.cons h (fx i) Word.nil)
  done;
  let _, l, words = roundtrip h ~words:[ keep ] in
  let h' = l.Image.heap in
  let keep' = List.hd words in
  (* Root it, then collect everything: the garbage we serialized must be
     reclaimed and the survivor promoted intact. *)
  Heap.with_cell h' keep' (fun c ->
      full_collect h';
      full_collect h';
      let keep'' = Heap.read_cell h' c in
      check_int "survivor intact" 42 (Word.to_fixnum (Obj.car h' keep''));
      check "survivor promoted" true
        (Heap.generation_of_word h' keep'' > 0);
      check "verify clean after post-restore GCs" true
        (Verify.verify h' = []))

let test_generations_and_schedule () =
  let h = heap () in
  let old = Obj.cons h (fx 7) Word.nil in
  Heap.with_cell h old (fun c ->
      full_collect h;
      full_collect h;
      let old = Heap.read_cell h c in
      let gen = Heap.generation_of_word h old in
      check "object aged" true (gen >= 2);
      let s, l, words = roundtrip h ~words:[ old ] in
      let h' = l.Image.heap in
      check_int "generation preserved" gen
        (Heap.generation_of_word h' (List.hd words));
      check_int "gc_epoch preserved" (Heap.gc_epoch h) (Heap.gc_epoch h');
      check_int "collect_count preserved" h.Heap.collect_count
        h'.Heap.collect_count;
      check_int "last_gc_generation preserved" h.Heap.last_gc_generation
        h'.Heap.last_gc_generation;
      check_canonical "generations" s l)

let test_old_to_young_remembered () =
  (* An old object referencing a young one: the restored remembered set
     must make the young one survive a minor collection of the restored
     heap. *)
  let h = heap () in
  let old = Obj.cons h Word.nil Word.nil in
  Heap.with_cell h old (fun c ->
      full_collect h;
      full_collect h;
      let old = Heap.read_cell h c in
      check "old indeed" true (Heap.generation_of_word h old >= 2);
      let young = Obj.cons h (fx 5) Word.nil in
      Obj.set_car h old young;
      let _, l, words = roundtrip h ~words:[ old ] in
      let h' = l.Image.heap in
      let old' = List.hd words in
      (* Nothing roots [old'] in h' except this fresh cell; the young
         cell is reachable only through the old->young slot, i.e. only
         through the rebuilt cards. *)
      Heap.with_cell h' old' (fun _ ->
          ignore (Collector.collect h' ~gen:0);
          check_int "young survived via rebuilt remembered set" 5
            (Word.to_fixnum (Obj.car h' (Obj.car h' old')));
          check "verify clean" true (Verify.verify h' = [])))

let test_large_object () =
  let h = heap () in
  (* 300 slots >> segment_words 128: an oversized segment. *)
  let v = Obj.make_vector h ~len:300 ~init:(fx 0) in
  for i = 0 to 299 do
    Obj.vector_set h v i (fx (i * 3))
  done;
  let s, l, words = roundtrip h ~words:[ v ] in
  let h' = l.Image.heap in
  let v' = List.hd words in
  check_int "length" 300 (Obj.vector_length h' v');
  check_int "first" 0 (Word.to_fixnum (Obj.vector_ref h' v' 0));
  check_int "last" 897 (Word.to_fixnum (Obj.vector_ref h' v' 299));
  check_canonical "large object" s l

let test_weak_and_ephemeron () =
  let h = heap () in
  let target = Obj.cons h (fx 11) Word.nil in
  let wp = Obj.weak_cons h target Word.nil in
  let key = Obj.cons h (fx 1) Word.nil in
  let eph = Obj.ephemeron_cons h key (Obj.cons h (fx 2) Word.nil) in
  let s, l, words = roundtrip h ~words:[ target; wp; key; eph ] in
  let h' = l.Image.heap in
  (match words with
  | [ target'; wp'; key'; eph' ] ->
      (* Weak car relocated, still pointing at the (relocated) target. *)
      check "weak target relocated" true
        (Word.equal (Obj.car h' wp') target');
      check "still a weak pair" true (Obj.is_weak_pair h' wp');
      check "still an ephemeron" true (Obj.is_ephemeron h' eph');
      check_int "ephemeron value alive" 2
        (Word.to_fixnum (Obj.car h' (Obj.cdr h' eph')));
      (* Canonical-bytes check must run on the pristine restored heap,
         before we collect it below. *)
      check_canonical "weak" s l;
      (* Weak semantics still work post-restore: root only the weak
         pair and the ephemeron, drop target and key, collect.  The
         pairs move, so re-read them from their root cells. *)
      Heap.with_cell h' wp' (fun wc ->
          Heap.with_cell h' eph' (fun ec ->
              ignore key';
              full_collect h';
              check "weak car broken after restore+collect" true
                (Word.is_false (Obj.car h' (Heap.read_cell h' wc)));
              check "ephemeron broken after restore+collect" true
                (Word.is_false (Obj.car h' (Heap.read_cell h' ec)))))
  | _ -> Alcotest.fail "extra words lost")

let test_tconc_queue_order () =
  let h = heap () in
  let tc = Tconc.make h in
  List.iter (fun i -> Tconc.mutator_enqueue h tc (fx i)) [ 3; 1; 4; 1; 5 ];
  let s, l, words = roundtrip h ~words:[ tc ] in
  let h' = l.Image.heap in
  let tc' = List.hd words in
  Alcotest.(check (list int)) "queue order preserved" [ 3; 1; 4; 1; 5 ]
    (List.map Word.to_fixnum (Tconc.to_list h' tc'));
  check_canonical "tconc" s l

let test_guardian_pending_order () =
  (* Queued-but-not-yet-polled objects come back in the same order. *)
  let h = heap () in
  let g = Handle.create h (Guardian.make h) in
  for i = 0 to 9 do
    Guardian.register h (Handle.get g) (Obj.cons h (fx i) Word.nil)
  done;
  full_collect h;
  check_int "all pending" 10 (Guardian.pending_count h (Handle.get g));
  let before =
    List.map
      (fun w -> Word.to_fixnum (Obj.car h w))
      (Guardian.pending_list h (Handle.get g))
  in
  let s, l, words = roundtrip h ~words:[ Handle.get g ] in
  let h' = l.Image.heap in
  let g' = List.hd words in
  check "still a guardian" true (Guardian.is_guardian h' g');
  check_canonical "guardian pending" s l;
  (* Retrieval dequeues, so it comes after the canonical-bytes check. *)
  let after =
    List.map (fun w -> Word.to_fixnum (Obj.car h' w)) (retrieve_all h' g')
  in
  Alcotest.(check (list int)) "pending order preserved" before after

let test_guardian_registration_survives () =
  (* A registration that has NOT fired yet: the protected-list entry
     rides along, and the restored collector fires it. *)
  let h = heap () in
  let g = Handle.create h (Guardian.make h) in
  let obj = Obj.cons h (fx 21) Word.nil in
  let rep = Obj.cons h (fx 22) Word.nil in
  Guardian.register h (Handle.get g) obj;
  Guardian.register_with_rep h (Handle.get g) ~obj ~rep;
  check_int "entries pending in gen 0" 2 (Heap.protected_length h 0);
  let _, l, words = roundtrip h ~words:[ Handle.get g ] in
  let h' = l.Image.heap in
  let g' = List.hd words in
  check_int "entries restored" 2 (Heap.protected_length h' 0);
  (* obj is unreachable in h' (only the guardian came through a root):
     both registrations fire. *)
  Heap.with_cell h' g' (fun c ->
      full_collect h';
      let saved = retrieve_all h' (Heap.read_cell h' c) in
      let ints =
        List.sort compare (List.map (fun w -> Word.to_fixnum (Obj.car h' w)) saved)
      in
      Alcotest.(check (list int)) "both registrations fired" [ 21; 22 ] ints)

let test_reregistration_after_restore () =
  (* Retrieve from a restored guardian, re-register, drop, collect: the
     object comes back again.  Exercises the guardian-id restore (the
     telemetry hub must know the image's gids). *)
  let h = heap () in
  let g = Handle.create h (Guardian.make h) in
  Guardian.register h (Handle.get g) (Obj.cons h (fx 8) Word.nil);
  full_collect h;
  let _, l, words = roundtrip h ~words:[ Handle.get g ] in
  let h' = l.Image.heap in
  let g' = List.hd words in
  Heap.with_cell h' g' (fun c ->
      let g' () = Heap.read_cell h' c in
      let x = Option.get (Guardian.retrieve h' (g' ())) in
      check_int "retrieved after restore" 8 (Word.to_fixnum (Obj.car h' x));
      Guardian.register h' (g' ()) x;
      full_collect h';
      check "re-registration fires" true
        (Guardian.retrieve h' (g' ()) <> None);
      (* A brand-new guardian on the restored heap gets a fresh id. *)
      let g2 = Guardian.make h' in
      check "fresh gid after restore" true
        (Guardian.id h' g2 <> Guardian.id h' (g' ())))

let test_guardian_of_guardian_chain () =
  let h = heap () in
  let outer = Handle.create h (Guardian.make h) in
  let mid = Guardian.make h in
  Heap.with_cell h mid (fun midc ->
      let inner = Guardian.make h in
      Heap.with_cell h inner (fun innerc ->
          let x = Obj.cons h (fx 77) Word.nil in
          Guardian.register h (Heap.read_cell h innerc) x;
          Guardian.register h (Heap.read_cell h midc) (Heap.read_cell h innerc);
          Guardian.register h (Handle.get outer) (Heap.read_cell h midc)));
  (* Image taken while the whole chain is registered-but-unfired. *)
  let _, l, words = roundtrip h ~words:[ Handle.get outer ] in
  let h' = l.Image.heap in
  let outer' = List.hd words in
  Heap.with_cell h' outer' (fun c ->
      full_collect h';
      let mid' = Option.get (Guardian.retrieve h' (Heap.read_cell h' c)) in
      check "mid is guardian" true (Guardian.is_guardian h' mid');
      let inner' = Option.get (Guardian.retrieve h' mid') in
      check "inner is guardian" true (Guardian.is_guardian h' inner');
      let x' = Option.get (Guardian.retrieve h' inner') in
      check_int "x found through restored chain" 77
        (Word.to_fixnum (Obj.car h' x')))

let test_symtab_identity () =
  let h = heap () in
  let st = Symtab.create h in
  let foo = Symtab.intern st "foo" in
  let bar = Symtab.intern st "bar" in
  check "interning is identity" true (Word.equal foo (Symtab.intern st "foo"));
  let s = Image.save_string ~symbols:(Symtab.entries st) h in
  let l = Image.load_string ~config:(Heap.config h) s in
  let h' = l.Image.heap in
  let st' = Symtab.create h' in
  Symtab.restore st' l.Image.symbols;
  check_int "both symbols restored" 2 (Symtab.count st');
  let foo' = Symtab.intern st' "foo" in
  check "restored symbol is interned, not re-made" true
    (Word.equal foo' (List.assoc "foo" l.Image.symbols));
  check_str "symbol name round-trips" "foo" (Obj.symbol_name_string h' foo');
  check "distinct symbols stay distinct" true
    (not (Word.equal foo' (Symtab.intern st' "bar")));
  ignore bar;
  (* Identity through heap structure: a pair of the symbol and a fresh
     intern of the same name are eq. *)
  let p = Obj.cons h' foo' (Symtab.intern st' "foo") in
  check "eq through structure" true (Word.equal (Obj.car h' p) (Obj.cdr h' p));
  Symtab.dispose st'

let test_allocation_continues_in_cursor_segment () =
  (* The mutator cursors are restored: allocation after a load continues
     in the partially-filled segments rather than acquiring fresh ones. *)
  let h = heap () in
  ignore (Obj.cons h (fx 1) Word.nil);
  let segs_before = Heap.live_segments h in
  let _, l, _ = roundtrip h in
  let h' = l.Image.heap in
  check_int "same live segments" segs_before (Heap.live_segments h');
  ignore (Obj.cons h' (fx 2) Word.nil);
  check_int "no fresh segment for the next cons" segs_before
    (Heap.live_segments h');
  check "verify clean" true (Verify.verify h' = [])

let test_telemetry_counters () =
  let h = heap () in
  ignore (Obj.cons h (fx 1) Word.nil);
  let s = Image.save_string h in
  let c = Heap.stats h in
  check_int "one save" 1 c.Stats.image_saves;
  check_int "bytes counted" (String.length s) c.Stats.image_bytes_written;
  check "words counted" true (c.Stats.image_words_written > 0);
  let l = Image.load_string ~config:(Heap.config h) s in
  let c' = Heap.stats l.Image.heap in
  check_int "one load" 1 c'.Stats.image_loads;
  check_int "bytes read" (String.length s) c'.Stats.image_bytes_read;
  check_int "words read = words written" c.Stats.image_words_written
    c'.Stats.image_words_read

(* ------------------------------------------------------------------ *)
(* Rejection paths                                                     *)

let expect_error name f =
  match f () with
  | (_ : Image.loaded) -> Alcotest.fail (name ^ ": corrupt image accepted")
  | exception Image.Error _ -> ()
  | exception e ->
      Alcotest.fail
        (Printf.sprintf "%s: expected Image.Error, got %s" name
           (Printexc.to_string e))

let small_image () =
  let h = heap () in
  let g = Handle.create h (Guardian.make h) in
  Guardian.register h (Handle.get g) (Obj.cons h (fx 1) Word.nil);
  ignore (Obj.cons h (fx 2) (Obj.string_of_ocaml h "x"));
  Image.save_string h

let test_every_single_byte_flip_rejected () =
  (* The ISSUE's contract: flip any single byte of a valid image and the
     loader must reject it cleanly (magic, version, length, CRC — some
     check fires for every position), never crash, never silently load. *)
  let s = small_image () in
  let n = String.length s in
  for pos = 0 to n - 1 do
    let b = Bytes.of_string s in
    Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0xff));
    expect_error
      (Printf.sprintf "flip at %d/%d" pos n)
      (fun () -> Image.load_string (Bytes.to_string b))
  done;
  (* Low-bit flips too, at a sample of positions. *)
  let step = max 1 (n / 97) in
  let pos = ref 0 in
  while !pos < n do
    let b = Bytes.of_string s in
    Bytes.set b !pos (Char.chr (Char.code (Bytes.get b !pos) lxor 0x01));
    expect_error
      (Printf.sprintf "low-bit flip at %d" !pos)
      (fun () -> Image.load_string (Bytes.to_string b));
    pos := !pos + step
  done

let test_truncation_rejected () =
  let s = small_image () in
  List.iter
    (fun len ->
      expect_error
        (Printf.sprintf "truncated to %d" len)
        (fun () -> Image.load_string (String.sub s 0 len)))
    [ 0; 1; 7; 8; 12; 20; 23; String.length s / 2; String.length s - 1 ]

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_version_mismatch_rejected () =
  let s = small_image () in
  let b = Bytes.of_string s in
  (* The version field sits right after the 8-byte magic and is outside
     the CRC'd payload, so this exercises the version check itself. *)
  Bytes.set b 8 '\x02';
  match Image.load_string (Bytes.to_string b) with
  | _ -> Alcotest.fail "future version accepted"
  | exception Image.Error msg ->
      check "message names the version" true (contains_sub msg "version")

let test_bad_magic_rejected () =
  let s = small_image () in
  let b = Bytes.of_string s in
  Bytes.set b 0 'X';
  expect_error "bad magic" (fun () -> Image.load_string (Bytes.to_string b))

let test_config_mismatch_rejected () =
  let s = small_image () in
  expect_error "segment_words mismatch" (fun () ->
      Image.load_string ~config:(Config.v ~segment_words:256 ()) s);
  expect_error "max_generation mismatch" (fun () ->
      Image.load_string
        ~config:(Config.v ~segment_words:128 ~max_generation:2 ())
        s)

let test_ceiling_too_small_rejected () =
  let s = small_image () in
  expect_error "image over max_heap_words" (fun () ->
      Image.load_string
        ~config:(Config.v ~segment_words:128 ~max_generation:3 ~max_heap_words:128 ())
        s)

(* Structural damage behind a valid CRC: patch the payload, then recompute
   the trailer, so the loader's own checks must catch it.  The payload
   opens with 52 bytes of scalars, the segment count and one 14-byte row
   per segment (space u8, generation, used, size, large), then the
   segment contents.  [seg s space] is (row, used, contents) of the first
   segment of [space]. *)
let seg s space =
  let table = 20 + 52 in
  let rec go i words =
    let row = table + 4 + (14 * i) in
    let used = Int32.to_int (String.get_int32_le s (row + 5)) in
    if Space.of_index (Char.code s.[row]) = space then (row, used, words)
    else go (i + 1) (words + (8 * used))
  in
  go 0 (table + 4 + (14 * Int32.to_int (String.get_int32_le s table)))

let reseal b =
  let plen = Bytes.length b - 24 in
  Bytes.set_int64_le b 12 (Int64.of_int plen);
  let crc = Image.crc32 (Bytes.unsafe_to_string b) ~pos:20 ~len:plen in
  Bytes.set_int32_le b (20 + plen) (Int32.of_int crc);
  Bytes.to_string b

let set_word s pos w =
  let b = Bytes.of_string s in
  Bytes.set_int64_le b pos (Int64.of_int w);
  reseal b

let test_bad_structure_rejected () =
  let h = heap () in
  ignore (Handle.create h (Obj.make_vector h ~len:3 ~init:(Obj.cons h (fx 1) Word.nil)));
  let s = Image.save_string h in
  let _, _, typed = seg s Space.Typed and prow, pused, pairs = seg s Space.Pair in
  (* Drop the pair segment's last word and shrink its used count. *)
  let cut = pairs + (8 * (pused - 1)) in
  let odd =
    Bytes.of_string (String.sub s 0 cut ^ String.sub s (cut + 8) (String.length s - cut - 8))
  in
  Bytes.set_int32_le odd (prow + 5) (Int32.of_int (pused - 1));
  let missing = Word.pair_ptr (Heap.addr_of ~seg:1000 ~off:0) in
  List.iter
    (fun verify ->
      let config =
        Config.v ~segment_words:128 ~max_generation:3 ~image_verify_on_load:verify ()
      in
      ignore (Image.load_string ~config s);
      List.iter
        (fun (img, expect) ->
          match Image.load_string ~config img with
          | _ -> Alcotest.failf "%s (verify %b): accepted" expect verify
          | exception Image.Error msg ->
              if not (contains_sub msg expect) then
                Alcotest.failf "%s (verify %b): wrong check fired: %s" expect verify msg)
        [
          (set_word s typed Word.true_, "bad object header");
          (set_word s typed (Obj.header ~len:100_000 ~code:Obj.code_vector), "overruns");
          (reseal odd, "odd word count");
          (set_word s pairs missing, "out of range");
        ])
    [ true; false ]

let test_save_during_collection_rejected () =
  let h = heap () in
  let hit = ref false in
  h.Heap.in_collection <- true;
  (try ignore (Image.save_string h) with Image.Error _ -> hit := true);
  h.Heap.in_collection <- false;
  check "save during collection rejected" true !hit;
  h.Heap.alloc_forbidden <- true;
  let hit2 = ref false in
  (try ignore (Image.save_string h) with Image.Error _ -> hit2 := true);
  h.Heap.alloc_forbidden <- false;
  check "save inside finalization thunk rejected" true !hit2

let () =
  Alcotest.run "image"
    [
      ( "round-trip",
        [
          Alcotest.test_case "empty heap" `Quick test_empty_heap;
          Alcotest.test_case "structure + sharing" `Quick
            test_structure_and_sharing;
          Alcotest.test_case "restored heap collects" `Quick
            test_restored_heap_collects;
          Alcotest.test_case "generations + schedule" `Quick
            test_generations_and_schedule;
          Alcotest.test_case "old-to-young remembered" `Quick
            test_old_to_young_remembered;
          Alcotest.test_case "large object" `Quick test_large_object;
          Alcotest.test_case "weak + ephemeron" `Quick test_weak_and_ephemeron;
          Alcotest.test_case "cursors restored" `Quick
            test_allocation_continues_in_cursor_segment;
          Alcotest.test_case "telemetry counters" `Quick test_telemetry_counters;
        ] );
      ( "guardians",
        [
          Alcotest.test_case "tconc order" `Quick test_tconc_queue_order;
          Alcotest.test_case "pending order" `Quick test_guardian_pending_order;
          Alcotest.test_case "unfired registration" `Quick
            test_guardian_registration_survives;
          Alcotest.test_case "re-registration" `Quick
            test_reregistration_after_restore;
          Alcotest.test_case "guardian-of-guardian" `Quick
            test_guardian_of_guardian_chain;
        ] );
      ( "symtab",
        [ Alcotest.test_case "interned identity" `Quick test_symtab_identity ] );
      ( "rejection",
        [
          Alcotest.test_case "every byte flip" `Quick
            test_every_single_byte_flip_rejected;
          Alcotest.test_case "truncation" `Quick test_truncation_rejected;
          Alcotest.test_case "version mismatch" `Quick
            test_version_mismatch_rejected;
          Alcotest.test_case "bad magic" `Quick test_bad_magic_rejected;
          Alcotest.test_case "config mismatch" `Quick
            test_config_mismatch_rejected;
          Alcotest.test_case "heap ceiling" `Quick
            test_ceiling_too_small_rejected;
          Alcotest.test_case "save during collection" `Quick
            test_save_during_collection_rejected;
          Alcotest.test_case "bad structure, valid CRC" `Quick
            test_bad_structure_rejected;
        ] );
    ]
