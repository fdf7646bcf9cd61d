(** The generation-based stop-and-copy collector, with the paper's guardian
    and weak-pair passes.

    A collection of generation [g] collects generations [0..g] (younger
    generations are always collected along with older ones) into the target
    generation chosen by the promotion policy.  Phases:

    + condemn the segments of generations [0..g];
    + forward the roots (global cells + registered scanners) and sweep the
      dirty segments of older generations (the remembered set);
    + Cheney-sweep to-space to a fixpoint ([kleene-sweep] in the paper);
    + the {b guardian pass} (paper Section 4): partition the protected
      entries of the collected generations into [pend-hold-list]
      (object still accessible) and [pend-final-list] (object proven
      inaccessible), then repeatedly move entries whose tconc is accessible
      from [pend-final-list] into their guardian's queue — forwarding, i.e.
      {e saving}, the object — and re-sweep, until no progress: this handles
      guardians registered with guardians; finally promote surviving
      [pend-hold-list] entries to the target generation's protected list and
      drop entries whose guardian itself died;
    + the {b weak pass}: mend or break the car fields of weak pairs — after
      the guardian pass, so a weak pointer to an object saved by a guardian
      is {e not} broken;
    + run registered weak scanners (support for baseline mechanisms);
    + free the condemned segments, close the collection's counters and
      events, and run the after-GC hooks.

    Every user callback (root scanner, weak scanner, after-GC hook) runs
    through [guarded]: a raising callback cannot leave the heap
    mid-collection (see {!Heap.callback}).

    The collector does no allocation except copies and the fresh tconc cells
    it appends (which go straight to the target generation). *)

open Heap

type outcome = {
  generation : int;  (** oldest generation collected *)
  target : int;
  duration_ns : float;
}

(* ------------------------------------------------------------------ *)
(* Forwarding                                                          *)

(* A copied object's first word is overwritten with the forwarding marker
   and its second word with the (tagged) new pointer word.  The smallest
   object is a pair (two words), so the two slots always exist. *)

(* The paper's [forwarded?] and [get-fwd-addr] in one: [w] itself for
   immediates and pointers outside from-space, the new word of a copied
   object, and [Word.forward_marker] for an object not (yet) copied.  The
   marker is never a stored value (Verify rejects it), so it is a
   non-allocating "not forwarded" answer. *)
let[@inline] resolve t w =
  if not (Word.is_pointer w) then w
  else begin
    let addr = Word.addr w in
    let seg = seg_of_addr addr in
    if not t.infos.(seg).condemned then w
    else begin
      let words = t.segs.(seg) in
      let off = off_of_addr addr in
      if Word.equal words.(off) Word.forward_marker then words.(off + 1)
      else Word.forward_marker
    end
  end

let[@inline] forwarded t w = not (Word.equal (resolve t w) Word.forward_marker)

(* Copy the not-yet-forwarded object [w] (first word [first], at [off] of
   from-space segment [seg]) and leave the forwarding marker behind. *)
let forward_object t ~target w seg off first =
  let si = t.infos.(seg) in
  let src = t.segs.(seg) in
  let stats = t.stats.last in
  let new_word =
    if Word.is_pair_ptr w then begin
      let new_addr = gc_alloc t ~space:si.space ~generation:target 2 in
      let dst = t.segs.(seg_of_addr new_addr) in
      let doff = off_of_addr new_addr in
      dst.(doff) <- first;
      dst.(doff + 1) <- src.(off + 1);
      stats.words_copied <- stats.words_copied + 2;
      Word.pair_ptr new_addr
    end
    else begin
      let size = 1 + Obj.header_len first in
      (* Zero-field objects are padded to two words so the forwarding
         marker and address always fit (see Obj.code_pad). *)
      let alloc_size = if size < 2 then 2 else size in
      let new_addr = gc_alloc t ~space:si.space ~generation:target alloc_size in
      let dst = t.segs.(seg_of_addr new_addr) in
      let doff = off_of_addr new_addr in
      Array.blit src off dst doff size;
      if alloc_size > size then dst.(doff + size) <- Obj.header ~len:0 ~code:Obj.code_pad;
      stats.words_copied <- stats.words_copied + size;
      Word.typed_ptr new_addr
    end
  in
  stats.objects_copied <- stats.objects_copied + 1;
  (* Seeded debug bug (Config.corrupt_forward_period): corrupt every
     nth forwarding address to an interior pointer.  The torture
     harness must detect the damage via Verify or the oracle. *)
  let f = t.faults in
  let new_word =
    if f.corrupt_forward_period = 0 then new_word
    else begin
      f.forwards_seen <- f.forwards_seen + 1;
      if f.forwards_seen mod f.corrupt_forward_period = 0 then begin
        f.injected <- f.injected + 1;
        Word.with_addr new_word (Word.addr new_word + 1)
      end
      else new_word
    end
  in
  src.(off) <- Word.forward_marker;
  src.(off + 1) <- new_word;
  (* Guardian-fixpoint worklist feed: each object forwards once, so the
     log sees each from-space address at most once. *)
  if t.gc_log_forwards then Vec.Int.push t.gc_forward_log (addr_of ~seg ~off);
  new_word

(** Copy [w] to the target generation if it is a pointer into from-space not
    yet copied; returns the new word. *)
let[@inline] copy t ~target w =
  if not (Word.is_pointer w) then w
  else begin
    let addr = Word.addr w in
    let seg = seg_of_addr addr in
    if not t.infos.(seg).condemned then w
    else begin
      let off = off_of_addr addr in
      let first = t.segs.(seg).(off) in
      if Word.equal first Word.forward_marker then t.segs.(seg).(off + 1)
      else forward_object t ~target w seg off first
    end
  end

(* ------------------------------------------------------------------ *)
(* Sweeping                                                            *)

(* Generation of a word for remembered-set recomputation. *)
let ref_gen t w = if Word.is_pointer w then (info_of_word t w).generation else max_int

let push_dirty t seg =
  let si = info t seg in
  if si.min_ref_gen < si.generation && not si.on_dirty_list then begin
    si.on_dirty_list <- true;
    Vec.Int.push t.dirty seg
  end

(* Sweep the words of [seg] in [from, upto) as strong references: rewrite
   each traced slot through [copy] and note the referenced generations in
   the card table (which keeps min_ref_gen in sync).  Weak-space segments
   trace only cdr fields.  [start] is the offset of the object covering
   [from]: a dirty card can begin mid-object (the crossing map finds its
   header), so typed fields are clamped to the range.  Pair cells never
   straddle a card (cards are >= 8 words and a power of two). *)
let sweep t ~target seg ~start ~from ~upto =
  let si = t.infos.(seg) in
  let words = t.segs.(seg) in
  let gen = si.generation in
  let stats = t.stats.last in
  (* Immediates need neither forwarding nor a card; a referent is noted
     only when it is younger than this segment. *)
  let[@inline] fwd off =
    let w = words.(off) in
    if Word.is_pointer w then begin
      let w = copy t ~target w in
      words.(off) <- w;
      let g = (info_of_word t w).generation in
      if g < gen then note_ref t ~addr:(addr_of ~seg ~off) ~gen:g
    end
  in
  (match si.space with
  | Space.Pair ->
      let off = ref from in
      while !off < upto do
        fwd !off;
        fwd (!off + 1);
        off := !off + 2
      done
  | Space.Weak ->
      let off = ref from in
      while !off < upto do
        (* car is weak: left alone here, handled by the weak pass. *)
        fwd (!off + 1);
        off := !off + 2
      done
  | Space.Ephemeron ->
      (* Neither field is traced eagerly: the value may only be traced once
         the key proves reachable.  Queue the cell for the ephemeron
         fixpoint. *)
      let off = ref from in
      while !off < upto do
        Vec.Int.push t.gc_ephemerons (addr_of ~seg ~off:!off);
        off := !off + 2
      done
  | Space.Typed ->
      let off = ref start in
      while !off < upto do
        let len = Obj.header_len words.(!off) in
        let first = if !off + 1 > from then !off + 1 else from in
        let last = if !off + len < upto - 1 then !off + len else upto - 1 in
        for i = first to last do
          fwd i
        done;
        off := !off + 1 + len
      done
  | Space.Data -> ());
  stats.words_swept <- stats.words_swept + (upto - from)

(* One round of the ephemeron fixpoint: resolve every queued ephemeron
   whose key has proven reachable, tracing its value; keep the rest queued.
   Returns whether anything was resolved. *)
let process_ephemerons t ~target =
  let pending = t.gc_ephemerons in
  let n = Vec.Int.length pending in
  let stats = (Heap.stats t).last in
  let write = ref 0 in
  let progress = ref false in
  for i = 0 to n - 1 do
    let addr = Vec.Int.get pending i in
    let key = resolve t (load t addr) in
    if Word.equal key Word.forward_marker then begin
      Vec.Int.set pending !write addr;
      incr write
    end
    else begin
      progress := true;
      stats.ephemerons_scanned <- stats.ephemerons_scanned + 1;
      store t addr key;
      (* The key is reachable: the value is strong after all. *)
      let v = copy t ~target (load t (addr + 1)) in
      store t (addr + 1) v;
      note_ref t ~addr ~gen:(ref_gen t key);
      note_ref t ~addr:(addr + 1) ~gen:(ref_gen t v)
    end
  done;
  Vec.Int.truncate pending !write;
  !progress

(* Break the ephemerons whose keys never proved reachable: key and value
   both become #f.  Runs after the guardian pass (a guardian-saved key is a
   reachable key). *)
let break_ephemerons t =
  let stats = (Heap.stats t).last in
  Vec.Int.iter t.gc_ephemerons ~f:(fun addr ->
      stats.ephemerons_scanned <- stats.ephemerons_scanned + 1;
      stats.ephemerons_broken <- stats.ephemerons_broken + 1;
      store t addr Word.false_;
      store t (addr + 1) Word.false_);
  Vec.Int.clear t.gc_ephemerons

(* Cheney scan to a fixpoint: process every to-space segment's unscanned
   suffix until no segment has one, interleaved with the ephemeron
   fixpoint (a value traced because its key proved reachable can itself
   reveal further reachable keys).  Copies performed while sweeping extend
   [used] (possibly of other segments), hence the outer loop. *)
let kleene_sweep t ~target =
  let progress = ref true in
  while !progress do
    progress := false;
    (* gc_new_segs can grow while we iterate: index-based loop. *)
    let i = ref 0 in
    while !i < Vec.Int.length t.gc_new_segs do
      let seg = Vec.Int.get t.gc_new_segs !i in
      let si = info t seg in
      while si.live && si.scan < si.used do
        progress := true;
        let upto = si.used in
        sweep t ~target seg ~start:si.scan ~from:si.scan ~upto;
        si.scan <- upto
      done;
      incr i
    done;
    if process_ephemerons t ~target then progress := true
  done

(* ------------------------------------------------------------------ *)
(* Guardian pass                                                       *)

(* Release the entries waiting on the tconc at from-space address [addr]
   into the work list, in chain order. *)
let release_waiters t ~addr =
  let p = t.gc_pend in
  match Hashtbl.find p.waiters addr with
  | exception Not_found -> ()
  | first ->
      Hashtbl.remove p.waiters addr;
      let stats = t.stats.last in
      let k = ref first in
      while !k >= 0 do
        stats.guardian_pend_checks <- stats.guardian_pend_checks + 1;
        Vec.Int.push p.work !k;
        k := Vec.Int.get p.wait_next !k
      done

let clear_entries (p : protected) =
  Vec.Int.clear p.p_objs;
  Vec.Int.clear p.p_reps;
  Vec.Int.clear p.p_tconcs;
  Vec.Int.clear p.p_gids

let guardian_pass t ~g ~target =
  let st = t.stats in
  let stats = st.last in
  let { hold; final; wait_next; work; waiters } = t.gc_pend in
  (* The lists start empty even if an earlier pass was cut short. *)
  clear_entries hold;
  clear_entries final;
  Vec.Int.clear wait_next;
  Vec.Int.clear work;
  Hashtbl.reset waiters;
  (* First block: separate accessible from inaccessible registered objects,
     touching each entry's from-space object once.  The protected lists
     themselves are collector metadata and are not forwarded.  A held
     entry keeps its object's new word and its copied rep (agent). *)
  for i = 0 to g do
    let p = t.protected.(i) in
    for j = 0 to Vec.Int.length p.p_objs - 1 do
      stats.protected_entries_visited <- stats.protected_entries_visited + 1;
      let obj = Vec.Int.get p.p_objs j in
      let rep = Vec.Int.get p.p_reps j in
      let tconc = Vec.Int.get p.p_tconcs j in
      let gid = Vec.Int.get p.p_gids j in
      let moved = resolve t obj in
      if Word.equal moved Word.forward_marker then protected_push final ~gid ~obj ~rep ~tconc
      else protected_push hold ~gid ~obj:moved ~rep:(copy t ~target rep) ~tconc
    done;
    clear_entries p
  done;
  kleene_sweep t ~target;
  (* Second block: queue inaccessible objects whose guardian is
     accessible.  Forwarding the saved representatives can make further
     guardians accessible (a guardian registered with a guardian), so
     instead of repeatedly re-partitioning pend-final-list, entries whose
     tconc is still in from-space wait in chains keyed by the tconc's
     address, and while any entry waits every object forwarded is logged
     ([gc_forward_log]); draining the log wakes exactly the waiters of the
     addresses that forwarded.  Each entry is checked at most twice — at
     partition and when its tconc forwards — so the fixpoint costs O(1)
     amortized per entry, proportional to the entries actually saved.
     Entries are queued, and each chain released, in reverse visit
     order. *)
  let nfinal = Vec.Int.length final.p_objs in
  for k = 0 to nfinal - 1 do
    stats.guardian_pend_checks <- stats.guardian_pend_checks + 1;
    let tconc = Vec.Int.get final.p_tconcs k in
    if forwarded t tconc then begin
      Vec.Int.push work k;
      Vec.Int.push wait_next (-1)
    end
    else begin
      let addr = Word.addr tconc in
      Vec.Int.push wait_next
        (match Hashtbl.find waiters addr with exception Not_found -> -1 | next -> next);
      Hashtbl.replace waiters addr k
    end
  done;
  (* [work] was filled in visit order; the queue runs in reverse. *)
  let n = Vec.Int.length work in
  for i = 0 to (n / 2) - 1 do
    let a = Vec.Int.get work i in
    Vec.Int.set work i (Vec.Int.get work (n - 1 - i));
    Vec.Int.set work (n - 1 - i) a
  done;
  Vec.Int.clear t.gc_forward_log;
  Fun.protect
    ~finally:(fun () ->
      t.gc_log_forwards <- false;
      Vec.Int.clear t.gc_forward_log)
    (fun () ->
      while not (Vec.Int.is_empty work) do
        t.gc_log_forwards <- Hashtbl.length waiters > 0;
        for i = 0 to Vec.Int.length work - 1 do
          let k = Vec.Int.get work i in
          let gid = Vec.Int.get final.p_gids k in
          let rep = copy t ~target (Vec.Int.get final.p_reps k) in
          Tconc.collector_enqueue t ~generation:target
            (resolve t (Vec.Int.get final.p_tconcs k))
            rep;
          (* The entry becomes retrievable at the epoch following this
             collection (the poll-latency origin). *)
          Stats.count_resurrection st ~gid ~epoch:(t.gc_epoch + 1)
        done;
        Vec.Int.clear work;
        kleene_sweep t ~target;
        (* Tconcs forwarded by the saves above release their waiters. *)
        for i = 0 to Vec.Int.length t.gc_forward_log - 1 do
          release_waiters t ~addr:(Vec.Int.get t.gc_forward_log i)
        done;
        Vec.Int.clear t.gc_forward_log
      done);
  (* Entries still waiting: their guardian itself died. *)
  Hashtbl.iter
    (fun _ first ->
      let k = ref first in
      while !k >= 0 do
        Stats.count_drop st ~gid:(Vec.Int.get final.p_gids !k);
        k := Vec.Int.get wait_next !k
      done)
    waiters;
  (* Third block: entries whose object is still accessible survive into the
     target generation's protected list — provided their guardian does —
     in reverse visit order. *)
  let entry_generation =
    (* D1 ablation: a non-generation-friendly collector keeps every entry
       on generation 0's protected list, forcing every minor collection to
       visit all of them. *)
    if t.config.Config.generation_friendly_guardians then target else 0
  in
  let into = t.protected.(entry_generation) in
  for k = Vec.Int.length hold.p_objs - 1 downto 0 do
    let gid = Vec.Int.get hold.p_gids k in
    let tconc = resolve t (Vec.Int.get hold.p_tconcs k) in
    if not (Word.equal tconc Word.forward_marker) then begin
      protected_push into ~gid ~obj:(Vec.Int.get hold.p_objs k)
        ~rep:(Vec.Int.get hold.p_reps k) ~tconc;
      stats.guardian_entries_promoted <- stats.guardian_entries_promoted + 1
    end
    else Stats.count_drop st ~gid
  done

(* ------------------------------------------------------------------ *)
(* Weak pass                                                           *)

(* Mend or break the car of the weak pair at [addr] (car slot).  Runs after
   the guardian pass, so guarded-saved objects have forwarding addresses and
   their weak pointers survive. *)
let process_weak_car t addr =
  let stats = (Heap.stats t).last in
  stats.weak_pairs_scanned <- stats.weak_pairs_scanned + 1;
  let w = load t addr in
  if Word.is_pointer w then begin
    let w' = resolve t w in
    if Word.equal w' Word.forward_marker then begin
      store t addr Word.false_;
      stats.weak_pointers_broken <- stats.weak_pointers_broken + 1
    end
    else begin
      store t addr w';
      note_ref t ~addr ~gen:(ref_gen t w')
    end
  end

let weak_pass t ~dirty_weak_cards =
  let scan_range seg ~from ~upto =
    let off = ref from in
    while !off < upto do
      process_weak_car t (addr_of ~seg ~off:!off);
      off := !off + 2
    done;
    refresh_remembered t seg
  in
  (* Weak pairs copied during this collection... *)
  Vec.Int.iter t.gc_new_segs ~f:(fun seg ->
      let si = info t seg in
      if si.live && si.space = Space.Weak then scan_range seg ~from:0 ~upto:si.used);
  (* ...and weak pairs in the dirty cards of older weak segments: their
     cdrs were swept by the dirty scan, which reset the card bytes; the
     cars are mended or broken here and their targets re-noted. *)
  List.iter (fun (seg, from, upto) -> scan_range seg ~from ~upto) dirty_weak_cards

(* ------------------------------------------------------------------ *)
(* Dirty (remembered-set) scan                                         *)

(* Sweep the remembered segments of generations older than [g] as roots —
   card-granularly: only cards recorded as possibly reaching into the
   condemned generations are visited; each is reset and its references
   re-noted from scratch by the sweep.  Returns the dirty weak-space card
   ranges, whose car fields still need the weak pass.  Rebuilds the dirty
   list. *)
let dirty_scan t ~g ~target =
  let stats = (Heap.stats t).last in
  let old_dirty = Vec.Int.to_list t.dirty in
  Vec.Int.clear t.dirty;
  let weak_cards = ref [] in
  let cw = 1 lsl t.card_shift in
  List.iter
    (fun seg ->
      let si = info t seg in
      si.on_dirty_list <- false;
      if si.live && not si.condemned then begin
        if si.min_ref_gen <= g then begin
          stats.dirty_segments_scanned <- stats.dirty_segments_scanned + 1;
          stats.dirty_candidate_words <- stats.dirty_candidate_words + si.used;
          let ncards = cards_in_use t seg in
          for c = 0 to ncards - 1 do
            if Bytes.get_uint8 si.cards c <= g then begin
              stats.cards_scanned <- stats.cards_scanned + 1;
              Bytes.set_uint8 si.cards c card_clean;
              let from = c * cw in
              let upto = min si.used (from + cw) in
              sweep t ~target seg ~start:(card_object_start t ~seg ~card:c) ~from ~upto;
              stats.card_words_swept <- stats.card_words_swept + (upto - from);
              if si.space = Space.Weak then
                weak_cards := (seg, from, upto) :: !weak_cards
            end
          done;
          (* Cards dirty only towards uncollected generations survive the
             reset above and keep the segment remembered. *)
          refresh_remembered t seg
        end
        else
          (* Still dirty, but only with respect to generations not being
             collected: keep it remembered, no scanning needed — this is the
             "no additional overhead for older objects" property. *)
          push_dirty t seg
      end)
    old_dirty;
  !weak_cards

(* ------------------------------------------------------------------ *)
(* User callbacks                                                      *)

(* Run one user callback.  An exception is held in [failed] (the first
   one wins) and re-raised by [collect] once the collection is complete,
   so later callbacks still run and the heap never stays mid-collection. *)
let guarded failed f =
  try f ()
  with e -> if Option.is_none !failed then failed := Some (e, Printexc.get_raw_backtrace ())

let root_scan t ~target ~failed =
  let stats = (Heap.stats t).last in
  let rewrite w =
    stats.root_words <- stats.root_words + 1;
    copy t ~target w
  in
  iter_scanners t ~f:(fun scan -> guarded failed (fun () -> scan rewrite))

let weak_root_scan t ~failed =
  let lookup w =
    let w' = resolve t w in
    if Word.equal w' Word.forward_marker then None else Some w'
  in
  List.iter
    (function _, Weak_scanner scan -> guarded failed (fun () -> scan lookup) | _ -> ())
    t.callbacks

let run_after_gc t ~failed =
  List.iter (function _, After_gc hook -> guarded failed (fun () -> hook t) | _ -> ()) t.callbacks

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)

let collect ?weak_pass_first t ~gen:g =
  if t.in_collection then invalid_arg "Collector.collect: already collecting";
  let cfg = Heap.config t in
  if g < 0 || g > cfg.max_generation then invalid_arg "Collector.collect: bad generation";
  let t0 = Unix_time.now_ns () in
  t.in_collection <- true;
  Stats.begin_collection (Heap.stats t);
  let tel = t.telemetry in
  let stats = (Heap.stats t).last in
  let failed = ref None in
  let target = cfg.promote ~gen:g ~max_generation:cfg.max_generation in
  Telemetry.collection_begin tel
    ~ordinal:((Heap.stats t).total.Stats.collections + 1)
    ~generation:g ~target;
  (* Each phase reports the delta of its work counter, so the attribution
     is exact even for counters several phases bump (e.g. words_swept). *)
  let phase ph work_counter body =
    let before = work_counter () in
    Telemetry.phase_begin tel ph;
    let r = body () in
    Telemetry.phase_end tel ph ~work:(work_counter () - before);
    r
  in
  Vec.Int.clear t.gc_new_segs;
  Vec.Int.clear t.gc_ephemerons;
  (* Condemn from-space: all segments of generations 0..g. *)
  let condemned = Vec.Int.create () in
  for i = 0 to g do
    Vec.Int.iter (live_segments_of_gen t i) ~f:(fun seg ->
        (info t seg).condemned <- true;
        Vec.Int.push condemned seg)
  done;
  (* Only segments acquired during this collection are Cheney-swept (fresh
     segments start with scan = 0); pre-existing target segments keep their
     contents and are reached, if at all, through the remembered set. *)
  reset_cursors t.gc_cursors;
  (* Roots, remembered set, transitive copy. *)
  phase Telemetry.Root_scan
    (fun () -> stats.root_words)
    (fun () -> root_scan t ~target ~failed);
  let dirty_weak_cards =
    phase Telemetry.Dirty_scan
      (fun () -> stats.card_words_swept)
      (fun () -> dirty_scan t ~g ~target)
  in
  phase Telemetry.Cheney_copy
    (fun () -> stats.words_swept)
    (fun () -> kleene_sweep t ~target);
  let guardian_phase () =
    phase Telemetry.Guardian_pass
      (fun () -> stats.protected_entries_visited)
      (fun () -> guardian_pass t ~g ~target)
  in
  let ephemeron_phase () =
    phase Telemetry.Ephemeron_fixpoint
      (fun () -> stats.ephemerons_scanned)
      (fun () -> break_ephemerons t)
  in
  let weak_phase () =
    phase Telemetry.Weak_pass
      (fun () -> stats.weak_pairs_scanned)
      (fun () -> weak_pass t ~dirty_weak_cards)
  in
  (* Guardian pass, then weak pass — in that order, so that weak pointers to
     objects saved by guardians survive (paper Section 4).  The switchable
     order exists only to demonstrate the breakage in tests (DESIGN.md D2). *)
  (match weak_pass_first with
  | Some true ->
      weak_phase ();
      guardian_phase ();
      ephemeron_phase ()
  | _ ->
      guardian_phase ();
      ephemeron_phase ();
      weak_phase ());
  phase Telemetry.Segment_reclaim
    (fun () -> stats.segments_freed)
    (fun () ->
      (* Baseline support: weak scanners observe forwarding before from-space
         is reclaimed. *)
      weak_root_scan t ~failed;
      (* Remember any to-space segment left pointing at a younger generation
         (possible under non-default promotion policies). *)
      Vec.Int.iter t.gc_new_segs ~f:(fun seg ->
          if (info t seg).live then push_dirty t seg);
      (* Reclaim from-space. *)
      Vec.Int.iter condemned ~f:(fun seg -> release_segment t seg);
      reset_cursors t.mutator_cursors);
  t.stats.words_allocated_since_gc <- 0;
  t.gc_epoch <- t.gc_epoch + 1;
  t.last_gc_generation <- g;
  Stats.end_collection (Heap.stats t);
  t.in_collection <- false;
  (* The live-word census is only paid for when someone is listening. *)
  if Telemetry.enabled tel then
    Telemetry.collection_end tel ~counters:stats ~live_words:(live_words t);
  run_after_gc t ~failed;
  match !failed with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> { generation = g; target; duration_ns = Unix_time.now_ns () -. t0 }
