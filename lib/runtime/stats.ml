(** Work counters: the heap's one counter registry.

    The paper's claims are complexity claims ("overhead proportional to the
    work already done", "proportional to the number of clean-up actions
    actually performed"), so the collector and the guardian machinery count
    the work they do.  Each collection gets a fresh [last] record, frozen
    once the collection ends; [total] accumulates over the heap's
    lifetime. *)

(* Field documentation lives in the interface. *)
type counters = {
  mutable collections : int;
  mutable objects_copied : int;
  mutable words_copied : int;
  mutable words_swept : int;
  mutable root_words : int;
  mutable dirty_segments_scanned : int;
  mutable cards_scanned : int;
  mutable card_words_swept : int;
  mutable dirty_candidate_words : int;
  mutable guardian_pend_checks : int;
  mutable protected_entries_visited : int;
  mutable guardian_resurrections : int;
  mutable guardian_entries_promoted : int;
  mutable guardian_entries_dropped : int;
  mutable weak_pairs_scanned : int;
  mutable weak_pointers_broken : int;
  mutable ephemerons_scanned : int;
  mutable ephemerons_broken : int;
  mutable segments_freed : int;
  mutable segments_allocated : int;
}

let zero () =
  {
    collections = 0;
    objects_copied = 0;
    words_copied = 0;
    words_swept = 0;
    root_words = 0;
    dirty_segments_scanned = 0;
    cards_scanned = 0;
    card_words_swept = 0;
    dirty_candidate_words = 0;
    guardian_pend_checks = 0;
    protected_entries_visited = 0;
    guardian_resurrections = 0;
    guardian_entries_promoted = 0;
    guardian_entries_dropped = 0;
    weak_pairs_scanned = 0;
    weak_pointers_broken = 0;
    ephemerons_scanned = 0;
    ephemerons_broken = 0;
    segments_freed = 0;
    segments_allocated = 0;
  }

let fields =
  [
    ("collections", (fun c -> c.collections), fun c v -> c.collections <- v);
    ("objects_copied", (fun c -> c.objects_copied), fun c v -> c.objects_copied <- v);
    ("words_copied", (fun c -> c.words_copied), fun c v -> c.words_copied <- v);
    ("words_swept", (fun c -> c.words_swept), fun c v -> c.words_swept <- v);
    ("root_words", (fun c -> c.root_words), fun c v -> c.root_words <- v);
    ( "dirty_segments_scanned",
      (fun c -> c.dirty_segments_scanned),
      fun c v -> c.dirty_segments_scanned <- v );
    ("cards_scanned", (fun c -> c.cards_scanned), fun c v -> c.cards_scanned <- v);
    ("card_words_swept", (fun c -> c.card_words_swept), fun c v -> c.card_words_swept <- v);
    ( "dirty_candidate_words",
      (fun c -> c.dirty_candidate_words),
      fun c v -> c.dirty_candidate_words <- v );
    ( "guardian_pend_checks",
      (fun c -> c.guardian_pend_checks),
      fun c v -> c.guardian_pend_checks <- v );
    ( "protected_entries_visited",
      (fun c -> c.protected_entries_visited),
      fun c v -> c.protected_entries_visited <- v );
    ( "guardian_resurrections",
      (fun c -> c.guardian_resurrections),
      fun c v -> c.guardian_resurrections <- v );
    ( "guardian_entries_promoted",
      (fun c -> c.guardian_entries_promoted),
      fun c v -> c.guardian_entries_promoted <- v );
    ( "guardian_entries_dropped",
      (fun c -> c.guardian_entries_dropped),
      fun c v -> c.guardian_entries_dropped <- v );
    ( "weak_pairs_scanned",
      (fun c -> c.weak_pairs_scanned),
      fun c v -> c.weak_pairs_scanned <- v );
    ( "weak_pointers_broken",
      (fun c -> c.weak_pointers_broken),
      fun c v -> c.weak_pointers_broken <- v );
    ( "ephemerons_scanned",
      (fun c -> c.ephemerons_scanned),
      fun c v -> c.ephemerons_scanned <- v );
    ("ephemerons_broken", (fun c -> c.ephemerons_broken), fun c v -> c.ephemerons_broken <- v);
    ("segments_freed", (fun c -> c.segments_freed), fun c v -> c.segments_freed <- v);
    ( "segments_allocated",
      (fun c -> c.segments_allocated),
      fun c v -> c.segments_allocated <- v );
  ]

let add ~into c = List.iter (fun (_, get, set) -> set into (get into + get c)) fields

let pp_counters ppf c =
  Format.fprintf ppf "@[<v>%a@]"
    (Format.pp_print_list (fun ppf (name, get, _) ->
         Format.fprintf ppf "%s %d" name (get c)))
    fields

(* ------------------------------------------------------------------ *)
(* Per-guardian rows                                                   *)

type guardian = {
  gid : int;
  mutable g_registrations : int;
  mutable g_resurrections : int;
  mutable g_drops : int;
  mutable g_polls : int;
  mutable g_hits : int;
  mutable g_latency_sum : int;
  mutable g_latency_max : int;
  g_pending_epochs : Vec.Int.t;
  mutable g_pending_head : int;
}

let fresh_guardian gid =
  {
    gid;
    g_registrations = 0;
    g_resurrections = 0;
    g_drops = 0;
    g_polls = 0;
    g_hits = 0;
    g_latency_sum = 0;
    g_latency_max = 0;
    g_pending_epochs = Vec.Int.create ~capacity:4 ();
    g_pending_head = 0;
  }

(* ------------------------------------------------------------------ *)
(* The registry                                                        *)

type t = {
  mutable last : counters;
  total : counters;
  mutable words_allocated : int;
  mutable words_allocated_since_gc : int;
  mutable guardian_polls : int;
  mutable guardian_hits : int;
  mutable registrations : int;
  mutable tconc_enqueues : int;
  mutable tconc_dequeues : int;
  (* Write-barrier counters live on the session, not on [last]: they count
     mutator activity between collections. *)
  mutable barrier_calls : int;
  mutable barrier_hits : int;
  mutable cards_dirtied : int;
  mutable image_saves : int;
  mutable image_loads : int;
  mutable image_bytes_written : int;
  mutable image_bytes_read : int;
  mutable image_words_written : int;
  mutable image_words_read : int;
  mutable guardians : guardian array;
  mutable nguardians : int;
}

let create () =
  {
    last = zero ();
    total = zero ();
    words_allocated = 0;
    words_allocated_since_gc = 0;
    guardian_polls = 0;
    guardian_hits = 0;
    registrations = 0;
    tconc_enqueues = 0;
    tconc_dequeues = 0;
    barrier_calls = 0;
    barrier_hits = 0;
    cards_dirtied = 0;
    image_saves = 0;
    image_loads = 0;
    image_bytes_written = 0;
    image_bytes_read = 0;
    image_words_written = 0;
    image_words_read = 0;
    guardians = [||];
    nguardians = 0;
  }

let begin_collection t = t.last <- { (zero ()) with collections = 1 }
let end_collection t = add ~into:t.total t.last

let new_guardian t =
  let gid = t.nguardians in
  if gid = Array.length t.guardians then begin
    let rows = Array.make (max 8 (2 * gid)) (fresh_guardian (-1)) in
    Array.blit t.guardians 0 rows 0 gid;
    t.guardians <- rows
  end;
  t.guardians.(gid) <- fresh_guardian gid;
  t.nguardians <- gid + 1;
  gid

let guardian_count t = t.nguardians

let[@inline] guardian t gid =
  if gid < 0 || gid >= t.nguardians then invalid_arg "Stats.guardian: unknown guardian id";
  t.guardians.(gid)

let restore_guardian_count t n =
  while guardian_count t < n do
    ignore (new_guardian t)
  done

let[@inline] count_registration t ~gid =
  let g = guardian t gid in
  t.registrations <- t.registrations + 1;
  g.g_registrations <- g.g_registrations + 1

let pending_epochs g = Vec.Int.length g.g_pending_epochs - g.g_pending_head

(* Oldest pending epoch.  Popped slots are reclaimed once they make up
   half the vector, so the FIFO's storage stays proportional to what is
   pending. *)
let pop_pending g =
  let q = g.g_pending_epochs in
  let head = g.g_pending_head in
  let epoch = Vec.Int.get q head in
  let n = Vec.Int.length q in
  if head + 1 = n then begin
    Vec.Int.clear q;
    g.g_pending_head <- 0
  end
  else if 2 * (head + 1) >= n && head >= 15 then begin
    for i = head + 1 to n - 1 do
      Vec.Int.set q (i - head - 1) (Vec.Int.get q i)
    done;
    Vec.Int.truncate q (n - head - 1);
    g.g_pending_head <- 0
  end
  else g.g_pending_head <- head + 1;
  epoch

let count_poll t ~gid ~hit ~epoch =
  let g = guardian t gid in
  t.guardian_polls <- t.guardian_polls + 1;
  g.g_polls <- g.g_polls + 1;
  if hit then begin
    t.guardian_hits <- t.guardian_hits + 1;
    g.g_hits <- g.g_hits + 1;
    if pending_epochs g > 0 then begin
      let latency = max 0 (epoch - pop_pending g) in
      g.g_latency_sum <- g.g_latency_sum + latency;
      if latency > g.g_latency_max then g.g_latency_max <- latency
    end
  end

let[@inline] count_resurrection t ~gid ~epoch =
  let g = guardian t gid in
  t.last.guardian_resurrections <- t.last.guardian_resurrections + 1;
  g.g_resurrections <- g.g_resurrections + 1;
  (* The tconc is FIFO and only the guardian's retrieve dequeues it, so a
     FIFO of resurrection epochs stays aligned with the queued objects. *)
  Vec.Int.push g.g_pending_epochs epoch

let count_drop t ~gid =
  let g = guardian t gid in
  t.last.guardian_entries_dropped <- t.last.guardian_entries_dropped + 1;
  g.g_drops <- g.g_drops + 1;
  (* A drop means the guardian's tconc died in this collection, and with
     it every object still queued there: their epochs will never be
     retrieved, and the row of a dead guardian keeps no FIFO storage. *)
  Vec.Int.reset g.g_pending_epochs;
  g.g_pending_head <- 0

let count_image_save t ~bytes ~words =
  t.image_saves <- t.image_saves + 1;
  t.image_bytes_written <- t.image_bytes_written + bytes;
  t.image_words_written <- t.image_words_written + words

let count_image_load t ~bytes ~words =
  t.image_loads <- t.image_loads + 1;
  t.image_bytes_read <- t.image_bytes_read + bytes;
  t.image_words_read <- t.image_words_read + words
