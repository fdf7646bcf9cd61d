(** The simulated segmented heap.

    A heap instance owns the store (segments of tagged words), the segment
    information table, per-space allocation cursors, the root cells, the
    collection callbacks, the per-generation protected lists of guardian
    registrations, and work counters.

    Mutator allocation never runs the collector: collections happen only at
    explicit safepoints ({!Runtime.safepoint}) or explicit
    {!Collector.collect} calls, so OCaml code may hold raw words between
    its own safepoints.  Anything that must survive a collection has to be
    reachable from a root. *)

exception Allocation_forbidden
(** Raised by mutator allocation while a collector-invoked finalization
    thunk runs (the Dickey baseline's restriction). *)

exception Out_of_memory
(** Raised by mutator allocation once [Config.max_heap_words] would be
    exceeded.  Collections are exempt. *)

val stride_bits : int
val max_segment_words : int

type seg_info = {
  mutable space : Space.t;
  mutable generation : int;
  mutable used : int;  (** words allocated so far *)
  mutable size : int;  (** capacity in words *)
  mutable min_ref_gen : int;
      (** youngest generation this segment may hold a pointer into; equal
          to [generation] when clean.  The remembered set. *)
  mutable live : bool;
  mutable condemned : bool;  (** part of from-space of the current GC *)
  mutable scan : int;  (** collector scan cursor (words) *)
  mutable on_dirty_list : bool;
  mutable large : bool;  (** oversized single-object segment *)
  mutable mark_epoch : int;
  mutable cards : Bytes.t;
      (** byte-per-card remembered set: card [c] holds the youngest
          generation any slot in card [c] may reference, or {!card_clean}
          when clean.  Invariant:
          [min_ref_gen = min generation (min over card bytes)]. *)
  mutable crossing : int array;
      (** card crossing map: offset of the object covering each card's
          first word (maintained by the allocator). *)
}

type cursor = { mutable seg : int }

type faults = {
  mutable fail_segment_alloc_at : int;
      (** mutator segment acquisitions remaining before a one-shot
          {!Out_of_memory} (counted down per acquisition); 0 = disarmed *)
  mutable corrupt_forward_period : int;
      (** debug bug: corrupt every [n]th forwarded pointer to an interior
          address during collections; 0 = off *)
  mutable forwards_seen : int;
  mutable injected : int;  (** faults actually fired so far *)
}
(** Fault-injection state for the torture harness ({!Gbc_torture}).
    Seeded from {!Config.t}'s [fail_segment_alloc_at] /
    [corrupt_forward_period]; the fields may be re-armed at runtime. *)

type protected = {
  p_objs : Vec.Int.t;
  p_reps : Vec.Int.t;
  p_tconcs : Vec.Int.t;
  p_gids : Vec.Int.t;
}
(** Parallel vectors: one guardian registration per index.  [rep] is the
    word enqueued when [obj] proves inaccessible (equal to [obj] for plain
    registrations; a distinct agent for the paper's Section 5 interface).
    [gid] is the owning guardian's id ({!Stats.guardian}). *)

type pend = {
  hold : protected;
      (** entries whose object survived, in visit order: [obj] and [rep]
          already forwarded, [tconc] as registered *)
  final : protected;
      (** entries whose object proved inaccessible, as registered, in visit
          order *)
  wait_next : Vec.Int.t;
      (** parallel to [final]: the next entry waiting on the same tconc,
          or -1 *)
  work : Vec.Int.t;  (** indices into [final] whose tconc is accessible *)
  waiters : (int, int) Hashtbl.t;
      (** from-space tconc address -> first index into [final] waiting on
          it *)
}
(** The guardian pass's worklists ({!Collector}).  The heap owns them so
    their storage is reused from one collection to the next. *)

type t = {
  config : Config.t;
  stats : Stats.t;
  telemetry : Telemetry.t;
  card_shift : int;  (** log2 of the effective card size in words *)
  mutable segs : int array array;
  mutable infos : seg_info array;
  mutable nsegs : int;
  mutable free_std : int list;
  mutable free_ids : int list;
  mutator_cursors : cursor array;
  gc_cursors : cursor array;
  gen_segs : Vec.Int.t array;
  gc_new_segs : Vec.Int.t;  (** segments acquired during the current GC *)
  gc_ephemerons : Vec.Int.t;
      (** key-slot addresses of ephemerons discovered but not yet resolved
          during the current GC *)
  gc_forward_log : Vec.Int.t;
      (** from-space addresses of objects forwarded while
          [gc_log_forwards] — the guardian fixpoint's worklist feed *)
  mutable gc_log_forwards : bool;
  gc_pend : pend;
  dirty : Vec.Int.t;
  mutable epoch_counter : int;
  protected : protected array;  (** per generation *)
  mutable global_cells : int array;
  mutable global_cells_len : int;
  mutable global_free : int list;
  mutable callbacks : (int * callback) list;  (** most recently added first *)
  mutable next_callback_id : int;
  mutable in_collection : bool;
  mutable alloc_forbidden : bool;
  mutable segment_words_live : int;  (** capacity of all live segments *)
  mutable gc_epoch : int;
  mutable collect_count : int;
  mutable last_gc_generation : int;  (** oldest generation of the last GC *)
  mutable collect_request_handler : (t -> unit) option;
  faults : faults;
}

(** Code the collector calls during or after each collection.  Within
    each kind, callbacks run most recently added first.

    If a callback raises, the collection still completes: the remaining
    callbacks run, from-space is freed, [in_collection] is cleared,
    {!Stats} and {!Telemetry} close the collection, and then
    {!Collector.collect} re-raises the first exception with its
    backtrace.  The heap stays consistent and the next collection
    proceeds normally.  What the raising callback itself owned is not
    repaired: root words a raising root scanner had not yet rewritten
    are stale (they point into freed from-space), and a raising weak
    scanner leaves the rest of its table unmended. *)
and callback =
  | Root_scanner of ((Word.t -> Word.t) -> unit)
      (** Called with the forwarding function; must apply it to every
          root word it owns, storing back the results. *)
  | Weak_scanner of ((Word.t -> Word.t option) -> unit)
      (** Called after the weak pass, before from-space is freed, with a
          lookup mapping an old word to its new location ([None] if
          reclaimed).  Does not keep objects alive. *)
  | After_gc of (t -> unit)
      (** Called once the collection is complete ([in_collection] is
          false again). *)

val create : ?config:Config.t -> unit -> t
val config : t -> Config.t
val stats : t -> Stats.t

val faults : t -> faults
(** The heap's fault-injection state (all zeroes unless armed). *)

val telemetry : t -> Telemetry.t
(** The heap's telemetry hub (created disabled; see {!Telemetry}). *)

val gc_epoch : t -> int
(** Bumped at the end of every collection; lets caches (e.g. address-hash
    tables) detect that objects may have moved. *)

val max_generation : t -> int

(** {1 Store access} *)

val seg_of_addr : int -> int
val off_of_addr : int -> int
val addr_of : seg:int -> off:int -> int
val load : t -> int -> Word.t
val store : t -> int -> Word.t -> unit
val info : t -> int -> seg_info
val info_of_addr : t -> int -> seg_info
val info_of_word : t -> Word.t -> seg_info

val generation_of_word : t -> Word.t -> int
(** Generation a word lives in; immediates report [max_int]. *)

val space_of_word : t -> Word.t -> Space.t

(** {1 Segments} *)

val acquire_segment : t -> space:Space.t -> generation:int -> min_words:int -> int
val release_segment : t -> int -> unit

val live_segments_of_gen : t -> int -> Vec.Int.t
(** Live segments of a generation, deduplicated and compacted in place
    (no allocation); cost is proportional to the generation, not the
    heap.  The result aliases the heap's own per-generation list and is
    valid until the next allocation into that generation. *)

(** {1 Allocation} *)

val alloc : t -> space:Space.t -> int -> int
(** Mutator allocation: raw words in generation 0.  Never collects.  The
    words are unspecified until the caller stores them (segments recycled
    from the free list are not cleared), and every word must be stored
    before the next safepoint, when a collection may scan them.
    @raise Allocation_forbidden inside finalization thunks. *)

val gc_alloc : t -> space:Space.t -> generation:int -> int -> int
(** Collector allocation into the target generation during a collection. *)

val reset_cursors : cursor array -> unit

(** {1 Remembered set (card marking)} *)

val note_mutation : t -> addr:int -> value:Word.t -> unit
(** The mutator write barrier: record that [value] was stored at [addr].
    An old-to-young store marks the card covering [addr] and remembers
    the segment; everything else falls out after one or two compares.
    Called by every pointer-field mutator in {!Obj}. *)

val note_ref : t -> addr:int -> gen:int -> unit
(** Collector-side barrier: record that the slot at [addr] references
    generation [gen], marking the covering card and keeping the segment
    summary in sync.  The slot's own write is the caller's. *)

val refresh_remembered : t -> int -> unit
(** Recompute a segment's [min_ref_gen] from its card bytes and put it
    back on the dirty list if some card still reaches into a younger
    generation.  Used after a card-granular scan. *)

val card_clean : int
(** The card byte meaning "no younger-generation references" (255). *)

val card_shift : t -> int
val card_words : t -> int
(** Effective card size in words: the next power of two >=
    [Config.card_words], capped at {!max_segment_words}. *)

val card_of_off : t -> int -> int
(** Card index covering a word offset. *)

val cards_in_use : t -> int -> int
(** Number of cards covering a segment's used words. *)

val card_min_gen : t -> seg:int -> card:int -> int
(** The card byte: youngest generation the card may reference, or
    {!card_clean}. *)

val card_object_start : t -> seg:int -> card:int -> int
(** Offset of the object covering the card's first word (crossing map). *)

val record_crossing : t -> seg:int -> off:int -> nwords:int -> unit
(** Record an [nwords]-word object at offset [off] of [seg] in the
    crossing map.  The allocator calls it for every object; a loader that
    fills a segment wholesale calls it once per object. *)

(** {1 Roots} *)

val new_cell : t -> Word.t -> int
(** Allocate a global root cell: scanned (and updated) by every
    collection. *)

val read_cell : t -> int -> Word.t
val write_cell : t -> int -> Word.t -> unit
val free_cell : t -> int -> unit

val add_callback : t -> callback -> int
(** Register a collection callback.  Returns an id for
    {!remove_callback}. *)

val remove_callback : t -> int -> unit

val iter_scanners : t -> f:(((Word.t -> Word.t) -> unit) -> unit) -> unit
(** Every root scanner: the global cells first, then each
    {!Root_scanner}. *)

val with_cell : t -> Word.t -> (int -> 'a) -> 'a
(** Scoped temporary root cell. *)

(** {1 Protected lists (guardian registrations)} *)

val protected_add :
  t -> gid:int -> obj:Word.t -> rep:Word.t -> tconc:Word.t -> unit
(** Add an entry to generation 0's protected list, as in the paper, and
    count the registration.  [gid] is the registering guardian's id
    ({!Guardian.id}). *)

val protected_push :
  protected -> gid:int -> obj:Word.t -> rep:Word.t -> tconc:Word.t -> unit
(** Append an entry to one protected list (or one of the guardian pass's
    lists), uncounted. *)

val protected_length : t -> int -> int
val protected_total : t -> int

(** {1 Introspection} *)

val live_words : t -> int
val live_segments : t -> int
