(** Work counters: the heap's one counter registry.

    The paper's claims are complexity claims ("overhead proportional to the
    work already done", "proportional to the number of clean-up actions
    actually performed"), so the collector and the guardian machinery count
    the work they do.  Every count the runtime keeps lives here: the
    per-collection record, the lifetime totals, the session counters, the
    per-guardian rows that break the guardian totals down, and the image
    I/O counters.  {!Telemetry} keeps clocks and events only. *)

type counters = {
  mutable collections : int;
  mutable objects_copied : int;
  mutable words_copied : int;
  mutable words_swept : int;  (** words examined during Cheney scans *)
  mutable root_words : int;
  mutable dirty_segments_scanned : int;
  mutable cards_scanned : int;
      (** dirty cards visited by the card-granular dirty scan *)
  mutable card_words_swept : int;
      (** words examined inside dirty cards — the actual dirty-scan work *)
  mutable dirty_candidate_words : int;
      (** used words of the dirty segments scanned — what a
          segment-granular scan would have examined; the
          [card_words_swept / dirty_candidate_words] ratio is the card
          table's win *)
  mutable guardian_pend_checks : int;
      (** tconc accessibility checks performed by the guardian fixpoint;
          O(1) amortized per pend-final entry with the worklist *)
  mutable protected_entries_visited : int;
      (** entries of protected lists of the collected generations — the
          guardian-specific collector overhead claimed to be proportional
          to work already done *)
  mutable guardian_resurrections : int;
      (** inaccessible registered objects saved and queued *)
  mutable guardian_entries_promoted : int;
  mutable guardian_entries_dropped : int;  (** entries whose guardian died *)
  mutable weak_pairs_scanned : int;
  mutable weak_pointers_broken : int;
  mutable ephemerons_scanned : int;
  mutable ephemerons_broken : int;
  mutable segments_freed : int;  (** segments released by collections *)
  mutable segments_allocated : int;  (** segments acquired by collections *)
}

val zero : unit -> counters

val fields : (string * (counters -> int) * (counters -> int -> unit)) list
(** Every {!counters} field as (canonical name, getter, setter), in
    declaration order.  Renderers and aggregators iterate this table
    rather than naming fields. *)

val add : into:counters -> counters -> unit
(** Field-wise [into <- into + c]. *)

val pp_counters : Format.formatter -> counters -> unit
(** One ["name value"] line per field of {!fields}. *)

(** Lifecycle counts of one guardian.  The sums over all guardians equal
    the heap-wide counters they break down ([registrations],
    [guardian_polls], [guardian_hits], and [total]'s resurrections and
    drops). *)
type guardian = {
  gid : int;
  mutable g_registrations : int;
  mutable g_resurrections : int;  (** entries saved and queued *)
  mutable g_drops : int;  (** entries dropped because the guardian died *)
  mutable g_polls : int;  (** mutator retrieve calls *)
  mutable g_hits : int;  (** polls that returned an object *)
  mutable g_latency_sum : int;
      (** total collections elapsed between each hit's resurrection and
          its retrieval — the finalization-lag metric *)
  mutable g_latency_max : int;
  g_pending_epochs : Vec.Int.t;
      (** resurrection epochs of queued-but-not-yet-retrieved entries,
          oldest at [g_pending_head]; FIFO, mirroring the guardian's
          tconc *)
  mutable g_pending_head : int;
}

val pending_epochs : guardian -> int
(** Length of the guardian's pending-epoch FIFO. *)

type t = {
  mutable last : counters;
      (** the most recent collection's record; a fresh record per
          collection, never written once that collection ends *)
  total : counters;  (** lifetime totals *)
  mutable words_allocated : int;  (** mutator allocation, lifetime *)
  mutable words_allocated_since_gc : int;
  mutable guardian_polls : int;  (** mutator guardian invocations *)
  mutable guardian_hits : int;  (** polls that returned an object *)
  mutable registrations : int;
  mutable tconc_enqueues : int;  (** cells appended (collector and mutator) *)
  mutable tconc_dequeues : int;  (** mutator removals that yielded an element *)
  mutable barrier_calls : int;
      (** {!Heap.note_mutation} invocations; session-level because they
          count mutator activity between collections *)
  mutable barrier_hits : int;  (** calls that stored an old-to-young pointer *)
  mutable cards_dirtied : int;  (** cards taken from clean to dirty *)
  mutable image_saves : int;
  mutable image_loads : int;
  mutable image_bytes_written : int;  (** image bytes produced by saves *)
  mutable image_bytes_read : int;  (** image bytes consumed by loads *)
  mutable image_words_written : int;  (** live heap words serialized *)
  mutable image_words_read : int;  (** heap words rebuilt by loads *)
  mutable guardians : guardian array;
      (** per-guardian rows, indexed by gid; [0 .. nguardians - 1] are live *)
  mutable nguardians : int;
}

val create : unit -> t

val begin_collection : t -> unit
(** Start a fresh [last] record. *)

val end_collection : t -> unit
(** Fold [last] into [total]. *)

(** {1 Guardian rows}

    Guardians are identified by a small integer id allocated by
    {!new_guardian} and stored inside the guardian heap object itself, so
    the id survives copying collections. *)

val new_guardian : t -> int
val guardian_count : t -> int

val guardian : t -> int -> guardian
(** @raise Invalid_argument on an id never returned by {!new_guardian}. *)

val restore_guardian_count : t -> int -> unit
(** [restore_guardian_count t n] re-creates the guardian-id space of a
    restored heap image: after it, ids [0 .. n-1] resolve in {!guardian}
    (existing rows are kept). *)

(** {1 Events}

    Each bumps the heap-wide counter and, for guardian events, the
    guardian's row, so the two never disagree. *)

val count_registration : t -> gid:int -> unit
val count_poll : t -> gid:int -> hit:bool -> epoch:int -> unit

val count_resurrection : t -> gid:int -> epoch:int -> unit
(** During a collection.  [epoch] is the heap's gc-epoch {e after} the
    resurrecting collection, so an immediate retrieval reads as latency
    0. *)

val count_drop : t -> gid:int -> unit
(** During a collection: an entry dropped because its guardian died.  The
    guardian's pending-epoch FIFO is emptied and its storage released:
    the objects still queued died with its tconc. *)

val count_image_save : t -> bytes:int -> words:int -> unit
val count_image_load : t -> bytes:int -> words:int -> unit
