(** GC telemetry: a structured event stream with pluggable sinks.

    The collector emits typed begin/end events for every phase of a
    collection, each stamped with monotonic wall-clock time
    ({!Unix_time.now_ns}) and the work counter the phase is responsible
    for.  Sinks subscribe to the stream; three are provided here: an
    in-memory ring of per-collection records ({!Ring}, superseding the old
    [Trace] module), a human one-line-per-collection pretty-printer
    ({!Log}), and a Chrome [trace_event]-format JSON writer ({!Chrome})
    that [about://tracing] / Perfetto can open directly.

    The stream is {e zero cost when disabled}: every instrumentation entry
    point checks a single boolean before taking any timestamp or touching
    any sink.  Telemetry keeps clocks and events only; every count
    (per-collection, lifetime, per-guardian, image I/O) lives in
    {!Stats}. *)

(** {1 Phases} *)

(** The phases of one collection, in the order the collector runs them
    (the guardian/weak order swaps under the D2 ablation). *)
type phase =
  | Root_scan  (** forwarding the registered roots *)
  | Dirty_scan  (** sweeping the remembered set *)
  | Cheney_copy  (** the first kleene sweep to a fixpoint *)
  | Guardian_pass
      (** the pend-hold / pend-final partition and kleene re-sweeps *)
  | Ephemeron_fixpoint  (** breaking ephemerons with unreachable keys *)
  | Weak_pass  (** mending or breaking weak-pair cars *)
  | Segment_reclaim
      (** weak-scanner notification, dirty-list rebuild, freeing from-space *)
  | Image_save  (** serializing the heap to a [gbc-image/1] byte string *)
  | Image_load
      (** rebuilding a heap from an image: copy, parse, re-verify *)

val phase_count : int
val all_phases : phase list

val collection_phases : phase list
(** The phases every collection runs, in order — {!all_phases} without
    the image phases, which fire only on explicit checkpoint/restore. *)

val phase_index : phase -> int
val phase_name : phase -> string

(** {1 Events} *)

type event =
  | Collection_begin of {
      ordinal : int;  (** 1-based lifetime collection number *)
      generation : int;  (** oldest generation collected *)
      target : int;
      at_ns : float;
    }
  | Phase_begin of { ordinal : int; phase : phase; at_ns : float }
  | Phase_end of {
      ordinal : int;
      phase : phase;
      at_ns : float;
      duration_ns : float;
      work : int;  (** phase-specific work counter delta *)
    }
  | Collection_end of {
      ordinal : int;
      generation : int;
      target : int;
      at_ns : float;
      duration_ns : float;
      counters : Stats.counters;
          (** the collection's own [last] record, frozen once the
              collection ends *)
      live_words : int;
    }

type sink = event -> unit

(** {1 Pause-time histogram} *)

module Histogram : sig
  (** Log2-scaled pause-time histogram: bucket [i] counts durations in
      [\[2{^i}, 2{^i+1}) ns] (bucket 0 also absorbs sub-nanosecond
      durations). *)

  type t

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int
  val max_ns : t -> float
  val total_ns : t -> float

  val percentile : t -> float -> float
  (** [percentile t p] for [p] in [0..100]: an upper-bound estimate (the
      top of the bucket holding the p-th percentile, clamped to the
      observed maximum).  0 when empty. *)

  val buckets : t -> (float * float * int) array
  (** All buckets as [(lo, hi, count)], lo inclusive, hi exclusive,
      in increasing order. *)

  val nonempty_buckets : t -> (float * float * int) list
end

(** {1 The telemetry hub} *)

type t

type telemetry = t
(** Alias so submodules below can name the hub type. *)

val create : unit -> t
(** Created disabled: instrumentation entry points are no-ops until
    {!set_enabled}. *)

val set_enabled : t -> bool -> unit
val enabled : t -> bool

val add_sink : t -> sink -> int
(** Returns an id for {!remove_sink}.  Sinks only see events while the
    hub is enabled. *)

val remove_sink : t -> int -> unit

(** {2 Collector-side instrumentation}

    All no-ops while disabled.  One collection is bracketed by
    {!collection_begin} / {!collection_end}; each phase by
    {!phase_begin} / {!phase_end}, strictly nested and non-overlapping. *)

val collection_begin : t -> ordinal:int -> generation:int -> target:int -> unit
val phase_begin : t -> phase -> unit
val phase_end : t -> phase -> work:int -> unit

val collection_end : t -> counters:Stats.counters -> live_words:int -> unit
(** [counters] must not change afterwards (the collection's [last]
    record qualifies): sinks may retain it. *)

(** {2 Accumulated results} *)

val collections_seen : t -> int
val phase_ns_last : t -> phase -> float
val phase_work_last : t -> phase -> int
val phase_ns_total : t -> phase -> float
val phase_work_total : t -> phase -> int

val pause_histogram : t -> Histogram.t
(** Full-collection pause times, accumulated while enabled. *)

(** {1 Sinks} *)

module Ring : sig
  (** Bounded ring of per-collection records (most recent [capacity]). *)

  type record = {
    ordinal : int;
    generation : int;
    target : int;
    duration_ns : float;
    phase_ns : float array;  (** indexed by {!phase_index} *)
    phase_work : int array;
    counters : Stats.counters;
    live_words_after : int;
  }

  type t

  val attach : ?capacity:int -> telemetry -> t
  (** Default capacity 64.  The ring fills only while the hub is
      enabled. *)

  val detach : t -> unit
  val records : t -> record list  (** oldest first *)

  val total_recorded : t -> int
  val pp_record : Format.formatter -> record -> unit
end

module Log : sig
  val attach : telemetry -> Stats.t -> Format.formatter -> int
  (** One human-readable line per collection on the given formatter,
      with the session's write-barrier counters read from the given
      registry; returns the sink id (detach with {!remove_sink}). *)
end

module Chrome : sig
  (** Chrome [trace_event] JSON writer: a top-level array of [B]/[E]
      event objects with microsecond timestamps, suitable for
      [about://tracing] and Perfetto.  Hand-rolled JSON, no
      dependencies.  A collection's closing event carries every
      {!Stats.fields} counter of that collection, under its canonical
      name, plus [live_words]. *)

  type t

  val attach : telemetry -> out_channel -> t
  (** Writes the opening bracket immediately; events stream as they
      happen.  Timestamps are relative to the first event seen. *)

  val close : t -> unit
  (** Removes the sink, writes the closing bracket and flushes.  The
      channel itself is left open for the caller to close. *)
end
