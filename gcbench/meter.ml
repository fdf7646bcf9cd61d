(* State one benchmark run shares across its workload: the collect-request
   handler that times every collection, the simulated-heap footprint
   high-water mark, the exact work counters summed over every heap the
   run touched, and the bridge from collector phase events to spans. *)

open Gbc_runtime
open Util

let pauses = Samples.create ()  (* seconds, timed region only *)
let major_collections = ref 0
let timing = ref false  (* inside the timed region *)
let peak_heap_words = ref 0

(* Heaps whose footprint counts toward [peak_heap_words]; the workload
   keeps this current. *)
let tracked : Heap.t list ref = ref []

let footprint () =
  List.fold_left
    (fun acc h -> acc + (Heap.live_segments h * (Heap.config h).Config.segment_words))
    0 !tracked

let sample_peak () =
  if !timing then peak_heap_words := max !peak_heap_words (footprint ())

(* The benchmark's collect-request handler: the same [collect_auto] call
   the default path makes, timed from outside. *)
let handler h =
  sample_peak ();
  let sp = Spans.enter "collector.collect" in
  let t0 = now () in
  let o = Runtime.collect_auto h in
  let t1 = now () in
  Spans.leave_at sp t1;
  if !timing then begin
    Samples.add pauses (t1 -. t0);
    if o.Collector.generation > 0 then incr major_collections
  end

(* Collector phases reach the trace through the public telemetry sink
   API.  OCaml-level heaps run with telemetry off; the traced slices turn
   it on.  Image phases are left out: the image spans time those calls
   from outside. *)
let watched : (Heap.t * bool) list ref = ref []

let phase_sink = function
  | Telemetry.Phase_begin { phase; at_ns; _ }
    when Spans.enabled () && List.mem phase Telemetry.collection_phases ->
      ignore (Spans.enter_at (Telemetry.phase_name phase) (at_ns /. 1e9))
  | Telemetry.Phase_end { phase; at_ns; _ }
    when Spans.enabled () && List.mem phase Telemetry.collection_phases ->
      Spans.leave_innermost_at (at_ns /. 1e9)
  | _ -> ()

(* Install the handler on [h] and, when the run is traced, the phase
   bridge. *)
let adopt ~traced h =
  Runtime.set_collect_request_handler h (Some handler);
  if traced then begin
    let tel = Heap.telemetry h in
    ignore (Telemetry.add_sink tel phase_sink);
    watched := (h, Telemetry.enabled tel) :: !watched;
    if Spans.enabled () then Telemetry.set_enabled tel true
  end

(* Forget a heap the workload has dropped. *)
let release h = watched := List.filter (fun (h', _) -> h' != h) !watched

let set_traced b =
  Spans.set_enabled b;
  List.iter (fun (h, base) -> Telemetry.set_enabled (Heap.telemetry h) (base || b)) !watched

(* --- exact work counters --------------------------------------------- *)

(* Every [Stats] work counter, lifetime totals.  Deterministic for a
   given seed and op count. *)
let counter_names =
  [|
    "collections"; "objects_copied"; "words_copied"; "words_swept"; "root_words";
    "dirty_segments_scanned"; "cards_scanned"; "card_words_swept"; "dirty_candidate_words";
    "guardian_pend_checks"; "protected_entries_visited"; "guardian_resurrections";
    "guardian_entries_promoted"; "guardian_entries_dropped"; "weak_pairs_scanned";
    "weak_pointers_broken"; "ephemerons_scanned"; "ephemerons_broken"; "segments_freed";
    "segments_allocated"; "words_allocated"; "guardian_polls"; "guardian_hits"; "registrations";
    "tconc_enqueues"; "tconc_dequeues"; "barrier_calls"; "barrier_hits"; "cards_dirtied";
  |]

let ix name =
  let rec go i = if counter_names.(i) = name then i else go (i + 1) in
  go 0

let of_heap h =
  let s = Heap.stats h in
  let c = s.Stats.total in
  Stats.
    [|
      c.collections; c.objects_copied; c.words_copied; c.words_swept; c.root_words;
      c.dirty_segments_scanned; c.cards_scanned; c.card_words_swept; c.dirty_candidate_words;
      c.guardian_pend_checks; c.protected_entries_visited; c.guardian_resurrections;
      c.guardian_entries_promoted; c.guardian_entries_dropped; c.weak_pairs_scanned;
      c.weak_pointers_broken; c.ephemerons_scanned; c.ephemerons_broken; c.segments_freed;
      c.segments_allocated; s.words_allocated; s.guardian_polls; s.guardian_hits; s.registrations;
      s.tconc_enqueues; s.tconc_dequeues; s.barrier_calls; s.barrier_hits; s.cards_dirtied;
    |]

(* Counters of heaps already dropped (image-restart disposes one restored
   heap per op). *)
let retired = Array.make (Array.length counter_names) 0

let retire h = Array.iteri (fun i v -> retired.(i) <- retired.(i) + v) (of_heap h)

let snapshot () =
  let acc = Array.copy retired in
  List.iter (fun h -> Array.iteri (fun i v -> acc.(i) <- acc.(i) + v) (of_heap h)) !tracked;
  acc

let diff a b = Array.mapi (fun i v -> v - b.(i)) a
