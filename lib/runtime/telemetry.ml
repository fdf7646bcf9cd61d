(** GC telemetry: a structured event stream with pluggable sinks.

    See the interface for the overview.  Design constraints:

    - {e zero cost when disabled}: every collector-side entry point
      checks [t.on] before taking a timestamp or building an event;
    - no dependency on {!Heap} (the heap owns a [Telemetry.t]), only on
      {!Stats} and {!Unix_time}, and no counters of its own: every count
      lives in {!Stats};
    - sinks are plain [event -> unit] closures, registered with ids so
      they can be detached independently. *)

(* ------------------------------------------------------------------ *)
(* Phases                                                              *)

type phase =
  | Root_scan
  | Dirty_scan
  | Cheney_copy
  | Guardian_pass
  | Ephemeron_fixpoint
  | Weak_pass
  | Segment_reclaim
  | Image_save
  | Image_load

let phase_count = 9

let all_phases =
  [
    Root_scan;
    Dirty_scan;
    Cheney_copy;
    Guardian_pass;
    Ephemeron_fixpoint;
    Weak_pass;
    Segment_reclaim;
    Image_save;
    Image_load;
  ]

let collection_phases =
  [
    Root_scan;
    Dirty_scan;
    Cheney_copy;
    Guardian_pass;
    Ephemeron_fixpoint;
    Weak_pass;
    Segment_reclaim;
  ]

let phase_index = function
  | Root_scan -> 0
  | Dirty_scan -> 1
  | Cheney_copy -> 2
  | Guardian_pass -> 3
  | Ephemeron_fixpoint -> 4
  | Weak_pass -> 5
  | Segment_reclaim -> 6
  | Image_save -> 7
  | Image_load -> 8

let phase_name = function
  | Root_scan -> "root-scan"
  | Dirty_scan -> "dirty-scan"
  | Cheney_copy -> "cheney-copy"
  | Guardian_pass -> "guardian-pass"
  | Ephemeron_fixpoint -> "ephemeron-fixpoint"
  | Weak_pass -> "weak-pass"
  | Segment_reclaim -> "segment-reclaim"
  | Image_save -> "image-save"
  | Image_load -> "image-load"

(* ------------------------------------------------------------------ *)
(* Events                                                              *)

type event =
  | Collection_begin of {
      ordinal : int;
      generation : int;
      target : int;
      at_ns : float;
    }
  | Phase_begin of { ordinal : int; phase : phase; at_ns : float }
  | Phase_end of {
      ordinal : int;
      phase : phase;
      at_ns : float;
      duration_ns : float;
      work : int;
    }
  | Collection_end of {
      ordinal : int;
      generation : int;
      target : int;
      at_ns : float;
      duration_ns : float;
      counters : Stats.counters;
      live_words : int;
    }

type sink = event -> unit

(* ------------------------------------------------------------------ *)
(* Pause-time histogram                                                *)

module Histogram = struct
  (* Bucket i counts durations d with 2^i <= d < 2^(i+1) ns; bucket 0
     also absorbs sub-nanosecond durations.  63 buckets cover every
     representable duration (2^62 ns is ~146 years). *)
  let nbuckets = 63

  type t = {
    counts : int array;
    mutable n : int;
    mutable max_ns : float;
    mutable total_ns : float;
  }

  let create () =
    { counts = Array.make nbuckets 0; n = 0; max_ns = 0.; total_ns = 0. }

  let bucket_of_ns ns =
    let d = int_of_float ns in
    if d < 2 then 0
    else begin
      let rec lg v acc = if v < 2 then acc else lg (v lsr 1) (acc + 1) in
      min (nbuckets - 1) (lg d 0)
    end

  let lower i = if i = 0 then 0. else Float.pow 2. (float_of_int i)
  let upper i = Float.pow 2. (float_of_int (i + 1))

  let add t ns =
    let ns = Float.max ns 0. in
    t.counts.(bucket_of_ns ns) <- t.counts.(bucket_of_ns ns) + 1;
    t.n <- t.n + 1;
    if ns > t.max_ns then t.max_ns <- ns;
    t.total_ns <- t.total_ns +. ns

  let count t = t.n
  let max_ns t = t.max_ns
  let total_ns t = t.total_ns

  let percentile t p =
    if t.n = 0 then 0.
    else begin
      let rank = Float.max 1. (Float.round (p /. 100. *. float_of_int t.n)) in
      let cum = ref 0 and result = ref t.max_ns and found = ref false in
      for i = 0 to nbuckets - 1 do
        if not !found then begin
          cum := !cum + t.counts.(i);
          if float_of_int !cum >= rank then begin
            found := true;
            result := Float.min (upper i) t.max_ns
          end
        end
      done;
      !result
    end

  let buckets t = Array.init nbuckets (fun i -> (lower i, upper i, t.counts.(i)))

  let nonempty_buckets t =
    Array.to_list (buckets t) |> List.filter (fun (_, _, c) -> c > 0)
end

(* ------------------------------------------------------------------ *)
(* The hub                                                             *)

type t = {
  mutable on : bool;
  mutable sinks : (int * sink) list;
  mutable next_sink_id : int;
  (* In-flight collection state.  The collector brackets one collection at
     a time (collections never nest), so scalar state suffices. *)
  mutable cur_ordinal : int;
  mutable cur_generation : int;
  mutable cur_target : int;
  mutable cur_begin_ns : float;
  phase_begin_ns : float array;
  phase_last_ns : float array;
  phase_last_work : int array;
  phase_total_ns : float array;
  phase_total_work : int array;
  mutable collections_seen : int;
  pauses : Histogram.t;
}

type telemetry = t

let create () =
  {
    on = false;
    sinks = [];
    next_sink_id = 0;
    cur_ordinal = 0;
    cur_generation = 0;
    cur_target = 0;
    cur_begin_ns = 0.;
    phase_begin_ns = Array.make phase_count 0.;
    phase_last_ns = Array.make phase_count 0.;
    phase_last_work = Array.make phase_count 0;
    phase_total_ns = Array.make phase_count 0.;
    phase_total_work = Array.make phase_count 0;
    collections_seen = 0;
    pauses = Histogram.create ();
  }

let set_enabled t b = t.on <- b
let enabled t = t.on

let add_sink t sink =
  let id = t.next_sink_id in
  t.next_sink_id <- id + 1;
  t.sinks <- t.sinks @ [ (id, sink) ];
  id

let remove_sink t id = t.sinks <- List.filter (fun (i, _) -> i <> id) t.sinks

let emit t ev = List.iter (fun (_, sink) -> sink ev) t.sinks

let collection_begin t ~ordinal ~generation ~target =
  if t.on then begin
    let now = Unix_time.now_ns () in
    t.cur_ordinal <- ordinal;
    t.cur_generation <- generation;
    t.cur_target <- target;
    t.cur_begin_ns <- now;
    Array.fill t.phase_last_ns 0 phase_count 0.;
    Array.fill t.phase_last_work 0 phase_count 0;
    emit t (Collection_begin { ordinal; generation; target; at_ns = now })
  end

let phase_begin t phase =
  if t.on then begin
    let now = Unix_time.now_ns () in
    t.phase_begin_ns.(phase_index phase) <- now;
    emit t (Phase_begin { ordinal = t.cur_ordinal; phase; at_ns = now })
  end

let phase_end t phase ~work =
  if t.on then begin
    let now = Unix_time.now_ns () in
    let i = phase_index phase in
    let duration_ns = Float.max 0. (now -. t.phase_begin_ns.(i)) in
    t.phase_last_ns.(i) <- duration_ns;
    t.phase_last_work.(i) <- work;
    t.phase_total_ns.(i) <- t.phase_total_ns.(i) +. duration_ns;
    t.phase_total_work.(i) <- t.phase_total_work.(i) + work;
    emit t
      (Phase_end { ordinal = t.cur_ordinal; phase; at_ns = now; duration_ns; work })
  end

let collection_end t ~counters ~live_words =
  if t.on then begin
    let now = Unix_time.now_ns () in
    let duration_ns = Float.max 0. (now -. t.cur_begin_ns) in
    t.collections_seen <- t.collections_seen + 1;
    Histogram.add t.pauses duration_ns;
    emit t
      (Collection_end
         {
           ordinal = t.cur_ordinal;
           generation = t.cur_generation;
           target = t.cur_target;
           at_ns = now;
           duration_ns;
           counters;
           live_words;
         })
  end

let collections_seen t = t.collections_seen
let phase_ns_last t phase = t.phase_last_ns.(phase_index phase)
let phase_work_last t phase = t.phase_last_work.(phase_index phase)
let phase_ns_total t phase = t.phase_total_ns.(phase_index phase)
let phase_work_total t phase = t.phase_total_work.(phase_index phase)
let pause_histogram t = t.pauses

(* ------------------------------------------------------------------ *)
(* Ring sink                                                           *)

module Ring = struct
  type record = {
    ordinal : int;
    generation : int;
    target : int;
    duration_ns : float;
    phase_ns : float array;
    phase_work : int array;
    counters : Stats.counters;
    live_words_after : int;
  }

  type t = {
    tel : telemetry;
    ring : record option array;
    mutable next : int;
    mutable total : int;
    sink_id : int;
  }

  let attach ?(capacity = 64) tel =
    if capacity <= 0 then invalid_arg "Telemetry.Ring.attach: capacity";
    let r_ref = ref None in
    let sink_id =
      add_sink tel (function
        | Collection_end { ordinal; generation; target; duration_ns; counters; live_words; _ }
          -> (
            match !r_ref with
            | None -> ()
            | Some r ->
                let rec_ =
                  {
                    ordinal;
                    generation;
                    target;
                    duration_ns;
                    phase_ns = Array.copy tel.phase_last_ns;
                    phase_work = Array.copy tel.phase_last_work;
                    counters;
                    live_words_after = live_words;
                  }
                in
                r.ring.(r.next) <- Some rec_;
                r.next <- (r.next + 1) mod Array.length r.ring;
                r.total <- r.total + 1)
        | _ -> ())
    in
    let r =
      { tel; ring = Array.make capacity None; next = 0; total = 0; sink_id }
    in
    r_ref := Some r;
    r

  let detach r = remove_sink r.tel r.sink_id

  let records r =
    let n = Array.length r.ring in
    let out = ref [] in
    (* Slot [next + i] holds the (i+1)-th oldest retained record; walking i
       downward and prepending yields oldest-first. *)
    for i = n - 1 downto 0 do
      match r.ring.((r.next + i) mod n) with
      | Some rc -> out := rc :: !out
      | None -> ()
    done;
    !out

  let total_recorded r = r.total

  let pp_record ppf r =
    Format.fprintf ppf
      "#%d: gen %d->%d %.1fus, copied %d words (%d objects), guardian \
       entries %d, resurrected %d, weak broken %d, ephemerons broken %d, \
       live %d"
      r.ordinal r.generation r.target (r.duration_ns /. 1e3)
      r.counters.Stats.words_copied r.counters.Stats.objects_copied
      r.counters.Stats.protected_entries_visited
      r.counters.Stats.guardian_resurrections
      r.counters.Stats.weak_pointers_broken r.counters.Stats.ephemerons_broken
      r.live_words_after
end

(* ------------------------------------------------------------------ *)
(* Human log sink                                                      *)

module Log = struct
  let attach tel stats ppf =
    add_sink tel (function
      | Collection_end
          { ordinal; generation; target; duration_ns; counters; live_words; _ } ->
          Format.fprintf ppf "[gc #%d] gen %d->%d %.1fus |" ordinal generation
            target (duration_ns /. 1e3);
          List.iter
            (fun ph ->
              Format.fprintf ppf " %s %.1fus/%dw" (phase_name ph)
                (phase_ns_last tel ph /. 1e3)
                (phase_work_last tel ph))
            all_phases;
          Format.fprintf ppf
            " | cards %d/%dsegs barrier %d/%d (%.1f%%) | copied %dw/%do \
             resurrected %d live %dw@."
            counters.Stats.cards_scanned counters.Stats.dirty_segments_scanned
            stats.Stats.barrier_hits stats.Stats.barrier_calls
            (100.0 *. float_of_int stats.Stats.barrier_hits
            /. float_of_int (max 1 stats.Stats.barrier_calls))
            counters.Stats.words_copied counters.Stats.objects_copied
            counters.Stats.guardian_resurrections live_words
      | _ -> ())
end

(* ------------------------------------------------------------------ *)
(* Chrome trace_event sink                                             *)

module Chrome = struct
  type t = {
    tel : telemetry;
    oc : out_channel;
    mutable first : bool;
    mutable t0_ns : float;  (** nan until the first event fixes the origin *)
    mutable sink_id : int;
    mutable closed : bool;
  }

  let escape s =
    let b = Buffer.create (String.length s) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | c when Char.code c < 0x20 ->
            Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b

  (* One trace_event object.  [args] values must already be JSON
     fragments (numbers here). *)
  let write_event w ~name ~ph ~at_ns args =
    if Float.is_nan w.t0_ns then w.t0_ns <- at_ns;
    let ts_us = (at_ns -. w.t0_ns) /. 1e3 in
    if w.first then w.first <- false else output_string w.oc ",\n";
    Printf.fprintf w.oc
      "{\"name\":\"%s\",\"cat\":\"gc\",\"ph\":\"%s\",\"ts\":%.3f,\"pid\":1,\"tid\":1"
      (escape name) ph ts_us;
    (match args with
    | [] -> ()
    | args ->
        output_string w.oc ",\"args\":{";
        List.iteri
          (fun i (k, v) ->
            if i > 0 then output_string w.oc ",";
            Printf.fprintf w.oc "\"%s\":%s" (escape k) v)
          args;
        output_string w.oc "}");
    output_string w.oc "}"

  let attach tel oc =
    let w =
      { tel; oc; first = true; t0_ns = Float.nan; sink_id = -1; closed = false }
    in
    output_string oc "[\n";
    let sink = function
      | Collection_begin { ordinal; generation; target; at_ns } ->
          write_event w ~name:"collection" ~ph:"B" ~at_ns
            [
              ("ordinal", string_of_int ordinal);
              ("generation", string_of_int generation);
              ("target", string_of_int target);
            ]
      | Phase_begin { phase; at_ns; _ } ->
          write_event w ~name:(phase_name phase) ~ph:"B" ~at_ns []
      | Phase_end { phase; at_ns; work; _ } ->
          write_event w ~name:(phase_name phase) ~ph:"E" ~at_ns
            [ ("work", string_of_int work) ]
      | Collection_end { at_ns; counters; live_words; _ } ->
          write_event w ~name:"collection" ~ph:"E" ~at_ns
            (List.map (fun (name, get, _) -> (name, string_of_int (get counters))) Stats.fields
            @ [ ("live_words", string_of_int live_words) ])
    in
    w.sink_id <- add_sink tel sink;
    w

  let close w =
    if not w.closed then begin
      w.closed <- true;
      remove_sink w.tel w.sink_id;
      output_string w.oc "\n]\n";
      flush w.oc
    end
end
