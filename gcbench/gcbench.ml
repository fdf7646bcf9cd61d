(* The repo benchmark: one seeded workload per process, a closed loop
   timed for [--seconds], every op checked against an oracle outside the
   system under test.

     gcbench --workload NAME --seed N --seconds S --trace 0|1
             [--ops N] [--exact-out FILE]

   [--ops] runs a fixed number of ops instead of [--seconds], and
   [--exact-out] writes the exact counters; the determinism self-test
   uses both.

   The last stdout line is one JSON object: correct, attempted, failed and
   metrics -- the end-to-end metrics with [--trace 0], the per-layer ones
   with [--trace 1].  Lines before it are a human-readable report, each
   starting with "#".  See README.md beside this file. *)

open Gbc_runtime
open Util

let workloads = [ Wl_scheme.workload; Wl_churn.workload; Wl_image.workload ]

let usage () =
  prerr_endline
    "usage: gcbench --workload (scheme-compute|guardian-churn|image-restart) \
     --seed N --seconds S --trace 0|1 [--ops N] [--exact-out FILE]";
  exit 2

type opts = {
  workload : Workload.t;
  seed : int;
  seconds : float;
  trace : bool;
  max_ops : int;  (* 0 = run for [seconds] *)
  exact_out : string option;
}

(* Set-up runs this many times per run; [setup_s] is the median. *)
let setup_reps = 9

let parse argv =
  let int_arg s = match int_of_string_opt s with Some n when n >= 0 -> n | _ -> usage () in
  let rec go w seed secs trace ops eout = function
    | [] -> (
        match (w, seed, secs, trace) with
        | Some workload, Some seed, Some s, Some trace when s > 0 ->
            { workload; seed; seconds = float s; trace; max_ops = ops; exact_out = eout }
        | _ -> usage ())
    | "--workload" :: n :: rest -> (
        match List.find_opt (fun (w : Workload.t) -> w.name = n) workloads with
        | Some w -> go (Some w) seed secs trace ops eout rest
        | None -> usage ())
    | "--seed" :: n :: rest -> go w (Some (int_arg n)) secs trace ops eout rest
    | "--seconds" :: n :: rest -> go w seed (Some (int_arg n)) trace ops eout rest
    | "--trace" :: ("0" | "1" as t) :: rest -> go w seed secs (Some (t = "1")) ops eout rest
    | "--ops" :: n :: rest -> go w seed secs trace (int_arg n) eout rest
    | "--exact-out" :: f :: rest -> go w seed secs trace ops (Some f) rest
    | _ -> usage ()
  in
  go None None None None 0 None (List.tl (Array.to_list argv))

(* The timed region runs in slices: one-second windows, or in the traced
   run alternating half-second untraced and traced slices. *)
let slice_seconds trace = if trace then 0.5 else 1.0

type phase_acc = {
  mutable ops : int;
  mutable secs : float;
  mutable counters : int array;  (* traced slices only *)
  mutable wcounters : (string * int) list;
  mutable major : int;
}

let () =
  let o = parse Sys.argv in
  let w = o.workload in
  Printf.printf "# gcbench workload=%s seed=%d seconds=%g trace=%d profile=%s ocaml=%s nproc=%d\n"
    w.Workload.name o.seed o.seconds (Bool.to_int o.trace) Build_info.profile Sys.ocaml_version
    (Domain.recommended_domain_count ());
  (* Set-up, several times; the last instance is the one measured. *)
  let setup_times = Array.make setup_reps 0. in
  let inst = ref None in
  for r = 0 to setup_reps - 1 do
    inst := None;
    Meter.watched := [];
    Meter.tracked := [];
    Gc.full_major ();
    let traced = o.trace && r = setup_reps - 1 in
    if traced then Meter.set_traced true;
    let t0 = now () in
    inst := Some (w.setup ~seed:o.seed ~traced:o.trace);
    setup_times.(r) <- now () -. t0;
    if traced then Meter.set_traced false
  done;
  let inst = Option.get !inst in
  let setup_spans = Spans.totals () in
  let timed_from = Spans.n () in
  (* The timed region. *)
  let c0 = Meter.snapshot () in
  let wc0 = inst.counters () in
  let untraced = { ops = 0; secs = 0.; counters = [||]; wcounters = []; major = 0 } in
  let traced =
    { ops = 0; secs = 0.; counters = Array.map (fun _ -> 0) c0; wcounters = []; major = 0 }
  in
  let attempted = ref 0 in
  let windows = Samples.create () in
  Meter.timing := true;
  let t_start = now () in
  let deadline = t_start +. o.seconds in
  let running () = if o.max_ops > 0 then !attempted < o.max_ops else now () < deadline in
  let slice = ref 0 in
  while running () do
    let on = o.trace && !slice land 1 = 1 in
    let acc = if on then traced else untraced in
    let s0 = now () in
    let slice_end = s0 +. slice_seconds o.trace in
    let cs = Meter.snapshot () and ws = inst.counters () and ms = !Meter.major_collections in
    if on then Meter.set_traced true;
    let n = ref 0 in
    while running () && now () < slice_end do
      let k = inst.batch () in
      n := !n + k;
      attempted := !attempted + k
    done;
    if on then begin
      Meter.set_traced false;
      let d = Meter.diff (Meter.snapshot ()) cs in
      acc.counters <- Array.mapi (fun i v -> v + d.(i)) acc.counters;
      acc.wcounters <-
        List.map
          (fun (k, v) ->
            let prev = Option.value (List.assoc_opt k acc.wcounters) ~default:0 in
            (k, prev + v - List.assoc k ws))
          (inst.counters ());
      acc.major <- acc.major + (!Meter.major_collections - ms)
    end;
    let dt = now () -. s0 in
    acc.ops <- acc.ops + !n;
    acc.secs <- acc.secs +. dt;
    if not on then Samples.add windows (float !n /. dt);
    incr slice
  done;
  let elapsed = now () -. t_start in
  Meter.peak_heap_words := max !Meter.peak_heap_words (Meter.footprint ());
  Meter.timing := false;
  (* Exact counters over the timed region. *)
  let c = Meter.diff (Meter.snapshot ()) c0 in
  let wc = List.map (fun (k, v) -> (k, v - List.assoc k wc0)) (inst.counters ()) in
  let ops_failed = !Workload.failed in
  (* Oracles and heap verification, outside the timed region. *)
  let checks = inst.finish () in
  let checks =
    checks
    @ List.mapi
        (fun i h -> (Printf.sprintf "Verify.verify heap %d = []" i, Verify.verify h = []))
        !Meter.tracked
  in
  List.iter
    (fun (name, ok) -> Printf.printf "# check %-48s %s\n" name (if ok then "ok" else "FAILED"))
    checks;
  let failed = !Workload.failed + List.length (List.filter (fun (_, ok) -> not ok) checks) in
  let correct = failed = 0 in
  if !Workload.failed > ops_failed then
    Printf.printf "# %d end-of-run oracle failures\n" (!Workload.failed - ops_failed);
  (* End-to-end metrics. *)
  let pauses = Samples.to_array Meter.pauses in
  let us p = 1e6 *. percentile pauses p in
  let e2e =
    [
      ("setup_s", median setup_times, "s");
      ("ops_per_s", median (Samples.to_array windows), "1/s");
      ("pause_p50_us", us 50., "us");
      ("pause_p95_us", us 95., "us");
      ("peak_heap_words", float !Meter.peak_heap_words, "words");
      ("peak_rss_mb", peak_rss_mb (), "MB");
    ]
  in
  let report = inst.report () in
  Printf.printf "# attempted=%d failed=%d elapsed_s=%.3f collections=%d setup_s=[%s]\n"
    !attempted failed elapsed (Array.length pauses)
    (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.4f") setup_times)));
  Printf.printf "# ops_per_s by window: %s\n"
    (String.concat " "
       (List.map (Printf.sprintf "%.0f") (Array.to_list (Samples.to_array windows))));
  List.iter (fun (k, v, u) -> Printf.printf "# end_to_end %-22s %16.6f %s\n" k v u) e2e;
  List.iter
    (fun (m : Workload.metric) ->
      Printf.printf "# end_to_end %-22s %16.6f %s\n" m.name m.value m.unit)
    report;
  Printf.printf "# end_to_end %-22s %16.6f %s\n" "failed_ratio"
    (float failed /. float (max 1 !attempted))
    "ratio";
  let exact =
    [ ("ops", !attempted); ("peak_heap_words", !Meter.peak_heap_words) ]
    @ Array.to_list (Array.mapi (fun i k -> (k, c.(i))) Meter.counter_names)
    @ wc
    @ List.filter_map
        (fun (m : Workload.metric) -> if m.exact then Some (m.name, int_of_float m.value) else None)
        report
  in
  Option.iter
    (fun path ->
      let oc = open_out path in
      output_string oc (json_obj (List.map (fun (k, v) -> (k, string_of_int v)) exact));
      output_string oc "\n";
      close_out oc)
    o.exact_out;
  let metrics =
    if not o.trace then e2e
    else begin
      (* Per-layer metrics, from the traced slices. *)
      let spans = Spans.totals ~from:timed_from () in
      let span tbl k =
        Option.value (Hashtbl.find_opt tbl k)
          ~default:{ Spans.spans = 0; calls = 0; incl = 0.; self = 0. }
      in
      let incl k = (span spans k).Spans.incl in
      let self k = (span spans k).Spans.self in
      let calls k = float (span spans k).Spans.calls in
      let d k = float traced.counters.(Meter.ix k) in
      let wd k = float (Option.value (List.assoc_opt k traced.wcounters) ~default:0) in
      let lay = inst.layer () in
      let l k = Option.value (List.assoc_opt k lay) ~default:0. in
      let ratio a b = if b = 0. then 0. else a /. b in
      let ns a b = 1e9 *. ratio a b in
      let ops_t = float traced.ops in
      let top = Spans.top_level_seconds ~from:timed_from in
      let image_bytes = l "image.bytes" in
      let rows =
        [
          ("reader.s", (span setup_spans "reader.read_all").Spans.incl, "s");
          ("reader.forms", float !Scm.forms, "count");
          ("compile.s", (span setup_spans "compile.compile_toplevel").Spans.incl, "s");
          ("compile.instrs", float !Scm.instrs, "count");
          ("machine.self_s", self "machine.run", "s");
          ("machine.ns_per_op", ns (self "machine.run") ops_t, "ns/op");
          ( "machine.host_minor_words_per_op",
            ratio (l "machine.host_minor_words") ops_t,
            "words/op" );
          ("heap.words_allocated", d "words_allocated", "count");
          ("heap.segments_allocated", d "segments_allocated", "count");
          ("heap.alloc_ns_per_word", ns (self "heap.alloc") (calls "heap.alloc"), "ns/word");
          ("barrier.calls", d "barrier_calls", "count");
          ("barrier.hits", d "barrier_hits", "count");
          ("barrier.cards_dirtied", d "cards_dirtied", "count");
          ("barrier.ns_per_store", ns (self "barrier.store") (calls "barrier.store"), "ns/store");
          ("collector.s", incl "collector.collect", "s");
          ("collector.share", ratio (incl "collector.collect") traced.secs, "ratio");
          ("collector.collections", d "collections", "count");
          ("collector.major_collections", float traced.major, "count");
          ("collector.words_copied", d "words_copied", "count");
          ("collector.words_swept", d "words_swept", "count");
          ("collector.ns_per_copied_word", ns (incl "cheney-copy") (d "words_copied"), "ns/word");
          ("collector.segments_freed", d "segments_freed", "count");
          ("collector.root_scan_s", incl "root-scan", "s");
          ("collector.dirty_scan_s", incl "dirty-scan", "s");
          ("collector.cheney_copy_s", incl "cheney-copy", "s");
          ("collector.guardian_pass_s", incl "guardian-pass", "s");
          ("collector.ephemeron_s", incl "ephemeron-fixpoint", "s");
          ("collector.weak_pass_s", incl "weak-pass", "s");
          ("collector.reclaim_s", incl "segment-reclaim", "s");
          ("dirty_scan.cards_scanned", d "cards_scanned", "count");
          ("dirty_scan.card_words_swept", d "card_words_swept", "count");
          ("dirty_scan.ns_per_card", ns (incl "dirty-scan") (d "cards_scanned"), "ns/card");
          ("guardian.entries_visited", d "protected_entries_visited", "count");
          ("guardian.pend_checks", d "guardian_pend_checks", "count");
          ("guardian.resurrections", d "guardian_resurrections", "count");
          ("guardian.entries_promoted", d "guardian_entries_promoted", "count");
          ("guardian.entries_dropped", d "guardian_entries_dropped", "count");
          ( "guardian.ns_per_entry",
            ns (incl "guardian-pass") (d "protected_entries_visited"),
            "ns/entry" );
          ( "guardian.register_ns",
            ns (self "guardian.register") (calls "guardian.register"),
            "ns/call" );
          ( "guardian.retrieve_ns",
            ns (self "guardian.retrieve") (calls "guardian.retrieve"),
            "ns/call" );
          ("guardian.hit_ratio", ratio (d "guardian_hits") (d "guardian_polls"), "ratio");
          ("tconc.enqueues", d "tconc_enqueues", "count");
          ("tconc.dequeues", d "tconc_dequeues", "count");
          ("weak.pairs_scanned", d "weak_pairs_scanned", "count");
          ("weak.broken", d "weak_pointers_broken", "count");
          ("weak.ephemerons_scanned", d "ephemerons_scanned", "count");
          ("weak.ephemerons_broken", d "ephemerons_broken", "count");
          ("guarded_table.expunged", wd "guarded_table.expunged", "count");
          ( "guarded_table.steps_per_expunge",
            ratio (wd "guarded_table.expunge_steps") (wd "guarded_table.expunged"),
            "steps/expunge" );
          ("image.save_s", incl "image.save", "s");
          ("image.load_s", incl "image.load", "s");
          ("image.bytes", image_bytes, "bytes");
          ("image.bytes_per_live_byte", ratio image_bytes (l "image.live_bytes"), "ratio");
          ("image.save_mb_s", ratio (calls "image.save") (1e6 *. incl "image.save"), "MB/s");
          ( "image.load_mb_s",
            ratio
              (image_bytes *. float (span spans "image.load").Spans.spans)
              (1e6 *. incl "image.load"),
            "MB/s" );
          ("verify.s", l "verify.s", "s");
          ( "paper.c1_overhead",
            ratio (d "protected_entries_visited") (d "words_copied" +. d "words_swept"),
            "ratio" );
          ("paper.c2_polls_per_cleanup", ratio (d "guardian_polls") (d "guardian_hits"), "ratio");
          ( "trace.overhead",
            ratio (ratio ops_t traced.secs) (ratio (float untraced.ops) untraced.secs),
            "ratio" );
          ("trace.harness_s", traced.secs -. top, "s");
        ]
      in
      Printf.printf "# traced: %d ops in %.3f s; top-level spans %.3f s; harness overhead %.3f s\n"
        traced.ops traced.secs top (traced.secs -. top);
      let names = Hashtbl.fold (fun k _ acc -> k :: acc) spans [] |> List.sort compare in
      List.iter
        (fun k ->
          let t = span spans k in
          Printf.printf "# span %-28s spans=%-8d calls=%-10d incl_s=%.6f self_s=%.6f\n" k
            t.Spans.spans t.Spans.calls t.Spans.incl t.Spans.self)
        names;
      List.iter (fun (k, v, u) -> Printf.printf "# per_layer %-34s %16.6f %s\n" k v u) rows;
      (try Sys.mkdir ".gcbench_out" 0o755 with Sys_error _ -> ());
      let path = Printf.sprintf ".gcbench_out/trace-%s-%d.json" w.name o.seed in
      Spans.write_chrome path ~max_spans:200_000;
      Printf.printf "# chrome trace: %s\n" path;
      rows
    end
  in
  let metrics_json =
    json_obj
      (List.map
         (fun (k, v, u) -> (k, json_obj [ ("value", json_float v); ("unit", json_string u) ]))
         metrics)
  in
  print_endline
    (json_obj
       [
         ("correct", string_of_bool correct);
         ("attempted", string_of_int !attempted);
         ("failed", string_of_int failed);
         ("metrics", metrics_json);
       ])
