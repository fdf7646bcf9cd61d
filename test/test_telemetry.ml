(* The telemetry subsystem: event-stream shape (phases nest inside the
   collection and account for its duration), histogram bucket geometry,
   ring wraparound, the zero-cost disabled path, and a round-trip of the
   Chrome trace_event JSON through a minimal parser. *)

open Gbc_runtime

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let cfg = Config.v ~segment_words:128 ~max_generation:2 ()

let traced_heap () =
  let h = Heap.create ~config:cfg () in
  Telemetry.set_enabled (Heap.telemetry h) true;
  h

let fx = Word.of_fixnum
let full_collect h = ignore (Collector.collect h ~gen:(Heap.max_generation h))

(* --- event stream shape ---------------------------------------------- *)

let test_phase_events_nest () =
  let h = traced_heap () in
  let tel = Heap.telemetry h in
  let events = ref [] in
  let id = Telemetry.add_sink tel (fun e -> events := e :: !events) in
  let _keep = Handle.create h (Obj.list_of h (List.map fx [ 1; 2; 3 ])) in
  full_collect h;
  Telemetry.remove_sink tel id;
  let events = List.rev !events in
  (* Bracketing: first Collection_begin, last Collection_end. *)
  (match (List.hd events, List.hd (List.rev events)) with
  | Telemetry.Collection_begin _, Telemetry.Collection_end _ -> ()
  | _ -> Alcotest.fail "stream not bracketed by collection begin/end");
  (* Every phase appears exactly once, begin before end, no overlap. *)
  List.iter
    (fun ph ->
      let begins =
        List.filter
          (function Telemetry.Phase_begin { phase; _ } -> phase = ph | _ -> false)
          events
      and ends =
        List.filter
          (function Telemetry.Phase_end { phase; _ } -> phase = ph | _ -> false)
          events
      in
      check_int (Telemetry.phase_name ph ^ " begins once") 1 (List.length begins);
      check_int (Telemetry.phase_name ph ^ " ends once") 1 (List.length ends))
    Telemetry.collection_phases;
  let depth = ref 0 in
  List.iter
    (function
      | Telemetry.Phase_begin _ ->
          incr depth;
          check "phases do not overlap" true (!depth = 1)
      | Telemetry.Phase_end _ -> decr depth
      | _ -> ())
    events;
  (* Timestamps are monotone along the stream. *)
  let ts = function
    | Telemetry.Collection_begin { at_ns; _ }
    | Telemetry.Phase_begin { at_ns; _ }
    | Telemetry.Phase_end { at_ns; _ }
    | Telemetry.Collection_end { at_ns; _ } ->
        at_ns
  in
  ignore
    (List.fold_left
       (fun prev e ->
         check "timestamps monotone" true (ts e >= prev);
         ts e)
       neg_infinity events)

let test_phase_times_sum_to_collection () =
  let h = traced_heap () in
  let tel = Heap.telemetry h in
  let total = ref 0.0 in
  let id =
    Telemetry.add_sink tel (function
      | Telemetry.Collection_end { duration_ns; _ } -> total := duration_ns
      | _ -> ())
  in
  let _keep = Handle.create h (Obj.list_of h (List.map fx [ 1; 2; 3 ])) in
  full_collect h;
  Telemetry.remove_sink tel id;
  let phase_sum =
    List.fold_left
      (fun acc ph -> acc +. Telemetry.phase_ns_last tel ph)
      0.0 Telemetry.all_phases
  in
  check "phases measured" true (phase_sum > 0.0);
  check "phase times within collection total" true (phase_sum <= !total);
  check_int "one collection seen" 1 (Telemetry.collections_seen tel)

let test_disabled_is_silent () =
  let h = Heap.create ~config:cfg () in
  let tel = Heap.telemetry h in
  let fired = ref 0 in
  let _id = Telemetry.add_sink tel (fun _ -> incr fired) in
  full_collect h;
  full_collect h;
  check_int "no events while disabled" 0 !fired;
  check_int "no collections seen" 0 (Telemetry.collections_seen tel);
  check_int "histogram empty" 0
    (Telemetry.Histogram.count (Telemetry.pause_histogram tel))

(* --- histogram -------------------------------------------------------- *)

let test_histogram_buckets_monotone () =
  let hist = Telemetry.Histogram.create () in
  List.iter
    (Telemetry.Histogram.add hist)
    [ 0.4; 1.0; 1.9; 2.0; 1000.0; 1024.0; 1.5e6; 3.2e9 ];
  let buckets = Telemetry.Histogram.buckets hist in
  Array.iteri
    (fun i (lo, hi, _) ->
      check "lo < hi" true (lo < hi);
      if i > 0 then begin
        let _, prev_hi, _ = buckets.(i - 1) in
        check "buckets contiguous and increasing" true (prev_hi <= lo)
      end)
    buckets;
  let total = Array.fold_left (fun acc (_, _, c) -> acc + c) 0 buckets in
  check_int "bucket counts sum to count" (Telemetry.Histogram.count hist) total;
  (* Each sample landed in the bucket covering it. *)
  List.iter
    (fun (lo, hi, c) ->
      check "nonempty bucket covers a sample" true
        (c > 0
        && List.exists
             (fun s -> (s >= lo && s < hi) || (s < 1.0 && lo = 0.0))
             [ 0.4; 1.0; 1.9; 2.0; 1000.0; 1024.0; 1.5e6; 3.2e9 ]))
    (Telemetry.Histogram.nonempty_buckets hist)

let test_histogram_percentiles () =
  let hist = Telemetry.Histogram.create () in
  check "empty percentile is 0" true (Telemetry.Histogram.percentile hist 50.0 = 0.0);
  for i = 1 to 100 do
    Telemetry.Histogram.add hist (float_of_int i *. 100.0)
  done;
  let p50 = Telemetry.Histogram.percentile hist 50.0
  and p95 = Telemetry.Histogram.percentile hist 95.0
  and p100 = Telemetry.Histogram.percentile hist 100.0 in
  check "p50 <= p95" true (p50 <= p95);
  check "p95 <= p100" true (p95 <= p100);
  check "p100 clamps to observed max" true (p100 = Telemetry.Histogram.max_ns hist);
  (* Upper-bound estimate: never below the true percentile. *)
  check "p50 above true median" true (p50 >= 5000.0)

(* --- ring wraparound --------------------------------------------------- *)

let test_ring_wraparound_keeps_newest () =
  let h = traced_heap () in
  let ring = Telemetry.Ring.attach ~capacity:4 (Heap.telemetry h) in
  for _ = 1 to 10 do
    ignore (Collector.collect h ~gen:0)
  done;
  let recs = Telemetry.Ring.records ring in
  check_int "bounded to capacity" 4 (List.length recs);
  check_int "all collections counted" 10 (Telemetry.Ring.total_recorded ring);
  let ords = List.map (fun r -> r.Telemetry.Ring.ordinal) recs in
  Alcotest.(check (list int)) "newest kept, oldest first" [ 7; 8; 9; 10 ] ords;
  List.iter
    (fun r ->
      check_int "phase_ns per phase" Telemetry.phase_count
        (Array.length r.Telemetry.Ring.phase_ns);
      check "record duration >= phase sum" true
        (Array.fold_left ( +. ) 0.0 r.Telemetry.Ring.phase_ns
        <= r.Telemetry.Ring.duration_ns))
    recs;
  Telemetry.Ring.detach ring

(* --- Chrome trace JSON ------------------------------------------------- *)

(* A minimal JSON parser — just enough to round-trip the trace file. *)
module Json = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  exception Bad of string

  let parse (s : string) : t =
    let n = String.length s in
    let pos = ref 0 in
    let peek () = if !pos < n then s.[!pos] else '\000' in
    let advance () = incr pos in
    let rec skip_ws () =
      if !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
      then begin
        advance ();
        skip_ws ()
      end
    in
    let expect c =
      if peek () <> c then raise (Bad (Printf.sprintf "expected %c at %d" c !pos));
      advance ()
    in
    let parse_string () =
      expect '"';
      let b = Buffer.create 16 in
      let rec go () =
        match peek () with
        | '"' -> advance ()
        | '\\' ->
            advance ();
            (match peek () with
            | 'n' -> Buffer.add_char b '\n'
            | 't' -> Buffer.add_char b '\t'
            | 'r' -> Buffer.add_char b '\r'
            | 'u' ->
                (* \uXXXX: decode code points below 256, enough here. *)
                let hex = String.sub s (!pos + 1) 4 in
                pos := !pos + 4;
                Buffer.add_char b (Char.chr (int_of_string ("0x" ^ hex) land 0xff))
            | c -> Buffer.add_char b c);
            advance ();
            go ()
        | '\000' -> raise (Bad "unterminated string")
        | c ->
            Buffer.add_char b c;
            advance ();
            go ()
      in
      go ();
      Buffer.contents b
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | '{' ->
          advance ();
          skip_ws ();
          if peek () = '}' then begin
            advance ();
            Obj []
          end
          else begin
            let rec members acc =
              skip_ws ();
              let key = parse_string () in
              skip_ws ();
              expect ':';
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | ',' ->
                  advance ();
                  members ((key, v) :: acc)
              | '}' ->
                  advance ();
                  List.rev ((key, v) :: acc)
              | _ -> raise (Bad "expected , or } in object")
            in
            Obj (members [])
          end
      | '[' ->
          advance ();
          skip_ws ();
          if peek () = ']' then begin
            advance ();
            Arr []
          end
          else begin
            let rec elems acc =
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | ',' ->
                  advance ();
                  elems (v :: acc)
              | ']' ->
                  advance ();
                  List.rev (v :: acc)
              | _ -> raise (Bad "expected , or ] in array")
            in
            Arr (elems [])
          end
      | '"' -> Str (parse_string ())
      | 't' ->
          pos := !pos + 4;
          Bool true
      | 'f' ->
          pos := !pos + 5;
          Bool false
      | 'n' ->
          pos := !pos + 4;
          Null
      | _ ->
          let start = !pos in
          while
            !pos < n
            && match s.[!pos] with
               | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
               | _ -> false
          do
            advance ()
          done;
          if !pos = start then raise (Bad (Printf.sprintf "bad value at %d" start));
          Num (float_of_string (String.sub s start (!pos - start)))
    in
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then raise (Bad "trailing input");
    v

  let member key = function
    | Obj kvs -> List.assoc_opt key kvs
    | _ -> None
end

let test_chrome_json_round_trips () =
  let h = traced_heap () in
  let path = Filename.temp_file "gbc_trace" ".json" in
  let oc = open_out path in
  let chrome = Telemetry.Chrome.attach (Heap.telemetry h) oc in
  let g = Handle.create h (Guardian.make h) in
  Guardian.register h (Handle.get g) (Obj.cons h (fx 1) Word.nil);
  full_collect h;
  ignore (Collector.collect h ~gen:0);
  Telemetry.Chrome.close chrome;
  close_out oc;
  let ic = open_in path in
  let src = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  let json = Json.parse src in
  let events = match json with Json.Arr l -> l | _ -> Alcotest.fail "not an array" in
  check "has events" true (List.length events > 0);
  (* Every event is a well-formed trace_event object. *)
  List.iter
    (fun e ->
      (match Json.member "ph" e with
      | Some (Json.Str ("B" | "E")) -> ()
      | _ -> Alcotest.fail "bad ph");
      (match Json.member "name" e with
      | Some (Json.Str _) -> ()
      | _ -> Alcotest.fail "missing name");
      match Json.member "ts" e with
      | Some (Json.Num ts) -> check "ts non-negative" true (ts >= 0.0)
      | _ -> Alcotest.fail "missing ts")
    events;
  (* B and E balance per name, and every phase of both collections shows. *)
  let count name ph =
    List.length
      (List.filter
         (fun e ->
           Json.member "name" e = Some (Json.Str name)
           && Json.member "ph" e = Some (Json.Str ph))
         events)
  in
  List.iter
    (fun phname ->
      check_int (phname ^ " B twice") 2 (count phname "B");
      check_int (phname ^ " E twice") 2 (count phname "E"))
    (List.map Telemetry.phase_name Telemetry.collection_phases);
  check_int "collection B" 2 (count "collection" "B");
  check_int "collection E" 2 (count "collection" "E");
  (* The collection-end args carry the resurrection counter. *)
  let resurrections =
    List.filter_map
      (fun e ->
        if Json.member "name" e = Some (Json.Str "collection")
           && Json.member "ph" e = Some (Json.Str "E")
        then
          match Json.member "args" e with
          | Some args -> (
              match Json.member "guardian_resurrections" args with
              | Some (Json.Num x) -> Some (int_of_float x)
              | _ -> None)
          | None -> None
        else None)
      events
  in
  check_int "both collection ends carry args" 2 (List.length resurrections);
  check_int "first collection resurrected the pair" 1 (List.hd resurrections)

let () =
  Alcotest.run "telemetry"
    [
      ( "events",
        [
          Alcotest.test_case "phases nest" `Quick test_phase_events_nest;
          Alcotest.test_case "phase times sum" `Quick test_phase_times_sum_to_collection;
          Alcotest.test_case "disabled is silent" `Quick test_disabled_is_silent;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "buckets monotone" `Quick test_histogram_buckets_monotone;
          Alcotest.test_case "percentiles" `Quick test_histogram_percentiles;
        ] );
      ( "ring",
        [
          Alcotest.test_case "wraparound keeps newest" `Quick
            test_ring_wraparound_keeps_newest;
        ] );
      ( "chrome",
        [ Alcotest.test_case "JSON round-trips" `Quick test_chrome_json_round_trips ] );
    ]
