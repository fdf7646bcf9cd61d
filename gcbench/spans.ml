(* The traced run's span recorder.

   A span is (name, start, end, parent span, op id, call count).  Spans
   are kept in memory and written out when the run ends.  Recording is
   off unless [set_enabled true]; every entry point then costs one
   boolean test.  Calls too short to time one by one are wrapped in a
   single span per batch whose [count] says how many calls it covers. *)

open Util

let on = ref false
let op = ref 0
let names : (string, int) Hashtbl.t = Hashtbl.create 64
let name_tbl = ref [||]
let name_id = Ints.create ()
let parent = Ints.create ()
let op_id = Ints.create ()
let count = Ints.create ()
let starts = Samples.create ()
let ends = Samples.create ()
let stack = ref []

let enabled () = !on

let set_enabled b =
  if !stack <> [] then invalid_arg "Spans.set_enabled: spans still open";
  on := b

let set_op i = op := i

let intern name =
  match Hashtbl.find_opt names name with
  | Some i -> i
  | None ->
      let i = Hashtbl.length names in
      Hashtbl.add names name i;
      name_tbl := Array.append !name_tbl [| name |];
      i

(* Open a span; -1 when recording is off. *)
let enter_at name at =
  if not !on then -1
  else begin
    let i = Ints.length name_id in
    Ints.add name_id (intern name);
    Ints.add parent (match !stack with p :: _ -> p | [] -> -1);
    Ints.add op_id !op;
    Ints.add count 1;
    Samples.add starts at;
    Samples.add ends at;
    stack := i :: !stack;
    i
  end

let enter name = if not !on then -1 else enter_at name (now ())

let leave_at ?(calls = 1) i at =
  if i >= 0 then begin
    (match !stack with
    | top :: rest when top = i -> stack := rest
    | _ -> invalid_arg "Spans.leave: not the innermost open span");
    ends.Samples.a.(i) <- at;
    Ints.set count i calls
  end

let leave ?calls i = if i >= 0 then leave_at ?calls i (now ())

(* Close the innermost open span (collector phases reported by the
   telemetry stream, which carry no span index). *)
let leave_innermost_at at = match !stack with i :: _ -> leave_at i at | [] -> ()

(* Close every span still open (after an exception escaped an op). *)
let unwind () =
  let t = now () in
  List.iter (fun i -> ends.Samples.a.(i) <- t) !stack;
  stack := []

let n () = Ints.length name_id
let name i = !name_tbl.(Ints.get name_id i)
let dur i = ends.Samples.a.(i) -. starts.Samples.a.(i)

(* Per name: spans, calls covered, inclusive seconds, self seconds
   (duration minus the part covered by child spans). *)
type total = { spans : int; calls : int; incl : float; self : float }

let totals ?(from = 0) () =
  let n = n () in
  let child = Array.make n 0. in
  for i = from to n - 1 do
    let p = Ints.get parent i in
    if p >= 0 then child.(p) <- child.(p) +. dur i
  done;
  let tbl = Hashtbl.create 32 in
  for i = from to n - 1 do
    let k = name i in
    let t =
      Option.value (Hashtbl.find_opt tbl k) ~default:{ spans = 0; calls = 0; incl = 0.; self = 0. }
    in
    Hashtbl.replace tbl k
      {
        spans = t.spans + 1;
        calls = t.calls + Ints.get count i;
        incl = t.incl +. dur i;
        self = t.self +. (dur i -. child.(i));
      }
  done;
  tbl

(* Seconds covered by top-level spans (those with no parent). *)
let top_level_seconds ~from =
  let s = ref 0. in
  for i = from to n () - 1 do
    if Ints.get parent i < 0 then s := !s +. dur i
  done;
  !s

(* Chrome trace_event JSON, the shape [gbc_scheme --trace-out] writes: a
   top-level array of B/E objects with microsecond timestamps.  Each span
   tree is written depth-first so B/E pairs nest.  At most [max_spans]
   spans are written; the metrics use all of them. *)
let write_chrome path ~max_spans =
  let n = n () in
  let children = Array.make n [] in
  for i = n - 1 downto 0 do
    let p = Ints.get parent i in
    if p >= 0 then children.(p) <- i :: children.(p)
  done;
  let oc = open_out path in
  let t0 = if n > 0 then starts.Samples.a.(0) else 0. in
  let first = ref true in
  let written = ref 0 in
  let event i ph at args =
    if !first then first := false else output_string oc ",\n";
    Printf.fprintf oc "{\"name\":%s,\"cat\":\"%s\",\"ph\":\"%s\",\"ts\":%.3f,\"pid\":1,\"tid\":1%s}"
      (json_string (name i))
      (if String.contains (name i) '.' then "bench" else "gc")
      ph
      ((at -. t0) *. 1e6)
      args
  in
  let rec walk i =
    incr written;
    event i "B" starts.Samples.a.(i)
      (Printf.sprintf ",\"args\":{\"op\":%d,\"count\":%d}" (Ints.get op_id i) (Ints.get count i));
    List.iter walk children.(i);
    event i "E" ends.Samples.a.(i) ""
  in
  output_string oc "[\n";
  let i = ref 0 in
  while !i < n && !written < max_spans do
    if Ints.get parent !i < 0 then walk !i;
    incr i
  done;
  output_string oc "\n]\n";
  close_out oc
