(* The Scheme system's command-line driver.

   Usage:
     gbc_scheme                    interactive REPL
     gbc_scheme FILE...            run files (on the shared machine, in order)
     gbc_scheme -e EXPR            evaluate an expression and print it
     gbc_scheme --gc-stats ...     print collector statistics at the end
     gbc_scheme --gc-log ...       log each collection to stderr as it happens
     gbc_scheme --trace-out FILE   write a Chrome trace_event JSON of every
                                   collection phase (load in about:tracing
                                   or Perfetto)
     gbc_scheme --load-image F   start from a gbc-image/1 heap image
                                   instead of a cold boot
     gbc_scheme --dump-image F   checkpoint the final system to a heap
                                   image (suppresses the REPL when there
                                   are no inputs)

   Flags compose freely with each other and with inputs; files and -e
   expressions run in command-line order on one shared machine.  The
   (load-heap-image "f") primitive swaps the shared machine for one
   restored from f: the rest of that input is discarded, later inputs
   run on the restored system.  Corrupt, truncated or version-mismatched
   images are reported on stderr and exit with status 2. *)

open Gbc_scheme

let usage =
  "usage: gbc_scheme [--gc-stats] [--gc-log] [--trace-out FILE] \
   [--load-image FILE] [--dump-image FILE] [-e EXPR | FILE]..."

let print_stats m =
  let open Gbc_runtime in
  let h = Machine.heap m in
  let s = Heap.stats h in
  Format.printf "@.;; --- collector statistics ---@.%a@." Stats.pp_counters
    s.Stats.total;
  Format.printf ";; registrations %d, guardian polls %d, hits %d@."
    s.Stats.registrations s.Stats.guardian_polls s.Stats.guardian_hits;
  Format.printf ";; live words %d, live segments %d@." (Heap.live_words h)
    (Heap.live_segments h);
  Format.printf ";; census: %a@." Census.pp (Census.run h)

(* [swap] replaces the shared machine with one restored from an image
   (the load-heap-image primitive signals up to here).  Image problems —
   corrupt, truncated, wrong version, wrong geometry — exit 2 with the
   image's one-line diagnostic, like any other bad command-line input. *)
let repl mr ~swap =
  print_endline ";; guardians-in-a-generation-based-gc Scheme";
  print_endline ";; (make-guardian), (weak-cons a d), (collect [gen]) are built in; ^D exits";
  let rec loop () =
    print_string "> ";
    match read_line () with
    | exception End_of_file -> print_newline ()
    | line ->
        (if String.trim line <> "" then
           match Machine.eval_string !mr line with
           | v ->
               let s = Printer.to_string (Machine.heap !mr) v in
               if s <> "#<void>" then print_endline s
           | exception Machine.Error msg ->
               Printf.printf "error: %s\n" msg;
               Machine.reset !mr
           | exception Reader.Error msg ->
               Printf.printf "read error: %s\n" msg
           | exception Compile.Error msg ->
               Printf.printf "compile error: %s\n" msg
           | exception Machine.Exit_signal -> exit 0
           | exception Machine.Load_image_signal path -> swap path);
        loop ()
  in
  loop ()

let run_file mr ~swap path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let src = really_input_string ic n in
  close_in ic;
  match Machine.eval_string !mr src with
  | _ -> ()
  | exception Machine.Exit_signal -> ()
  | exception Machine.Load_image_signal img -> swap img
  | exception Machine.Error msg ->
      Printf.eprintf "%s: error: %s\n" path msg;
      exit 1
  | exception Reader.Error msg ->
      Printf.eprintf "%s: read error: %s\n" path msg;
      exit 1
  | exception Compile.Error msg ->
      Printf.eprintf "%s: compile error: %s\n" path msg;
      exit 1

(* Inputs are kept in command-line order so `a.scm -e '(f)' b.scm` runs
   the file, the expression, then the second file, all on one machine. *)
type input = File of string | Expr of string

type options = {
  gc_stats : bool;
  gc_log : bool;
  trace_out : string option;
  load_image : string option;
  dump_image : string option;
  inputs : input list;  (* in command-line order *)
}

let parse_args argv =
  let rec go opts = function
    | [] -> { opts with inputs = List.rev opts.inputs }
    | ("--help" | "-h") :: _ ->
        print_endline usage;
        print_endline "  --gc-stats        print collector statistics at the end";
        print_endline "  --gc-log          log each collection to stderr";
        print_endline "  --trace-out FILE  write a Chrome trace_event JSON of GC phases";
        print_endline "  --load-image FILE start from a gbc-image/1 heap image";
        print_endline "  --dump-image FILE checkpoint the final system to a heap image";
        print_endline "  -e EXPR           evaluate an expression and print it";
        print_endline "  With no inputs, starts the interactive REPL.";
        exit 0
    | "--gc-stats" :: rest -> go { opts with gc_stats = true } rest
    | "--gc-log" :: rest -> go { opts with gc_log = true } rest
    | "--trace-out" :: path :: rest when String.length path > 0 ->
        go { opts with trace_out = Some path } rest
    | [ "--trace-out" ] ->
        prerr_endline "gbc_scheme: --trace-out requires a file argument";
        prerr_endline usage;
        exit 2
    | "--load-image" :: path :: rest when String.length path > 0 ->
        go { opts with load_image = Some path } rest
    | [ "--load-image" ] ->
        prerr_endline "gbc_scheme: --load-image requires a file argument";
        prerr_endline usage;
        exit 2
    | "--dump-image" :: path :: rest when String.length path > 0 ->
        go { opts with dump_image = Some path } rest
    | [ "--dump-image" ] ->
        prerr_endline "gbc_scheme: --dump-image requires a file argument";
        prerr_endline usage;
        exit 2
    | "-e" :: expr :: rest -> go { opts with inputs = Expr expr :: opts.inputs } rest
    | [ "-e" ] ->
        prerr_endline "gbc_scheme: -e requires an expression argument";
        prerr_endline usage;
        exit 2
    | arg :: _ when String.length arg > 0 && arg.[0] = '-' ->
        Printf.eprintf "gbc_scheme: unknown option %s\n" arg;
        prerr_endline usage;
        exit 2
    | path :: rest -> go { opts with inputs = File path :: opts.inputs } rest
  in
  go
    { gc_stats = false; gc_log = false; trace_out = None; load_image = None;
      dump_image = None; inputs = [] }
    argv

let image_failure msg =
  Printf.eprintf "gbc_scheme: %s\n" msg;
  exit 2

let () =
  let open Gbc_runtime in
  let opts = parse_args (List.tl (Array.to_list Sys.argv)) in
  let load_machine path =
    try Scheme.load_image path with
    | Gbc_image.Image.Error msg -> image_failure msg
    | Sys_error msg -> image_failure msg
  in
  let mr =
    ref
      (match opts.load_image with
      | None -> Scheme.create ()
      | Some path -> load_machine path)
  in
  let attach_log m =
    if opts.gc_log then begin
      let h = Machine.heap m in
      ignore (Telemetry.Log.attach (Heap.telemetry h) (Heap.stats h) Format.err_formatter)
    end
  in
  Machine.set_echo !mr true;
  attach_log !mr;
  (* The Chrome trace stays attached to the machine it was opened on: a
     trace file is a single JSON array and cannot span a machine swap. *)
  let chrome =
    Option.map
      (fun path ->
        let oc =
          try open_out path
          with Sys_error msg ->
            Printf.eprintf "gbc_scheme: cannot open trace file: %s\n" msg;
            exit 2
        in
        let c = Telemetry.Chrome.attach (Heap.telemetry (Machine.heap !mr)) oc in
        at_exit (fun () ->
            Telemetry.Chrome.close c;
            close_out oc);
        c)
      opts.trace_out
  in
  ignore chrome;
  let swap path =
    let m2 = load_machine path in
    Machine.dispose !mr;
    mr := m2;
    Machine.set_echo !mr true;
    attach_log !mr
  in
  let run_expr expr =
    match Machine.eval_string !mr expr with
    | v -> print_endline (Printer.to_string (Machine.heap !mr) v)
    | exception Machine.Exit_signal -> ()
    | exception Machine.Load_image_signal img -> swap img
    | exception Machine.Error msg ->
        Printf.eprintf "error: %s\n" msg;
        exit 1
    | exception Reader.Error msg ->
        Printf.eprintf "read error: %s\n" msg;
        exit 1
    | exception Compile.Error msg ->
        Printf.eprintf "compile error: %s\n" msg;
        exit 1
  in
  (match opts.inputs with
  | [] ->
      (* Batch image work (the CI save->load->save identity check among
         it) must not fall into the REPL. *)
      if opts.dump_image = None then repl mr ~swap
  | inputs ->
      List.iter
        (function File path -> run_file mr ~swap path | Expr e -> run_expr e)
        inputs);
  (match opts.dump_image with
  | None -> ()
  | Some path -> (
      try Scheme.save_image !mr path with
      | Gbc_image.Image.Error msg -> image_failure msg
      | Sys_error msg -> image_failure msg));
  if opts.gc_stats then print_stats !mr
