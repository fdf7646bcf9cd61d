(* Building a Scheme system with the reader, compiler and VM timed
   separately: [Reader.read_all] -> [Compile.compile_toplevel] ->
   [Machine.run_code], the steps [Machine.eval_string] takes. *)

open Gbc_scheme

let forms = ref 0
let instrs = ref 0

let instr_count (c : Instr.code) =
  List.fold_left (fun n (cl : Instr.clause) -> n + Array.length cl.Instr.instrs) 0 c.Instr.clauses

let load m src =
  let sp = Spans.enter "reader.read_all" in
  let data = Reader.read_all src in
  Spans.leave ~calls:(List.length data) sp;
  forms := !forms + List.length data;
  let base = Machine.linker m in
  (* Count every code block the compiler registers, nested lambdas too. *)
  let linker =
    { base with Compile.add_code = (fun c -> instrs := !instrs + instr_count c; base.add_code c) }
  in
  List.iter
    (fun d ->
      let sp = Spans.enter "compile.compile_toplevel" in
      let codes = Compile.compile_toplevel linker d in
      Spans.leave sp;
      List.iter
        (fun c ->
          instrs := !instrs + instr_count c;
          let sp = Spans.enter "machine.run" in
          ignore (Machine.run_code m c);
          Spans.leave sp)
        codes)
    data

(* [Scheme.create], with the prelude loaded through [load] and the
   benchmark's collect-request handler installed first. *)
let create ~traced =
  forms := 0;
  instrs := 0;
  let m = Machine.create () in
  Meter.adopt ~traced (Machine.heap m);
  Primitives.install m;
  load m Prelude.source;
  m
