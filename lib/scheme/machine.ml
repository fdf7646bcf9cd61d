(** The stack VM executing {!Instr} code over the simulated heap.

    All VM state that can reference heap objects — the value stack, the
    accumulator, the current closure, saved closures in control frames, the
    constants table — is registered as a root scanner, so a collection can
    safely happen at any {e safepoint} (the beginning of every call).  The
    collect-request handler, if one is installed from Scheme, is invoked
    re-entrantly through {!apply_closure}. *)

open Gbc_runtime

exception Error of string
exception Exit_signal

exception Load_image_signal of string
(* Raised by the [load-heap-image] primitive.  The machine cannot replace
   itself mid-execution, so the driver that owns it catches this, builds a
   fresh machine from the image and continues on that one; forms remaining
   in the input that ran the primitive are discarded, exec-like. *)

let error fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

type prim = {
  pname : string;
  arity_min : int;
  arity_max : int;  (** -1 = variadic *)
  fn : t -> Word.t array -> Word.t;
}

and frame = {
  ret_instrs : Instr.instr array;
  ret_pc : int;
  ret_fp : int;
  mutable ret_clos : Word.t;
  (* Where [ret_instrs] came from, so continuations can snapshot control
     frames into the heap: code id and clause index, or (-1, -1) for host
     boundaries (synthetic frames of apply_closure / top level). *)
  ret_code_id : int;
  ret_clause : int;
}

and t = {
  ctx : Gbc.Ctx.t;
  heap : Heap.t;
  symtab : Symtab.t;
  codes : Instr.code Vec.Poly.t;
  consts : Vec.Int.t;  (** heap words, rooted *)
  mutable stack : int array;
  mutable sp : int;
  mutable fp : int;
  mutable acc : Word.t;
  mutable clos : Word.t;
  control : frame Vec.Poly.t;
  mutable cur_code_id : int;  (** code id of the running clause, -1 = host *)
  mutable cur_clause : int;
  global_names : (int, string) Hashtbl.t;
  prims : prim Vec.Poly.t;
  out : Buffer.t;  (** console output *)
  mutable echo : bool;  (** also write console output to stdout *)
  mutable in_handler : bool;
  mutable scanner_id : int;
  mutable gc_ring : Telemetry.Ring.t option;
}

let dummy_code : Instr.code = { name = "dummy"; clauses = [] }

let dummy_frame =
  { ret_instrs = [||]; ret_pc = 0; ret_fp = 0; ret_clos = Word.nil;
    ret_code_id = -1; ret_clause = -1 }

let dummy_prim = { pname = ""; arity_min = 0; arity_max = 0; fn = (fun _ _ -> Word.void) }

let create ?(ctx : Gbc.Ctx.t option) ?config () =
  let ctx = match ctx with Some c -> c | None -> Gbc.Ctx.create ?config () in
  let heap = ctx.Gbc.Ctx.heap in
  let m =
    {
      ctx;
      heap;
      symtab = Symtab.create heap;
      codes = Vec.Poly.create ~dummy:dummy_code ();
      consts = Vec.Int.create ();
      stack = Array.make 4096 0;
      sp = 0;
      fp = 0;
      acc = Word.void;
      clos = Word.nil;
      control = Vec.Poly.create ~dummy:dummy_frame ();
      cur_code_id = -1;
      cur_clause = -1;
      global_names = Hashtbl.create 64;
      prims = Vec.Poly.create ~dummy:dummy_prim ();
      out = Buffer.create 256;
      echo = false;
      in_handler = false;
      scanner_id = -1;
      gc_ring = None;
    }
  in
  (* The Scheme system always observes its collector: gc-history,
     gc-phase-stats and pause-histogram read from the telemetry hub. *)
  Telemetry.set_enabled (Heap.telemetry heap) true;
  m.gc_ring <- Some (Telemetry.Ring.attach ~capacity:128 (Heap.telemetry heap));
  let scanner rewrite =
    for i = 0 to m.sp - 1 do
      m.stack.(i) <- rewrite m.stack.(i)
    done;
    m.acc <- rewrite m.acc;
    m.clos <- rewrite m.clos;
    Vec.Poly.iter m.control ~f:(fun f -> f.ret_clos <- rewrite f.ret_clos);
    Vec.Int.iteri m.consts ~f:(fun i w -> Vec.Int.set m.consts i (rewrite w))
  in
  m.scanner_id <- Heap.add_callback heap (Heap.Root_scanner scanner);
  m

let dispose m =
  Heap.remove_callback m.heap m.scanner_id;
  Option.iter Telemetry.Ring.detach m.gc_ring;
  m.gc_ring <- None

let gc_ring m = m.gc_ring

let heap m = m.heap
let ctx m = m.ctx
let symtab m = m.symtab

let console_output m = Buffer.contents m.out

let clear_console m = Buffer.clear m.out

let set_echo m b = m.echo <- b
let in_handler m = m.in_handler
let set_in_handler m b = m.in_handler <- b

let print_string m s =
  Buffer.add_string m.out s;
  if m.echo then print_string s

(* ------------------------------------------------------------------ *)
(* Globals, constants, code                                            *)

(** Root cell of global variable [name], created unbound on first use. *)
let global_cell m name =
  let sym = Symtab.intern m.symtab name in
  let idx = Obj.symbol_global m.heap sym in
  if idx >= 0 then idx
  else begin
    let cell = Heap.new_cell m.heap Word.unbound in
    Obj.symbol_set_global m.heap sym cell;
    Hashtbl.replace m.global_names cell name;
    (* A symbol naming a global binding must survive even though the symbol
       table holds it weakly (only unbound oblist entries are pruned). *)
    ignore (Heap.new_cell m.heap sym);
    cell
  end

let global_name m cell =
  match Hashtbl.find_opt m.global_names cell with Some n -> n | None -> "?"

let define_global m name w = Heap.write_cell m.heap (global_cell m name) w

let lookup_global m name =
  let w = Heap.read_cell m.heap (global_cell m name) in
  if Word.equal w Word.unbound then None else Some w

(* Materialize a datum into the heap (for constants). *)
let rec materialize m (d : Sexpr.t) : Word.t =
  let h = m.heap in
  match d with
  | Sexpr.Null -> Word.nil
  | Sexpr.Bool b -> Word.of_bool b
  | Sexpr.Int n -> Word.of_fixnum n
  | Sexpr.Float f -> Obj.make_flonum h f
  | Sexpr.Char c -> Word.of_char c
  | Sexpr.Str s -> Obj.string_of_ocaml h s
  | Sexpr.Sym s -> Symtab.intern m.symtab s
  | Sexpr.Pair (a, dd) ->
      (* Build cdr first and root it across the car's materialization. *)
      let tail = materialize m dd in
      Heap.with_cell h tail (fun c ->
          let head = materialize m a in
          Obj.cons h head (Heap.read_cell h c))
  | Sexpr.Vector els ->
      let v = Obj.make_vector h ~len:(Array.length els) ~init:Word.nil in
      Heap.with_cell h v (fun c ->
          Array.iteri
            (fun i e ->
              let w = materialize m e in
              Obj.vector_set h (Heap.read_cell h c) i w)
            els;
          Heap.read_cell h c)

let add_const m d =
  let w = materialize m d in
  Vec.Int.push m.consts w;
  Vec.Int.length m.consts - 1

let add_code m code =
  Vec.Poly.push m.codes code;
  Vec.Poly.length m.codes - 1

let code m id = Vec.Poly.get m.codes id

let linker m : Compile.linker =
  {
    Compile.global_cell = global_cell m;
    add_const = add_const m;
    add_code = add_code m;
  }

(* ------------------------------------------------------------------ *)
(* Primitives                                                          *)

(* Closure layout: field 0 = code id (>= 0: codes table; < 0: primitive
   -1 - prim_id); fields 1.. = free variables. *)

let make_closure_obj m ~code_id ~nfree =
  let c = Obj.make_typed m.heap ~code:Obj.code_closure ~len:(1 + nfree) ~init:Word.nil () in
  Obj.set_field m.heap c 0 (Word.of_fixnum code_id);
  c

let is_closure m w = Obj.has_code m.heap w Obj.code_closure
let is_continuation m w = Obj.has_code m.heap w Obj.code_continuation
let is_procedure m w = is_closure m w || is_continuation m w

(** Register a primitive and bind it to its global name. *)
let define_prim m ~name ~arity_min ?(arity_max = arity_min) fn =
  Vec.Poly.push m.prims { pname = name; arity_min; arity_max; fn };
  let prim_id = Vec.Poly.length m.prims - 1 in
  (* On a machine rebuilt from a heap image the global already holds this
     primitive's closure (installation order is fixed, so the prim ids
     match), and re-making it would allocate — spoiling the image's
     save → load → save byte identity.  Bind only when unbound. *)
  if lookup_global m name = None then begin
    let c = make_closure_obj m ~code_id:(-1 - prim_id) ~nfree:0 in
    define_global m name c
  end

let prim_of_closure m w =
  let id = Word.to_fixnum (Obj.field m.heap w 0) in
  if id < 0 then Some (Vec.Poly.get m.prims (-1 - id)) else None

(* ------------------------------------------------------------------ *)
(* Heap-image support                                                  *)

(* The compiled-code table and the constants table live on the OCaml
   side; Scheme_image carries them through a heap image as extra
   sections.  Everything else a restored machine needs is either in the
   heap (globals, symbols' global-cell links) or reinstalled by the
   caller (primitives). *)

let image_codes m = Array.init (Vec.Poly.length m.codes) (Vec.Poly.get m.codes)
let image_consts m = Array.init (Vec.Int.length m.consts) (Vec.Int.get m.consts)

let restore_image_state m ~codes ~consts ~symbols =
  Vec.Poly.clear m.codes;
  Array.iter (Vec.Poly.push m.codes) codes;
  Vec.Int.clear m.consts;
  Array.iter (Vec.Int.push m.consts) consts;
  Symtab.restore m.symtab symbols;
  (* Global cells keep their indices through an image, so the reverse
     name map (for error messages) rebuilds from the symbol section. *)
  List.iter
    (fun (name, w) ->
      if Obj.is_symbol m.heap w then begin
        let idx = Obj.symbol_global m.heap w in
        if idx >= 0 then Hashtbl.replace m.global_names idx name
      end)
    symbols

(* ------------------------------------------------------------------ *)
(* Stack                                                               *)

let ensure_stack m n =
  if n > Array.length m.stack then begin
    let size = ref (Array.length m.stack) in
    while !size < n do
      size := !size * 2
    done;
    let stack = Array.make !size 0 in
    Array.blit m.stack 0 stack 0 m.sp;
    m.stack <- stack
  end

let push m w =
  ensure_stack m (m.sp + 1);
  m.stack.(m.sp) <- w;
  m.sp <- m.sp + 1

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)

let select_clause (code : Instr.code) n =
  let rec loop i = function
    | [] -> None
    | (c : Instr.clause) :: rest ->
        if (c.required = n && not c.rest) || (c.required <= n && c.rest) then Some (c, i)
        else loop (i + 1) rest
  in
  loop 0 code.clauses

(* Collect [n - required] extra arguments (stack top) into a list placed at
   slot [fp + required]. *)
let build_rest m ~required ~n =
  let lst = ref Word.nil in
  for i = n - 1 downto required do
    lst := Obj.cons m.heap m.stack.(m.fp + i) !lst
  done;
  m.stack.(m.fp + required) <- !lst;
  m.sp <- m.fp + required + 1

let rec enter m (instrs0 : Instr.instr array) =
  let base = Vec.Poly.length m.control in
  let instrs = ref instrs0 and pc = ref 0 in
  let halted = ref false in
  while not !halted do
    let i = !instrs.(!pc) in
    incr pc;
    match i with
    | Instr.Const k -> m.acc <- Vec.Int.get m.consts k
    | Instr.Imm w -> m.acc <- w
    | Instr.Local_ref k -> m.acc <- m.stack.(m.fp + k)
    | Instr.Free_ref k -> m.acc <- Obj.field m.heap m.clos (1 + k)
    | Instr.Unbox -> m.acc <- Obj.box_ref m.heap m.acc
    | Instr.Local_set_box k ->
        Obj.box_set m.heap m.stack.(m.fp + k) m.acc;
        m.acc <- Word.void
    | Instr.Free_set_box k ->
        Obj.box_set m.heap (Obj.field m.heap m.clos (1 + k)) m.acc;
        m.acc <- Word.void
    | Instr.Global_ref cell ->
        let w = Heap.read_cell m.heap cell in
        if Word.equal w Word.unbound then
          error "variable %s is not bound" (global_name m cell);
        m.acc <- w
    | Instr.Global_set cell ->
        if Word.equal (Heap.read_cell m.heap cell) Word.unbound then
          error "cannot set! unbound variable %s" (global_name m cell);
        Heap.write_cell m.heap cell m.acc;
        m.acc <- Word.void
    | Instr.Global_define cell -> Heap.write_cell m.heap cell m.acc
    | Instr.Push -> push m m.acc
    | Instr.Box_local k -> m.stack.(m.fp + k) <- Obj.make_box m.heap m.stack.(m.fp + k)
    | Instr.Make_closure { code_id; nfree } ->
        let c = make_closure_obj m ~code_id ~nfree in
        for j = 0 to nfree - 1 do
          Obj.set_field m.heap c (1 + j) m.stack.(m.sp - nfree + j)
        done;
        m.sp <- m.sp - nfree;
        m.acc <- c
    | Instr.Branch_false target -> if Word.is_false m.acc then pc := target
    | Instr.Jump target -> pc := target
    | Instr.Call n -> do_call m instrs pc ~tail:false n
    | Instr.Tail_call n -> do_call m instrs pc ~tail:true n
    | Instr.Return -> do_return m instrs pc ~base
    | Instr.Halt ->
        if Vec.Poly.length m.control <> base then error "halt with pending frames";
        halted := true
  done;
  m.acc

and do_return m instrs pc ~base =
  if Vec.Poly.length m.control <= base then error "return past base frame";
  let f = Vec.Poly.pop m.control in
  m.sp <- m.fp;
  m.fp <- f.ret_fp;
  m.clos <- f.ret_clos;
  m.cur_code_id <- f.ret_code_id;
  m.cur_clause <- f.ret_clause;
  instrs := f.ret_instrs;
  pc := f.ret_pc

and do_call m instrs pc ~tail n =
  (* Safepoint: everything live is rooted (stack, acc = callee, control). *)
  Runtime.safepoint m.heap;
  let callee = ref m.acc and nargs = ref n in
  let again = ref true in
  while !again do
    again := false;
    let callee_w = !callee and n = !nargs in
    if is_continuation m callee_w then begin
      (* Invoking a reified continuation: one value, then jump. *)
      if n <> 1 then error "continuation: expected 1 value, got %d" n;
      let v = m.stack.(m.sp - 1) in
      m.sp <- m.sp - 1;
      reinstate_continuation m instrs pc callee_w v
    end
    else begin
    if not (is_closure m callee_w) then
      error "attempt to apply non-procedure: %s" (Printer.to_string m.heap callee_w);
    match prim_of_closure m callee_w with
    | Some prim ->
        if
          String.equal prim.pname "call-with-current-continuation"
          || String.equal prim.pname "call/cc"
        then begin
          if n <> 1 then error "call/cc: expected 1 argument";
          let f = m.stack.(m.sp - 1) in
          m.sp <- m.sp - 1;
          let k = capture_continuation m instrs pc ~tail in
          push m k;
          callee := f;
          nargs := 1;
          again := true
        end
        else if String.equal prim.pname "apply" then begin
          (* apply: (apply proc arg ... lst): spread the final list. *)
          if n < 2 then error "apply: needs at least 2 arguments";
          let proc = m.stack.(m.sp - n) in
          let lst = m.stack.(m.sp - 1) in
          (* Shift the middle args down over proc's slot. *)
          for j = 0 to n - 3 do
            m.stack.(m.sp - n + j) <- m.stack.(m.sp - n + 1 + j)
          done;
          m.sp <- m.sp - 2;
          let extra = ref 0 in
          let rec spread l =
            if not (Word.is_nil l) then begin
              if not (Word.is_pair_ptr l) then error "apply: improper argument list";
              push m (Obj.car m.heap l);
              incr extra;
              spread (Obj.cdr m.heap l)
            end
          in
          spread lst;
          callee := proc;
          nargs := n - 2 + !extra;
          again := true
        end
        else begin
          if
            n < prim.arity_min
            || (prim.arity_max >= 0 && n > prim.arity_max)
          then error "%s: wrong number of arguments (%d)" prim.pname n;
          let args = Array.init n (fun j -> m.stack.(m.sp - n + j)) in
          m.sp <- m.sp - n;
          m.acc <- prim.fn m args;
          if tail then do_return m instrs pc ~base:0
        end
    | None ->
        let code_id = Word.to_fixnum (Obj.field m.heap callee_w 0) in
        let code = Vec.Poly.get m.codes code_id in
        (match select_clause code n with
        | None -> error "%s: no clause for %d arguments" code.Instr.name n
        | Some (clause, clause_idx) ->
            if tail then begin
              (* Slide the arguments down onto the current frame. *)
              for j = 0 to n - 1 do
                m.stack.(m.fp + j) <- m.stack.(m.sp - n + j)
              done;
              m.sp <- m.fp + n
            end
            else begin
              Vec.Poly.push m.control
                { ret_instrs = !instrs; ret_pc = !pc; ret_fp = m.fp;
                  ret_clos = m.clos; ret_code_id = m.cur_code_id;
                  ret_clause = m.cur_clause };
              m.fp <- m.sp - n
            end;
            m.cur_code_id <- code_id;
            m.cur_clause <- clause_idx;
            if clause.Instr.rest then begin
              if n < clause.Instr.required then
                error "%s: too few arguments" code.Instr.name;
              build_rest m ~required:clause.Instr.required ~n
            end;
            m.clos <- callee_w;
            instrs := clause.Instr.instrs;
            pc := 0)
    end
  done

(* ------------------------------------------------------------------ *)
(* Continuations                                                       *)

(* Layout of a reified continuation (typed object, code_continuation):
   0 value-stack snapshot (heap vector of words)
   1 control snapshot (heap vector, 5 slots per frame:
     code_id, clause, pc, fp, clos)
   2 fp at capture
   3 resume code id   4 resume clause   5 resume pc
   6 closure at capture *)

and capture_continuation m instrs pc ~tail =
  let h = m.heap in
  ignore instrs;
  (* Resume point.  Non-tail: just after the Call instruction of the
     current clause.  Tail: the current frame is about to be discarded, so
     the continuation resumes at the caller recorded in the top control
     frame — exactly what Return would do. *)
  let sp_snap, fp_snap, clos_snap, resume_code, resume_clause, resume_pc, skip_top =
    if not tail then (m.sp, m.fp, m.clos, m.cur_code_id, m.cur_clause, !pc, 0)
    else begin
      let depth = Vec.Poly.length m.control in
      if depth = 0 then error "call/cc: no caller to return to";
      let fr = Vec.Poly.get m.control (depth - 1) in
      (m.fp, fr.ret_fp, fr.ret_clos, fr.ret_code_id, fr.ret_clause, fr.ret_pc, 1)
    end
  in
  if resume_code < 0 then error "call/cc: cannot capture across a host boundary";
  let depth = Vec.Poly.length m.control - skip_top in
  (* Host-boundary frames cannot be reinstated; reject at capture time so
     the error points at the call/cc, not a later throw. *)
  for i = 0 to depth - 1 do
    if (Vec.Poly.get m.control i).ret_code_id < 0 then
      error "call/cc: cannot capture across a host boundary"
  done;
  let vstack = Obj.make_vector h ~len:sp_snap ~init:(Word.of_fixnum 0) in
  for i = 0 to sp_snap - 1 do
    Obj.vector_set h vstack i m.stack.(i)
  done;
  let control = Obj.make_vector h ~len:(depth * 5) ~init:(Word.of_fixnum 0) in
  for i = 0 to depth - 1 do
    let fr = Vec.Poly.get m.control i in
    Obj.vector_set h control ((i * 5) + 0) (Word.of_fixnum fr.ret_code_id);
    Obj.vector_set h control ((i * 5) + 1) (Word.of_fixnum fr.ret_clause);
    Obj.vector_set h control ((i * 5) + 2) (Word.of_fixnum fr.ret_pc);
    Obj.vector_set h control ((i * 5) + 3) (Word.of_fixnum fr.ret_fp);
    Obj.vector_set h control ((i * 5) + 4) fr.ret_clos
  done;
  let k = Obj.make_typed h ~code:Obj.code_continuation ~len:7 ~init:(Word.of_fixnum 0) () in
  Obj.set_field h k 0 vstack;
  Obj.set_field h k 1 control;
  Obj.set_field h k 2 (Word.of_fixnum fp_snap);
  Obj.set_field h k 3 (Word.of_fixnum resume_code);
  Obj.set_field h k 4 (Word.of_fixnum resume_clause);
  Obj.set_field h k 5 (Word.of_fixnum resume_pc);
  Obj.set_field h k 6 clos_snap;
  k

and clause_instrs m ~code_id ~clause =
  let code = Vec.Poly.get m.codes code_id in
  (List.nth code.Instr.clauses clause).Instr.instrs

and reinstate_continuation m instrs pc k v =
  let h = m.heap in
  let vstack = Obj.field h k 0 in
  let control = Obj.field h k 1 in
  let sp_snap = Obj.vector_length h vstack in
  ensure_stack m sp_snap;
  for i = 0 to sp_snap - 1 do
    m.stack.(i) <- Obj.vector_ref h vstack i
  done;
  m.sp <- sp_snap;
  m.fp <- Word.to_fixnum (Obj.field h k 2);
  m.clos <- Obj.field h k 6;
  Vec.Poly.clear m.control;
  let nframes = Obj.vector_length h control / 5 in
  for i = 0 to nframes - 1 do
    let code_id = Word.to_fixnum (Obj.vector_ref h control ((i * 5) + 0)) in
    let clause = Word.to_fixnum (Obj.vector_ref h control ((i * 5) + 1)) in
    let ret_instrs =
      if code_id >= 0 then clause_instrs m ~code_id ~clause else [||]
    in
    Vec.Poly.push m.control
      {
        ret_instrs;
        ret_pc = Word.to_fixnum (Obj.vector_ref h control ((i * 5) + 2));
        ret_fp = Word.to_fixnum (Obj.vector_ref h control ((i * 5) + 3));
        ret_clos = Obj.vector_ref h control ((i * 5) + 4);
        ret_code_id = code_id;
        ret_clause = clause;
      }
  done;
  let resume_code = Word.to_fixnum (Obj.field h k 3) in
  let resume_clause = Word.to_fixnum (Obj.field h k 4) in
  m.cur_code_id <- resume_code;
  m.cur_clause <- resume_clause;
  instrs := clause_instrs m ~code_id:resume_code ~clause:resume_clause;
  pc := Word.to_fixnum (Obj.field h k 5);
  m.acc <- v

(* ------------------------------------------------------------------ *)
(* Re-entrant application (for collect-request handlers etc.)          *)

(* Call [clos_w] with [args] from OCaml: saves the register file on the
   (rooted) value stack, runs a nested interpreter activation, restores. *)
and apply_closure m clos_w args =
  (* Root everything we must restore. *)
  push m m.acc;
  push m m.clos;
  let saved_fp = m.fp and saved_sp_after = m.sp in
  let saved_code = m.cur_code_id and saved_clause = m.cur_clause in
  m.cur_code_id <- -1;
  m.cur_clause <- -1;
  List.iter (push m) args;
  m.acc <- clos_w;
  (* Synthetic caller whose next instruction is Halt: the callee's Return
     pops back to it and stops the nested activation. *)
  let synthetic = [| Instr.Call (List.length args); Instr.Halt |] in
  let result = enter m synthetic in
  (* enter runs from pc 0: executes the Call, the body, Return, Halt. *)
  m.cur_code_id <- saved_code;
  m.cur_clause <- saved_clause;
  m.fp <- saved_fp;
  m.sp <- saved_sp_after;
  m.clos <- m.stack.(m.sp - 1);
  m.acc <- m.stack.(m.sp - 2);
  m.sp <- m.sp - 2;
  result

(* Scheme-level error handling: run [thunk] (a closure, no arguments); if
   a Scheme error escapes, restore the register file to its state at entry
   and apply [handler] to the error message (a heap string).  This is what
   lets clean-up code signal errors without killing unrelated work -- one
   of the paper's design questions for finalization. *)
let call_with_error_handler m ~thunk ~handler =
  (* Root the handler across the thunk's execution. *)
  let handler_cell = Heap.new_cell m.heap handler in
  let saved_sp = m.sp and saved_fp = m.fp in
  let saved_depth = Vec.Poly.length m.control in
  let saved_code = m.cur_code_id and saved_clause = m.cur_clause in
  Fun.protect
    ~finally:(fun () -> Heap.free_cell m.heap handler_cell)
    (fun () ->
      match apply_closure m thunk [] with
      | v -> v
      | exception Error msg ->
          (* Unwind to the state at entry. *)
          m.sp <- saved_sp;
          m.fp <- saved_fp;
          while Vec.Poly.length m.control > saved_depth do
            ignore (Vec.Poly.pop m.control)
          done;
          m.cur_code_id <- saved_code;
          m.cur_clause <- saved_clause;
          m.acc <- Word.void;
          m.clos <- Word.nil;
          let msg_w = Obj.string_of_ocaml m.heap msg in
          apply_closure m (Heap.read_cell m.heap handler_cell) [ msg_w ])

(* ------------------------------------------------------------------ *)
(* Top level                                                           *)

let run_code m (code : Instr.code) =
  match code.Instr.clauses with
  | [ clause ] ->
      (* Register the top-level block so continuations captured inside it
         can name their resume point. *)
      let id = add_code m code in
      let saved_fp = m.fp in
      m.fp <- m.sp;
      m.cur_code_id <- id;
      m.cur_clause <- 0;
      let result = enter m clause.Instr.instrs in
      m.cur_code_id <- -1;
      m.cur_clause <- -1;
      m.sp <- m.fp;
      m.fp <- saved_fp;
      result
  | _ -> error "bad top-level code"

(** Discard any in-flight activation state (after an error escaped the
    interpreter loop, e.g. in a REPL). *)
let reset m =
  m.sp <- 0;
  m.fp <- 0;
  m.acc <- Word.void;
  m.clos <- Word.nil;
  Vec.Poly.clear m.control

(** Evaluate one datum; returns the resulting heap word (valid until the
    next collection). *)
let eval_datum m d =
  let codes = Compile.compile_toplevel (linker m) d in
  List.fold_left (fun _ code -> run_code m code) Word.void codes

(** Evaluate every form in [src], returning the last result. *)
let eval_string m src =
  let data = Reader.read_all src in
  List.fold_left (fun _ d -> eval_datum m d) Word.void data
