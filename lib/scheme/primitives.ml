(** The primitive procedures installed into a fresh machine.

    Primitives never trigger a collection (safepoints live in the VM's call
    instruction), so they may freely work with raw argument words. *)

open Gbc_runtime
module Port = Gbc.Port

let err = Machine.error

let bool b = Word.of_bool b

let want_fixnum name w =
  if Word.is_fixnum w then Word.to_fixnum w
  else err "%s: expected a fixnum" name

let want_char name w =
  if Word.is_char w then Word.to_char w else err "%s: expected a character" name

let want_pair name h w =
  if Word.is_pair_ptr w then w else err "%s: expected a pair, got %s" name (Printer.to_string h w)

let want_string name h w =
  if Obj.is_string h w then w else err "%s: expected a string" name

let want_vector name h w =
  if Obj.is_vector h w then w else err "%s: expected a vector" name

let want_guardian name h w =
  if Guardian.is_guardian h w then w else err "%s: expected a guardian" name

let want_port name h w = if Port.is_port h w then w else err "%s: expected a port" name

(* Numeric tower: fixnums and flonums. *)
type num = Fix of int | Flo of float

let to_num name h w =
  if Word.is_fixnum w then Fix (Word.to_fixnum w)
  else if Obj.is_flonum h w then Flo (Obj.flonum_value h w)
  else err "%s: expected a number" name

let of_num h = function Fix n -> Word.of_fixnum n | Flo f -> Obj.make_flonum h f

let num_binop name fi ff h a b =
  match (to_num name h a, to_num name h b) with
  | Fix x, Fix y -> Fix (fi x y)
  | Flo x, Flo y -> Flo (ff x y)
  | Fix x, Flo y -> Flo (ff (float_of_int x) y)
  | Flo x, Fix y -> Flo (ff x (float_of_int y))

let num_cmp name fi ff h a b =
  match (to_num name h a, to_num name h b) with
  | Fix x, Fix y -> fi x y
  | Flo x, Flo y -> ff x y
  | Fix x, Flo y -> ff (float_of_int x) y
  | Flo x, Fix y -> ff x (float_of_int y)

let fold_num name fi ff h init args =
  Array.fold_left (fun acc w -> num_binop name fi ff h (of_num h acc) w) init args

let chain_cmp name fi ff h args =
  let ok = ref true in
  for i = 0 to Array.length args - 2 do
    if not (num_cmp name fi ff h args.(i) args.(i + 1)) then ok := false
  done;
  bool !ok

let eqv h a b =
  Word.equal a b
  || (Obj.is_flonum h a && Obj.is_flonum h b && Obj.flonum_value h a = Obj.flonum_value h b)

let rec equal h a b =
  eqv h a b
  || (Word.is_pair_ptr a && Word.is_pair_ptr b
      && equal h (Obj.car h a) (Obj.car h b)
      && equal h (Obj.cdr h a) (Obj.cdr h b))
  || (Obj.is_string h a && Obj.is_string h b
      && String.equal (Obj.string_to_ocaml h a) (Obj.string_to_ocaml h b))
  || (Obj.is_vector h a && Obj.is_vector h b
      && Obj.vector_length h a = Obj.vector_length h b
      &&
      let n = Obj.vector_length h a in
      let rec loop i =
        i >= n || (equal h (Obj.vector_ref h a i) (Obj.vector_ref h b i) && loop (i + 1))
      in
      loop 0)

let install (m : Machine.t) =
  let h = Machine.heap m in
  let ctx = Machine.ctx m in
  let p name ~min ?max fn =
    Machine.define_prim m ~name ~arity_min:min ?arity_max:max (fun m args -> fn m args)
  in
  let p1 name fn = p name ~min:1 (fun m args -> fn m args.(0)) in
  let p2 name fn = p name ~min:2 (fun m args -> fn m args.(0) args.(1)) in

  (* --- pairs and lists ------------------------------------------- *)
  p2 "cons" (fun _ a b -> Obj.cons h a b);
  p2 "weak-cons" (fun _ a b -> Obj.weak_cons h a b);
  p2 "ephemeron-cons" (fun _ a b -> Obj.ephemeron_cons h a b);
  p1 "ephemeron-pair?" (fun _ w -> bool (Obj.is_ephemeron h w));
  p1 "car" (fun _ w -> Obj.car h (want_pair "car" h w));
  p1 "cdr" (fun _ w -> Obj.cdr h (want_pair "cdr" h w));
  p2 "set-car!" (fun _ w v ->
      Obj.set_car h (want_pair "set-car!" h w) v;
      Word.void);
  p2 "set-cdr!" (fun _ w v ->
      Obj.set_cdr h (want_pair "set-cdr!" h w) v;
      Word.void);
  p1 "pair?" (fun _ w -> bool (Word.is_pair_ptr w));
  p1 "weak-pair?" (fun _ w -> bool (Obj.is_weak_pair h w));
  p1 "null?" (fun _ w -> bool (Word.is_nil w));
  p "list" ~min:0 ~max:(-1) (fun _ args ->
      let lst = ref Word.nil in
      for i = Array.length args - 1 downto 0 do
        lst := Obj.cons h args.(i) !lst
      done;
      !lst);

  (* --- predicates and identity ----------------------------------- *)
  p2 "eq?" (fun _ a b -> bool (Word.equal a b));
  p2 "eqv?" (fun _ a b -> bool (eqv h a b));
  p2 "equal?" (fun _ a b -> bool (equal h a b));
  p1 "not" (fun _ w -> bool (Word.is_false w));
  p1 "boolean?" (fun _ w -> bool (Word.is_true w || Word.is_false w));
  p1 "symbol?" (fun _ w -> bool (Obj.is_symbol h w));
  p1 "string?" (fun _ w -> bool (Obj.is_string h w));
  p1 "char?" (fun _ w -> bool (Word.is_char w));
  p1 "number?" (fun _ w -> bool (Word.is_fixnum w || Obj.is_flonum h w));
  p1 "fixnum?" (fun _ w -> bool (Word.is_fixnum w));
  p1 "flonum?" (fun _ w -> bool (Obj.is_flonum h w));
  p1 "vector?" (fun _ w -> bool (Obj.is_vector h w));
  p1 "box?" (fun _ w -> bool (Obj.is_box h w));
  p1 "procedure?" (fun m w -> bool (Machine.is_procedure m w));
  p1 "guardian?" (fun _ w -> bool (Guardian.is_guardian h w));
  p1 "eof-object?" (fun _ w -> bool (Word.equal w Word.eof));
  p "eof-object" ~min:0 (fun _ _ -> Word.eof);
  p "void" ~min:0 (fun _ _ -> Word.void);

  (* --- arithmetic ------------------------------------------------- *)
  p "+" ~min:0 ~max:(-1) (fun _ args -> of_num h (fold_num "+" ( + ) ( +. ) h (Fix 0) args));
  p "*" ~min:0 ~max:(-1) (fun _ args -> of_num h (fold_num "*" ( * ) ( *. ) h (Fix 1) args));
  p "-" ~min:1 ~max:(-1) (fun _ args ->
      if Array.length args = 1 then
        of_num h (num_binop "-" ( - ) ( -. ) h (Word.of_fixnum 0) args.(0))
      else
        of_num h
          (Array.fold_left
             (fun acc w -> num_binop "-" ( - ) ( -. ) h (of_num h acc) w)
             (to_num "-" h args.(0))
             (Array.sub args 1 (Array.length args - 1))));
  p "/" ~min:2 (fun _ args ->
      match (to_num "/" h args.(0), to_num "/" h args.(1)) with
      | Fix a, Fix b ->
          if b = 0 then err "/: division by zero" else Word.of_fixnum (a / b)
      | a, b ->
          let f = function Fix n -> float_of_int n | Flo f -> f in
          Obj.make_flonum h (f a /. f b));
  p2 "quotient" (fun _ a b ->
      let a = want_fixnum "quotient" a and b = want_fixnum "quotient" b in
      if b = 0 then err "quotient: division by zero" else Word.of_fixnum (a / b));
  p2 "remainder" (fun _ a b ->
      let a = want_fixnum "remainder" a and b = want_fixnum "remainder" b in
      if b = 0 then err "remainder: division by zero" else Word.of_fixnum (a mod b));
  p2 "modulo" (fun _ a b ->
      let a = want_fixnum "modulo" a and b = want_fixnum "modulo" b in
      if b = 0 then err "modulo: division by zero"
      else Word.of_fixnum (((a mod b) + b) mod b));
  p "=" ~min:2 ~max:(-1) (fun _ args -> chain_cmp "=" ( = ) ( = ) h args);
  p "<" ~min:2 ~max:(-1) (fun _ args -> chain_cmp "<" ( < ) ( < ) h args);
  p ">" ~min:2 ~max:(-1) (fun _ args -> chain_cmp ">" ( > ) ( > ) h args);
  p "<=" ~min:2 ~max:(-1) (fun _ args -> chain_cmp "<=" ( <= ) ( <= ) h args);
  p ">=" ~min:2 ~max:(-1) (fun _ args -> chain_cmp ">=" ( >= ) ( >= ) h args);
  p1 "zero?" (fun _ w -> bool (Word.equal w (Word.of_fixnum 0)));
  p1 "char->integer" (fun _ w -> Word.of_fixnum (Char.code (want_char "char->integer" w)));
  p1 "integer->char" (fun _ w -> Word.of_char (Char.chr (want_fixnum "integer->char" w land 0xff)));
  p1 "number->string" (fun _ w ->
      match to_num "number->string" h w with
      | Fix n -> Obj.string_of_ocaml h (string_of_int n)
      | Flo f -> Obj.string_of_ocaml h (Printf.sprintf "%.12g" f));

  (* --- strings and symbols ---------------------------------------- *)
  p "make-string" ~min:1 ~max:2 (fun _ args ->
      let n = want_fixnum "make-string" args.(0) in
      let fill = if Array.length args > 1 then want_char "make-string" args.(1) else ' ' in
      Obj.make_string h ~len:n ~fill);
  p1 "string-length" (fun _ w -> Word.of_fixnum (Obj.string_length h (want_string "string-length" h w)));
  p2 "string-ref" (fun _ s i -> Word.of_char (Obj.string_ref h (want_string "string-ref" h s) (want_fixnum "string-ref" i)));
  p "string-set!" ~min:3 (fun _ args ->
      Obj.string_set h (want_string "string-set!" h args.(0)) (want_fixnum "string-set!" args.(1))
        (want_char "string-set!" args.(2));
      Word.void);
  p2 "string=?" (fun _ a b ->
      bool (String.equal (Obj.string_to_ocaml h (want_string "string=?" h a))
              (Obj.string_to_ocaml h (want_string "string=?" h b))));
  p "string-append" ~min:0 ~max:(-1) (fun _ args ->
      let parts = Array.to_list args |> List.map (fun w -> Obj.string_to_ocaml h (want_string "string-append" h w)) in
      Obj.string_of_ocaml h (String.concat "" parts));
  p "substring" ~min:3 (fun _ args ->
      let s = Obj.string_to_ocaml h (want_string "substring" h args.(0)) in
      let i = want_fixnum "substring" args.(1) and j = want_fixnum "substring" args.(2) in
      if i < 0 || j > String.length s || i > j then err "substring: bad range";
      Obj.string_of_ocaml h (String.sub s i (j - i)));
  p1 "string->symbol" (fun m w ->
      Symtab.intern (Machine.symtab m) (Obj.string_to_ocaml h (want_string "string->symbol" h w)));
  p1 "symbol->string" (fun _ w ->
      if not (Obj.is_symbol h w) then err "symbol->string: expected a symbol";
      Obj.string_of_ocaml h (Obj.symbol_name_string h w));

  (* --- vectors ----------------------------------------------------- *)
  p "make-vector" ~min:1 ~max:2 (fun _ args ->
      let n = want_fixnum "make-vector" args.(0) in
      let init = if Array.length args > 1 then args.(1) else Word.of_fixnum 0 in
      Obj.make_vector h ~len:n ~init);
  p "vector" ~min:0 ~max:(-1) (fun _ args ->
      let v = Obj.make_vector h ~len:(Array.length args) ~init:Word.nil in
      Array.iteri (fun i w -> Obj.vector_set h v i w) args;
      v);
  p1 "vector-length" (fun _ w -> Word.of_fixnum (Obj.vector_length h (want_vector "vector-length" h w)));
  p2 "vector-ref" (fun _ v i ->
      let v = want_vector "vector-ref" h v and i = want_fixnum "vector-ref" i in
      if i < 0 || i >= Obj.vector_length h v then err "vector-ref: index out of range";
      Obj.vector_ref h v i);
  p "vector-set!" ~min:3 (fun _ args ->
      let v = want_vector "vector-set!" h args.(0) and i = want_fixnum "vector-set!" args.(1) in
      if i < 0 || i >= Obj.vector_length h v then err "vector-set!: index out of range";
      Obj.vector_set h v i args.(2);
      Word.void);

  (* --- records (backing define-record-type) ------------------------- *)
  p "%make-record" ~min:1 ~max:(-1) (fun _ args ->
      let nfields = Array.length args - 1 in
      let r = Obj.make_record h ~tag:args.(0) ~len:nfields ~init:Word.false_ in
      for i = 0 to nfields - 1 do
        Obj.record_set h r i args.(i + 1)
      done;
      r);
  p2 "%record?" (fun _ r tag ->
      bool (Obj.is_record h r && Word.equal (Obj.record_tag h r) tag));
  p "%record-field" ~min:3 (fun _ args ->
      let r = args.(0) and tag = args.(1) and i = want_fixnum "%record-field" args.(2) in
      if not (Obj.is_record h r && Word.equal (Obj.record_tag h r) tag) then
        err "record accessor: wrong record type";
      Obj.record_ref h r i);
  p "%record-field-set!" ~min:4 (fun _ args ->
      let r = args.(0) and tag = args.(1) and i = want_fixnum "%record-field-set!" args.(2) in
      if not (Obj.is_record h r && Word.equal (Obj.record_tag h r) tag) then
        err "record mutator: wrong record type";
      Obj.record_set h r i args.(3);
      Word.void);
  p1 "record?" (fun _ w -> bool (Obj.is_record h w));

  (* --- boxes ------------------------------------------------------- *)
  p1 "box" (fun _ w -> Obj.make_box h w);
  p1 "unbox" (fun _ w ->
      if not (Obj.is_box h w) then err "unbox: expected a box";
      Obj.box_ref h w);
  p2 "set-box!" (fun _ b w ->
      if not (Obj.is_box h b) then err "set-box!: expected a box";
      Obj.box_set h b w;
      Word.void);

  (* --- guardians and collection ----------------------------------- *)
  p "%make-guardian" ~min:0 (fun _ _ -> Guardian.make h);
  p2 "%guardian-register" (fun _ g obj ->
      Guardian.register h (want_guardian "guardian" h g) obj;
      Word.void);
  p "%guardian-register-rep" ~min:3 (fun _ args ->
      Guardian.register_with_rep h (want_guardian "guardian" h args.(0)) ~obj:args.(1)
        ~rep:args.(2);
      Word.void);
  p1 "%guardian-retrieve" (fun _ g ->
      match Guardian.retrieve h (want_guardian "guardian" h g) with
      | Some w -> w
      | None -> Word.false_);
  p "collect" ~min:0 ~max:1 (fun _ args ->
      if Array.length args = 0 then ignore (Runtime.collect_auto h)
      else ignore (Collector.collect h ~gen:(want_fixnum "collect" args.(0)));
      Word.void);
  p "gc-count" ~min:0 (fun _ _ ->
      Word.of_fixnum (Heap.stats h).Stats.total.Stats.collections);
  p "gc-history" ~min:0 (fun m _ ->
      (* Most recent collections, oldest first, as vectors
         #(ordinal generation words-copied resurrections). *)
      match Machine.gc_ring m with
      | None -> Word.nil
      | Some ring ->
          let lst = ref Word.nil in
          List.iter
            (fun (r : Telemetry.Ring.record) ->
              let v = Obj.make_vector h ~len:4 ~init:(Word.of_fixnum 0) in
              Obj.vector_set h v 0 (Word.of_fixnum r.Telemetry.Ring.ordinal);
              Obj.vector_set h v 1 (Word.of_fixnum r.Telemetry.Ring.generation);
              Obj.vector_set h v 2
                (Word.of_fixnum r.Telemetry.Ring.counters.Stats.words_copied);
              Obj.vector_set h v 3
                (Word.of_fixnum
                   r.Telemetry.Ring.counters.Stats.guardian_resurrections);
              lst := Obj.cons h v !lst)
            (List.rev (Telemetry.Ring.records ring));
          !lst);
  p "gc-phase-stats" ~min:0 (fun m _ ->
      (* One vector per collector phase, in phase order:
         #(name total-ns last-ns total-work last-work), ns as flonums,
         followed by a remembered-set summary row:
         #(remembered-set cards-scanned dirty-segments barrier-calls
           barrier-hits cards-dirtied). *)
      let tel = Heap.telemetry h in
      let lst = ref Word.nil in
      let s = Heap.stats h in
      let rs = Obj.make_vector h ~len:6 ~init:(Word.of_fixnum 0) in
      Obj.vector_set h rs 0 (Symtab.intern (Machine.symtab m) "remembered-set");
      Obj.vector_set h rs 1 (Word.of_fixnum s.Stats.total.Stats.cards_scanned);
      Obj.vector_set h rs 2
        (Word.of_fixnum s.Stats.total.Stats.dirty_segments_scanned);
      Obj.vector_set h rs 3 (Word.of_fixnum s.Stats.barrier_calls);
      Obj.vector_set h rs 4 (Word.of_fixnum s.Stats.barrier_hits);
      Obj.vector_set h rs 5 (Word.of_fixnum s.Stats.cards_dirtied);
      lst := Obj.cons h rs !lst;
      List.iter
        (fun ph ->
          let v = Obj.make_vector h ~len:5 ~init:(Word.of_fixnum 0) in
          Obj.vector_set h v 0
            (Symtab.intern (Machine.symtab m) (Telemetry.phase_name ph));
          Obj.vector_set h v 1 (Obj.make_flonum h (Telemetry.phase_ns_total tel ph));
          Obj.vector_set h v 2 (Obj.make_flonum h (Telemetry.phase_ns_last tel ph));
          Obj.vector_set h v 3 (Word.of_fixnum (Telemetry.phase_work_total tel ph));
          Obj.vector_set h v 4 (Word.of_fixnum (Telemetry.phase_work_last tel ph));
          lst := Obj.cons h v !lst)
        (List.rev Telemetry.all_phases);
      !lst);
  p "pause-histogram" ~min:0 (fun _ _ ->
      (* Non-empty log2 buckets of full-collection pause times, as
         #(lo-ns hi-ns count) with flonum bounds, smallest first. *)
      let hist = Telemetry.pause_histogram (Heap.telemetry h) in
      let lst = ref Word.nil in
      List.iter
        (fun (lo, hi, count) ->
          let v = Obj.make_vector h ~len:3 ~init:(Word.of_fixnum 0) in
          Obj.vector_set h v 0 (Obj.make_flonum h lo);
          Obj.vector_set h v 1 (Obj.make_flonum h hi);
          Obj.vector_set h v 2 (Word.of_fixnum count);
          lst := Obj.cons h v !lst)
        (List.rev (Telemetry.Histogram.nonempty_buckets hist));
      !lst);
  p1 "%guardian-stats" (fun _ g ->
      (* #(registrations resurrections drops polls hits latency-sum
          latency-max pending) for one guardian. *)
      let gs = Guardian.stats h (want_guardian "guardian-stats" h g) in
      let v = Obj.make_vector h ~len:8 ~init:(Word.of_fixnum 0) in
      Obj.vector_set h v 0 (Word.of_fixnum gs.Stats.g_registrations);
      Obj.vector_set h v 1 (Word.of_fixnum gs.Stats.g_resurrections);
      Obj.vector_set h v 2 (Word.of_fixnum gs.Stats.g_drops);
      Obj.vector_set h v 3 (Word.of_fixnum gs.Stats.g_polls);
      Obj.vector_set h v 4 (Word.of_fixnum gs.Stats.g_hits);
      Obj.vector_set h v 5 (Word.of_fixnum gs.Stats.g_latency_sum);
      Obj.vector_set h v 6 (Word.of_fixnum gs.Stats.g_latency_max);
      Obj.vector_set h v 7 (Word.of_fixnum (Guardian.pending_count h g));
      v);
  p1 "eq-hash" (fun _ w -> Word.of_fixnum (Obj.eq_hash w land 0xFFFFFFFF));
  p1 "collect-request-handler" (fun m proc ->
      if Word.is_false proc then begin
        Runtime.set_collect_request_handler h None;
        Word.void
      end
      else begin
        if not (Machine.is_procedure m proc) then
          err "collect-request-handler: expected a procedure";
        let cell = Heap.new_cell h proc in
        Runtime.set_collect_request_handler h
          (Some
             (fun h' ->
               if Machine.in_handler m then ignore (Runtime.collect_auto h')
               else begin
                 Machine.set_in_handler m true;
                 Fun.protect
                   ~finally:(fun () -> Machine.set_in_handler m false)
                   (fun () ->
                     ignore (Machine.apply_closure m (Heap.read_cell h' cell) []))
               end));
        Word.void
      end);

  (* --- ports ------------------------------------------------------- *)
  p1 "open-input-file" (fun _ w ->
      Port.open_input ctx (Obj.string_to_ocaml h (want_string "open-input-file" h w)));
  p1 "open-output-file" (fun _ w ->
      Port.open_output ctx (Obj.string_to_ocaml h (want_string "open-output-file" h w)));
  p1 "close-input-port" (fun _ w ->
      Port.close ctx (want_port "close-input-port" h w);
      Word.void);
  p1 "close-output-port" (fun _ w ->
      Port.close ctx (want_port "close-output-port" h w);
      Word.void);
  p1 "flush-output-port" (fun _ w ->
      Port.flush ctx (want_port "flush-output-port" h w);
      Word.void);
  p1 "input-port?" (fun _ w -> bool (Port.is_port h w && Port.is_input h w));
  p1 "output-port?" (fun _ w -> bool (Port.is_port h w && Port.is_output h w));
  p1 "port?" (fun _ w -> bool (Port.is_port h w));
  p1 "port-closed?" (fun _ w -> bool (Port.is_closed h (want_port "port-closed?" h w)));
  p1 "read-char" (fun _ w ->
      match Port.read_char ctx (want_port "read-char" h w) with
      | Some c -> Word.of_char c
      | None -> Word.eof);
  p "write-char" ~min:1 ~max:2 (fun m args ->
      let c = want_char "write-char" args.(0) in
      if Array.length args > 1 then Port.write_char ctx (want_port "write-char" h args.(1)) c
      else Machine.print_string m (String.make 1 c);
      Word.void);

  (* --- output ------------------------------------------------------ *)
  p "display" ~min:1 ~max:2 (fun m args ->
      let s = Printer.to_string ~display:true h args.(0) in
      if Array.length args > 1 then Port.write_string ctx (want_port "display" h args.(1)) s
      else Machine.print_string m s;
      Word.void);
  p "write" ~min:1 ~max:2 (fun m args ->
      let s = Printer.to_string h args.(0) in
      if Array.length args > 1 then Port.write_string ctx (want_port "write" h args.(1)) s
      else Machine.print_string m s;
      Word.void);
  p "newline" ~min:0 ~max:1 (fun m args ->
      if Array.length args > 0 then Port.write_char ctx (want_port "newline" h args.(0)) '\n'
      else Machine.print_string m "\n";
      Word.void);

  (* String ports, backed by hidden VFS files. *)
  (let counter = ref 0 in
   p1 "open-input-string" (fun _ w ->
       let s = Obj.string_to_ocaml h (want_string "open-input-string" h w) in
       incr counter;
       let name = Printf.sprintf "%%string-port-%d" !counter in
       Gbc_vfs.Vfs.write_file (Gbc.Ctx.vfs ctx) name s;
       Port.open_input ctx name);
   p "open-output-string" ~min:0 (fun _ _ ->
       incr counter;
       let name = Printf.sprintf "%%string-port-%d" !counter in
       Port.open_output ctx name));
  p1 "get-output-string" (fun _ w ->
      let port = want_port "get-output-string" h w in
      if not (Port.is_output h port) then err "get-output-string: not an output port";
      Port.flush ctx port;
      Obj.string_of_ocaml h (Gbc_vfs.Vfs.read_file (Gbc.Ctx.vfs ctx) (Port.name h port)));
  p1 "peek-char" (fun _ w ->
      match Port.peek_char ctx (want_port "peek-char" h w) with
      | Some c -> Word.of_char c
      | None -> Word.eof);
  p1 "read" (fun m w ->
      (* Read one datum from an input port: parse the unconsumed input,
         advance the port past the datum, materialize it. *)
      let port = want_port "read" h w in
      let src = Port.remaining_input ctx port in
      match Reader.read_prefix src with
      | None, consumed ->
          Port.advance_input ctx port consumed;
          Word.eof
      | Some d, consumed ->
          Port.advance_input ctx port consumed;
          Machine.materialize m d
      | exception Reader.Error msg -> err "read: %s" msg);

  (* --- characters and strings, extended ----------------------------- *)
  p2 "char=?" (fun _ a b -> bool (want_char "char=?" a = want_char "char=?" b));
  p2 "char<?" (fun _ a b -> bool (want_char "char<?" a < want_char "char<?" b));
  p2 "char>?" (fun _ a b -> bool (want_char "char>?" a > want_char "char>?" b));
  p1 "char-upcase" (fun _ w -> Word.of_char (Char.uppercase_ascii (want_char "char-upcase" w)));
  p1 "char-downcase" (fun _ w -> Word.of_char (Char.lowercase_ascii (want_char "char-downcase" w)));
  p1 "char-alphabetic?" (fun _ w ->
      let c = want_char "char-alphabetic?" w in
      bool ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')));
  p1 "char-numeric?" (fun _ w ->
      let c = want_char "char-numeric?" w in
      bool (c >= '0' && c <= '9'));
  p1 "char-whitespace?" (fun _ w ->
      match want_char "char-whitespace?" w with
      | ' ' | '\t' | '\n' | '\r' -> Word.true_
      | _ -> Word.false_);
  p2 "string<?" (fun _ a b ->
      bool
        (String.compare
           (Obj.string_to_ocaml h (want_string "string<?" h a))
           (Obj.string_to_ocaml h (want_string "string<?" h b))
        < 0));
  p1 "string-copy" (fun _ w ->
      Obj.string_of_ocaml h (Obj.string_to_ocaml h (want_string "string-copy" h w)));
  p1 "string->list" (fun _ w ->
      let s = Obj.string_to_ocaml h (want_string "string->list" h w) in
      let lst = ref Word.nil in
      for i = String.length s - 1 downto 0 do
        lst := Obj.cons h (Word.of_char s.[i]) !lst
      done;
      !lst);
  p1 "list->string" (fun _ w ->
      let chars = Obj.to_list h w |> List.map (want_char "list->string") in
      Obj.string_of_ocaml h (String.init (List.length chars) (List.nth chars)));
  p1 "string->number" (fun _ w ->
      let s = Obj.string_to_ocaml h (want_string "string->number" h w) in
      match int_of_string_opt s with
      | Some n -> Word.of_fixnum n
      | None -> (
          match float_of_string_opt s with
          | Some f -> Obj.make_flonum h f
          | None -> Word.false_));
  p "string" ~min:0 ~max:(-1) (fun _ args ->
      Obj.string_of_ocaml h
        (String.init (Array.length args) (fun i -> want_char "string" args.(i))));
  p "vector-fill!" ~min:2 (fun _ args ->
      let v = want_vector "vector-fill!" h args.(0) in
      for i = 0 to Obj.vector_length h v - 1 do
        Obj.vector_set h v i args.(1)
      done;
      Word.void);
  (let counter = ref 0 in
   p "gensym" ~min:0 ~max:1 (fun m _ ->
       incr counter;
       (* Uninterned identity is not supported; generate a fresh unlikely
          name instead. *)
       Symtab.intern (Machine.symtab m) (Printf.sprintf "g%%%d" !counter)));

  (* --- control ----------------------------------------------------- *)
  p1 "disassemble" (fun m w ->
      Machine.print_string m (Disasm.closure m w);
      Word.void);
  p "apply" ~min:2 ~max:(-1) (fun _ _ ->
      (* handled specially in the VM's call logic *)
      err "apply: internal error");
  p "call-with-current-continuation" ~min:1 (fun _ _ ->
      (* handled specially in the VM's call logic *)
      err "call/cc: internal error");
  p "call/cc" ~min:1 (fun _ _ -> err "call/cc: internal error");
  p2 "with-error-handler" (fun m handler thunk ->
      if not (Machine.is_procedure m handler) then
        err "with-error-handler: handler must be a procedure";
      if not (Machine.is_procedure m thunk) then
        err "with-error-handler: thunk must be a procedure";
      Machine.call_with_error_handler m ~thunk ~handler);
  p "error" ~min:1 ~max:(-1) (fun _ args ->
      let parts =
        Array.to_list args
        |> List.map (fun w ->
               if Obj.is_string h w then Obj.string_to_ocaml h w
               else Printer.to_string h w)
      in
      err "error: %s" (String.concat " " parts));
  p "exit" ~min:0 ~max:1 (fun _ _ -> raise Machine.Exit_signal);

  (* --- heap images -------------------------------------------------- *)
  p1 "save-heap-image" (fun m w ->
      (* Checkpoint the whole system (heap + symbols + code + constants)
         to a gbc-image/1 file.  Captures global state, not the running
         VM activation: a later load-heap-image starts at top level. *)
      let path = Obj.string_to_ocaml h (want_string "save-heap-image" h w) in
      (try Scheme_image.save m path with
      | Gbc_image.Image.Error msg -> err "save-heap-image: %s" msg
      | Sys_error msg -> err "save-heap-image: %s" msg);
      Word.void);
  p1 "load-heap-image" (fun _ w ->
      (* The machine cannot replace itself; signal the owning driver,
         which swaps machines and discards the rest of this input. *)
      let path = Obj.string_to_ocaml h (want_string "load-heap-image" h w) in
      raise (Machine.Load_image_signal path));
  ()
