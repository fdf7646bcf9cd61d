(** Heap invariant verifier: a debugging walk over the whole heap that
    checks structural invariants the collector relies on.  Used by the test
    suites after collections; cheap enough to run in anger when debugging.

    Checked invariants:
    - segment table: live segments have sane sizes, generations and used
      counts; pair/weak segments hold whole two-word cells;
    - object parse ({!Obj.iter_objects}): typed/data segments parse as a
      sequence of well-formed headers with known type codes covering
      exactly [used] words;
    - pointers: every pointer field points into a live segment, at a valid
      object start, and never at a forwarding marker outside a collection;
    - spaces: weak pairs live only in weak space; headers only in
      typed/data space;
    - remembered set: a pointer from an older into a younger generation is
      covered by the segment's [min_ref_gen] AND by the byte of the card
      holding the pointer slot (card-granular precision);
    - crossing map: every used card of a typed segment names an object
      start at or before the card's first word (the dirty scan parses
      typed cards from there);
    - protected lists: entries of generation [i]'s list reference objects
      and tconcs in generations [>= i] (or immediates). *)

type error = { what : string; where : string }

let errf errors what fmt =
  Format.kasprintf (fun where -> errors := { what; where } :: !errors) fmt

let verify h =
  let errors = ref [] in
  let max_gen = Heap.max_generation h in
  (* Pass 1: parse each live segment once ({!Obj.iter_objects}), reporting
     structural errors and marking object starts (one byte per word).  A
     defect is marked as a start but ends the parse at [parsed.(seg)]. *)
  let starts = Array.make h.Heap.nsegs Bytes.empty in
  let parsed = Array.make h.Heap.nsegs 0 in
  for seg = 0 to h.Heap.nsegs - 1 do
    let si = Heap.info h seg in
    if si.Heap.live then begin
      if si.Heap.generation < 0 || si.Heap.generation > max_gen then
        errf errors "segment generation out of range" "seg %d gen %d" seg si.Heap.generation;
      if si.Heap.used > si.Heap.size then
        errf errors "segment overfull" "seg %d used %d size %d" seg si.Heap.used si.Heap.size;
      if si.Heap.condemned then errf errors "condemned segment outside collection" "seg %d" seg;
      let used = si.Heap.used in
      let b = Bytes.make used '\000' in
      starts.(seg) <- b;
      let typed = si.Heap.space = Space.Typed || si.Heap.space = Space.Data in
      let words = h.Heap.segs.(seg) in
      let defect =
        Obj.iter_objects h seg ~f:(fun off _ ->
            Bytes.set b off '\001';
            if typed && Obj.header_code words.(off) > Obj.code_pad then
              errf errors "unknown type code" "seg %d off %d code %d" seg off
                (Obj.header_code words.(off)))
      in
      parsed.(seg) <-
        (match defect with
        | None -> used
        | Some (off, d) ->
            Bytes.set b off '\001';
            (match d with
            | Obj.Odd_cell_count ->
                errf errors "odd used count in pair segment" "seg %d used %d" seg used
            | Obj.Malformed_header -> errf errors "malformed header" "seg %d off %d" seg off
            | Obj.Overrun ->
                errf errors "object overruns segment" "seg %d off %d len %d" seg off
                  (Obj.header_len words.(off)));
            off)
    end
  done;
  (* Every word of a pointer-bearing segment is a slot or a header, and
     headers are fixnums: checking each parsed word as a value is checking
     every traced slot.  The car of a weak pair is weak but must still be a
     valid word; broken cars are #f.  [where] names the slot and its
     target, and is formatted only for an error. *)
  let bad what seg off tseg toff =
    errf errors what "seg %d off %d -> seg %d off %d" seg off tseg toff
  in
  let check_slot seg off w =
    if Word.is_pointer w then begin
      let tseg = Heap.seg_of_addr (Word.addr w) and toff = Heap.off_of_addr (Word.addr w) in
      if tseg < 0 || tseg >= h.Heap.nsegs then
        bad "pointer to unknown segment" seg off tseg toff
      else begin
        let ti = Heap.info h tseg in
        if not ti.Heap.live then bad "pointer into freed segment" seg off tseg toff
        else if toff >= ti.Heap.used then bad "pointer past used area" seg off tseg toff
        else if Bytes.get starts.(tseg) toff = '\000' then
          bad "pointer to object interior" seg off tseg toff
        else begin
          let pair_space = ti.Heap.space <> Space.Typed && ti.Heap.space <> Space.Data in
          if Word.is_pair_ptr w && not pair_space then
            bad "pair pointer into non-pair space" seg off tseg toff
          else if pair_space && not (Word.is_pair_ptr w) then
            bad "typed pointer into pair space" seg off tseg toff;
          if Word.equal (Heap.load h (Word.addr w)) Word.forward_marker then
            bad "pointer at forwarding marker outside collection" seg off tseg toff;
          (* Remembered-set invariant, at both granularities. *)
          let fi = Heap.info h seg and tgen = ti.Heap.generation in
          if tgen < fi.Heap.generation then begin
            if tgen < fi.Heap.min_ref_gen then
              bad "old-to-young pointer not remembered" seg off tseg toff;
            if tgen < Heap.card_min_gen h ~seg ~card:(Heap.card_of_off h off) then
              bad "old-to-young pointer's card not marked" seg off tseg toff
          end
        end
      end
    end
    else if Word.equal w Word.forward_marker then
      errf errors "forwarding marker stored as a value" "seg %d off %d" seg off
  in
  (* Pass 2: every parsed word of the pointer-bearing segments, and the
     crossing map the dirty scan parses typed cards from. *)
  let card_shift = Heap.card_shift h in
  for seg = 0 to h.Heap.nsegs - 1 do
    let si = Heap.info h seg in
    if si.Heap.live && si.Heap.space <> Space.Data then begin
      let words = h.Heap.segs.(seg) in
      for off = 0 to parsed.(seg) - 1 do
        check_slot seg off words.(off)
      done;
      if si.Heap.space = Space.Typed then
        for card = 0 to ((parsed.(seg) + (1 lsl card_shift) - 1) lsr card_shift) - 1 do
          let start = Heap.card_object_start h ~seg ~card in
          if start < 0 || start > card lsl card_shift || start >= parsed.(seg)
             || Bytes.get starts.(seg) start = '\000'
          then
            errf errors "crossing-map entry is not an object start at or before its card"
              "seg %d card %d -> off %d" seg card start
        done
    end
  done;
  (* Protected lists. *)
  for gen = 0 to max_gen do
    let p = h.Heap.protected.(gen) in
    for j = 0 to Vec.Int.length p.Heap.p_objs - 1 do
      List.iter
        (fun (what, w) ->
          if Word.is_pointer w then begin
            let ti = Heap.info_of_word h w in
            if not ti.Heap.live then
              errf errors "protected entry into freed segment" "gen %d entry %d %s" gen j what
            else if ti.Heap.generation < gen then
              errf errors "protected entry younger than its list"
                "gen %d entry %d %s (obj gen %d)" gen j what ti.Heap.generation
          end)
        [
          ("obj", Vec.Int.get p.Heap.p_objs j);
          ("rep", Vec.Int.get p.Heap.p_reps j);
          ("tconc", Vec.Int.get p.Heap.p_tconcs j);
        ]
    done
  done;
  List.rev !errors

(** Run {!verify} and raise on any violation (test helper). *)
let check_exn h =
  match verify h with
  | [] -> ()
  | errs ->
      let msg =
        String.concat "; "
          (List.map (fun e -> Printf.sprintf "%s (%s)" e.what e.where) errs)
      in
      failwith ("heap verification failed: " ^ msg)
