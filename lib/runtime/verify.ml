(** Heap invariant verifier: a debugging walk over the whole heap that
    checks structural invariants the collector relies on.  Used by the test
    suites after collections; cheap enough to run in anger when debugging.

    Checked invariants:
    - segment table: live segments have sane sizes, generations and used
      counts; pair/weak segments hold whole two-word cells;
    - object parse: typed/data segments parse as a sequence of well-formed
      headers covering exactly [used] words;
    - pointers: every pointer field points into a live segment, at a valid
      object start, and never at a forwarding marker outside a collection;
    - spaces: weak pairs live only in weak space; headers only in
      typed/data space;
    - remembered set: a pointer from an older into a younger generation is
      covered by the segment's [min_ref_gen] AND by the byte of the card
      holding the pointer slot (card-granular precision);
    - protected lists: entries of generation [i]'s list reference objects
      and tconcs in generations [>= i] (or immediates). *)

type error = { what : string; where : string }

let errf errors what fmt =
  Format.kasprintf (fun where -> errors := { what; where } :: !errors) fmt

let verify h =
  let errors = ref [] in
  let max_gen = Heap.max_generation h in
  (* Pass 1: parse each live segment once, reporting structural errors and
     marking object starts (one byte per word).  A malformed or overrunning
     object is a start but ends the parse at [parsed.(seg)]. *)
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
      parsed.(seg) <- used;
      let off = ref 0 in
      let stop () =
        parsed.(seg) <- !off;
        off := used
      in
      match si.Heap.space with
      | Space.Pair | Space.Weak | Space.Ephemeron ->
          if used mod 2 <> 0 then
            errf errors "odd used count in pair segment" "seg %d used %d" seg used;
          while !off < used do
            Bytes.set b !off '\001';
            off := !off + 2
          done
      | Space.Typed | Space.Data ->
          while !off < used do
            Bytes.set b !off '\001';
            let hdr = Heap.load h (Heap.addr_of ~seg ~off:!off) in
            if not (Word.is_fixnum hdr) then begin
              errf errors "malformed header" "seg %d off %d" seg !off;
              stop ()
            end
            else begin
              let len = Obj.header_len hdr and code = Obj.header_code hdr in
              if !off + 1 + len > used then begin
                errf errors "object overruns segment" "seg %d off %d len %d" seg !off len;
                stop ()
              end
              else begin
                if code > Obj.code_pad then
                  errf errors "unknown type code" "seg %d off %d code %d" seg !off code;
                off := !off + 1 + len
              end
            end
          done
    end
  done;
  let check_pointer ~from_seg ~from_off ~slot w =
    if Word.is_pointer w then begin
      let addr = Word.addr w in
      let seg = Heap.seg_of_addr addr in
      let off = Heap.off_of_addr addr in
      if seg < 0 || seg >= h.Heap.nsegs then
        errf errors "pointer to unknown segment" "%s -> seg %d" slot seg
      else begin
        let ti = Heap.info h seg in
        if not ti.Heap.live then errf errors "pointer into freed segment" "%s" slot
        else if off >= ti.Heap.used then
          errf errors "pointer past used area" "%s -> seg %d off %d used %d" slot seg off
            ti.Heap.used
        else if Bytes.get starts.(seg) off = '\000' then
          errf errors "pointer to object interior" "%s -> seg %d off %d" slot seg off
        else begin
          (match (Word.is_pair_ptr w, ti.Heap.space) with
          | true, (Space.Pair | Space.Weak | Space.Ephemeron) -> ()
          | true, _ -> errf errors "pair pointer into non-pair space" "%s" slot
          | false, (Space.Typed | Space.Data) -> ()
          | false, _ -> errf errors "typed pointer into pair space" "%s" slot);
          if Word.equal (Heap.load h addr) Word.forward_marker then
            errf errors "pointer at forwarding marker outside collection" "%s" slot;
          (* Remembered-set invariant, at both granularities. *)
          let fi = Heap.info h from_seg in
          if ti.Heap.generation < fi.Heap.generation then begin
            if ti.Heap.generation < fi.Heap.min_ref_gen then
              errf errors "old-to-young pointer not remembered"
                "%s: seg %d gen %d min_ref %d -> gen %d" slot from_seg fi.Heap.generation
                fi.Heap.min_ref_gen ti.Heap.generation;
            let card = Heap.card_of_off h from_off in
            let cg = Heap.card_min_gen h ~seg:from_seg ~card in
            if ti.Heap.generation < cg then
              errf errors "old-to-young pointer's card not marked"
                "%s: seg %d card %d byte %d -> gen %d" slot from_seg card cg
                ti.Heap.generation
          end
        end
      end
    end
    else if Word.equal w Word.forward_marker then
      errf errors "forwarding marker stored as a value" "%s" slot
  in
  (* Pass 2: the traced slots of every recorded object.  The car of a weak
     pair is weak but must still be a valid word; broken cars are #f. *)
  for seg = 0 to h.Heap.nsegs - 1 do
    let si = Heap.info h seg in
    if si.Heap.live && si.Heap.space <> Space.Data then
      for off = 0 to parsed.(seg) - 1 do
        if Bytes.get starts.(seg) off <> '\000' then begin
          let addr = Heap.addr_of ~seg ~off in
          let check i slot =
            check_pointer ~from_seg:seg ~from_off:(off + i) ~slot (Heap.load h (addr + i))
          in
          if si.Heap.space <> Space.Typed then begin
            check 0 (Printf.sprintf "seg %d off %d car" seg off);
            check 1 (Printf.sprintf "seg %d off %d cdr" seg off)
          end
          else begin
            let hdr = Heap.load h addr in
            if Obj.header_code hdr <> Obj.code_pad then
              for i = 1 to Obj.header_len hdr do
                check i (Printf.sprintf "seg %d off %d field %d" seg off (i - 1))
              done
          end
        end
      done
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
