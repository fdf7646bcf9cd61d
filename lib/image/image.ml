(** [gbc-image/1]: versioned, CRC-checked heap images.

    See the interface for the contract.  Layout (all integers
    little-endian; heap words as 64-bit two's complement):

    {v
      "GBCIMG01"              8-byte magic
      u32  format version     (1)
      u64  payload length
      payload                 (sections below)
      u32  CRC-32 of payload  (IEEE 802.3, poly 0xEDB88320)
    v}

    Payload sections, in order:

    + geometry and schedule scalars: [stride_bits], [segment_words],
      [max_generation], [card_words], then [gc_epoch], [collect_count],
      [last_gc_generation], [words_allocated_since_gc] (i64) and the
      guardian-id count (u32);
    + the segment table: per live segment, space (u8), generation (u32),
      used (u32), size (u32), large flag (u8) — segments renumbered
      [0..n-1] in ascending id order (the {e image numbering});
    + segment contents: [used] words each, pointers rewritten into the
      image numbering (Data-space words are copied raw: string bodies and
      flonum bit patterns must not be mistaken for pointers);
    + the per-space mutator cursors (i64 image index, -1 for none);
    + the global root cells (count, words, then the free list in order);
    + the per-generation protected lists (obj/rep/tconc words + u32 gid);
    + the symbol section (count, then name + word, sorted by name);
    + named extras (count, then name + word array + opaque bytes).

    Cards, the crossing map and the dirty list are {e not} stored: the
    loader replays the allocator's crossing-map maintenance per object
    and re-derives the remembered set exactly with {!Heap.note_ref} over
    every pointer slot — the rebuilt cards are the precise minimum, which
    {!Verify}'s remembered-set invariant accepts (stale-dirty cards in
    the saved heap were a scanning overapproximation, never roots). *)

open Gbc_runtime

exception Error of string

type extra = { xwords : Word.t array; xbytes : string }

type loaded = {
  heap : Heap.t;
  symbols : (string * Word.t) list;
  extras : (string * extra) list;
  image_bytes : int;
  restored_words : int;
  restored_segments : int;
}

let magic = "GBCIMG01"
let format_version = 1

(* ------------------------------------------------------------------ *)
(* CRC-32                                                              *)

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let crc32 s ~pos ~len =
  let tbl = Lazy.force crc_table in
  let c = ref 0xFFFFFFFF in
  for i = pos to pos + len - 1 do
    c := tbl.((!c lxor Char.code s.[i]) land 0xff) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

(* ------------------------------------------------------------------ *)
(* Little-endian primitives                                            *)

let u8 b v = Buffer.add_uint8 b v
let u32 b v = Buffer.add_int32_le b (Int32.of_int v)
let i64 b v = Buffer.add_int64_le b (Int64.of_int v)

let str b s =
  u32 b (String.length s);
  Buffer.add_string b s

type rd = { buf : string; mutable pos : int; limit : int }

let need r n =
  if n < 0 || r.pos + n > r.limit then
    raise (Error "gbc-image: truncated image payload")

let ru8 r =
  need r 1;
  let v = Char.code r.buf.[r.pos] in
  r.pos <- r.pos + 1;
  v

let ru32 r =
  need r 4;
  let v = Int32.to_int (String.get_int32_le r.buf r.pos) land 0xFFFFFFFF in
  r.pos <- r.pos + 4;
  v

let ri64 r =
  need r 8;
  let v = Int64.to_int (String.get_int64_le r.buf r.pos) in
  r.pos <- r.pos + 8;
  v

let rstr r =
  let n = ru32 r in
  need r n;
  let s = String.sub r.buf r.pos n in
  r.pos <- r.pos + n;
  s

(* ------------------------------------------------------------------ *)
(* Writer                                                              *)

let save_string ?(symbols = []) ?(extras = []) (h : Heap.t) =
  if h.Heap.in_collection then
    raise (Error "gbc-image: cannot save during a collection");
  if h.Heap.alloc_forbidden then
    raise (Error "gbc-image: cannot save from inside a finalization thunk");
  let tel = Heap.telemetry h in
  Telemetry.phase_begin tel Telemetry.Image_save;
  let cfg = Heap.config h in
  let nsegs = h.Heap.nsegs in
  (* Canonical image numbering: live segments 0..n-1 in ascending id
     order.  A freshly loaded heap has exactly ids 0..n-1 live, so
     save -> load -> save reproduces identical bytes. *)
  let imap = Array.make (max 1 nsegs) (-1) in
  let nlive = ref 0 in
  for seg = 0 to nsegs - 1 do
    if h.Heap.infos.(seg).Heap.live then begin
      imap.(seg) <- !nlive;
      incr nlive
    end
  done;
  let live = Array.make (max 1 !nlive) 0 in
  for seg = 0 to nsegs - 1 do
    if imap.(seg) >= 0 then live.(imap.(seg)) <- seg
  done;
  let reloc w =
    if not (Word.is_pointer w) then w
    else begin
      let a = Word.addr w in
      let seg = Heap.seg_of_addr a in
      if seg < 0 || seg >= nsegs || imap.(seg) < 0 then
        raise (Error "gbc-image: save: pointer into a dead segment");
      let off = Heap.off_of_addr a in
      if off >= h.Heap.infos.(seg).Heap.used then
        raise (Error "gbc-image: save: pointer past a segment's used words");
      Word.with_addr w (Heap.addr_of ~seg:imap.(seg) ~off)
    end
  in
  let b = Buffer.create 65536 in
  u32 b Heap.stride_bits;
  u32 b cfg.Config.segment_words;
  u32 b cfg.Config.max_generation;
  u32 b cfg.Config.card_words;
  i64 b h.Heap.gc_epoch;
  i64 b h.Heap.collect_count;
  i64 b h.Heap.last_gc_generation;
  i64 b (Heap.stats h).Stats.words_allocated_since_gc;
  u32 b (Stats.guardian_count (Heap.stats h));
  u32 b !nlive;
  for i = 0 to !nlive - 1 do
    let si = h.Heap.infos.(live.(i)) in
    u8 b (Space.to_index si.Heap.space);
    u32 b si.Heap.generation;
    u32 b si.Heap.used;
    u32 b si.Heap.size;
    u8 b (if si.Heap.large then 1 else 0)
  done;
  let total_words = ref 0 in
  for i = 0 to !nlive - 1 do
    let seg = live.(i) in
    let si = h.Heap.infos.(seg) in
    let arr = h.Heap.segs.(seg) in
    if si.Heap.space = Space.Data then
      (* No pointers by construction, and raw payloads (flonum bit
         patterns) may alias pointer tags: copy verbatim. *)
      for off = 0 to si.Heap.used - 1 do
        i64 b arr.(off)
      done
    else
      for off = 0 to si.Heap.used - 1 do
        i64 b (reloc arr.(off))
      done;
    total_words := !total_words + si.Heap.used
  done;
  for k = 0 to Space.count - 1 do
    let cur = h.Heap.mutator_cursors.(k).Heap.seg in
    i64 b (if cur >= 0 && imap.(cur) >= 0 then imap.(cur) else -1)
  done;
  u32 b h.Heap.global_cells_len;
  for i = 0 to h.Heap.global_cells_len - 1 do
    i64 b (reloc h.Heap.global_cells.(i))
  done;
  u32 b (List.length h.Heap.global_free);
  List.iter (fun i -> u32 b i) h.Heap.global_free;
  for g = 0 to cfg.Config.max_generation do
    let p = h.Heap.protected.(g) in
    let n = Vec.Int.length p.Heap.p_objs in
    u32 b n;
    for i = 0 to n - 1 do
      i64 b (reloc (Vec.Int.get p.Heap.p_objs i));
      i64 b (reloc (Vec.Int.get p.Heap.p_reps i));
      i64 b (reloc (Vec.Int.get p.Heap.p_tconcs i));
      u32 b (Vec.Int.get p.Heap.p_gids i)
    done
  done;
  let symbols =
    List.sort (fun (a, _) (b, _) -> String.compare a b) symbols
  in
  u32 b (List.length symbols);
  List.iter
    (fun (name, w) ->
      str b name;
      i64 b (reloc w))
    symbols;
  u32 b (List.length extras);
  List.iter
    (fun (name, x) ->
      str b name;
      u32 b (Array.length x.xwords);
      Array.iter (fun w -> i64 b (reloc w)) x.xwords;
      str b x.xbytes)
    extras;
  let payload = Buffer.contents b in
  let out = Buffer.create (String.length payload + 32) in
  Buffer.add_string out magic;
  u32 out format_version;
  Buffer.add_int64_le out (Int64.of_int (String.length payload));
  Buffer.add_string out payload;
  u32 out (crc32 payload ~pos:0 ~len:(String.length payload));
  let s = Buffer.contents out in
  Telemetry.phase_end tel Telemetry.Image_save ~work:!total_words;
  Stats.count_image_save (Heap.stats h) ~bytes:(String.length s) ~words:!total_words;
  s

(* ------------------------------------------------------------------ *)
(* Reader                                                              *)

let load_string ?config s =
  let total = String.length s in
  (* magic + version + payload length + CRC is the minimum frame. *)
  if total < 24 then raise (Error "gbc-image: truncated image");
  if not (String.equal (String.sub s 0 8) magic) then
    raise (Error "gbc-image: not a heap image (bad magic)");
  let ver = Int32.to_int (String.get_int32_le s 8) land 0xFFFFFFFF in
  if ver <> format_version then
    raise
      (Error
         (Printf.sprintf
            "gbc-image: unsupported image version %d (this build reads \
             version %d)"
            ver format_version));
  let plen = Int64.to_int (String.get_int64_le s 12) in
  if plen < 0 || total <> 24 + plen then
    raise (Error "gbc-image: truncated image");
  let stored = Int32.to_int (String.get_int32_le s (20 + plen)) land 0xFFFFFFFF in
  if crc32 s ~pos:20 ~len:plen <> stored then
    raise (Error "gbc-image: CRC mismatch (corrupt image)");
  let r = { buf = s; pos = 20; limit = 20 + plen } in
  let sb = ru32 r in
  if sb <> Heap.stride_bits then
    raise
      (Error
         (Printf.sprintf
            "gbc-image: image stride_bits %d does not match this build (%d)"
            sb Heap.stride_bits));
  let segment_words = ru32 r in
  let max_generation = ru32 r in
  let card_words = ru32 r in
  let gc_epoch = ri64 r in
  let collect_count = ri64 r in
  let last_gc_generation = ri64 r in
  let words_since_gc = ri64 r in
  let nguardians = ru32 r in
  let config =
    match config with
    | Some c ->
        if
          c.Config.segment_words <> segment_words
          || c.Config.max_generation <> max_generation
        then
          raise
            (Error
               (Printf.sprintf
                  "gbc-image: image geometry (segment_words %d, \
                   max_generation %d) does not match the supplied config \
                   (%d, %d)"
                  segment_words max_generation c.Config.segment_words
                  c.Config.max_generation));
        c
    | None -> (
        try Config.v ~segment_words ~max_generation ~card_words ()
        with Invalid_argument m ->
          raise (Error ("gbc-image: bad image geometry: " ^ m)))
  in
  let h = Heap.create ~config () in
  let tel = Heap.telemetry h in
  let was_on = Telemetry.enabled tel in
  Telemetry.set_enabled tel true;
  Telemetry.phase_begin tel Telemetry.Image_load;
  (* The loader's own segment acquisitions are exempt from fault
     injection; the config's seed is re-armed below, once the heap is
     whole. *)
  (Heap.faults h).Heap.fail_segment_alloc_at <- 0;
  (* Acquire the segments of a fresh heap in image order as the table is
     read.  A fresh heap hands out ids 0..n-1 in order, so the image
     numbering is the heap's own and no pointer needs rewriting. *)
  let nsegs = ru32 r in
  for i = 0 to nsegs - 1 do
    let sp = ru8 r in
    if sp >= Space.count then
      raise (Error "gbc-image: bad space in the segment table");
    let generation = ru32 r in
    if generation > max_generation then
      raise (Error "gbc-image: bad generation in the segment table");
    let used = ru32 r in
    let size = ru32 r in
    let large = ru8 r <> 0 in
    let consistent =
      used <= size
      && size <= Heap.max_segment_words
      && if large then size > segment_words else size = segment_words
    in
    if not consistent then
      raise (Error "gbc-image: inconsistent segment table");
    let seg =
      try
        Heap.acquire_segment h ~space:(Space.of_index sp) ~generation
          ~min_words:(if large then size else 1)
      with Heap.Out_of_memory ->
        raise
          (Error
             "gbc-image: image does not fit under the configured \
              max_heap_words")
    in
    assert (seg = i);
    (Heap.info h seg).Heap.used <- used
  done;
  (* Every pointer read from the image must land inside a restored
     segment's used words. *)
  let fix w =
    (if Word.is_pointer w then
       let a = Word.addr w in
       let seg = Heap.seg_of_addr a in
       if
         seg < 0 || seg >= nsegs
         || Heap.off_of_addr a >= (Heap.info h seg).Heap.used
       then
         raise (Error "gbc-image: relocation target out of range"));
    w
  in
  (* One pass per segment: copy the contents, re-derive the remembered set
     over every pointer slot (headers are fixnums, so a blanket pointer
     sweep visits exactly the slots; Data-space words are raw payloads and
     stay unexamined), and replay the allocator's crossing-map maintenance
     object by object. *)
  let total_words = ref 0 in
  for seg = 0 to nsegs - 1 do
    let arr = h.Heap.segs.(seg) and si = Heap.info h seg in
    let data = si.Heap.space = Space.Data in
    need r (8 * si.Heap.used);
    for off = 0 to si.Heap.used - 1 do
      let w = Int64.to_int (String.get_int64_le r.buf r.pos) in
      r.pos <- r.pos + 8;
      arr.(off) <- w;
      if (not data) && Word.is_pointer w then
        Heap.note_ref h
          ~addr:(Heap.addr_of ~seg ~off)
          ~gen:(Heap.generation_of_word h (fix w))
    done;
    total_words := !total_words + si.Heap.used;
    match
      Obj.iter_objects h seg ~f:(fun off nwords ->
          Heap.record_crossing h ~seg ~off ~nwords)
    with
    | None -> ()
    | Some (_, Obj.Odd_cell_count) ->
        raise (Error "gbc-image: odd word count in a pair segment")
    | Some (_, Obj.Malformed_header) ->
        raise (Error "gbc-image: bad object header in a typed segment")
    | Some (_, Obj.Overrun) ->
        raise (Error "gbc-image: object overruns its segment")
  done;
  for k = 0 to Space.count - 1 do
    let idx = ri64 r in
    if idx >= nsegs then raise (Error "gbc-image: bad allocation cursor");
    h.Heap.mutator_cursors.(k).Heap.seg <- (if idx < 0 then -1 else idx)
  done;
  let nglobals = ru32 r in
  let cells = ref h.Heap.global_cells in
  while Array.length !cells < nglobals do
    cells := Array.make (2 * Array.length !cells) Word.nil
  done;
  h.Heap.global_cells <- !cells;
  h.Heap.global_cells_len <- nglobals;
  for i = 0 to nglobals - 1 do
    h.Heap.global_cells.(i) <- fix (ri64 r)
  done;
  let nfree = ru32 r in
  let free = ref [] in
  for _ = 1 to nfree do
    let idx = ru32 r in
    if idx >= nglobals then raise (Error "gbc-image: bad free-cell index");
    free := idx :: !free
  done;
  h.Heap.global_free <- List.rev !free;
  for g = 0 to max_generation do
    let n = ru32 r in
    let p = h.Heap.protected.(g) in
    for _ = 1 to n do
      let obj = fix (ri64 r) in
      let rep = fix (ri64 r) in
      let tconc = fix (ri64 r) in
      let gid = ru32 r in
      if gid >= nguardians then
        raise (Error "gbc-image: bad guardian id in a protected list");
      Vec.Int.push p.Heap.p_objs obj;
      Vec.Int.push p.Heap.p_reps rep;
      Vec.Int.push p.Heap.p_tconcs tconc;
      Vec.Int.push p.Heap.p_gids gid
    done
  done;
  h.Heap.gc_epoch <- gc_epoch;
  h.Heap.collect_count <- collect_count;
  h.Heap.last_gc_generation <- last_gc_generation;
  (Heap.stats h).Stats.words_allocated_since_gc <- words_since_gc;
  Stats.restore_guardian_count (Heap.stats h) nguardians;
  let symbols = ref [] in
  let nsyms = ru32 r in
  for _ = 1 to nsyms do
    let name = rstr r in
    let w = fix (ri64 r) in
    symbols := (name, w) :: !symbols
  done;
  let symbols = List.rev !symbols in
  let extras = ref [] in
  let nextras = ru32 r in
  for _ = 1 to nextras do
    let name = rstr r in
    let nw = ru32 r in
    let xwords = Array.make (max 1 nw) Word.nil in
    for j = 0 to nw - 1 do
      xwords.(j) <- fix (ri64 r)
    done;
    let xwords = Array.sub xwords 0 nw in
    let xbytes = rstr r in
    extras := (name, { xwords; xbytes }) :: !extras
  done;
  let extras = List.rev !extras in
  if r.pos <> r.limit then
    raise (Error "gbc-image: trailing bytes in the image payload");
  (Heap.faults h).Heap.fail_segment_alloc_at <-
    config.Config.fail_segment_alloc_at;
  if config.Config.image_verify_on_load then begin
    match Verify.verify h with
    | [] -> ()
    | errs ->
        let worst =
          List.filteri (fun i _ -> i < 3) errs
          |> List.map (fun e -> e.Verify.what ^ " at " ^ e.Verify.where)
          |> String.concat "; "
        in
        raise
          (Error
             (Printf.sprintf
                "gbc-image: restored heap failed verification (%d errors): %s"
                (List.length errs) worst))
  end;
  Telemetry.phase_end tel Telemetry.Image_load ~work:!total_words;
  Telemetry.set_enabled tel was_on;
  Stats.count_image_load (Heap.stats h) ~bytes:total ~words:!total_words;
  {
    heap = h;
    symbols;
    extras;
    image_bytes = total;
    restored_words = !total_words;
    restored_segments = nsegs;
  }

(* ------------------------------------------------------------------ *)
(* Files                                                               *)

let save_image ?symbols ?extras h path =
  let s = save_string ?symbols ?extras h in
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc s)

let load_image ?config path =
  let ic = open_in_bin path in
  let s =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  load_string ?config s
