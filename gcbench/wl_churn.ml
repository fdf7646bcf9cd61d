(* guardian-churn: the OCaml embedding API with no VM.  Each op allocates
   one resource (a pair [(id . payload)]) and registers it: directly with
   one or two of a few guardians, as a [Guarded_table] key, or as a
   [Weak_eq_table] ephemeron key.  A seeded lifetime mix either drops the
   resource at once or parks it in one of two sliding windows long enough
   to be promoted before it dies; short-lived garbage is interleaved.
   After each batch: [Runtime.safepoint], then every guardian is drained.
   Every [rotate_every] ops one guardian is dropped while it still holds
   registrations.

   The oracle is a ledger kept outside the heap: each retrieval must be a
   dropped resource registered with that guardian instance and not yet
   delivered; after the run the windows are cleared and all generations
   collected, and every registration of a live guardian must have been
   delivered exactly once. *)

open Gbc_runtime
open Util
module Guarded_table = Gbc.Guarded_table
module Weak_eq_table = Gbc.Weak_eq_table

let batch_ops = 256
let n_guardians = 4
let rotate_every = 65536
let mid_window = 1024
let long_window = 32768
let pool = 1 lsl 16
let table_size = 4093

(* Op kinds. *)
let k_short = 0 (* guardian, dropped at once *)
let k_mid = 1 (* guardian, mid window *)
let k_long = 2 (* guardian, long window *)
let k_twice = 3 (* two guardians, mid window *)
let k_table_mid = 4
let k_table_long = 5
let k_weak = 6 (* ephemeron entry, dropped at once *)

let draw_kind rng =
  let r = Rng.int rng 100 in
  if r < 44 then k_short
  else if r < 64 then k_mid
  else if r < 74 then k_long
  else if r < 80 then k_twice
  else if r < 88 then k_table_mid
  else if r < 92 then k_table_long
  else k_weak

(* Ledger entry per resource id, packed in one int:
   bits 0..2 flags (dropped, first delivered, second delivered),
   bits 3..26 drop epoch, bits 27..44 first guardian instance,
   bits 45..62 second guardian instance (0 = none). *)
let f_dropped = 1
let f_del1 = 2
let f_del2 = 4
let inst1 e = (e lsr 27) land 0x3FFFF
let inst2 e = (e lsr 45) land 0x3FFFF
let drop_epoch e = (e lsr 3) land 0xFFFFFF

(* The ledger keeps the latest [ring] ids in an array, so its memory does
   not grow with the run; an entry still owed a delivery when its slot is
   reused moves to [overflow] until it is delivered. *)
let ring = 1 lsl 18

type ledger = { slots : int array; overflow : (int, int) Hashtbl.t; mutable next : int }

let owed ~dead e =
  (inst1 e > 0 && (not (dead (inst1 e))) && e land f_del1 = 0)
  || (inst2 e > 0 && (not (dead (inst2 e))) && e land f_del2 = 0)

let ledger_add l ~dead e =
  let i = l.next land (ring - 1) in
  if l.next >= ring && owed ~dead l.slots.(i) then
    Hashtbl.replace l.overflow (l.next - ring) l.slots.(i);
  l.slots.(i) <- e;
  l.next <- l.next + 1

let in_ring l id = id >= l.next - ring && id < l.next

let ledger_get l id =
  if in_ring l id then Some l.slots.(id land (ring - 1)) else Hashtbl.find_opt l.overflow id

let ledger_set l ~dead id e =
  if in_ring l id then l.slots.(id land (ring - 1)) <- e
  else if owed ~dead e then Hashtbl.replace l.overflow id e
  else Hashtbl.remove l.overflow id

(* Cleanup lags, as a histogram of collections. *)
let max_lag = 4096

let setup ~seed ~traced =
  let rng = Rng.create seed in
  let kinds = Bytes.init pool (fun _ -> Char.chr (draw_kind rng)) in
  let garbage = Bytes.init pool (fun _ -> Char.chr (Rng.int rng 4)) in
  let h =
    Heap.create ~config:(Config.v ~gen0_trigger_words:(32 * 1024) ~max_generation:2 ()) ()
  in
  Meter.tracked := [ h ];
  Meter.adopt ~traced h;
  let guardians = Array.init n_guardians (fun _ -> Handle.create h (Guardian.make h)) in
  (* Guardian instance numbers start at 1; dropped ones go in [dead_inst]. *)
  let inst = Array.init n_guardians (fun i -> i + 1) in
  let next_inst = ref (n_guardians + 1) in
  let dead_inst = Hashtbl.create 16 in
  let mid = Handle.create h (Obj.make_vector h ~len:mid_window ~init:Word.nil) in
  let long = Handle.create h (Obj.make_vector h ~len:long_window ~init:Word.nil) in
  let mid_ids = Array.make mid_window (-1) and long_ids = Array.make long_window (-1) in
  let mid_next = ref 0 and long_next = ref 0 in
  let table =
    Guarded_table.create h ~hash:(fun h k -> Word.to_fixnum (Obj.car h k)) ~size:table_size
  in
  let table_inserts = ref 0 in
  let weak = Weak_eq_table.create h ~size:1024 in
  let weak_inserts = ref 0 in
  let dead i = Hashtbl.mem dead_inst i in
  let ledger = { slots = Array.make ring 0; overflow = Hashtbl.create 1024; next = 0 } in
  let lags = Array.make max_lag 0 in
  let delivered = ref 0 in
  let next_id = ref 0 in
  let ops = ref 0 in
  let res = Array.make batch_ops Word.nil in
  let res_kind = Array.make batch_ops 0 in
  let drop id =
    match ledger_get ledger id with
    | Some e -> ledger_set ledger ~dead id (e lor f_dropped lor (Heap.gc_epoch h lsl 3))
    | None -> ()
  in
  let park window ids next id w =
    let slot = !next in
    next := (slot + 1) mod Array.length ids;
    let old = ids.(slot) in
    if old >= 0 then drop old;
    ids.(slot) <- id;
    Obj.vector_set h (Handle.get window) slot w
  in
  let deliver j w =
    let bad () = incr Workload.failed in
    if not (Word.is_pair_ptr w) then bad ()
    else begin
      let id = Word.to_fixnum (Obj.car h w) in
      match ledger_get ledger id with
      | None -> bad ()
      | Some e ->
        let i = inst.(j) in
        let flag =
          if inst1 e = i && e land f_del1 = 0 then f_del1
          else if inst2 e = i && e land f_del2 = 0 then f_del2
          else 0
        in
        if flag = 0 || e land f_dropped = 0 then bad ()
        else begin
          ledger_set ledger ~dead id (e lor flag);
          incr delivered;
          if !Meter.timing then begin
            let lag = min (max_lag - 1) (Heap.gc_epoch h - drop_epoch e) in
            lags.(lag) <- lags.(lag) + 1
          end
        end
    end
  in
  let drain () =
    let polls = ref 0 in
    for j = 0 to n_guardians - 1 do
      let g = Handle.get guardians.(j) in
      let rec loop () =
        incr polls;
        match Guardian.retrieve h g with
        | Some w ->
            deliver j w;
            loop ()
        | None -> ()
      in
      loop ()
    done;
    !polls
  in
  let batch () =
    let base = !ops in
    Spans.set_op (base / batch_ops);
    (* Allocation: the resources and interleaved garbage. *)
    let sp = Spans.enter "heap.alloc" in
    let w0 = (Heap.stats h).Stats.words_allocated in
    for k = 0 to batch_ops - 1 do
      let op = (base + k) land (pool - 1) in
      let id = !next_id + k in
      res.(k) <- Obj.cons h (Word.of_fixnum id) (Word.of_fixnum (op lxor seed));
      res_kind.(k) <- Char.code (Bytes.get kinds op);
      for g = 1 to Char.code (Bytes.get garbage op) do
        ignore (Obj.cons h (Word.of_fixnum g) Word.nil)
      done
    done;
    Spans.leave ~calls:((Heap.stats h).Stats.words_allocated - w0) sp;
    (* Registration. *)
    let sp = Spans.enter "guardian.register" in
    let regs = ref 0 in
    for k = 0 to batch_ops - 1 do
      let id = !next_id + k in
      let kind = res_kind.(k) in
      if kind <= k_twice then begin
        let j = (id * 7) mod n_guardians in
        Guardian.register h (Handle.get guardians.(j)) res.(k);
        incr regs;
        let second =
          if kind = k_twice then begin
            let j2 = (j + 1) mod n_guardians in
            Guardian.register h (Handle.get guardians.(j2)) res.(k);
            incr regs;
            inst.(j2)
          end
          else 0
        in
        ledger_add ledger ~dead ((inst.(j) lsl 27) lor (second lsl 45))
      end
      else ledger_add ledger ~dead 0
    done;
    Spans.leave ~calls:!regs sp;
    let sp = Spans.enter "guarded_table.access" in
    let accesses = ref 0 in
    for k = 0 to batch_ops - 1 do
      let kind = res_kind.(k) in
      if kind = k_table_mid || kind = k_table_long then begin
        let v = Word.of_fixnum (!next_id + k) in
        Workload.fail_if (not (Word.equal (Guarded_table.access table res.(k) v) v));
        incr table_inserts;
        incr accesses
      end
    done;
    Spans.leave ~calls:!accesses sp;
    let sp = Spans.enter "weak_eq_table.set" in
    let sets = ref 0 in
    for k = 0 to batch_ops - 1 do
      if res_kind.(k) = k_weak then begin
        Weak_eq_table.set weak res.(k) (Obj.cons h res.(k) Word.nil);
        incr weak_inserts;
        incr sets
      end
    done;
    Spans.leave ~calls:!sets sp;
    (* Window stores run the write barrier; dropping is recorded here. *)
    let sp = Spans.enter "barrier.store" in
    let stores = ref 0 in
    for k = 0 to batch_ops - 1 do
      let id = !next_id + k in
      let kind = res_kind.(k) in
      if kind = k_mid || kind = k_twice || kind = k_table_mid then begin
        park mid mid_ids mid_next id res.(k);
        incr stores
      end
      else if kind = k_long || kind = k_table_long then begin
        park long long_ids long_next id res.(k);
        incr stores
      end
      else drop id
    done;
    Spans.leave ~calls:!stores sp;
    next_id := !next_id + batch_ops;
    ops := !ops + batch_ops;
    let sp = Spans.enter "runtime.safepoint" in
    Runtime.safepoint h;
    Spans.leave sp;
    let sp = Spans.enter "guardian.retrieve" in
    let polls = drain () in
    Spans.leave ~calls:polls sp;
    if !ops mod rotate_every = 0 then begin
      (* Drop a guardian that still holds registrations. *)
      let j = !ops / rotate_every mod n_guardians in
      Hashtbl.replace dead_inst inst.(j) ();
      Handle.free guardians.(j);
      guardians.(j) <- Handle.create h (Guardian.make h);
      inst.(j) <- !next_inst;
      incr next_inst
    end;
    batch_ops
  in
  let finish () =
    (* Drop everything, collect every generation once, drain. *)
    let clear window ids =
      Array.iteri
        (fun slot id ->
          if id >= 0 then begin
            drop id;
            ids.(slot) <- -1;
            Obj.vector_set h (Handle.get window) slot Word.nil
          end)
        ids
    in
    clear mid mid_ids;
    clear long long_ids;
    ignore (Runtime.collect ~gen:(Heap.max_generation h) h);
    ignore (drain ());
    Guarded_table.expunge table;
    Weak_eq_table.prune_all weak;
    let missing =
      ref (Hashtbl.fold (fun _ e n -> if owed ~dead e then n + 1 else n) ledger.overflow 0)
    in
    for id = max 0 (ledger.next - ring) to ledger.next - 1 do
      if owed ~dead ledger.slots.(id land (ring - 1)) then incr missing
    done;
    [
      ("every live registration delivered exactly once", !missing = 0);
      ( "guarded table expunged every key",
        Guarded_table.count table = 0 && Guarded_table.expunged table = !table_inserts );
      ("weak table empty", Weak_eq_table.count weak = 0);
    ]
  in
  let lag_p99 () =
    let total = Array.fold_left ( + ) 0 lags in
    let rank = (99 * total + 99) / 100 in
    let rec go lag seen =
      if lag >= max_lag - 1 || seen + lags.(lag) >= rank then lag
      else go (lag + 1) (seen + lags.(lag))
    in
    go 0 0
  in
  {
    Workload.batch;
    batch_ops;
    finish;
    report =
      (fun () ->
        [ { Workload.name = "cleanup_lag_p99_gcs"; value = float (lag_p99 ()); unit = "gcs";
            exact = true } ]);
    counters =
      (fun () ->
        [
          ("delivered", !delivered);
          ("guarded_table.expunged", Guarded_table.expunged table);
          ("guarded_table.expunge_steps", Guarded_table.expunge_steps table);
          ("weak_eq_table.inserts", !weak_inserts);
        ]);
    layer = (fun () -> []);
  }

let workload = { Workload.name = "guardian-churn"; setup }
