(* The benchmark harness: one section per experiment in DESIGN.md /
   EXPERIMENTS.md (the paper has no numeric tables; these regenerate the
   complexity claims of the abstract and Section 1 plus the behaviour of
   every code artifact in Section 3).

   Run with: dune exec bench/main.exe *)

open Gbc_runtime
module Guarded_table = Gbc.Guarded_table
module Eq_table = Gbc.Eq_table
module Free_pool = Gbc.Free_pool
module Guarded_port = Gbc.Guarded_port
module Port = Gbc.Port
module Ctx = Gbc.Ctx
module Weak_set = Gbc_baselines.Weak_set
module Finalize = Gbc_baselines.Finalize
open Bench_util

let fx = Word.of_fixnum
let cfg = Config.v ~max_generation:3 ()

let full_collect h = ignore (Collector.collect h ~gen:(Heap.max_generation h))

(* Root a list of n fresh pairs; return the handle and the object words. *)
let alloc_rooted_pairs h n =
  let keep = Handle.create h Word.nil in
  let objs = Array.make n Word.nil in
  for i = 0 to n - 1 do
    let x = Obj.cons h (fx i) Word.nil in
    objs.(i) <- x;
    Handle.set keep (Obj.cons h x (Handle.get keep))
  done;
  (keep, objs)

(* Refresh [objs] from the rooted list after collections. *)
let refresh_objs h keep objs =
  let n = Array.length objs in
  let rec walk l i =
    if i >= 0 then begin
      objs.(i) <- Obj.car h l;
      walk (Obj.cdr h l) (i - 1)
    end
  in
  walk (Handle.get keep) (n - 1)

(* ================================================================== *)
(* E1: generation-friendliness (claim C1)                             *)

let e1 () =
  section
    "E1  generation-friendly collector: minor-GC guardian overhead vs. number \
     of old registered objects";
  print_endline
    "  Claim (abstract): overhead within the collector is proportional to the\n\
    \  work already done there; no overhead for objects in generations not\n\
    \  being collected.  The weak-set baseline must scan all N members to\n\
    \  discover even zero deaths.";
  let rows =
    List.map
      (fun n ->
        (* Guardians: N live objects registered, promoted old. *)
        let h = make_heap ~config:cfg () in
        let g = Handle.create h (Guardian.make h) in
        let keep, objs = alloc_rooted_pairs h n in
        Array.iter (fun x -> Guardian.register h (Handle.get g) x) objs;
        (* First minor GC: visits the N fresh entries once, promotes them. *)
        ignore (Collector.collect h ~gen:0);
        let first_visit = (Heap.stats h).Stats.last.Stats.protected_entries_visited in
        ignore (Collector.collect h ~gen:1);
        ignore (Collector.collect h ~gen:2);
        (* Steady state: a minor GC over fresh garbage. *)
        for i = 0 to 999 do
          ignore (Obj.cons h (fx i) Word.nil)
        done;
        let (_ : Collector.outcome), minor_us =
          time_once (fun () -> Collector.collect h ~gen:0)
        in
        let steady_visit = (Heap.stats h).Stats.last.Stats.protected_entries_visited in
        ignore keep;
        (* Weak-set baseline: N members promoted old; the mutator scans to
           learn of deaths after the same minor GC. *)
        let h2 = make_heap ~config:cfg () in
        let ws = Weak_set.create h2 in
        let keep2, objs2 = alloc_rooted_pairs h2 n in
        Array.iter (Weak_set.add ws) objs2;
        ignore (Collector.collect h2 ~gen:0);
        ignore (Collector.collect h2 ~gen:1);
        ignore (Collector.collect h2 ~gen:2);
        for i = 0 to 999 do
          ignore (Obj.cons h2 (fx i) Word.nil)
        done;
        ignore (Collector.collect h2 ~gen:0);
        let before = Weak_set.scan_steps ws in
        let deaths, scan_us = time_once (fun () -> Weak_set.scan_for_dropped ws) in
        let scan_work = Weak_set.scan_steps ws - before in
        ignore keep2;
        [
          string_of_int n;
          string_of_int first_visit;
          string_of_int steady_visit;
          fmt_us minor_us;
          string_of_int deaths;
          string_of_int scan_work;
          fmt_us scan_us;
        ])
      [ 1_000; 4_000; 16_000; 64_000 ]
  in
  table
    ~header:
      [
        "N old objects";
        "entries visited (1st GC)";
        "entries visited (steady minor GC)";
        "minor GC us";
        "weak-set deaths";
        "weak-set scan work";
        "weak-set scan us";
      ]
    rows;
  print_endline
    "  -> guardian column is 0 in steady state regardless of N (paper's claim);\n\
    \     the weak-set scan pays N every time to find 0 deaths.";
  (* E1b: the D1 ablation — same mechanism with a single (generation-0)
     protected list instead of per-generation lists. *)
  subsection "E1b  ablation (D1): single protected list vs per-generation lists";
  let ablation_rows =
    List.concat_map
      (fun friendly ->
        List.map
          (fun n ->
            let config = Config.v ~max_generation:3 ~generation_friendly_guardians:friendly () in
            let h = make_heap ~config () in
            let g = Handle.create h (Guardian.make h) in
            let keep, objs = alloc_rooted_pairs h n in
            Array.iter (fun x -> Guardian.register h (Handle.get g) x) objs;
            ignore (Collector.collect h ~gen:0);
            ignore (Collector.collect h ~gen:1);
            ignore (Collector.collect h ~gen:2);
            let (_ : Collector.outcome), us = time_once (fun () -> Collector.collect h ~gen:0) in
            let visited = (Heap.stats h).Stats.last.Stats.protected_entries_visited in
            ignore keep;
            [
              (if friendly then "per-generation (paper)" else "single list (ablation)");
              string_of_int n;
              string_of_int visited;
              fmt_us us;
            ])
          [ 4_000; 16_000; 64_000 ])
      [ true; false ]
  in
  table
    ~header:[ "protected lists"; "N old objects"; "entries visited by minor GC"; "minor GC us" ]
    ablation_rows;
  print_endline
    "  -> without per-generation lists the guardian overhead of a minor GC\n\
    \     grows linearly with the registered population — the cost the paper's\n\
    \     design eliminates."

(* ================================================================== *)
(* E2: mutator overhead proportional to clean-ups (claim C2)          *)

let e2 () =
  section "E2  mutator overhead proportional to clean-up actions performed";
  print_endline
    "  A guarded table with N live keys and d dead keys pays O(d) on the next\n\
    \  access; a weak-set-backed table pays O(N).";
  let key h i = Obj.cons h (fx i) (fx i) in
  let stable_hash h w = if Word.is_pair_ptr w then Word.to_fixnum (Obj.car h w) else 0 in
  let d = 16 in
  let rows =
    List.map
      (fun n ->
        (* Guarded table. *)
        let h = make_heap ~config:cfg () in
        let t = Guarded_table.create h ~hash:stable_hash ~size:1024 in
        let keep, objs = alloc_rooted_pairs h n in
        Array.iter (fun k -> Guarded_table.set t k (fx 0)) objs;
        full_collect h;
        refresh_objs h keep objs;
        ignore (Guarded_table.lookup t (key h (-1)));
        (* Kill d keys: rebuild the root list without the first d. *)
        Handle.set keep Word.nil;
        Array.iteri
          (fun i x -> if i >= d then Handle.set keep (Obj.cons h x (Handle.get keep)))
          objs;
        full_collect h;
        let steps0 = Guarded_table.expunge_steps t in
        let (), access_us =
          time_once (fun () -> ignore (Guarded_table.lookup t (key h (-1))))
        in
        let work = Guarded_table.expunge_steps t - steps0 in
        let expunged = Guarded_table.expunged t in
        (* Weak-set table baseline: find dead keys by scanning everything. *)
        let h2 = make_heap ~config:cfg () in
        let ws = Weak_set.create h2 in
        let keep2, objs2 = alloc_rooted_pairs h2 n in
        Array.iter (Weak_set.add ws) objs2;
        full_collect h2;
        refresh_objs h2 keep2 objs2;
        Handle.set keep2 Word.nil;
        Array.iteri
          (fun i x -> if i >= d then Handle.set keep2 (Obj.cons h2 x (Handle.get keep2)))
          objs2;
        full_collect h2;
        let before = Weak_set.scan_steps ws in
        let deaths, scan_us = time_once (fun () -> Weak_set.scan_for_dropped ws) in
        let scan_work = Weak_set.scan_steps ws - before in
        [
          string_of_int n;
          string_of_int expunged;
          string_of_int work;
          fmt_us access_us;
          string_of_int deaths;
          string_of_int scan_work;
          fmt_us scan_us;
        ])
      [ 256; 1_024; 4_096; 16_384 ]
  in
  table
    ~header:
      [
        "N live keys";
        "guardian: dead expunged";
        "guardian: work";
        "guardian: access us";
        "weak-set: deaths";
        "weak-set: scan work";
        "weak-set: scan us";
      ]
    rows;
  print_endline
    "  -> guardian work tracks d (16 deaths), independent of N; the weak-set\n\
    \     scan grows linearly with N."

(* ================================================================== *)
(* E3: Figure 1 guarded hash table under churn                        *)

let e3 () =
  section "E3  guarded hash table (Figure 1): self-cleaning under churn";
  let key h i = Obj.cons h (fx i) (fx i) in
  let stable_hash h w = if Word.is_pair_ptr w then Word.to_fixnum (Obj.car h w) else 0 in
  let churn ~guarded =
    let h = make_heap ~config:cfg () in
    let t = Guarded_table.create ~guarded h ~hash:stable_hash ~size:64 in
    let window = Array.make 64 None in
    for i = 0 to 4095 do
      let k = Handle.create h (key h i) in
      Guarded_table.set t (Handle.get k) (fx i);
      (match window.(i mod 64) with Some old -> Handle.free old | None -> ());
      window.(i mod 64) <- Some k;
      if i mod 256 = 255 then full_collect h
    done;
    full_collect h;
    ignore (Guarded_table.lookup t (key h (-1)));
    (t, window)
  in
  let tg, wg = churn ~guarded:true in
  let tu, wu = churn ~guarded:false in
  table
    ~header:[ "variant"; "inserts"; "live window"; "associations held"; "stale entries" ]
    [
      [
        "guarded (Figure 1)";
        "4096";
        "64";
        string_of_int (Guarded_table.count tg);
        string_of_int (Guarded_table.stale_count tg);
      ];
      [
        "unguarded";
        "4096";
        "64";
        string_of_int (Guarded_table.count tu);
        string_of_int (Guarded_table.stale_count tu);
      ];
    ];
  Array.iter (function Some k -> Handle.free k | None -> ()) wg;
  Array.iter (function Some k -> Handle.free k | None -> ()) wu;
  print_endline
    "  -> the guarded table stays bounded by the live set; the unguarded\n\
    \     variant accretes one dead association per dropped key.";
  (* Op-cost timing. *)
  let h = make_heap ~config:cfg () in
  let t = Guarded_table.create h ~hash:stable_hash ~size:1024 in
  let _keep, objs = alloc_rooted_pairs h 1024 in
  Array.iter (fun k -> Guarded_table.set t k (fx 1)) objs;
  let i = ref 0 in
  run_tests
    [
      Bechamel.Test.make ~name:"e3: guarded-table lookup (hit, no deaths)"
        (Bechamel.Staged.stage (fun () ->
             i := (!i + 1) land 1023;
             ignore (Guarded_table.lookup t objs.(!i))));
    ]

(* ================================================================== *)
(* E4: transport guardian vs full rehash                              *)

let e4 () =
  section "E4  eq-table rehashing: transport guardian vs full rehash";
  let n = 2000 and minors = 20 in
  let run strategy =
    let h = make_heap ~config:cfg () in
    let t = Eq_table.create h ~strategy ~size:512 in
    let keep, objs = alloc_rooted_pairs h n in
    Array.iteri (fun i k -> Eq_table.set t k (fx i)) objs;
    for g = 0 to 2 do
      ignore (Collector.collect h ~gen:g);
      refresh_objs h keep objs;
      ignore (Eq_table.lookup t objs.(0))
    done;
    let base = Eq_table.rehash_work t in
    let total_us = ref 0.0 in
    for _ = 1 to minors do
      for j = 0 to 499 do
        ignore (Obj.cons h (fx j) Word.nil)
      done;
      ignore (Collector.collect h ~gen:0);
      let (), us = time_once (fun () -> ignore (Eq_table.lookup t objs.(0))) in
      total_us := !total_us +. us
    done;
    (Eq_table.rehash_work t - base, !total_us)
  in
  let full_work, full_us = run `Full_rehash in
  let tr_work, tr_us = run `Transport in
  table
    ~header:
      [ "strategy"; "old keys"; "minor GCs"; "entries re-bucketed"; "total lookup us" ]
    [
      [
        "full rehash";
        string_of_int n;
        string_of_int minors;
        string_of_int full_work;
        fmt_us full_us;
      ];
      [
        "transport guardian";
        string_of_int n;
        string_of_int minors;
        string_of_int tr_work;
        fmt_us tr_us;
      ];
    ];
  print_endline
    "  -> the transport guardian's markers age with the keys: minor GCs report\n\
    \     nothing, so steady-state rehash work drops to ~0 (paper Section 3)."

(* ================================================================== *)
(* E5: guarded ports                                                  *)

let e5 () =
  section "E5  dropped ports: descriptors leaked and bytes lost";
  let records = 200 in
  let run ~guarded =
    let config = Config.v ~gen0_trigger_words:4096 () in
    let ctx = make_ctx ~config ~fd_limit:16 () in
    let h = Ctx.heap ctx in
    let gp = Guarded_port.create ctx in
    if guarded then Guarded_port.install_collect_handler gp;
    let completed = ref 0 in
    (try
       for i = 0 to records - 1 do
         let name = Printf.sprintf "r%d" i in
         let p =
           if guarded then Guarded_port.open_output gp name else Port.open_output ctx name
         in
         Port.write_string ctx p "payload";
         if i mod 2 = 0 then Port.close ctx p;
         incr completed;
         for j = 0 to 400 do
           ignore (Obj.cons h (fx j) Word.nil)
         done;
         Runtime.safepoint h
       done
     with Gbc_vfs.Vfs.Descriptor_exhausted -> ());
    if guarded then Guarded_port.exit gp;
    Runtime.set_collect_request_handler h None;
    ( !completed,
      Gbc_vfs.Vfs.leaked (Ctx.vfs ctx),
      Guarded_port.closed_by_guardian gp,
      Guarded_port.flushed_bytes gp )
  in
  let c1, l1, _, _ = run ~guarded:false in
  let c2, l2, closed, flushed = run ~guarded:true in
  table
    ~header:
      [ "variant"; "records completed"; "fds leaked"; "closed by guardian"; "bytes rescued" ]
    [
      [ "unguarded"; Printf.sprintf "%d/%d" c1 records; string_of_int l1; "-"; "-" ];
      [
        "guarded (paper §3)";
        Printf.sprintf "%d/%d" c2 records;
        string_of_int l2;
        string_of_int closed;
        string_of_int flushed;
      ];
    ];
  print_endline
    "  -> without guardians the workload dies of descriptor exhaustion; with\n\
    \     close-dropped-ports installed as the collect-request handler it\n\
    \     completes with zero leaks and no lost buffered output."

(* ================================================================== *)
(* E6: free-list recycling                                            *)

let e6 () =
  section "E6  free-list recycling of expensive objects";
  let build h = Obj.make_vector h ~len:256 ~init:(fx 7) in
  let run collect =
    let h = make_heap ~config:cfg () in
    let pool = Free_pool.create ~capacity:8 h ~build in
    for _ = 0 to 499 do
      ignore (Free_pool.acquire pool);
      collect h
    done;
    pool
  in
  (* Minor-only collections exhibit a genuinely generational effect: a
     recycled object lives in generation 1, so its next death is only
     proven by a generation-1 collection — reuse alternates. *)
  let minor = run (fun h -> ignore (Collector.collect h ~gen:0)) in
  let sched = run (fun h -> ignore (Runtime.collect_auto h)) in
  let full = run full_collect in
  let row name pool =
    [
      name;
      "500";
      string_of_int (Free_pool.built pool);
      string_of_int (Free_pool.recycled pool);
      string_of_int (Free_pool.recycled pool * 100 / 500);
    ]
  in
  table
    ~header:[ "collection schedule"; "acquires"; "built"; "recycled"; "reuse %" ]
    [
      row "minor only" minor;
      row "radix schedule" sched;
      row "full each time" full;
    ];
  print_endline
    "  -> recycled objects age into older generations; how quickly their next\n\
    \     death is noticed depends on the collection schedule.";
  let h2 = make_heap ~config:cfg () in
  let pool2 = Free_pool.create ~capacity:8 h2 ~build in
  ignore (Free_pool.acquire pool2);
  full_collect h2;
  run_tests
    [
      Bechamel.Test.make ~name:"e6: acquire via pool (recycled)"
        (Bechamel.Staged.stage (fun () ->
             ignore (Free_pool.acquire pool2);
             full_collect h2));
      Bechamel.Test.make ~name:"e6: build from scratch + gc"
        (Bechamel.Staged.stage (fun () ->
             ignore (build h2);
             full_collect h2));
    ]

(* ================================================================== *)
(* E7: pause proportional to live data, not garbage                   *)

let e7 () =
  section "E7  collection cost proportional to retained data, not to garbage";
  let measure ~live ~garbage =
    let h = make_heap ~config:cfg () in
    let keep, _ = alloc_rooted_pairs h live in
    for i = 0 to garbage - 1 do
      ignore (Obj.cons h (fx i) Word.nil)
    done;
    let (_ : Collector.outcome), us = time_once (fun () -> Collector.collect h ~gen:0) in
    let copied = (Heap.stats h).Stats.last.Stats.words_copied in
    ignore keep;
    (copied, us)
  in
  print_endline "  fixed live set (1000 pairs), varying garbage:";
  let rows =
    List.map
      (fun g ->
        let copied, us = measure ~live:1000 ~garbage:g in
        [ string_of_int g; string_of_int copied; fmt_us us ])
      [ 1_000; 10_000; 100_000; 400_000 ]
  in
  table ~header:[ "garbage pairs"; "words copied"; "pause us" ] rows;
  print_endline "  fixed garbage (100k pairs), varying live set:";
  let rows =
    List.map
      (fun l ->
        let copied, us = measure ~live:l ~garbage:100_000 in
        [ string_of_int l; string_of_int copied; fmt_us us ])
      [ 1_000; 4_000; 16_000; 64_000 ]
  in
  table ~header:[ "live pairs"; "words copied"; "pause us" ] rows;
  print_endline
    "  -> copying work is exactly proportional to the live set and flat in the\n\
    \     amount of garbage (Section 1's argument for collection over explicit\n\
    \     freeing)."

(* ================================================================== *)
(* E8: Dickey register-for-finalization restrictions and cost         *)

let e8 () =
  section "E8  register-for-finalization baseline (Dickey, Section 2)";
  let n = 10_000 in
  let h = make_heap ~config:cfg () in
  let f = Finalize.create h in
  let keep, objs = alloc_rooted_pairs h n in
  let alloc_errors = ref 0 in
  Array.iter
    (fun x ->
      Finalize.register f x ~thunk:(fun () ->
          (* The restriction: allocation inside a finalization thunk fails. *)
          try ignore (Obj.cons h (fx 0) Word.nil)
          with Heap.Allocation_forbidden -> incr alloc_errors))
    objs;
  ignore (Collector.collect h ~gen:0);
  let scan_per_gc = Finalize.scan_steps f in
  ignore (Collector.collect h ~gen:0);
  let scan_two = Finalize.scan_steps f in
  Handle.set keep Word.nil;
  full_collect h;
  table
    ~header:
      [
        "registrations";
        "registry scans per minor GC";
        "thunks run";
        "allocation errors inside thunks";
      ]
    [
      [
        string_of_int n;
        Printf.sprintf "%d then %d" scan_per_gc (scan_two - scan_per_gc);
        string_of_int (Finalize.finalized f);
        string_of_int !alloc_errors;
      ];
    ];
  print_endline
    "  -> every collection rescans the whole registry (guardians: 0 in steady\n\
    \     state, see E1), and clean-up code cannot allocate — the restriction\n\
    \     guardians remove."

(* ================================================================== *)
(* E9: tconc operation costs (Figures 2-4)                            *)

let e9 () =
  section "E9  tconc protocol: operation costs and interleaving safety";
  let h = make_heap ~config:cfg () in
  let tc = Handle.create h (Tconc.make h) in
  run_tests
    [
      Bechamel.Test.make ~name:"e9: collector enqueue + mutator dequeue"
        (Bechamel.Staged.stage (fun () ->
             Tconc.enqueue_with h
               ~alloc_pair:(fun a b -> Obj.cons h a b)
               (Handle.get tc) (fx 1);
             ignore (Tconc.dequeue h (Handle.get tc))));
      Bechamel.Test.make ~name:"e9: dequeue on empty"
        (Bechamel.Staged.stage (fun () -> ignore (Tconc.dequeue h (Handle.get tc))));
    ];
  (* Interleaving safety (summarized; the full checker runs in the tests). *)
  let safe = ref 0 and total = ref 0 in
  List.iter
    (fun initial ->
      for pause = 0 to Tconc.Dequeue.total_steps do
        incr total;
        let h = make_heap () in
        let tc = Tconc.make h in
        List.iter (fun i -> Tconc.mutator_enqueue h tc (fx i)) initial;
        let d = Tconc.Dequeue.start tc in
        let steps = ref 0 and finished = ref false and result = ref None in
        let enqueued = ref false in
        while not !finished do
          if !steps = pause && not !enqueued then begin
            enqueued := true;
            Tconc.enqueue_with h ~alloc_pair:(fun a b -> Obj.cons h a b) tc (fx 99)
          end;
          match Tconc.Dequeue.step h d with
          | `More -> incr steps
          | `Done r ->
              result := r;
              finished := true
        done;
        let contents = List.map Word.to_fixnum (Tconc.to_list h tc) in
        let dequeued = match !result with Some w -> [ Word.to_fixnum w ] | None -> [] in
        let expect = if !enqueued then initial @ [ 99 ] else initial in
        if List.sort compare (dequeued @ contents) = List.sort compare expect then incr safe
      done)
    [ []; [ 1 ]; [ 1; 2 ]; [ 1; 2; 3 ] ];
  Printf.printf "  interleaving points checked: %d, linearizable: %d\n" !total !safe

(* ================================================================== *)
(* E12 (extension): ephemerons vs weak pairs on key-in-value tables    *)

let e12 () =
  section
    "E12  extension: ephemerons vs weak pairs when values reference their keys";
  print_endline
    "  A weak table whose values mention their own keys retains every entry\n\
    \  forever (key <- value <- weak cdr); ephemeron entries collapse.  This\n\
    \  is the post-paper extension Chez Scheme later adopted.";
  let n = 1000 in
  let run ~ephemeron =
    let h = make_heap ~config:cfg () in
    let keep = Handle.create h Word.nil in
    let baseline = Heap.live_words h in
    for i = 0 to n - 1 do
      let key = Obj.cons h (fx i) Word.nil in
      let value = Obj.cons h key (fx i) in
      (* value references key *)
      let entry =
        if ephemeron then Obj.ephemeron_cons h key value else Obj.weak_cons h key value
      in
      Handle.set keep (Obj.cons h entry (Handle.get keep))
    done;
    (* All keys dropped (only the entries themselves are rooted). *)
    full_collect h;
    full_collect h;
    let retained = Heap.live_words h - baseline in
    let s = (Heap.stats h).Stats.total in
    (retained, s.Stats.ephemerons_broken, s.Stats.weak_pointers_broken)
  in
  let weak_ret, _, weak_broken = run ~ephemeron:false in
  let eph_ret, eph_broken, _ = run ~ephemeron:true in
  table
    ~header:[ "entry kind"; "entries"; "words retained"; "entries broken" ]
    [
      [ "weak pair (key in value leaks)"; string_of_int n; string_of_int weak_ret; string_of_int weak_broken ];
      [ "ephemeron"; string_of_int n; string_of_int eph_ret; string_of_int eph_broken ];
    ];
  print_endline
    "  -> weak pairs keep every key alive through their own values;\n\
    \     ephemerons reclaim everything but the table spine."

(* ================================================================== *)
(* E13: why generation-based at all — generational vs two-space        *)

let e13 () =
  section "E13  generational (paper) vs non-generational two-space collection";
  print_endline
    "  Same workload — a long-lived structure plus heavy short-lived churn —\n\
    \  under the paper's generational schedule and under a two-space collector\n\
    \  (max_generation = 0, every collection copies all live data).";
  let live_pairs = 50_000 and churn_rounds = 50 and churn_per_round = 20_000 in
  let run ~max_generation =
    let config = Config.v ~max_generation ~gen0_trigger_words:(64 * 1024) () in
    let h = make_heap ~config () in
    let keep, _ = alloc_rooted_pairs h live_pairs in
    (* settle the long-lived data *)
    for _ = 0 to max_generation do
      ignore (Runtime.collect_auto h)
    done;
    let t0 = Unix.gettimeofday () in
    for _round = 1 to churn_rounds do
      for i = 0 to churn_per_round - 1 do
        ignore (Obj.cons h (fx i) Word.nil)
      done;
      ignore (Runtime.collect_auto h)
    done;
    let elapsed_ms = (Unix.gettimeofday () -. t0) *. 1e3 in
    let s = (Heap.stats h).Stats.total in
    ignore keep;
    (s.Stats.collections, s.Stats.words_copied, elapsed_ms)
  in
  let gcol, gcop, gms = run ~max_generation:4 in
  let tcol, tcop, tms = run ~max_generation:0 in
  table
    ~header:
      [ "collector"; "collections"; "total words copied"; "total GC+churn ms" ]
    [
      [ "generational (5 gens, radix 4)"; string_of_int gcol; string_of_int gcop;
        Printf.sprintf "%.1f" gms ];
      [ "two-space (1 gen)"; string_of_int tcol; string_of_int tcop;
        Printf.sprintf "%.1f" tms ];
    ];
  print_endline
    "  -> the two-space collector re-copies the long-lived data at every\n\
    \     collection; the generational schedule touches it only on the rare\n\
    \     older-generation collections — the premise the guardian machinery\n\
    \     is designed not to spoil (see E1)."

(* ================================================================== *)
(* E14: card-marked remembered set — dirty-scan work vs segment size   *)

let e14 () =
  section
    "E14  card-marked remembered set: dirty-scan work scales with mutated \
     cards, not segment size";
  print_endline
    "  One old-to-young store is made into each of 32 old segments; a minor\n\
    \  GC must then scan exactly the mutated cards.  Under the pre-card\n\
    \  segment-granular remembered set the scan work would be the whole used\n\
    \  part of every dirty segment (the 'candidate words' column).";
  let nvecs = 32 in
  let rows =
    List.map
      (fun seg_words ->
        let config =
          Config.v ~segment_words:seg_words ~max_generation:3 ~card_words:512 ()
        in
        let h = make_heap ~config () in
        (* One vector per segment: each nearly fills its segment. *)
        let vlen = seg_words - 2 in
        let keep = Handle.create h Word.nil in
        for _ = 1 to nvecs do
          let v = Obj.make_vector h ~len:vlen ~init:(fx 0) in
          Handle.set keep (Obj.cons h v (Handle.get keep))
        done;
        (* Promote the vectors old (generation 2). *)
        ignore (Collector.collect h ~gen:0);
        ignore (Collector.collect h ~gen:1);
        (* Mutate exactly one slot per old segment with a young pointer. *)
        let rec each l =
          if not (Word.equal l Word.nil) then begin
            let v = Obj.car h l in
            Obj.vector_set h v (vlen / 2) (Obj.cons h (fx 1) Word.nil);
            each (Obj.cdr h l)
          end
        in
        each (Handle.get keep);
        (* Some young churn, then the minor collection being measured. *)
        for i = 0 to 999 do
          ignore (Obj.cons h (fx i) Word.nil)
        done;
        let (_ : Collector.outcome), minor_us =
          time_once (fun () -> Collector.collect h ~gen:0)
        in
        let st = (Heap.stats h).Stats.last in
        ignore keep;
        let cards_per_seg =
          float_of_int st.Stats.cards_scanned
          /. float_of_int (max 1 st.Stats.dirty_segments_scanned)
        in
        let ratio =
          float_of_int st.Stats.card_words_swept
          /. float_of_int (max 1 st.Stats.dirty_candidate_words)
        in
        Gc_report.add_extra
          (Printf.sprintf "e14_words_ratio_seg%d" seg_words)
          ratio;
        Gc_report.add_extra
          (Printf.sprintf "e14_cards_per_segment_seg%d" seg_words)
          cards_per_seg;
        [
          string_of_int seg_words;
          string_of_int st.Stats.dirty_segments_scanned;
          string_of_int st.Stats.cards_scanned;
          Printf.sprintf "%.2f" cards_per_seg;
          string_of_int st.Stats.card_words_swept;
          string_of_int st.Stats.dirty_candidate_words;
          Printf.sprintf "%.4f" ratio;
          fmt_us minor_us;
        ])
      [ 2048; 8192; 32768 ]
  in
  table
    ~header:
      [
        "segment words";
        "dirty segs";
        "cards scanned";
        "cards/seg";
        "words swept";
        "candidate words";
        "ratio";
        "minor GC us";
      ]
    rows;
  print_endline
    "  -> cards/seg stays ~1 and the swept/candidate ratio falls with the\n\
    \     segment size: dirty-scan work tracks mutated cards, not segments.";
  (* The write barrier itself, timed: pointer stores into a young segment
     (fast path: one compare) vs repeated old-to-young stores (card mark). *)
  subsection "write-barrier fast vs slow path (Bechamel, ns/store)";
  let h = make_heap ~config:cfg () in
  let young = Handle.create h (Obj.cons h (fx 0) Word.nil) in
  let old_v = Handle.create h (Obj.make_vector h ~len:64 ~init:(fx 0)) in
  ignore (Collector.collect h ~gen:0);
  ignore (Collector.collect h ~gen:1);
  let young_pair = Obj.cons h (fx 1) Word.nil in
  Handle.set young young_pair;
  run_tests
    [
      Bechamel.Test.make ~name:"store young->young (barrier fast path)"
        (Bechamel.Staged.stage (fun () ->
             Obj.set_car h (Handle.get young) (fx 2)));
      Bechamel.Test.make ~name:"store old->young (card mark)"
        (Bechamel.Staged.stage (fun () ->
             Obj.vector_set h (Handle.get old_v) 0 (Handle.get young)));
    ]

(* ================================================================== *)
(* E16: heap images — save/load throughput and cold start              *)

let e_image () =
  section "E16  heap images: save/load throughput, size, cold start";
  print_endline
    "  A gbc-image/1 save serializes every live segment with pointers\n\
    \  rewritten to a canonical numbering; a load rebuilds a fresh heap in\n\
    \  that numbering.  Throughput is for in-memory bytes (no disk in the\n\
    \  timed region).";
  let best_of n f =
    let r0, us0 = time_once f in
    let r = ref r0 and best = ref us0 in
    for _ = 2 to n do
      let r', us = time_once f in
      r := r';
      if us < !best then best := us
    done;
    (!r, !best)
  in
  let rows =
    List.map
      (fun n ->
        let h = make_heap ~config:cfg () in
        let keep = Handle.create h Word.nil in
        let g = Handle.create h (Guardian.make h) in
        (* A representative mix: mostly pairs, some vectors and weak pairs,
           a slice of the population registered with a guardian. *)
        for i = 0 to n - 1 do
          let x =
            if i mod 17 = 0 then Obj.make_vector h ~len:8 ~init:(fx i)
            else if i mod 11 = 0 then Obj.weak_cons h (fx i) Word.nil
            else Obj.cons h (fx i) Word.nil
          in
          if i mod 13 = 0 then Guardian.register h (Handle.get g) x;
          Handle.set keep (Obj.cons h x (Handle.get keep))
        done;
        full_collect h;
        let live_bytes = 8 * Heap.live_words h in
        let bytes, save_us =
          best_of 3 (fun () -> Gbc_image.Image.save_string h)
        in
        let size = String.length bytes in
        let loaded, load_us =
          best_of 3 (fun () -> Gbc_image.Image.load_string bytes)
        in
        (* The same load with the post-load Verify sweep disabled — the
           image_verify_on_load knob for trusted images (doc/TUNING.md). *)
        let noverify =
          Config.v ~max_generation:3 ~image_verify_on_load:false ()
        in
        let _, load_nv_us =
          best_of 3 (fun () -> Gbc_image.Image.load_string ~config:noverify bytes)
        in
        let save_mb_s = float_of_int size /. save_us in
        let load_mb_s = float_of_int size /. load_us in
        let load_mw_s =
          float_of_int loaded.Gbc_image.Image.restored_words /. load_us
        in
        Gc_report.add_extra (Printf.sprintf "image_save_mb_s_n%d" n) save_mb_s;
        Gc_report.add_extra (Printf.sprintf "image_load_mb_s_n%d" n) load_mb_s;
        Gc_report.add_extra
          (Printf.sprintf "image_load_noverify_mb_s_n%d" n)
          (float_of_int size /. load_nv_us);
        Gc_report.add_extra
          (Printf.sprintf "image_bytes_per_live_byte_n%d" n)
          (float_of_int size /. float_of_int (max 1 live_bytes));
        [
          string_of_int n;
          string_of_int live_bytes;
          string_of_int size;
          Printf.sprintf "%.2f" (float_of_int size /. float_of_int (max 1 live_bytes));
          fmt_us save_us;
          Printf.sprintf "%.1f" save_mb_s;
          fmt_us load_us;
          Printf.sprintf "%.1f" load_mb_s;
          Printf.sprintf "%.1f" load_mw_s;
          fmt_us load_nv_us;
        ])
      [ 10_000; 40_000; 160_000 ]
  in
  table
    ~header:
      [
        "objects";
        "live bytes";
        "image bytes";
        "ratio";
        "save us";
        "save MB/s";
        "load us";
        "load MB/s";
        "load Mwords/s";
        "load us (no verify)";
      ]
    rows;
  print_endline
    "  -> the image stays within a small constant of live data (segment\n\
    \     padding plus tables); the load column includes the post-load Verify\n\
    \     sweep, which the last column shows can be traded away\n\
    \     (Config.image_verify_on_load).";
  (* Cold start: restoring a checkpointed Scheme system vs replaying its
     startup (prelude compile+eval plus the workload program). *)
  subsection "cold start: restore a Scheme system image vs replay its startup";
  let module Scheme = Gbc_scheme.Scheme in
  let program =
    "(define data\n\
    \  (let loop ((i 0) (acc '()))\n\
    \    (if (= i 3000) acc (loop (+ i 1) (cons (cons i (* i i)) acc)))))\n\
     (define total\n\
    \  (let loop ((l data) (n 0))\n\
    \    (if (null? l) n (loop (cdr l) (+ n 1)))))"
  in
  let replay () =
    let m = Scheme.create () in
    ignore (Scheme.Machine.eval_string m program);
    m
  in
  let m1, replay_us = best_of 3 (fun () -> replay ()) in
  let path = Filename.temp_file "gbc_bench" ".img" in
  Scheme.save_image m1 path;
  let img_bytes = (Unix.stat path).Unix.st_size in
  let m2, restore_us = best_of 3 (fun () -> Scheme.load_image path) in
  let trusted = Config.v ~image_verify_on_load:false () in
  let m3, restore_nv_us =
    best_of 3 (fun () -> Scheme.load_image ~config:trusted path)
  in
  let a = Scheme.eval m1 "total" and b = Scheme.eval m2 "total" in
  if a <> b then Printf.printf "  !! restored system disagrees: %s vs %s\n" a b;
  Scheme.Machine.dispose m1;
  Scheme.Machine.dispose m2;
  Scheme.Machine.dispose m3;
  Sys.remove path;
  Gc_report.add_extra "image_cold_start_us" restore_us;
  Gc_report.add_extra "image_cold_start_noverify_us" restore_nv_us;
  Gc_report.add_extra "image_replay_us" replay_us;
  Gc_report.add_extra "image_cold_start_speedup" (replay_us /. restore_nv_us);
  table
    ~header:[ "startup"; "us"; "notes" ]
    [
      [ "replay (create + prelude + program)"; fmt_us replay_us; "compiles and runs everything" ];
      [
        "restore from image";
        fmt_us restore_us;
        Printf.sprintf "%d image bytes, result %s" img_bytes b;
      ];
      [
        "restore, verify off (trusted image)";
        fmt_us restore_nv_us;
        "CRC still checked";
      ];
    ];
  Printf.printf "  -> a trusted-image cold start is %.1fx the replay speed.\n"
    (replay_us /. restore_nv_us)

let usage =
  "usage: main.exe [--json-out PATH] [--filter SUBSTR]\n\
  \  --json-out PATH   write the GC telemetry report to PATH\n\
  \                    (default BENCH_gc.json)\n\
  \  --filter SUBSTR   run only benchmarks whose name contains SUBSTR"

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let () =
  let json_out = ref "BENCH_gc.json" in
  let filter = ref "" in
  let rec parse = function
    | [] -> ()
    | ("--help" | "-h") :: _ ->
        print_endline usage;
        exit 0
    | "--json-out" :: path :: rest when String.length path > 0 ->
        json_out := path;
        parse rest
    | [ "--json-out" ] ->
        prerr_endline "bench: --json-out requires a path argument";
        prerr_endline usage;
        exit 2
    | "--filter" :: sub :: rest when String.length sub > 0 ->
        filter := sub;
        parse rest
    | [ "--filter" ] ->
        prerr_endline "bench: --filter requires a substring argument";
        prerr_endline usage;
        exit 2
    | arg :: _ ->
        Printf.eprintf "bench: unknown argument %s\n" arg;
        prerr_endline usage;
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  print_endline
    "Guardians in a Generation-Based Garbage Collector (PLDI 1993) — benchmark \
     harness";
  print_endline
    "Counters are simulated-heap work units (words copied, entries visited,\n\
     list cells scanned); times are host wall-clock.";
  let run name f = if contains name !filter then benchmark name f in
  run "e1" e1;
  run "e2" e2;
  run "e3" e3;
  run "e4" e4;
  run "e5" e5;
  run "e6" e6;
  run "e7" e7;
  run "e8" e8;
  run "e9" e9;
  run "e12" e12;
  run "e13" e13;
  run "e14" e14;
  run "image" e_image;
  write_gc_json !json_out;
  Printf.printf "\nDone.  GC telemetry written to %s.\n" !json_out;
  print_endline "See EXPERIMENTS.md for the paper-vs-measured discussion."
