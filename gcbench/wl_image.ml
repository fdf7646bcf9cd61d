(* image-restart: a Scheme system holding seeded data records, a guardian
   with pending (resurrected, not yet retrieved) entries, weak pairs and
   ephemerons is built at set-up.  Each op checkpoints it with
   [Scheme_image.save_string], restores it with [load_string] (default
   config, so [Verify] runs on load), saves the restored system again,
   runs [img-check] there -- it drains the guardian and sums the data --
   and disposes of the restored machine.  Everything stays in memory.

   [img-check] also allocates and drops a vector as large as the
   collect trigger, so every restored system runs one collection of its
   own.

   Oracles: [img-check]'s result against a value computed in OCaml from
   the seed, and save -> load -> save byte identity. *)

open Gbc_runtime
open Gbc_scheme
open Util

let records = 1000
let pending = 200
let modulus = 1000003

let code =
  {|
(define img-g (make-guardian))
(define img-weak '())
(define img-eph '())
(define (img-setup! data n)
  (let loop ([i 0])
    (if (< i n) (begin (img-g (cons i (* i i))) (loop (+ i 1)))))
  (for-each (lambda (r) (if (= (modulo (vector-ref r 0) 10) 0) (img-g r))) data)
  (set! img-weak
        (map (lambda (r)
               (weak-cons (if (= (modulo (vector-ref r 0) 4) 0) r (list (vector-ref r 0))) 0))
             data))
  (set! img-eph
        (map (lambda (r) (ephemeron-cons r (vector-ref r 1)))
             (filter (lambda (r) (odd? (vector-ref r 0))) data))))
(define (img-check)
  (let* ([drained (let loop ([x (img-g)] [n 0] [s 0])
                    (if x (loop (img-g) (+ n 1) (+ s (car x))) (cons n s)))]
         [weak-live (fold-left (lambda (acc w) (if (car w) (+ acc 1) acc)) 0 img-weak)]
         [eph-sum (fold-left (lambda (acc e) (+ acc (cdr e))) 0 img-eph)]
         [data-sum (fold-left (lambda (acc r)
                                (modulo (+ (* acc 7) (vector-ref r 1)
                                           (string-length (vector-ref r 2)))
                                        1000003))
                              0 img-data)]
         [ids (map (lambda (r) (vector-ref r 0)) img-data)]
         [filler (begin (make-vector 65536 0) 65536)])
    (+ (car drained) (* 3 (cdr drained)) (* 5 weak-live) (* 7 eph-sum) (* 11 data-sum)
       (length ids) filler)))
|}

let setup ~seed ~traced =
  let rng = Rng.create seed in
  let data =
    Array.init records (fun id ->
        let name = String.init (4 + Rng.int rng 12) (fun _ -> Char.chr (97 + Rng.int rng 26)) in
        (id, Rng.int rng 100000, name))
  in
  let expected =
    let weak_live = ref 0 and eph = ref 0 and sum = ref 0 in
    Array.iter
      (fun (id, v, s) ->
        if id mod 4 = 0 then incr weak_live;
        if id land 1 = 1 then eph := !eph + v;
        sum := ((!sum * 7) + v + String.length s) mod modulus)
      data;
    let drained_sum = pending * (pending - 1) / 2 in
    pending + (3 * drained_sum) + (5 * !weak_live) + (7 * !eph) + (11 * !sum) + records + 65536
  in
  let m = Scm.create ~traced in
  let h = Machine.heap m in
  Meter.tracked := [ h ];
  Scm.load m code;
  let sexpr =
    Sexpr.list_of
      (Array.to_list
         (Array.map
            (fun (id, v, s) -> Sexpr.Vector [| Sexpr.Int id; Sexpr.Int v; Sexpr.Str s |])
            data))
  in
  Machine.define_global m "img-data" (Machine.materialize m sexpr);
  Scm.load m (Printf.sprintf "(img-setup! img-data %d)" pending);
  (* Everything to the oldest generation: the dropped registrations become
     pending and the weak pairs to dropped lists break. *)
  ignore (Runtime.collect ~gen:(Heap.max_generation h) h);
  let reference = Scheme_image.save_string m in
  let loads = Samples.create () in
  let verify_s = Samples.create () in
  let op = ref 0 in
  let batch () =
    Spans.set_op !op;
    incr op;
    (try
       let sp = Spans.enter "image.save" in
       let bytes = Scheme_image.save_string m in
       Spans.leave ~calls:(String.length bytes) sp;
       let sp = Spans.enter "image.load" in
       let t0 = now () in
       let m2 = Scheme_image.load_string ~install:Primitives.install bytes in
       let t1 = now () in
       Spans.leave_at sp t1;
       if !Meter.timing then Samples.add loads (t1 -. t0);
       let h2 = Machine.heap m2 in
       Meter.tracked := [ h; h2 ];
       Meter.adopt ~traced h2;
       let sp = Spans.enter "image.save" in
       let again = Scheme_image.save_string m2 in
       Spans.leave ~calls:(String.length again) sp;
       let sp = Spans.enter "machine.run" in
       let r = Machine.apply_closure m2 (Option.get (Machine.lookup_global m2 "img-check")) [] in
       Spans.leave sp;
       Workload.fail_if
         (not
            (String.equal bytes reference && String.equal again bytes && Word.is_fixnum r
           && Word.to_fixnum r = expected));
       Meter.sample_peak ();
       Machine.dispose m2;
       Meter.retire h2;
       Meter.release h2;
       Meter.tracked := [ h ]
     with _ ->
       Spans.unwind ();
       Meter.tracked := [ h ];
       incr Workload.failed);
    1
  in
  let finish () =
    (* [Verify] passes on freshly restored heaps, timed on their own. *)
    let clean = ref true in
    for _ = 1 to 5 do
      let l = Gbc_image.Image.load_string reference in
      let t0 = now () in
      let errs = Verify.verify l.Gbc_image.Image.heap in
      Samples.add verify_s (now () -. t0);
      clean := !clean && errs = []
    done;
    [ ("Verify.verify on restored heaps = []", !clean) ]
  in
  let ms p = 1e3 *. percentile (Samples.to_array loads) p in
  {
    Workload.batch;
    batch_ops = 1;
    finish;
    report =
      (fun () ->
        [
          { Workload.name = "restore_p50_ms"; value = ms 50.; unit = "ms"; exact = false };
          { Workload.name = "restore_p90_ms"; value = ms 90.; unit = "ms"; exact = false };
          { Workload.name = "image.bytes"; value = float (String.length reference); unit = "bytes";
            exact = true };
        ]);
    counters = (fun () -> []);
    layer =
      (fun () ->
        [
          ("image.bytes", float (String.length reference));
          ("image.live_bytes", float (8 * Heap.live_words h));
          ("verify.s", median (Samples.to_array verify_s));
        ]);
  }

let workload = { Workload.name = "image-restart"; setup }
