(* scheme-compute: the full Scheme system.  Each op hands one seeded data
   chunk to the VM through [Machine.materialize] / [Machine.define_global]
   and calls the Scheme procedure [bench-op] once.  [bench-op] builds
   lists, runs [map] / [fold-left] / [sort] over closures, updates a
   vector in place, and makes a few inserts into a Figure-1 guarded hash
   table whose keys fall out of a 64-slot window.

   The oracle recomputes every op's result in OCaml: the chunk-only part
   once per chunk at set-up, the table part per op from a mirror of the
   key window. *)

open Gbc_runtime
open Gbc_scheme
open Util

let chunk_len = 200
let chunks = 64
let keys_per_op = 4
let probes_per_op = 4
let window = 64
let modulus = 1000003

let program =
  {|
(define %win (make-vector 64 #f))
(define %tbl (make-guarded-hash-table (lambda (k n) (modulo (car k) n)) 127))
(define (%tbl-step ids probes)
  (let ([s (fold-left (lambda (acc id)
                        (let ([key (cons id 'key)])
                          (vector-set! %win (modulo id 64) key)
                          (+ acc (%tbl key id))))
                      0 ids)])
    (fold-left (lambda (acc slot)
                 (let ([key (vector-ref %win slot)])
                   (if key (+ acc (%tbl key -1)) acc)))
               s probes)))
(define bench-chunk #f)
(define (bench-op)
  (let* ([c bench-chunk]
         [xs (vector-ref c 0)]
         [k (vector-ref c 3)]
         [ys (map (lambda (x) (+ (* x k) 1)) xs)]
         [s1 (fold-left (lambda (acc y) (modulo (+ (* acc 31) y) 1000003)) 0 ys)]
         [s2 (let loop ([l (sort < xs)] [i 1] [acc 0])
               (if (null? l)
                   acc
                   (loop (cdr l) (+ i 1) (modulo (+ acc (* i (car l))) 1000003))))]
         [v (list->vector xs)]
         [n (vector-length v)]
         [s3 (let loop ([i 0] [acc 0])
               (if (= i n)
                   acc
                   (begin
                     (vector-set! v i (+ (vector-ref v i) (vector-ref v (modulo (* i 7) n))))
                     (loop (+ i 1) (modulo (+ (* acc 17) (vector-ref v i)) 1000003)))))]
         [s4 (%tbl-step (vector-ref c 1) (vector-ref c 2))])
    (modulo (+ s1 (* 3 s2) (* 7 s3) (* 11 s4)) 1000003)))
|}

type chunk = {
  data : Sexpr.t;
  ids : int array;
  probes : int array;
  partial : int;  (* s1 + 3 s2 + 7 s3, computed in OCaml *)
}

(* The chunk-only part of [bench-op], independently in OCaml. *)
let expected_partial xs k =
  let s1 = List.fold_left (fun acc x -> ((acc * 31) + ((x * k) + 1)) mod modulus) 0 xs in
  let s2, _ =
    List.fold_left
      (fun (acc, i) x -> ((acc + (i * x)) mod modulus, i + 1))
      (0, 1) (List.sort compare xs)
  in
  let v = Array.of_list xs in
  let n = Array.length v in
  let s3 = ref 0 in
  for i = 0 to n - 1 do
    v.(i) <- v.(i) + v.(i * 7 mod n);
    s3 := ((!s3 * 17) + v.(i)) mod modulus
  done;
  s1 + (3 * s2) + (7 * !s3)

let make_chunk rng c =
  let xs = List.init chunk_len (fun _ -> Rng.int rng 10000) in
  let k = 1 + Rng.int rng 99 in
  let ids = Array.init keys_per_op (fun j -> (c * keys_per_op) + j) in
  let probes = Array.init probes_per_op (fun _ -> Rng.int rng window) in
  let ints a = Sexpr.list_of (Array.to_list (Array.map (fun i -> Sexpr.Int i) a)) in
  {
    data =
      Sexpr.Vector
        [|
          Sexpr.list_of (List.map (fun x -> Sexpr.Int x) xs); ints ids; ints probes; Sexpr.Int k;
        |];
    ids;
    probes;
    partial = expected_partial xs k;
  }

let setup ~seed ~traced =
  let m = Scm.create ~traced in
  let h = Machine.heap m in
  Meter.tracked := [ h ];
  Scm.load m program;
  let rng = Rng.create seed in
  let pool = Array.init chunks (make_chunk rng) in
  let win = Array.make window (-1) in
  let ops = ref 0 in
  let minor_words = ref 0. in
  let expected c =
    let s4 = ref 0 in
    Array.iter
      (fun id ->
        win.(id mod window) <- id;
        s4 := !s4 + id)
      c.ids;
    Array.iter (fun slot -> if win.(slot) >= 0 then s4 := !s4 + win.(slot)) c.probes;
    (c.partial + (11 * !s4)) mod modulus
  in
  let batch () =
    let c = pool.(!ops mod chunks) in
    Spans.set_op !ops;
    incr ops;
    (try
       let sp = Spans.enter "machine.materialize" in
       Machine.define_global m "bench-chunk" (Machine.materialize m c.data);
       Spans.leave sp;
       let f = Option.get (Machine.lookup_global m "bench-op") in
       let sp = Spans.enter "machine.run" in
       let w0 = if sp >= 0 then Gc.minor_words () else 0. in
       let r = Machine.apply_closure m f [] in
       if sp >= 0 then minor_words := !minor_words +. (Gc.minor_words () -. w0);
       Spans.leave sp;
       let sp = Spans.enter "bench.check" in
       let want = expected c in
       Workload.fail_if (not (Word.is_fixnum r && Word.to_fixnum r = want));
       Spans.leave sp
     with _ ->
       Spans.unwind ();
       Machine.reset m;
       incr Workload.failed);
    1
  in
  {
    Workload.batch;
    batch_ops = 1;
    finish = (fun () -> []);
    report = (fun () -> []);
    (* The Figure-1 table is the prelude's Scheme closure; its guardian is
       the only one polled here, so guardian hits are its expunges. *)
    counters = (fun () -> [ ("guarded_table.expunged", (Heap.stats h).Stats.guardian_hits) ]);
    layer = (fun () -> [ ("machine.host_minor_words", !minor_words) ]);
  }

let workload = { Workload.name = "scheme-compute"; setup }
