(** [register-for-finalization] — Dickey's proposal (paper Section 2).

    An object is registered together with a thunk; the thunk is invoked
    automatically {e during garbage collection} once the object has been
    reclaimed.  The paper's criticisms, all reproduced here:

    - the thunk runs as part of the collection process and therefore must
      not allocate — mutator allocation raises {!Heap.Allocation_forbidden}
      while thunks run;
    - the object itself is gone: only the closure's captured data is
      available for clean-up;
    - the program has no control over {e when} thunks run;
    - errors raised by a thunk must be suppressed so that the remaining
      thunks still run (they are collected in [errors] instead).

    The registry is scanned in its entirety at every collection — cost
    proportional to registrations, not to deaths (unlike guardians). *)

open Gbc_runtime

type entry = { mutable word : Word.t; mutable alive : bool; thunk : unit -> unit }

type t = {
  heap : Heap.t;
  mutable entries : entry list;
  mutable pending : entry list;  (** died this collection; thunks to run *)
  scanner_id : int;
  hook_id : int;
  mutable scan_steps : int;
  mutable finalized : int;
  mutable errors : exn list;
}

let create heap =
  let t_ref = ref None in
  let scanner_id =
    Heap.add_callback heap (Heap.Weak_scanner (fun lookup ->
        match !t_ref with
        | None -> ()
        | Some t ->
            let survivors = ref [] and dead = ref [] in
            List.iter
              (fun e ->
                t.scan_steps <- t.scan_steps + 1;
                if e.alive then begin
                  match lookup e.word with
                  | Some w ->
                      e.word <- w;
                      survivors := e :: !survivors
                  | None ->
                      e.alive <- false;
                      dead := e :: !dead
                end)
              t.entries;
            t.entries <- List.rev !survivors;
            t.pending <- List.rev_append !dead t.pending))
  in
  let hook_id =
    Heap.add_callback heap (Heap.After_gc (fun h ->
        match !t_ref with
        | None -> ()
        | Some t ->
            let pending = t.pending in
            t.pending <- [];
            (* Thunks run "as part of the garbage collection process": no
               heap allocation, and errors are swallowed so the remaining
               thunks still run. *)
            h.Heap.alloc_forbidden <- true;
            Fun.protect
              ~finally:(fun () -> h.Heap.alloc_forbidden <- false)
              (fun () ->
                List.iter
                  (fun e ->
                    t.finalized <- t.finalized + 1;
                    try e.thunk () with exn -> t.errors <- exn :: t.errors)
                  pending)))
  in
  let t =
    {
      heap;
      entries = [];
      pending = [];
      scanner_id;
      hook_id;
      scan_steps = 0;
      finalized = 0;
      errors = [];
    }
  in
  t_ref := Some t;
  t

let dispose t =
  Heap.remove_callback t.heap t.scanner_id;
  Heap.remove_callback t.heap t.hook_id

(** Register [obj]: [thunk] runs during the collection that reclaims it. *)
let register t obj ~thunk = t.entries <- { word = obj; alive = true; thunk } :: t.entries

let registered_count t = List.length t.entries
let scan_steps t = t.scan_steps
let finalized t = t.finalized
let errors t = List.rev t.errors
