(** Heap invariant verifier: a debugging walk over the whole heap checking
    the structural invariants the collector relies on — segment table
    sanity, object parse, pointer validity, space discipline, the
    remembered-set invariant, the card crossing map, and protected-list
    well-formedness. *)

type error = { what : string; where : string }

val verify : Heap.t -> error list
(** Empty when the heap is consistent.  Must not be called during a
    collection. *)

val check_exn : Heap.t -> unit
(** @raise Failure listing every violation. *)
